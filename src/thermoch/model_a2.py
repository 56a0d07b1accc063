"""Semi-implicit pseudospectral marching for all three models.

The evolved system, after expanding the temperature equation against the
entropy's chain rule, reads

    dphi/dt - alpha lap(dphi/dt) + eps*theta_bar lap^2(phi) = f1(phi, theta)
    k_b dtheta/dt - kappa lap(theta) = f2(phi, theta, rates)

where f1 = lap P(mu + eps*theta_bar lap(phi)), with mu the state's one
chemical potential (thermo.StateTerms.mu_hat) and P the two-thirds rule,
and f2 collects the rate-quadratic heating, the chain-rule bracket
of the entropy's bulk part, and the dissipation density.  Both constant-
coefficient linear operators are inverted exactly per Fourier mode
(phase_update, heat_update); f1 and f2 are treated explicitly.  Within a step
the phase field is updated first, its fresh backward difference feeds f2,
and the temperature rate enters f2 lagged by one step (zero initially) — a
Gauss-Seidel staggering consistent with the scheme's first-order accuracy.

ModelParams.model selects the variant.  "a2" is the system above (the
fixed-background model).  "a1" is the same system plus the transport of
entropy by the mixture velocity: f1 gains the coupling flux and f2 gains
-div(s u), both from model_a1.  "isothermal" freezes theta and takes the
phase update alone.  imex_step and simulate serve all three.

The zero mode of the phase field is preserved exactly: f1 is a total
Laplacian, so its mean vanishes identically and the update is skipped for
k = 0, making mass conservation a structural property rather than a
round-off accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticsRow, audit
from .grid import Field, GridSpec, div_hat, grad_from_hat, irfftn, rfftn
from .model_a1 import _require_invertible_entropy_slope, entropy_transport_hat
from .thermo import (
    ModelParams,
    NonFiniteError,
    PositivityError,
    SingularityError,
    StateTerms,
    ThermoState,
    force_square,
    total_energy,
)


@dataclass(frozen=True)
class SimConfig:
    """Marching parameters; the grid and physics are carried along."""

    grid: GridSpec
    params: ModelParams
    dt: float
    t_end: float
    output_every: int = 1

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.5):
            raise ValueError(f"dt must lie in (0, 0.5], got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError("t_end must cover at least one step")
        if self.output_every < 1:
            raise ValueError("output_every must be a positive integer")
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, abs(self.t_end)):
            raise ValueError("t_end must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(frozen=True)
class Trajectory:
    """How one run ended: its last valid state and that state's audit row,
    each as a one-item list (states, diagnostics).

    termination is "completed", "positivity", "singularity" or "non_finite";
    message is "step j: " and the text of the error that stopped an early
    run in step j (for a state, its field, grid index and value).  The state
    is the last recorded one, whole (rates and carried terms included), so
    simulate continues from it bit for bit.  An early stop whose last state
    fails its own audit leaves that state unrecorded: states then holds the
    phi and theta Fields of the last recorded state, without its rates.
    """

    states: list[ThermoState]
    diagnostics: list[DiagnosticsRow]
    termination: str = "completed"
    message: str = ""


def _f1_hat(t: StateTerms) -> np.ndarray:
    """Spectrum of f1 = lap P(mu + eps theta_bar lap(phi)), the explicit phase
    forcing: lap(mu) of the state's one mu (StateTerms.mu_hat) without the
    stiff eps*theta_bar lap^2 part, under the two-thirds rule P."""
    grid, p = t.grid, t.p
    inner = t.mu_hat + p.eps * p.theta_bar * grid.half_lap * t.phi_hat
    return inner * grid.half_dealias_mask * grid.half_lap


def _f2_hat(t: StateTerms, rate: np.ndarray, grad_rate: list[np.ndarray]) -> np.ndarray:
    """Spectrum of the explicit heat forcing f2 for the phase rate `rate`,
    whose gradient is grad_rate.

    Four groups: alpha*rate^2; eps*theta grad(rate).grad(phi); the chain-rule
    bracket -theta*(dB/dphi rate + dB/dtheta dtheta/dt) with the lagged
    temperature rate; and the dissipation square of thermo.force_square.  The
    conduction part of the production cancels against the implicit heat
    operator and is absent by construction.
    """
    grid, p, theta = t.grid, t.p, t.theta
    db_dphi, db_dtheta = t.bracket_slopes
    bracket_rate = db_dphi * rate + db_dtheta * t.state.dtheta_dt_values()

    cross = sum(gr * gp for gr, gp in zip(grad_rate, t.grad_phi))
    force_sq = force_square(t, t.grad_mu, grad_rate)

    out = p.alpha * rate**2 + p.eps * theta * cross - theta * bracket_rate + force_sq
    return rfftn(grid, out) * grid.half_dealias_mask


def phase_update(grid: GridSpec, p: ModelParams, dt: float, phi_hat, f1_hat) -> np.ndarray:
    """Implicit per-mode solve of the phase equation: the half spectrum of the
    new phi from those of phi and the forcing f1; the k = 0 mode is kept."""
    mass_factor = 1.0 - p.alpha * grid.half_lap
    new_phi_hat = (mass_factor * phi_hat + dt * f1_hat) / (
        mass_factor + dt * p.eps * p.theta_bar * grid.half_bilap
    )
    origin = (0,) * grid.dim
    new_phi_hat[origin] = phi_hat[origin]
    return new_phi_hat


def heat_update(grid: GridSpec, p: ModelParams, dt: float, theta_hat, f2_hat) -> np.ndarray:
    """Implicit per-mode solve of the temperature equation, on half spectra."""
    return (p.k_b * theta_hat + dt * f2_hat) / (p.k_b - dt * p.kappa * grid.half_lap)


def imex_step(t: StateTerms, dt: float) -> ThermoState:
    """Advance t.state by one step of model t.p.model; returns the new state
    with fresh rate caches.

    "a2" assembles f1 and f2 and takes both implicit solves.  "a1" first
    requires an invertible entropy slope, then adds the coupling flux to f1
    and -div(s u) to f2, with u recomputed from this state
    (model_a1.entropy_transport_hat).  "isothermal" stops after the phase
    update and keeps theta.  Every spectrum and derived field of the state
    is formed once, in t (march audits with the same t), and f1, f2 reach
    the solves as spectra under the 2/3 rule.

    f2's rate gradient is (grad phi_new - grad phi)/dt; the new state
    carries it and the other terms the step formed of it (ThermoState.carried).
    """
    grid, p, state = t.grid, t.p, t.state
    a1 = p.model == "a1"

    if a1:
        _require_invertible_entropy_slope(t)
    f1_hat = _f1_hat(t)
    if a1:
        f1_hat = f1_hat + div_hat(grid, t.coupling, mask=True)
    new_phi_hat = phase_update(grid, p, dt, t.phi_hat, f1_hat)
    new_phi = irfftn(grid, new_phi_hat)
    rate = (new_phi - t.phi) / dt

    if p.model == "isothermal":
        new = ThermoState(
            Field(grid, new_phi),
            state.theta,
            dphi_dt=Field(grid, rate),
            dtheta_dt=None,
        )
        new.carried["phi_hat"] = new_phi_hat
        return new

    grad_phi = grad_from_hat(grid, new_phi_hat)
    grad_rate = [(gn - g) / dt for gn, g in zip(grad_phi, t.grad_phi)]
    f2_hat = _f2_hat(t, rate, grad_rate)
    if a1 and state.dphi_dt is not None:
        f2_hat = f2_hat - entropy_transport_hat(t)
    new_theta_hat = heat_update(grid, p, dt, t.theta_hat, f2_hat)
    new_theta = irfftn(grid, new_theta_hat)
    new = ThermoState(
        Field(grid, new_phi),
        Field(grid, new_theta),
        dphi_dt=Field(grid, rate),
        dtheta_dt=Field(grid, (new_theta - t.theta) / dt),
    )
    new.carried.update(
        phi_hat=new_phi_hat, theta_hat=new_theta_hat, grad_phi=grad_phi, grad_rate=grad_rate
    )
    return new


# The errors that end a march early, with their termination labels.
_LABELS = {
    PositivityError: "positivity",
    SingularityError: "singularity",
    NonFiniteError: "non_finite",
}
_NUMERICAL = tuple(_LABELS)


def march(
    cfg: SimConfig,
    init: ThermoState,
    step_fn,
    sink=None,
) -> Trajectory:
    """Shared marching loop: calls step_fn(terms) repeatedly with the
    StateTerms of the current state, records snapshots every output_every
    steps (plus the initial and final ones), and converts numerical failures
    into labeled early termination.

    Recording a state audits it, and sink(state, row), when given, is called
    with each recorded state in step order as soon as its row is formed (the
    last valid state of an early stop included); an exception the sink
    raises propagates.  march keeps no recorded state once it has handed it
    on, only the phi and theta Fields of the last one: however many states a
    run records, it holds its current state, the fields of the one before
    and those of the last record.  It returns the Trajectory of the last
    recorded state.

    One StateTerms per state serves the step that starts from the state and
    the audit of the step that produced it; a state's terms are dropped,
    all but its entropy and the terms it carries, before the next audit.  A
    recorded state drops its carried grad_phi, which StateTerms re-forms bit
    for bit from the carried phi_hat.  A run that stops early records its
    last valid state with its audit row, unless it is already recorded.
    Only the labeled errors (_NUMERICAL) stop a run; any other exception
    propagates, a labeled one of the step-0 audit with "step 0: " prefixed.
    numpy's floating-point warnings are off while step_fn, StateTerms and
    the audits run, so non-finite values are found by the ThermoState check
    and the audit's row check alone; the sink runs under the caller's error
    state.
    """
    if init.grid != cfg.grid:
        raise ValueError("initial state grid does not match the configuration")
    p = cfg.params
    with np.errstate(all="ignore"):
        terms = StateTerms(init, p)
        e0 = total_energy(terms)
    last = None  # (the phi and theta of the last recorded state, its row)

    def record(j: int, prev: StateTerms, curr: StateTerms):
        nonlocal last
        with np.errstate(all="ignore"):
            row = audit(prev, curr, cfg.dt, e_ref=e0, step=j, t=j * cfg.dt)
        curr.state.carried.pop("grad_phi", None)  # curr keeps its own
        if sink is not None:
            sink(curr.state, row)
        last = (ThermoState(curr.state.phi, curr.state.theta), row)

    try:
        record(0, terms, terms)
    except _NUMERICAL as exc:
        raise type(exc)(f"step 0: {exc}") from None
    termination, message = "completed", ""
    before = init  # the state before terms.state, for a last-state audit
    for j in range(1, cfg.n_steps + 1):
        try:
            with np.errstate(all="ignore"):
                new = StateTerms(step_fn(terms), p)
            if j % cfg.output_every == 0 or j == cfg.n_steps:
                terms.keep_only_entropy()
                record(j, terms, new)
        except _NUMERICAL as exc:
            termination = next(v for k, v in _LABELS.items() if isinstance(exc, k))
            message = f"step {j}: {exc}"
            break
        # the audit reads only before's entropy
        before = ThermoState(terms.state.phi, terms.state.theta)
        if "phi_hat" in terms.state.carried:
            before.carried["phi_hat"] = terms.state.carried["phi_hat"]
        terms = new

    state, row = terms.state, last[1]
    if termination != "completed" and row.step != j - 1:
        try:
            with np.errstate(all="ignore"):
                prev = StateTerms(before, p)
            record(j - 1, prev, terms)
            row = last[1]
        except _NUMERICAL:
            # a state whose own audit fails stays unrecorded: the run ends
            # with the fields of the last recorded state
            state, row = last
    return Trajectory(
        states=[state],
        diagnostics=[row],
        termination=termination,
        message=message,
    )


def simulate(cfg: SimConfig, init: ThermoState, sink=None) -> Trajectory:
    """Run the model cfg.params.model selects ("a2", "a1" or "isothermal")
    with march, sink included; the step runs with numpy's floating-point
    warnings off, the sink under the caller's error state."""
    return march(cfg, init, lambda t: imex_step(t, cfg.dt), sink)
