"""Exponential-integrator pseudospectral marching for all three models.

The evolved system, after expanding the temperature equation against the
entropy's chain rule, reads

    dphi/dt - alpha lap(dphi/dt) + eps*theta_bar lap^2(phi) = f1(phi, theta)
    k_b dtheta/dt - kappa lap(theta) = f2(phi, theta, rates)

where f1 = lap P(mu + eps*theta_bar lap(phi)), with mu the state's one
chemical potential (thermo.StateTerms.mu_hat) and P the two-thirds rule,
and f2 collects the rate-quadratic heating, the chain-rule bracket of the
entropy's bulk part, and the dissipation density.  Each equation's linear
part, mass dy/dt + stiffness y (_phase_operator, _heat_operator), is
integrated exactly per Fourier mode with its forcing frozen over the step
(ETD1, exponential time differencing): y_new = decay y + gain f.  The one
set of pairs per (grid, params, dt), _etd_factors, serves the step and
picard's solution map.  Within a step the phase field is updated first, its
rate spectrum gives the dissipative force that f2 squares and the new state
owns (thermo.dissipative_force), and the temperature rate enters f2 lagged
by one step (zero initially) — a Gauss-Seidel staggering consistent with
the scheme's first-order accuracy.

ModelParams.model selects the variant.  "a2" is the system above (the
fixed-background model).  "a1" is the same system plus the transport of
entropy by the mixture velocity u: f1 gains the coupling flux and f2 gains
-div(s u), both stated in thermo (StateTerms.coupling, mixture_velocity).
"isothermal" freezes theta and takes the phase update alone.  imex_step and
simulate serve all three.

The forcings and the propagators return fresh arrays: they write into no
input, no StateTerms term and no cached pair.

The zero mode of the phase field is preserved exactly: f1 is a total
Laplacian, so its mean vanishes identically and the update is skipped for
k = 0 (the step's one override), making mass conservation a structural
property rather than a round-off accident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .diagnostics import DiagnosticsRow, audit
from .grid import Field, GridSpec, dealias_in_place, div_hat, grad_from_hat, irfftn, rfftn
from .thermo import (
    ModelParams,
    NumericalError,
    StateTerms,
    ThermoState,
    _require_invertible_entropy_slope,
    dissipation,
    dissipative_force,
    mixture_velocity,
    total_energy,
)


def run_clock(dt: float, t_end: float, name: str = "dt") -> int:
    """The clock rule of every direct run (SimConfig, PicardConfig): dt in
    (0, 0.5], named name in the message, and t_end a finite whole multiple
    of dt, one step at least.  Returns the step count."""
    if not (0.0 < dt <= 0.5):
        raise ValueError(f"{name} must lie in (0, 0.5], got {dt}")
    if not np.isfinite(t_end):  # round() below would fail without naming it
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < dt:
        raise ValueError("t_end must cover at least one step")
    n = round(t_end / dt)
    if abs(n * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer multiple of dt")
    return n


@dataclass(frozen=True)
class SimConfig:
    """Marching parameters on a run_clock clock, n_steps its step count; the
    grid and physics are carried along.  config.RunConfig extends it."""

    grid: GridSpec
    params: ModelParams
    dt: float
    t_end: float
    output_every: int = 1
    n_steps: int = field(init=False)  # run_clock's step count

    def __post_init__(self):
        object.__setattr__(self, "n_steps", run_clock(self.dt, self.t_end))
        if self.output_every < 1:
            raise ValueError("output_every must be a positive integer")


@dataclass(frozen=True)
class Trajectory:
    """How one run ended: its last valid state and that state's audit row,
    each as a one-item list (states, diagnostics).

    termination is "completed", "positivity", "singularity" or "non_finite";
    message is "step j: " and the text of the error that stopped an early
    run in step j (for a state, its field, grid index and value).  The state
    is the last recorded one, whole (rates and owned terms included,
    thermo.ThermoState), so simulate continues from it bit for bit.  An
    early stop whose last state fails its own audit leaves that state
    unrecorded: states then holds the phi and theta Fields of the last
    recorded state, without its rates.
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
    inner = (p.eps * p.theta_bar * grid.half_lap) * t.phi_hat + t.mu_hat
    return dealias_in_place(grid, inner * grid.half_lap)


def _f2_hat(t: StateTerms, rate: np.ndarray, grad_rate: list[np.ndarray], force) -> np.ndarray:
    """Spectrum of the explicit heat forcing f2 for the phase rate `rate`,
    whose gradient is grad_rate and whose dissipative force is force.

    Three groups: eps*theta grad(rate).grad(phi); the chain-rule bracket
    -theta*(dB/dphi rate + dB/dtheta dtheta/dt) with the lagged temperature
    rate; and thermo.dissipation of this rate and force, which the new
    state owns for the audit's production.  The conduction part of the
    production belongs to the heat operator and is absent by construction.
    """
    grid, p = t.grid, t.p
    _, db_dphi, db_dtheta = t.bracket
    out = grad_rate[0] * t.grad_phi[0]  # theta (eps cross - bracket rate), in place
    for gr, gp in zip(grad_rate[1:], t.grad_phi[1:]):
        out += gr * gp
    out *= p.eps
    out -= db_dphi * rate
    if t.state.dtheta_dt is not None:  # no temperature rate at t = 0
        out -= db_dtheta * t.state.dtheta_dt.values
    out *= t.theta
    out += dissipation(t, rate, force)
    return dealias_in_place(grid, rfftn(grid, out))


def _phase_operator(grid: GridSpec, p: ModelParams):
    """(mass, stiffness) per mode of the phase equation's linear part,
    (1 - alpha lap) dphi/dt + eps theta_bar lap^2 phi, on the half lattice."""
    return 1.0 - p.alpha * grid.half_lap, p.eps * p.theta_bar * grid.half_bilap


def _heat_operator(grid: GridSpec, p: ModelParams):
    """(mass, stiffness) per mode of the heat equation's linear part,
    k_b dtheta/dt - kappa lap(theta); the mass is the scalar k_b."""
    return p.k_b, -p.kappa * grid.half_lap


def _rate(operator) -> np.ndarray:
    """Per-mode decay rate stiffness/mass of an equation's linear part:
    eps*theta_bar k^4 / (1 + alpha k^2) for the phase, kappa k^2 / k_b for
    the heat."""
    mass, stiffness = operator
    return stiffness / mass


@lru_cache(maxsize=4)
def _etd_factors(grid: GridSpec, p: ModelParams, dt: float):
    """The (decay, gain) pairs of the phase and the heat equation for one
    step dt, formed once per (grid, p, dt): imex_step and picard's
    propagators read these arrays and write into none.  A mode of mass y' +
    stiffness y = g, integrated exactly with g frozen, gives y(t + dt) =
    decay y(t) + gain g, with decay = e^{-lam dt}, lam = _rate, and gain =
    (1 - e^{-lam dt})/(lam mass), or dt/mass where lam = 0."""
    pairs = []
    for operator in (_phase_operator(grid, p), _heat_operator(grid, p)):
        lam_dt = _rate(operator) * dt
        damped = lam_dt > 0.0
        weight = np.where(damped, -np.expm1(-lam_dt) / np.where(damped, lam_dt, 1.0), 1.0)
        pairs.append((np.exp(-lam_dt), weight * (dt / operator[0])))
    return tuple(pairs)


def imex_step(t: StateTerms, dt: float) -> StateTerms:
    """Advance t.state by one step of model t.p.model; returns the
    StateTerms of the new state, which has fresh rate caches and owns the
    terms the step formed of it (thermo.ThermoState), the force f2 squared
    included.

    "a2" assembles f1 and f2 and advances both spectra by _etd_factors.  "a1"
    also requires an invertible entropy slope, adds the coupling flux to f1
    and -div(s u) to f2, with u from the force this state owns
    (thermo.mixture_velocity; zero while the state has no rate).
    "isothermal" stops after the phase update and keeps theta.  Every
    spectrum and derived field of the state is formed once, in t (march
    audits with the same t), and f1, f2 reach the propagators as spectra
    under the 2/3 rule.  The returned terms start from the grad phi_new of
    f2's rate gradient.
    """
    grid, p, state = t.grid, t.p, t.state
    a1 = p.model == "a1"
    (phi_decay, phi_gain), (heat_decay, heat_gain) = _etd_factors(grid, p, dt)

    new_phi_hat = _f1_hat(t)
    if a1:
        _require_invertible_entropy_slope(t)
        new_phi_hat += t.coupling_hat
    new_phi_hat *= phi_gain
    new_phi_hat += phi_decay * t.phi_hat
    origin = (0,) * grid.dim
    new_phi_hat[origin] = t.phi_hat[origin]  # f1 has no mean: keep it exactly
    new_phi = irfftn(grid, new_phi_hat)
    rate = (new_phi - t.phi) * (1.0 / dt)  # a scalar reciprocal: no array division

    if p.model == "isothermal":
        new = ThermoState(Field(grid, new_phi), state.theta, dphi_dt=Field(grid, rate))
        new.phi_hat = new_phi_hat
        return StateTerms(new, p)

    grad_phi = grad_from_hat(grid, new_phi_hat)
    grad_rate = [(gn - g) * (1.0 / dt) for gn, g in zip(grad_phi, t.grad_phi)]
    force = dissipative_force(t, (new_phi_hat - t.phi_hat) * (1.0 / dt))
    new_theta_hat = _f2_hat(t, rate, grad_rate, force)
    if a1 and state.dphi_dt is not None:
        new_theta_hat -= div_hat(grid, [t.entropy * u for u in mixture_velocity(t)], mask=True)
    new_theta_hat *= heat_gain
    new_theta_hat += heat_decay * t.theta_hat
    new_theta = irfftn(grid, new_theta_hat)
    new = ThermoState(
        Field(grid, new_phi),
        Field(grid, new_theta),
        dphi_dt=Field(grid, rate),
        dtheta_dt=Field(grid, (new_theta - t.theta) * (1.0 / dt)),
    )
    new.phi_hat, new.theta_hat, new.force = new_phi_hat, new_theta_hat, force
    terms = StateTerms(new, p)
    terms.grad_phi = grad_phi
    return terms


def march(cfg: SimConfig, init: ThermoState, step_fn, sink=None) -> Trajectory:
    """Shared marching loop: calls step_fn(terms) repeatedly with the
    StateTerms of the current state, takes the StateTerms of the next state
    it returns, records snapshots every output_every steps (plus the initial
    and final ones), and converts numerical failures into labeled early
    termination.

    Recording a state audits it, and sink(state, row), when given, is called
    with each recorded state in step order as soon as its row is formed (the
    last valid state of an early stop included); an exception the sink
    raises propagates.  march keeps no recorded state once it has handed it
    on, only the phi and theta Fields of the last one: however many states a
    run records, it holds its current state, the fields (and phi_hat) of the
    one before and those of the last record, and makes states of them only
    for an early stop.  It returns the Trajectory of the last recorded state.

    One StateTerms per state serves the step that starts from the state and
    the audit of the step that produced it; the audit of the next state
    reads only its entropy, so its other formed terms are dropped before
    that audit (the state keeps what it owns, thermo.ThermoState).  A run
    that stops early records its last valid state with its audit row,
    unless it is already recorded.
    Only a thermo.NumericalError stops a run, its label the termination; any
    other exception propagates, a numerical one of the step-0 audit with
    "step 0: " prefixed.
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

    def record(j: int, curr: StateTerms, prev_entropy=None):
        nonlocal last
        with np.errstate(all="ignore"):
            row = audit(curr, cfg.dt, prev_entropy=prev_entropy, e_ref=e0, step=j, t=j * cfg.dt)
        if sink is not None:
            sink(curr.state, row)
        last = (curr.state.phi, curr.state.theta, row)

    try:
        record(0, terms)
    except NumericalError as exc:
        raise type(exc)(f"step 0: {exc}") from None
    termination, message = "completed", ""
    before = None  # (phi, theta, phi_hat) of the state before terms.state
    for j in range(1, cfg.n_steps + 1):
        try:
            recorded = j % cfg.output_every == 0 or j == cfg.n_steps
            with np.errstate(all="ignore"):
                new = step_fn(terms)
                entropy = terms.entropy if recorded else None
            if recorded:
                terms = StateTerms(terms.state, p)  # the audit reads only the entropy
                record(j, new, entropy)
        except NumericalError as exc:
            termination, message = exc.label, f"step {j}: {exc}"
            break
        # a last-state audit reads only before's entropy
        before = (terms.state.phi, terms.state.theta, terms.state.phi_hat)
        terms = new

    state, row = terms.state, last[2]
    if termination != "completed" and row.step != j - 1:
        phi, theta, phi_hat = before
        try:
            prev = ThermoState(phi, theta)
            prev.phi_hat = phi_hat
            with np.errstate(all="ignore"):
                entropy = StateTerms(prev, p).entropy
            record(j - 1, terms, entropy)
            row = last[2]
        except NumericalError:
            # a state whose own audit fails stays unrecorded: the run ends
            # with the fields of the last recorded state
            state, row = ThermoState(*last[:2]), last[2]
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
