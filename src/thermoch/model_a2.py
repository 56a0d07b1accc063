"""Semi-implicit pseudospectral marching for the fixed-background model.

The evolved system, after expanding the temperature equation against the
entropy's chain rule, reads

    dphi/dt - alpha lap(dphi/dt) + eps*theta_bar lap^2(phi) = f1(phi, theta)
    k_b dtheta/dt - kappa lap(theta) = f2(phi, theta, rates)

where f1 collects the variable-coefficient fourth-order correction and the
bulk term, and f2 collects the rate-quadratic heating, the chain-rule bracket
of the entropy's bulk part, and the dissipation density.  Both constant-
coefficient linear operators are inverted exactly per Fourier mode; f1 and f2
are treated explicitly.  Within a step the phase field is updated first, its
fresh backward difference feeds f2, and the temperature rate enters f2 lagged
by one step (zero initially) — a Gauss-Seidel staggering consistent with the
scheme's first-order accuracy.

The zero mode of the phase field is preserved exactly: f1 is a total
Laplacian, so its mean vanishes identically and the update is skipped for
k = 0, making mass conservation a structural property rather than a
round-off accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticsRow, audit
from .grid import Field, GridSpec, dealias_array, fftn, grad_arrays, ifftn_real, laplacian_array
from .thermo import (
    ModelParams,
    PositivityError,
    SingularityError,
    ThermoState,
    _argmin_index,
    _bracket_b,
    bulk_potential,
    chemical_potential,
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
    dealias: bool = True

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
    """Recorded snapshots of one run, append-only while marching.

    termination is "completed", "positivity", "singularity" or "non_finite";
    message is the text of the error that stopped an early run.
    """

    times: np.ndarray
    states: list[ThermoState]
    diagnostics: list[DiagnosticsRow]
    termination: str = "completed"
    message: str = ""

    def __post_init__(self):
        if len(self.times) != len(self.states) or len(self.times) != len(self.diagnostics):
            raise ValueError("times, states and diagnostics must align")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        grids = {s.grid for s in self.states}
        if len(grids) > 1:
            raise ValueError("all states must share one grid")


def rhs_f1(state: ThermoState, p: ModelParams, dealias: bool = True) -> Field:
    """Explicit phase forcing: the stiff eps*theta_bar lap^2 part is excluded.

    f1 = -eps lap((theta - theta_bar) lap(phi)) + lap(dW/dphi / (eps theta));
    the two outer Laplacians fuse into one.  Products are formed in real
    space and projected by the two-thirds rule before differentiating.
    """
    grid = state.grid
    phi, theta = state.phi.values, state.theta.values
    lap_phi = laplacian_array(grid, phi)
    _, dw_dphi, _ = bulk_potential(phi, theta, p)
    inner_term = dw_dphi / (p.eps * theta) - p.eps * (theta - p.theta_bar) * lap_phi
    if dealias:
        inner_term = dealias_array(grid, inner_term)
    return Field(grid, laplacian_array(grid, inner_term))


def rhs_f2(
    state: ThermoState,
    dphi_dt: Field,
    p: ModelParams,
    dealias: bool = True,
) -> Field:
    """Explicit heat forcing for the expanded temperature equation.

    Four groups: alpha*(dphi/dt)^2; eps*theta grad(dphi/dt).grad(phi); the
    chain-rule bracket -theta*(dB/dphi dphi/dt + dB/dtheta dtheta/dt) with
    the lagged temperature rate from the state cache; and the dissipation
    square |alpha grad(dphi/dt) + grad(mu)|^2 from thermo.force_square, which
    for model "a1" carries the transported-entropy force s*grad(theta)*phi_reg.
    The conduction part of the entropy production cancels against the
    implicit heat operator and is absent here by construction.
    """
    grid = state.grid
    phi, theta = state.phi.values, state.theta.values
    rate = dphi_dt.values

    grad_phi = grad_arrays(grid, phi)
    grad_rate = grad_arrays(grid, rate)
    mu = chemical_potential(state, p, dealias=dealias)
    grad_mu = grad_arrays(grid, mu.values)

    _, db_dphi, db_dtheta = _bracket_b(phi, theta, p)
    bracket_rate = db_dphi * rate + db_dtheta * state.dtheta_dt_values()

    cross = np.zeros(grid.shape)
    for i in range(grid.dim):
        cross += grad_rate[i] * grad_phi[i]
    force_sq = force_square(state, grad_mu, grad_rate, p)

    out = p.alpha * rate**2 + p.eps * theta * cross - theta * bracket_rate + force_sq
    if dealias:
        out = dealias_array(grid, out)
    return Field(grid, out)


def imex_step(
    state: ThermoState,
    p: ModelParams,
    dt: float,
    *,
    dealias: bool = True,
    f1_extra: np.ndarray | None = None,
    f2_extra: np.ndarray | None = None,
    forced: tuple[Field | None, Field | None] | None = None,
) -> ThermoState:
    """Advance one step; returns the new state with fresh rate caches.

    p.model "isothermal" stops after the phase update and keeps theta;
    "a1" adds the transported-entropy force to the dissipation square (the
    rest of the a1 step comes in through the extras, see model_a1.a1_step).
    ``forced`` replaces the assembled (f1, f2) with prescribed fields (None
    meaning zero) so the bare mode-wise recurrences can be tested against
    scalar closed forms.  ``f1_extra``/``f2_extra`` are added to the
    assembled forcings; the transported-coupling variant is built on them.
    """
    grid = state.grid
    phi, theta = state.phi.values, state.theta.values
    k2 = grid.k_squared

    if forced is not None:
        f1_vals = np.zeros(grid.shape) if forced[0] is None else forced[0].values
    else:
        f1_vals = rhs_f1(state, p, dealias=dealias).values
        if f1_extra is not None:
            f1_vals = f1_vals + f1_extra

    mass_factor = 1.0 + p.alpha * k2
    phi_hat = fftn(grid, phi)
    new_phi_hat = (mass_factor * phi_hat + dt * fftn(grid, f1_vals)) / (
        mass_factor + dt * p.eps * p.theta_bar * k2**2
    )
    origin = (0,) * grid.dim
    new_phi_hat[origin] = phi_hat[origin]
    new_phi = ifftn_real(grid, new_phi_hat)
    rate = (new_phi - phi) / dt

    if p.model == "isothermal":
        return ThermoState(
            Field(grid, new_phi),
            state.theta,
            dphi_dt=Field(grid, rate),
            dtheta_dt=None,
        )

    if forced is not None:
        f2_vals = np.zeros(grid.shape) if forced[1] is None else forced[1].values
    else:
        f2_vals = rhs_f2(state, Field(grid, rate), p, dealias=dealias).values
        if f2_extra is not None:
            f2_vals = f2_vals + f2_extra

    theta_hat = fftn(grid, theta)
    new_theta_hat = (p.k_b * theta_hat + dt * fftn(grid, f2_vals)) / (
        p.k_b + dt * p.kappa * k2
    )
    new_theta = ifftn_real(grid, new_theta_hat)
    tmin = float(np.min(new_theta))
    if tmin <= 0.0:
        loc = _argmin_index(new_theta)
        raise PositivityError(
            f"temperature update lost positivity: min(theta) = {tmin:.6e} "
            f"at index {loc}; aborting from the last valid state",
            state=state,
        )

    return ThermoState(
        Field(grid, new_phi),
        Field(grid, new_theta),
        dphi_dt=Field(grid, rate),
        dtheta_dt=Field(grid, (new_theta - theta) / dt),
    )


def march(
    cfg: SimConfig,
    init: ThermoState,
    step_fn,
) -> Trajectory:
    """Shared marching loop: calls step_fn(state) repeatedly, records
    snapshots every output_every steps (plus the initial and final ones),
    and converts numerical failures into labeled early termination."""
    if init.grid != cfg.grid:
        raise ValueError("initial state grid does not match the configuration")
    p = cfg.params
    e0 = total_energy(init, p)

    times = [0.0]
    states = [init]
    rows = [audit(init, init, cfg.dt, p, step=0, t=0.0, e_ref=e0)]
    termination, message = "completed", ""

    state = init
    for j in range(1, cfg.n_steps + 1):
        prev = state
        try:
            state = step_fn(state)
        except PositivityError as exc:
            termination, message = "positivity", str(exc)
            break
        except SingularityError as exc:
            termination, message = "singularity", str(exc)
            break
        except (ValueError, FloatingPointError) as exc:
            termination, message = "non_finite", str(exc)
            break
        if j % cfg.output_every == 0 or j == cfg.n_steps:
            times.append(j * cfg.dt)
            states.append(state)
            rows.append(audit(prev, state, cfg.dt, p, step=j, t=j * cfg.dt, e_ref=e0))

    return Trajectory(
        times=np.asarray(times),
        states=states,
        diagnostics=rows,
        termination=termination,
        message=message,
    )


def simulate(cfg: SimConfig, init: ThermoState) -> Trajectory:
    """Run the fixed-background model or, for model "isothermal", its
    frozen-temperature reduction; model "a1" runs in model_a1.simulate."""
    if cfg.params.model == "a1":
        raise ValueError("model 'a1' is marched by model_a1.simulate")

    def step(s: ThermoState) -> ThermoState:
        return imex_step(s, cfg.params, cfg.dt, dealias=cfg.dealias)

    return march(cfg, init, step)
