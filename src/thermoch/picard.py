"""Fixed-point machinery for the coupled system near a hot uniform state.

The solution is sought as (phi, theta) = (phi_free + dphi, theta_bar +
dtheta): the free part solves the damped bilaplacian flow with the full
initial phase, and the corrections solve forced linear problems whose
forcings are re-evaluated on the previous iterate.  This module provides
the exact per-mode linear propagators, the seven-term space-time norm that
measures iterates, the Picard loop with contraction diagnostics, and
numerical checks of the linear a-priori estimates backing the construction.

All propagators are diagonal in Fourier space and integrate piecewise-
constant forcing exactly, so the only discretization left is the sampling
of the forcing at the snapshot times (left endpoints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .besov import (
    DyadicPartition,
    SmallnessReport,
    besov_norm,
    chemin_lerner_norm,
    chemin_lerner_norm_vector,
    check_smallness,
)
from .grid import Field, GridSpec, fftn, grad_arrays, ifftn_real, l2_norm, laplacian_array
from .model_a2 import SimConfig, rhs_f1, rhs_f2, simulate
from .thermo import ModelParams, PositivityError, ThermoState

REPORT_CSV_HEADER = "iteration,k_norm,diff_norm,ratio,in_ball"


# --------------------------------------------------------------------------
# exact linear propagators (diagonal in Fourier space)


def _phi_rates_and_mass(grid: GridSpec, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode decay rate and mass factor of the damped bilaplacian flow.

    The mode equation is (1 + alpha k^2) d/dt y + eps*theta_bar k^4 y = g_k,
    so the rate is eps*theta_bar k^4 / (1 + alpha k^2).
    """
    mass = 1.0 + p.alpha * grid.k_squared
    lam = p.eps * p.theta_bar * grid.k_squared**2 / mass
    return lam, mass


def _theta_rates_and_mass(grid: GridSpec, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode decay rate and mass factor of the linear heat flow."""
    lam = p.kappa * grid.k_squared / p.k_b
    mass = np.full(grid.shape, p.k_b)
    return lam, mass


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1d array")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    return times


def _check_series(series, grid: GridSpec, times: np.ndarray, label: str) -> None:
    if len(series) != times.size:
        raise ValueError(f"{label} series and times length mismatch")
    for f in series:
        if f.grid != grid:
            raise ValueError(f"{label} series lives on a different grid")


def free_evolution(phi0: Field, p: ModelParams, times) -> list[Field]:
    """Unforced damped bilaplacian flow, exact per mode.

    Every mode decays by exp(-t * eps*theta_bar k^4 / (1 + alpha k^2)); the
    zero mode is constant for all time.
    """
    times = _check_times(times)
    grid = phi0.grid
    lam, _ = _phi_rates_and_mass(grid, p)
    hat0 = fftn(grid, phi0.values)
    return [Field(grid, ifftn_real(grid, hat0 * np.exp(-t * lam))) for t in times]


def _etd_march(
    grid: GridSpec,
    y0: Field,
    forcing,
    lam: np.ndarray,
    mass: np.ndarray,
    times: np.ndarray,
) -> list[Field]:
    """Exact mode-wise integration with forcing frozen per interval.

    Over [t_n, t_{n+1}] each mode solves y' = -lam y + g_n / mass, hence
    y_{n+1} = e^{-lam dt} y_n + (1 - e^{-lam dt})/lam * g_n/mass, with the
    lam -> 0 limit dt * g_n/mass on undamped modes.
    """
    out = [y0]
    y_hat = fftn(grid, y0.values)
    positive = lam > 0.0
    safe = np.where(positive, lam, 1.0)
    for n in range(times.size - 1):
        dt = times[n + 1] - times[n]
        decay = np.exp(-lam * dt)
        weight = np.where(positive, -np.expm1(-lam * dt) / safe, dt)
        y_hat = decay * y_hat + weight * fftn(grid, forcing[n].values) / mass
        out.append(Field(grid, ifftn_real(grid, y_hat)))
    return out


def linear_phi_solve(g, phi0: Field, p: ModelParams, times) -> list[Field]:
    """Damped bilaplacian flow with forcing, exact for piecewise-constant g."""
    times = _check_times(times)
    grid = phi0.grid
    _check_series(g, grid, times, "forcing")
    lam, mass = _phi_rates_and_mass(grid, p)
    return _etd_march(grid, phi0, g, lam, mass, times)


def linear_theta_solve(h, theta0: Field, p: ModelParams, times) -> list[Field]:
    """Linear heat flow with forcing, exact for piecewise-constant h."""
    times = _check_times(times)
    grid = theta0.grid
    _check_series(h, grid, times, "forcing")
    lam, mass = _theta_rates_and_mass(grid, p)
    return _etd_march(grid, theta0, h, lam, mass, times)


# --------------------------------------------------------------------------
# the seven-term iterate norm


def _backward_rates(series, times: np.ndarray) -> list[Field]:
    """Backward-difference time derivatives; zero on the first snapshot."""
    grid = series[0].grid
    out = [Field(grid, np.zeros(grid.shape))]
    for j in range(1, len(series)):
        dt = times[j] - times[j - 1]
        out.append(Field(grid, (series[j].values - series[j - 1].values) / dt))
    return out


def _gradient_series(series) -> list[tuple[Field, ...]]:
    rows = []
    for f in series:
        comps = grad_arrays(f.grid, f.values)
        rows.append(tuple(Field(f.grid, c) for c in comps))
    return rows


def _bilaplacian(f: Field) -> Field:
    hat = fftn(f.grid, f.values)
    return Field(f.grid, ifftn_real(f.grid, hat * f.grid.k_squared**2))


@dataclass(frozen=True)
class KNormReport:
    """The seven summands measuring one iterate pair, plus their sum.

    Phase correction: supremum-in-time of the order-(dim/2 + 2) norm, time
    integral of the bilaplacian, mean-square rate and rate gradient.
    Temperature correction: supremum-in-time, time integral of the
    laplacian, time integral of the rate.  All spatial norms except the
    first are taken at order dim/2.
    """

    phi_sup: float
    phi_bilap_int: float
    phi_rate_sq: float
    phi_rate_grad_sq: float
    theta_sup: float
    theta_lap_int: float
    theta_rate_int: float

    def __post_init__(self):
        for name, value in self.summands.items():
            if value < 0.0 or not math.isfinite(value):
                raise ValueError(f"summand {name} must be finite and >= 0, got {value}")

    @property
    def summands(self) -> dict[str, float]:
        return {
            "phi_sup": self.phi_sup,
            "phi_bilap_int": self.phi_bilap_int,
            "phi_rate_sq": self.phi_rate_sq,
            "phi_rate_grad_sq": self.phi_rate_grad_sq,
            "theta_sup": self.theta_sup,
            "theta_lap_int": self.theta_lap_int,
            "theta_rate_int": self.theta_rate_int,
        }

    @property
    def total(self) -> float:
        return float(sum(self.summands.values()))


def k_norm(dphi, dtheta, part: DyadicPartition, times) -> KNormReport:
    """Mixed space-time norm of a correction pair sampled on a uniform grid.

    Time derivatives are backward differences of the series (zero on the
    first snapshot, matching corrections that start from rest), so at least
    three snapshots are required for the rate terms to mean anything.
    """
    times = _check_times(times)
    if times.size < 3:
        raise ValueError("need at least 3 snapshots for the iterate norm")
    grid = part.grid
    _check_series(dphi, grid, times, "phase")
    _check_series(dtheta, grid, times, "temperature")
    s_lo = grid.dim / 2.0
    s_hi = s_lo + 2.0

    rate_phi = _backward_rates(dphi, times)
    rate_theta = _backward_rates(dtheta, times)

    return KNormReport(
        phi_sup=chemin_lerner_norm(dphi, times, s_hi, math.inf, part),
        phi_bilap_int=chemin_lerner_norm([_bilaplacian(f) for f in dphi], times, s_lo, 1, part),
        phi_rate_sq=chemin_lerner_norm(rate_phi, times, s_lo, 2, part),
        phi_rate_grad_sq=chemin_lerner_norm_vector(
            _gradient_series(rate_phi), times, s_lo, 2, part
        ),
        theta_sup=chemin_lerner_norm(dtheta, times, s_lo, math.inf, part),
        theta_lap_int=chemin_lerner_norm(
            [Field(grid, laplacian_array(grid, f.values)) for f in dtheta], times, s_lo, 1, part
        ),
        theta_rate_int=chemin_lerner_norm(rate_theta, times, s_lo, 1, part),
    )


# --------------------------------------------------------------------------
# Picard iteration of the solution map


@dataclass(frozen=True)
class PicardConfig:
    """Ball radius, horizon and stopping rules for the fixed-point loop."""

    chi: float
    t_end: float
    n_iter: int = 8
    tol: float = 1e-10
    dt: float | None = None

    def __post_init__(self):
        if self.chi <= 0.0:
            raise ValueError("chi must be positive")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.n_iter < 2:
            raise ValueError("n_iter must be at least 2")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        step = self.t_end / 100.0 if self.dt is None else self.dt
        if step <= 0.0:
            raise ValueError("dt must be positive")
        n = round(self.t_end / step)
        if n < 2 or abs(n * step - self.t_end) > 1e-9 * self.t_end:
            raise ValueError("t_end must be a multiple of dt covering >= 2 steps")

    @cached_property
    def times(self) -> np.ndarray:
        step = self.t_end / 100.0 if self.dt is None else self.dt
        return step * np.arange(round(self.t_end / step) + 1)


@dataclass(frozen=True)
class PicardRow:
    """One application of the solution map, as measured by the iterate norm."""

    iteration: int
    k_norm: float
    diff_norm: float
    ratio: float
    in_ball: bool

    def csv_line(self) -> str:
        return (
            f"{self.iteration},{self.k_norm!r},{self.diff_norm!r},"
            f"{self.ratio!r},{int(self.in_ball)}"
        )


@dataclass(frozen=True)
class PicardReport:
    """Contraction diagnostics for one fixed-point run.

    converged: the last successive difference fell below the tolerance.
    diverged: the difference ratio was >= 1 three times in a row, or an
    iterate left the domain of the map (temperature through zero, norms no
    longer finite); reported, never raised, since mapping where contraction
    fails is the point of the tool.  simulate_rel_diff compares the final
    phase against a direct semi-implicit run on the same horizon.
    """

    rows: tuple[PicardRow, ...]
    converged: bool
    diverged: bool
    chi: float
    simulate_rel_diff: float
    smallness: SmallnessReport
    final_phi: Field
    final_theta: Field

    @property
    def ratios(self) -> list[float]:
        return [r.ratio for r in self.rows]

    def to_csv(self) -> str:
        lines = [REPORT_CSV_HEADER]
        lines += [r.csv_line() for r in self.rows]
        lines.append(f"# converged = {int(self.converged)}, diverged = {int(self.diverged)}")
        lines.append(f"# chi = {self.chi!r}")
        lines.append(f"# final phase vs direct run, relative l2 = {self.simulate_rel_diff!r}")
        lines += ["# " + ln for ln in self.smallness.to_text().splitlines()]
        return "\n".join(lines) + "\n"


def _apply_solution_map(dphi, dtheta, phi_free, dtheta0: Field, p: ModelParams, times):
    """One application of the solution map: freeze forcings, solve linear.

    The forcings are the two expanded right-hand sides evaluated on the
    absolute fields of the current iterate (free flow plus corrections),
    with backward-difference rates; the new corrections solve the damped
    bilaplacian / heat problems with initial data (0, dtheta0).
    """
    grid = phi_free[0].grid
    phi_abs = [Field(grid, pl.values + dp.values) for pl, dp in zip(phi_free, dphi)]
    theta_abs = [Field(grid, p.theta_bar + dth.values) for dth in dtheta]
    rate_phi = _backward_rates(phi_abs, times)
    rate_theta = _backward_rates(theta_abs, times)

    f1, f2 = [], []
    for j in range(times.size):
        state = ThermoState(
            phi_abs[j], theta_abs[j], dphi_dt=rate_phi[j], dtheta_dt=rate_theta[j]
        )
        f1.append(rhs_f1(state, p))
        f2.append(rhs_f2(state, rate_phi[j], p))

    zero = Field(grid, np.zeros(grid.shape))
    return (
        linear_phi_solve(f1, zero, p, times),
        linear_theta_solve(f2, dtheta0, p, times),
    )


def _simulate_rel_diff(phi_picard: Field, phi0: Field, theta0: Field, p, times) -> float:
    dt = float(times[1] - times[0])
    cfg = SimConfig(
        grid=phi0.grid,
        params=p,
        dt=dt,
        t_end=float(times[-1]),
        output_every=times.size - 1,
    )
    traj = simulate(cfg, ThermoState(phi0, theta0))
    if traj.termination != "completed":
        return math.inf
    phi_direct = traj.states[-1].phi
    gap = l2_norm(Field(phi0.grid, phi_picard.values - phi_direct.values))
    return gap / max(l2_norm(phi_direct), 1e-30)


def picard_iterate(
    phi0: Field,
    theta0: Field,
    p: ModelParams,
    cfg: PicardConfig,
    part: DyadicPartition,
    eps0: float = 0.5,
) -> PicardReport:
    """Iterate the solution map and measure its empirical contraction.

    Starts from the correction pair (0, heat flow of theta0 - theta_bar),
    applies the map up to cfg.n_iter times, and records per iteration the
    iterate norm, the successive-difference norm, their ratio, and ball
    containment.  Stops early on convergence (difference below cfg.tol) or
    after three consecutive non-contracting ratios (reported as diverged;
    further iterations of a non-contracting map only overflow).
    """
    grid = phi0.grid
    if theta0.grid != grid or part.grid != grid:
        raise ValueError("initial fields and partition must share one grid")
    if p.model != "a2":
        raise ValueError(f"the solution map linearizes model 'a2', got {p.model!r}")
    times = cfg.times

    phi_free = free_evolution(phi0, p, times)
    dtheta0 = Field(grid, theta0.values - p.theta_bar)
    zero = Field(grid, np.zeros(grid.shape))
    dphi = [zero] * times.size
    dtheta = linear_theta_solve([zero] * times.size, dtheta0, p, times)

    rows: list[PicardRow] = []
    converged = diverged = False
    prev_diff = None
    bad_streak = 0
    for m in range(1, cfg.n_iter + 1):
        try:
            new_dphi, new_dtheta = _apply_solution_map(dphi, dtheta, phi_free, dtheta0, p, times)
            diff_phi = [Field(grid, a.values - b.values) for a, b in zip(new_dphi, dphi)]
            diff_theta = [Field(grid, a.values - b.values) for a, b in zip(new_dtheta, dtheta)]
            diff = k_norm(diff_phi, diff_theta, part, times).total
            size = k_norm(new_dphi, new_dtheta, part, times).total
        except (PositivityError, ValueError, FloatingPointError):
            # the iterate left the domain of the map (temperature through
            # zero, or norms no longer finite): empirical divergence
            diverged = True
            break
        ratio = diff / prev_diff if prev_diff else math.nan
        rows.append(
            PicardRow(
                iteration=m,
                k_norm=size,
                diff_norm=diff,
                ratio=ratio,
                in_ball=size <= cfg.chi,
            )
        )
        dphi, dtheta = new_dphi, new_dtheta
        prev_diff = diff
        if diff < cfg.tol:
            converged = True
            break
        bad_streak = bad_streak + 1 if (not math.isnan(ratio) and ratio >= 1.0) else 0
        if bad_streak >= 3:
            diverged = True
            break

    final_phi = Field(grid, phi_free[-1].values + dphi[-1].values)
    final_theta = Field(grid, p.theta_bar + dtheta[-1].values)
    return PicardReport(
        rows=tuple(rows),
        converged=converged,
        diverged=diverged,
        chi=cfg.chi,
        simulate_rel_diff=_simulate_rel_diff(final_phi, phi0, theta0, p, times),
        smallness=check_smallness(phi0, theta0, p, eps0, part),
        final_phi=final_phi,
        final_theta=final_theta,
    )


# --------------------------------------------------------------------------
# horizon selection: how long does the free flow stay quadratically small?


def free_flow_budget(
    phi0: Field, p: ModelParams, t_end: float, part: DyadicPartition, n_snapshots: int = 33
) -> float:
    """Sum of the six space-time norms of the free flow on [0, t_end].

    Mean-square norms of the gradient, laplacian, laplacian gradient, rate
    and rate gradient, plus the time integral of the bilaplacian, all at
    spatial order dim/2.  Rates are exact per mode (the flow is diagonal),
    not finite differences, so the budget is a property of the flow alone.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    grid = phi0.grid
    times = np.linspace(0.0, t_end, n_snapshots)
    lam, _ = _phi_rates_and_mass(grid, p)
    hat0 = fftn(grid, phi0.values)
    series, rates = [], []
    for t in times:
        hat = hat0 * np.exp(-t * lam)
        series.append(Field(grid, ifftn_real(grid, hat)))
        rates.append(Field(grid, ifftn_real(grid, -lam * hat)))
    s = grid.dim / 2.0
    return float(
        chemin_lerner_norm_vector(_gradient_series(series), times, s, 2, part)
        + chemin_lerner_norm(
            [Field(grid, laplacian_array(grid, f.values)) for f in series], times, s, 2, part
        )
        + chemin_lerner_norm([_bilaplacian(f) for f in series], times, s, 1, part)
        + chemin_lerner_norm_vector(
            _gradient_series([Field(grid, laplacian_array(grid, f.values)) for f in series]),
            times,
            s,
            2,
            part,
        )
        + chemin_lerner_norm(rates, times, s, 2, part)
        + chemin_lerner_norm_vector(_gradient_series(rates), times, s, 2, part)
    )


def find_t_chi(
    phi0: Field,
    p: ModelParams,
    chi: float,
    part: DyadicPartition,
    t_max: float = 1.0,
    n_snapshots: int = 33,
    max_bisect: int = 40,
) -> float:
    """Largest horizon <= t_max on which the free-flow budget stays <= chi^2.

    The budget is monotone in the horizon and vanishes with it, so plain
    bisection applies; the returned horizon is the largest probed value
    that satisfies the bound.
    """
    if chi <= 0.0:
        raise ValueError("chi must be positive")
    t_max = min(float(t_max), 1.0)
    target = chi * chi
    if free_flow_budget(phi0, p, t_max, part, n_snapshots) <= target:
        return t_max
    lo, hi = 0.0, t_max
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        if free_flow_budget(phi0, p, mid, part, n_snapshots) <= target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-3 * hi:
            break
    if lo == 0.0:
        raise ValueError("no horizon satisfies the budget; chi too small for this data")
    return lo


# --------------------------------------------------------------------------
# numerical checks of the linear a-priori estimates


def phi_apriori_ratios(
    g, phi0: Field, p: ModelParams, times, part: DyadicPartition
) -> tuple[float, float, float, float]:
    """Left/right ratios (constant stripped) of the four damped-flow bounds.

    1. sup-in-time of the solution vs initial norm plus integrated forcing;
    2. same for alpha times the laplacian, seeded with the initial laplacian;
    3. viscosity times integrated bilaplacian plus integrated rate vs
       initial data (both norms) plus integrated forcing;
    4. mean-square rate plus sqrt(alpha) times its gradient vs sqrt(nu)
       times the initial laplacian plus the mean-square forcing at order
       dim/2 - 1 over sqrt(alpha) (needs alpha > 0).  The forcing enters
       the fourth bound directly, without peeling a laplacian off it.

    A calibrated multiple of 1 on each ratio is the empirical constant.
    """
    times = _check_times(times)
    grid = phi0.grid
    sol = linear_phi_solve(g, phi0, p, times)
    s = grid.dim / 2.0
    nu = p.eps * p.theta_bar

    phi0_n = besov_norm(phi0, s, part).total
    lap_phi0_n = besov_norm(Field(grid, laplacian_array(grid, phi0.values)), s, part).total
    g_l1 = chemin_lerner_norm(list(g), times, s, 1, part)

    sol_sup = chemin_lerner_norm(sol, times, s, math.inf, part)
    lap_sup = chemin_lerner_norm(
        [Field(grid, laplacian_array(grid, f.values)) for f in sol], times, s, math.inf, part
    )
    bilap_l1 = chemin_lerner_norm([_bilaplacian(f) for f in sol], times, s, 1, part)
    rates = _backward_rates(sol, times)
    rate_l1 = chemin_lerner_norm(rates, times, s, 1, part)
    rate_l2 = chemin_lerner_norm(rates, times, s, 2, part)
    rate_grad_l2 = chemin_lerner_norm_vector(_gradient_series(rates), times, s, 2, part)

    r1 = sol_sup / (phi0_n + g_l1)
    r2 = p.alpha * lap_sup / (p.alpha * lap_phi0_n + g_l1)
    r3 = (nu * bilap_l1 + rate_l1) / (phi0_n + p.alpha * lap_phi0_n + g_l1)
    if p.alpha > 0.0:
        g_l2_low = chemin_lerner_norm(list(g), times, s - 1.0, 2, part)
        r4 = (rate_l2 + math.sqrt(p.alpha) * rate_grad_l2) / (
            math.sqrt(nu) * lap_phi0_n + g_l2_low / math.sqrt(p.alpha)
        )
    else:
        r4 = math.nan
    return (float(r1), float(r2), float(r3), float(r4))


def theta_apriori_ratios(h, theta0: Field, p: ModelParams, times, part: DyadicPartition) -> float:
    """Left/right ratio (constant stripped) of the three-term heat bound.

    Heat-capacity-weighted supremum plus conductivity-weighted integrated
    laplacian plus heat-capacity-weighted integrated rate, against the
    weighted initial norm plus the integrated forcing.
    """
    times = _check_times(times)
    grid = theta0.grid
    sol = linear_theta_solve(h, theta0, p, times)
    s = grid.dim / 2.0

    sup = chemin_lerner_norm(sol, times, s, math.inf, part)
    lap_l1 = chemin_lerner_norm(
        [Field(grid, laplacian_array(grid, f.values)) for f in sol], times, s, 1, part
    )
    rate_l1 = chemin_lerner_norm(_backward_rates(sol, times), times, s, 1, part)
    theta0_n = besov_norm(theta0, s, part).total
    h_l1 = chemin_lerner_norm(list(h), times, s, 1, part)

    lhs = p.k_b * sup + p.kappa * lap_l1 + p.k_b * rate_l1
    rhs = p.k_b * theta0_n + h_l1
    return float(lhs / rhs)
