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

The Picard loop carries the free flow and both corrections as stacks of
rfftn half spectra, shape (n_times, *half_shape).  One application of the
map inverts each snapshot's two absolute fields once, forms both forcings
from one thermo.StateTerms and advances the corrections by one exact
interval, so no forcing series is kept.  The iterate norm measures the
spectra directly: rates are differences of snapshot spectra and every
derivative is a weight on |f_hat|^2 (besov.block_energies), so k_norm makes
no transform.  The public functions still take Field lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .besov import (
    DyadicPartition,
    SmallnessReport,
    besov_norm,
    check_smallness,
    chemin_lerner_norm,
    half_spectra,
)
from .grid import Field, GridSpec, irfftn, l2_norm, laplacian_array, rfftn
from .model_a2 import SimConfig, _f1_hat, _f2_hat, simulate
from .thermo import ModelParams, PositivityError, StateTerms, ThermoState

REPORT_CSV_HEADER = "iteration,k_norm,diff_norm,ratio,in_ball"


# --------------------------------------------------------------------------
# exact linear propagators (diagonal in Fourier space)


def _phi_rates_and_mass(grid: GridSpec, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode decay rate and mass factor of the damped bilaplacian flow.

    The mode equation is (1 + alpha k^2) d/dt y + eps*theta_bar k^4 y = g_k,
    so the rate is eps*theta_bar k^4 / (1 + alpha k^2).
    """
    mass = 1.0 - p.alpha * grid.half_lap
    lam = p.eps * p.theta_bar * grid.half_bilap / mass
    return lam, mass


def _theta_rates_and_mass(grid: GridSpec, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode decay rate and mass factor of the linear heat flow."""
    lam = -p.kappa * grid.half_lap / p.k_b
    mass = np.full(lam.shape, p.k_b)
    return lam, mass


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1d array")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    return times


def _decay(hat0: np.ndarray, lam: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Half spectra of the unforced flow hat0 * exp(-lam t) at every time."""
    return hat0 * np.exp(-times.reshape(-1, *[1] * lam.ndim) * lam)


def _etd_factors(lam: np.ndarray, mass: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(decay, gain) of one interval of exact mode-wise integration with
    frozen forcing: y(t + dt) = decay * y(t) + gain * g.

    Each mode solves y' = -lam y + g / mass, hence decay = e^{-lam dt} and
    gain = (1 - e^{-lam dt})/(lam mass), with the lam -> 0 limit dt/mass on
    undamped modes.
    """
    positive = lam > 0.0
    weight = np.where(positive, -np.expm1(-lam * dt) / np.where(positive, lam, 1.0), dt)
    return np.exp(-lam * dt), weight / mass


def _linear_solve(rates_and_mass, g, y0: Field, p: ModelParams, times) -> np.ndarray:
    """Half spectra of the forced linear flow at every time, the forcing g
    frozen on each interval."""
    grid, times = y0.grid, _check_times(times)
    lam, mass = rates_and_mass(grid, p)
    g_hats = half_spectra(g, grid, times.size)
    out = np.empty((times.size, *grid.half_shape), dtype=complex)
    out[0] = rfftn(grid, y0.values)
    for n in range(times.size - 1):
        decay, gain = _etd_factors(lam, mass, times[n + 1] - times[n])
        out[n + 1] = decay * out[n] + gain * g_hats[n]
    return out


# --------------------------------------------------------------------------
# the seven-term iterate norm


def _backward_rates(hats: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Backward-difference time derivatives of a stack of half spectra; zero
    on the first snapshot."""
    out = np.empty_like(hats)
    out[0] = 0.0
    np.subtract(hats[1:], hats[:-1], out=out[1:])
    out[1:] *= (1.0 / np.diff(times)).reshape(-1, *[1] * (hats.ndim - 1))
    return out


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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def total(self) -> float:
        return float(sum(self.summands.values()))


def k_norm(dphi, dtheta, part: DyadicPartition, times) -> KNormReport:
    """Mixed space-time norm of a correction pair sampled on a uniform grid.

    dphi and dtheta are Field lists or stacks of half spectra of shape
    (n_times, *half_shape); spectra are measured without any transform.
    Time derivatives are backward differences of the series (zero on the
    first snapshot, matching corrections that start from rest), so at least
    three snapshots are required for the rate terms to mean anything.
    """
    times = _check_times(times)
    if times.size < 3:
        raise ValueError("need at least 3 snapshots for the iterate norm")
    grid = part.grid
    phi_hat = half_spectra(dphi, grid, times.size)
    theta_hat = half_spectra(dtheta, grid, times.size)
    phi_rate = _backward_rates(phi_hat, times)
    s_lo = grid.dim / 2.0
    s_hi = s_lo + 2.0

    # derivatives are weights on |f_hat|^2: |k|^8 for the bilaplacian, |k|^4
    # for the Laplacian, half_grad_sq for the gradient
    def norm(hats, s, rho, weight=None):
        return chemin_lerner_norm(hats, times, s, rho, part, weight)

    return KNormReport(
        phi_sup=norm(phi_hat, s_hi, math.inf),
        phi_bilap_int=norm(phi_hat, s_lo, 1, grid.half_bilap**2),
        phi_rate_sq=norm(phi_rate, s_lo, 2),
        phi_rate_grad_sq=norm(phi_rate, s_lo, 2, grid.half_grad_sq),
        theta_sup=norm(theta_hat, s_lo, math.inf),
        theta_lap_int=norm(theta_hat, s_lo, 1, grid.half_bilap),
        theta_rate_int=norm(_backward_rates(theta_hat, times), s_lo, 1),
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

    def to_csv(self) -> str:
        lines = [REPORT_CSV_HEADER]
        lines += [r.csv_line() for r in self.rows]
        lines.append(f"# converged = {int(self.converged)}, diverged = {int(self.diverged)}")
        lines.append(f"# chi = {self.chi!r}")
        lines.append(f"# final phase vs direct run, relative l2 = {self.simulate_rel_diff!r}")
        lines += ["# " + ln for ln in self.smallness.to_text().splitlines()]
        return "\n".join(lines) + "\n"


def _solution_map(grid: GridSpec, dphi, dtheta, phi_free, dtheta0_hat, p: ModelParams, times):
    """One application of the solution map: freeze forcings, solve linear.

    All series are stacks of half spectra.  The forcings are the two
    expanded right-hand sides evaluated on the absolute fields of the
    current iterate (free flow plus corrections), with backward-difference
    rates; the new corrections solve the damped bilaplacian / heat problems
    with initial data (0, dtheta0), one exact interval per snapshot.  A
    snapshot inverts its two fields once, and one StateTerms, started from
    the phase spectrum the iterate holds, serves both forcings; the rate
    gradient is the difference of consecutive snapshot gradients, as in
    model_a2.imex_step.  The last state is validated but acts beyond the
    horizon.
    """
    step = times[1] - times[0]  # uniform (PicardConfig.times)
    phi_decay, phi_gain = _etd_factors(*_phi_rates_and_mass(grid, p), step)
    theta_decay, theta_gain = _etd_factors(*_theta_rates_and_mass(grid, p), step)
    new_dphi, new_dtheta = np.empty_like(dphi), np.empty_like(dtheta)
    new_dphi[0], new_dtheta[0] = 0.0, dtheta0_hat
    prev = prev_grad = None
    for j in range(times.size):
        phi_hat = phi_free[j] + dphi[j]
        now = (irfftn(grid, phi_hat), p.theta_bar + irfftn(grid, dtheta[j]))
        dt = times[j] - times[j - 1] if j else 1.0  # the first rates are now - now = 0
        rate, theta_rate = ((a - b) / dt for a, b in zip(now, prev or now))
        state = ThermoState(
            Field(grid, now[0]),
            Field(grid, now[1]),
            dphi_dt=Field(grid, rate),
            dtheta_dt=Field(grid, theta_rate),
        )
        if j + 1 < times.size:
            state.carried["phi_hat"] = phi_hat
            terms = StateTerms(state, p)
            grad_rate = [(g - h) / dt for g, h in zip(terms.grad_phi, prev_grad or terms.grad_phi)]
            new_dphi[j + 1] = phi_decay * new_dphi[j] + phi_gain * _f1_hat(terms)
            new_dtheta[j + 1] = theta_decay * new_dtheta[j] + theta_gain * _f2_hat(
                terms, rate, grad_rate
            )
            prev_grad = terms.grad_phi
        prev = now
    return new_dphi, new_dtheta


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

    phi_free = _decay(rfftn(grid, phi0.values), _phi_rates_and_mass(grid, p)[0], times)
    dtheta0_hat = rfftn(grid, theta0.values - p.theta_bar)
    dphi = np.zeros_like(phi_free)
    dtheta = _decay(dtheta0_hat, _theta_rates_and_mass(grid, p)[0], times)

    rows: list[PicardRow] = []
    converged = diverged = False
    prev_diff = None
    bad_streak = 0
    for m in range(1, cfg.n_iter + 1):
        try:
            new_dphi, new_dtheta = _solution_map(
                grid, dphi, dtheta, phi_free, dtheta0_hat, p, times
            )
            diff = k_norm(new_dphi - dphi, new_dtheta - dtheta, part, times).total
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

    final_phi = Field(grid, irfftn(grid, phi_free[-1] + dphi[-1]))
    final_theta = Field(grid, p.theta_bar + irfftn(grid, dtheta[-1]))
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
    hats = _decay(rfftn(grid, phi0.values), lam, times)
    grad, lap_sq, rate_sq = grid.half_grad_sq, grid.half_bilap, lam * lam
    terms = [(grad, 2), (lap_sq, 2), (lap_sq**2, 1), (lap_sq * grad, 2)]
    terms += [(rate_sq, 2), (rate_sq * grad, 2)]  # the rate spectrum is -lam * hats, exactly
    s = grid.dim / 2.0
    return float(sum(chemin_lerner_norm(hats, times, s, rho, part, w) for w, rho in terms))


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
    s = grid.dim / 2.0
    nu = p.eps * p.theta_bar

    def norm(hats, s, rho, weight=None):
        return chemin_lerner_norm(hats, times, s, rho, part, weight)

    g_hat = half_spectra(g, grid, times.size)
    sol_hat = _linear_solve(_phi_rates_and_mass, g_hat, phi0, p, times)
    rates = _backward_rates(sol_hat, times)

    phi0_n = besov_norm(phi0, s, part).total
    lap_phi0_n = besov_norm(Field(grid, laplacian_array(grid, phi0.values)), s, part).total
    g_l1 = norm(g_hat, s, 1)

    sol_sup = norm(sol_hat, s, math.inf)
    lap_sup = norm(sol_hat, s, math.inf, grid.half_bilap)
    bilap_l1 = norm(sol_hat, s, 1, grid.half_bilap**2)
    rate_l1 = norm(rates, s, 1)
    rate_l2 = norm(rates, s, 2)
    rate_grad_l2 = norm(rates, s, 2, grid.half_grad_sq)

    r1 = sol_sup / (phi0_n + g_l1)
    r2 = p.alpha * lap_sup / (p.alpha * lap_phi0_n + g_l1)
    r3 = (nu * bilap_l1 + rate_l1) / (phi0_n + p.alpha * lap_phi0_n + g_l1)
    if p.alpha > 0.0:
        g_l2_low = norm(g_hat, s - 1.0, 2)
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
    s = grid.dim / 2.0

    def norm(hats, rho, weight=None):
        return chemin_lerner_norm(hats, times, s, rho, part, weight)

    h_hat = half_spectra(h, grid, times.size)
    sol_hat = _linear_solve(_theta_rates_and_mass, h_hat, theta0, p, times)
    sup = norm(sol_hat, math.inf)
    lap_l1 = norm(sol_hat, 1, grid.half_bilap)
    rate_l1 = norm(_backward_rates(sol_hat, times), 1)
    theta0_n = besov_norm(theta0, s, part).total
    h_l1 = norm(h_hat, 1)

    lhs = p.k_b * sup + p.kappa * lap_l1 + p.k_b * rate_l1
    rhs = p.k_b * theta0_n + h_l1
    return float(lhs / rhs)
