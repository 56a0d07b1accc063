"""Oracles for the paper's analysis, which only the tests call.

thermoch ships the solvers, the audit, the frequency-block norms and the
Picard verifier.  The checks of the analysis behind them live here:

* verify_variational_identities: centered-difference checks of the
  constitutive identities (s = -d psi/d theta, mu as the Gateaux derivative
  of the total free energy, and the energy-rate identity), criterion 02.
  It calls thermo's densities through the module, so a patched density is
  the one it checks;
* free_energy_density: the psi those identities differentiate, written out
  here with its double well, so src's entropy is checked against a psi that
  src does not own;
* ginzburg_landau_energy: the isothermal interface energy, criterion 07;
* linear_solve, phi_apriori_ratios and theta_apriori_ratios: the forced
  linear flows behind local well-posedness and the ratios of their linear
  a-priori estimates, criterion 10, integrated by etd_oracle, an ETD1
  interval written out apart from the program's;
* divergence_arrays: the spectral divergence the energy-rate identity reads;
* chemical_potential: mu in divergence form, the mu the Gateaux check reads;
* chemin_lerner_norm: the time-then-frequency norm of one series, which the
  iterate norm's summands are built from.
"""

import math
from dataclasses import dataclass

import numpy as np

from spectral_oracle import block_energies, fed, grad_arrays, half_spectra, laplacian_array
from thermoch import thermo
from thermoch.besov import DyadicPartition, SeriesEnergies, _time_then_blocks, besov_norm
from thermoch.grid import (
    Field,
    GridSpec,
    div_hat,
    inner,
    irfftn,
    l2_norm,
    rfftn,
)
from thermoch.model_a2 import _heat_operator, _phase_operator
from thermoch.picard import _check_times
from thermoch.thermo import ModelParams, StateTerms, ThermoState, bulk_potential


def divergence_arrays(grid: GridSpec, comps: list[np.ndarray], mask: bool = False) -> np.ndarray:
    """Spectral divergence of a vector of real arrays (optionally dealiased)."""
    return irfftn(grid, div_hat(grid, comps, mask))


def chemical_potential(state: ThermoState, p: ModelParams) -> Field:
    """mu = -div(eps*theta*grad phi) + dW/dphi/(eps*theta), divergence form
    (the undealiased StateTerms.mu_hat)."""
    return Field(state.grid, irfftn(state.grid, StateTerms(state, p).mu_hat))


def free_energy_density(t: StateTerms) -> np.ndarray:
    """psi = (eps theta/2)|grad phi|^2 + W/(eps theta) - k_b theta log(theta)
    of the state t.state, with W = (phi^2 - 1)^2/4 + (theta - theta_bar)^3
    phi^2/3 written out plainly (not thermo.bulk_potential)."""
    p, phi, theta = t.p, t.phi, t.theta
    w = (phi**2 - 1.0) ** 2 / 4.0 + (theta - p.theta_bar) ** 3 * phi**2 / 3.0
    grad_sq = sum(g * g for g in t.grad_phi)
    return 0.5 * p.eps * theta * grad_sq + w / (p.eps * theta) - p.k_b * theta * np.log(theta)


def chemin_lerner_norm(series, times, s: float, rho, part: DyadicPartition, weight=None) -> float:
    """Time-then-frequency norm: ell^1 over blocks of time-L^rho block norms.

    series is a list of fields or a stack of their half spectra; weight is
    an operator weight as in SeriesEnergies.  For rho = inf and a
    time-constant series this reduces to besov_norm; for rho = 1 it equals
    the left-endpoint time integral of the instantaneous besov norm (the
    sums commute exactly).
    """
    hats = half_spectra(series, part.grid, len(np.asarray(times)))
    return _time_then_blocks(block_energies(hats, part, weight), times, s, rho, part)


# --------------------------------------------------------------------------
# finite-difference verification of the variational structure (criterion 02)


@dataclass
class VariationalReport:
    """Max-norm/L2 residuals of the three constitutive identities."""

    entropy_residual: float
    gateaux_residual: float
    energy_rate_residual: float
    h_step: float

    def rows(self) -> list[tuple[str, float, float]]:
        return [
            ("entropy_vs_dtheta_psi", self.entropy_residual, self.h_step),
            ("mu_vs_gateaux", self.gateaux_residual, self.h_step),
            ("energy_rate", self.energy_rate_residual, self.h_step),
        ]


def _band_limited_direction(grid: GridSpec, rng: np.random.Generator) -> Field:
    """Random smooth unit-L2 field supported on |k_int| <= n/8 per axis."""
    raw = rng.standard_normal(grid.shape)
    c = rfftn(grid, raw)
    cut = 2.0 * np.pi * (grid.n // 8) / grid.box_len
    keep = np.ones(c.shape, dtype=bool)
    for ki in grid.half_k_axes:
        keep &= np.abs(ki) <= cut + 1e-12
    v = irfftn(grid, c * keep)
    f = Field(grid, v)
    nrm = l2_norm(f)
    return Field(grid, v / nrm) if nrm > 0 else f


def _total_psi(phi: np.ndarray, theta: np.ndarray, grid: GridSpec, p: ModelParams) -> float:
    st = ThermoState(Field(grid, phi), Field(grid, theta))
    psi = free_energy_density(StateTerms(st, p))
    return float(np.sum(psi)) * grid.h**grid.dim


def verify_variational_identities(
    state: ThermoState, p: ModelParams, h_step: float = 1e-5, seed: int = 0
) -> VariationalReport:
    """Centered-difference checks of the constitutive structure.

    1. entropy:    max| s + (psi(theta+h) - psi(theta-h)) / (2h) |
    2. potential:  |<mu, v> - (Psi[phi+hv] - Psi[phi-hv]) / (2h)| over 5 random
       band-limited unit directions v (max residual reported)
    3. energy rate: L2 residual of
       d_t e = mu*d_t phi + div(eps*theta*grad(phi)*d_t phi) + theta*d_t s
       along synthetic smooth rate fields (d_t phi, d_t theta), all time
       derivatives realized as centered differences with the same step.
    """
    g = state.grid
    phi = state.phi.values
    theta = state.theta.values
    rng = np.random.default_rng(seed)

    # 1: s against -d(psi)/d(theta), pointwise
    def psi_at(th):
        terms = StateTerms(ThermoState(state.phi, Field(g, th)), p)
        return free_energy_density(terms)

    s = thermo.entropy_density(StateTerms(state, p))
    psi_p, psi_m = psi_at(theta + h_step), psi_at(theta - h_step)
    entropy_res = float(np.max(np.abs(s + (psi_p - psi_m) / (2.0 * h_step))))

    # 2: mu against the Gateaux derivative of the total free energy
    mu = chemical_potential(state, p).values
    gateaux_res = 0.0
    for _ in range(5):
        v = _band_limited_direction(g, rng)
        lhs = inner(Field(g, mu), v)
        fd = (
            _total_psi(phi + h_step * v.values, theta, g, p)
            - _total_psi(phi - h_step * v.values, theta, g, p)
        ) / (2.0 * h_step)
        gateaux_res = max(gateaux_res, abs(lhs - fd))

    # 3: energy rate along synthetic smooth rates
    dphi = _band_limited_direction(g, rng).values
    dtheta = 0.1 * _band_limited_direction(g, rng).values

    def e_of(ph, th):
        terms = StateTerms(ThermoState(Field(g, ph), Field(g, th)), p)
        return thermo.internal_energy_density(terms)

    def s_of(ph, th):
        terms = StateTerms(ThermoState(Field(g, ph), Field(g, th)), p)
        return thermo.entropy_density(terms)

    de = (
        e_of(phi + h_step * dphi, theta + h_step * dtheta)
        - e_of(phi - h_step * dphi, theta - h_step * dtheta)
    ) / (2.0 * h_step)
    ds = (
        s_of(phi + h_step * dphi, theta + h_step * dtheta)
        - s_of(phi - h_step * dphi, theta - h_step * dtheta)
    ) / (2.0 * h_step)
    grads = grad_arrays(g, phi)
    transport = divergence_arrays(g, [p.eps * theta * gi * dphi for gi in grads])
    resid = de - (mu * dphi + transport + theta * ds)
    energy_rate_res = l2_norm(Field(g, resid))

    return VariationalReport(entropy_res, gateaux_res, energy_rate_res, h_step)


# --------------------------------------------------------------------------
# isothermal gradient-flow energy (criterion 07)


def ginzburg_landau_energy(phi: Field, p: ModelParams) -> float:
    """Interface energy plus bulk potential at the background temperature."""
    grid = phi.grid
    grad_phi = grad_arrays(grid, phi.values)
    grad_sq = sum(g * g for g in grad_phi)
    theta = np.full(grid.shape, p.theta_bar)
    w, _ = bulk_potential(phi.values, theta, p)
    density = 0.5 * p.eps * p.theta_bar * grad_sq + w / (p.eps * p.theta_bar)
    return float(inner(Field(grid, density), Field(grid, np.ones(grid.shape))))


# --------------------------------------------------------------------------
# the forced linear flows and their a-priori estimates (criterion 10)


def etd_oracle(lam, mass, dt):
    """One ETD1 interval of mass y' + stiffness y = g per mode, lam =
    stiffness/mass: decay e^(-lam dt) and gain (1 - e^(-lam dt))/(lam mass),
    dt/mass where lam = 0."""
    x = lam * dt
    safe = np.where(x > 0.0, x, 1.0)
    return np.exp(-x), np.where(x > 0.0, -np.expm1(-safe) / safe, 1.0) * dt / mass


def linear_solve(operator, g, y0: Field, p: ModelParams, times) -> np.ndarray:
    """Half spectra of the forced linear flow at every time, the forcing g
    frozen on each interval; operator is model_a2's _phase_operator or
    _heat_operator, the equation's (mass, stiffness) per mode."""
    grid, times = y0.grid, _check_times(times)
    mass, stiffness = operator(grid, p)
    g_hats = half_spectra(g, grid, times.size)
    out = np.empty((times.size, *grid.half_shape), dtype=complex)
    out[0] = rfftn(grid, y0.values)
    for n in range(times.size - 1):
        decay, gain = etd_oracle(stiffness / mass, mass, times[n + 1] - times[n])
        out[n + 1] = decay * out[n] + gain * g_hats[n]
    return out


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

    def norm(energy, s, rho):
        return _time_then_blocks(energy, times, s, rho, part)

    g_hat = half_spectra(g, grid, times.size)
    sol_hat = linear_solve(_phase_operator, g_hat, phi0, p, times)
    weights = (None, grid.half_bilap, grid.half_bilap**2), (None, grid.half_grad_sq)
    acc = SeriesEnergies(part, times.size, *weights, times)
    sol, lap, bilap, rate, rate_grad = fed(acc, sol_hat)
    g_energy = block_energies(g_hat, part)

    phi0_n = besov_norm(phi0, s, part).total
    lap_phi0_n = besov_norm(Field(grid, laplacian_array(grid, phi0.values)), s, part).total
    g_l1 = norm(g_energy, s, 1)

    sol_sup = norm(sol, s, math.inf)
    lap_sup = norm(lap, s, math.inf)
    bilap_l1 = norm(bilap, s, 1)
    rate_l1 = norm(rate, s, 1)
    rate_l2 = norm(rate, s, 2)
    rate_grad_l2 = norm(rate_grad, s, 2)

    r1 = sol_sup / (phi0_n + g_l1)
    r2 = p.alpha * lap_sup / (p.alpha * lap_phi0_n + g_l1)
    r3 = (nu * bilap_l1 + rate_l1) / (phi0_n + p.alpha * lap_phi0_n + g_l1)
    if p.alpha > 0.0:
        g_l2_low = norm(g_energy, s - 1.0, 2)
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

    def norm(energy, rho):
        return _time_then_blocks(energy, times, s, rho, part)

    h_hat = half_spectra(h, grid, times.size)
    sol_hat = linear_solve(_heat_operator, h_hat, theta0, p, times)
    acc = SeriesEnergies(part, times.size, (None, grid.half_bilap), (None,), times)
    sol, lap, rate = fed(acc, sol_hat)
    sup = norm(sol, math.inf)
    lap_l1 = norm(lap, 1)
    rate_l1 = norm(rate, 1)
    theta0_n = besov_norm(theta0, s, part).total
    h_l1 = norm(block_energies(h_hat, part), 1)

    lhs = p.k_b * sup + p.kappa * lap_l1 + p.k_b * rate_l1
    rhs = p.k_b * theta0_n + h_l1
    return float(lhs / rhs)
