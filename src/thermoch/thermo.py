"""Constitutive layer: free energy, entropy, chemical potential, production.

Everything here derives from one free-energy density

    psi(phi, grad phi, theta) = (eps*theta/2)|grad phi|^2
                                + W(phi, theta)/(eps*theta)
                                - k_b * theta * log(theta)

with the temperature-coupled double well

    W(phi, theta) = (phi^2 - 1)^2/4 + c(theta)*phi^2,
    c(theta)      = (theta - theta_bar)^3 / 3.

The gradient coefficient eps*theta and the 1/(eps*theta) bulk weight make the
entropy s = -d(psi)/d(theta) and the internal energy e = psi + theta*s close
under the two-model energy bookkeeping used by the integrators. The chemical
potential is kept in divergence form,

    mu = -div(eps*theta*grad phi) + (1/(eps*theta)) * dW/dphi,

never collapsed to -eps*theta*lap(phi) (the forms differ when grad theta != 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .grid import (
    Field,
    GridSpec,
    dealias_array,
    divergence_arrays,
    fftn,
    grad_arrays,
    ifftn_real,
    inner,
    l2_norm,
)

__all__ = [
    "MODELS",
    "ModelParams",
    "ThermoState",
    "PositivityError",
    "SingularityError",
    "bulk_potential",
    "free_energy_density",
    "entropy_density",
    "internal_energy_density",
    "chemical_potential",
    "force_square",
    "entropy_production",
    "total_energy",
    "verify_variational_identities",
    "VariationalReport",
]


class PositivityError(ValueError):
    """Temperature lost pointwise positivity (hard abort, never clamped)."""

    def __init__(self, msg: str, state: "ThermoState | None" = None):
        super().__init__(msg)
        self.state = state


class SingularityError(ValueError):
    """1/phi-type factor hit phi = 0 with no regularization enabled."""


MODELS = ("a2", "a1", "isothermal")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters and the model selection.

    model is the one variant knob, spelled as in the INI file: "a2" evolves
    theta on a fixed background, "a1" transports the entropy with the
    mixture velocity, "isothermal" freezes theta (the a2 phase equation
    alone).  reg_delta is the delta in the regularized reciprocal
    phi/(phi^2 + delta^2) that a1 uses for 1/phi.
    """

    eps: float
    theta_bar: float
    alpha: float
    kappa: float
    k_b: float
    model: Literal["a2", "a1", "isothermal"] = "a2"
    reg_delta: float = 1e-2

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.theta_bar <= 0.0:
            raise ValueError("theta_bar must be positive")
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.k_b <= 0.0:
            raise ValueError("k_b must be positive")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.reg_delta < 0.0:
            raise ValueError("reg_delta must be >= 0")


@dataclass
class ThermoState:
    """Phase field, temperature, and the most recent discrete time rates.

    dphi_dt / dtheta_dt hold backward differences from the last completed
    step; they are None (treated as zero) at t = 0.
    """

    phi: Field
    theta: Field
    dphi_dt: Field | None = None
    dtheta_dt: Field | None = None

    def __post_init__(self):
        if self.phi.grid != self.theta.grid:
            raise ValueError("phi and theta live on different grids")
        _require_positive_theta(self.theta, context="state construction")

    @property
    def grid(self) -> GridSpec:
        return self.phi.grid

    def dphi_dt_values(self) -> np.ndarray:
        if self.dphi_dt is None:
            return np.zeros(self.grid.shape)
        return self.dphi_dt.values

    def dtheta_dt_values(self) -> np.ndarray:
        if self.dtheta_dt is None:
            return np.zeros(self.grid.shape)
        return self.dtheta_dt.values


def _argmin_index(values: np.ndarray) -> tuple[int, ...]:
    """Grid index of the minimum of values, as plain ints."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmin(values)), values.shape))


def _require_positive_theta(theta: Field, context: str, state: "ThermoState | None" = None):
    vals = theta.values
    tmin = float(vals.min())
    if tmin <= 0.0:
        loc = _argmin_index(vals)
        raise PositivityError(
            f"theta must stay positive; min(theta) = {tmin:.6e} at index {loc} ({context})",
            state=state,
        )


# --------------------------------------------------------------------------
# bulk potential and its derivatives


def bulk_potential(phi: np.ndarray, theta: np.ndarray, p: ModelParams):
    """W, dW/dphi, dW/dtheta as arrays (broadcasting over the inputs)."""
    dth = theta - p.theta_bar
    c = dth**3 / 3.0
    w = 0.25 * (phi**2 - 1.0) ** 2 + c * phi**2
    dw_dphi = (phi**2 - 1.0) * phi + 2.0 * c * phi
    dw_dtheta = dth**2 * phi**2
    return w, dw_dphi, dw_dtheta


def _bracket_b(phi: np.ndarray, theta: np.ndarray, p: ModelParams):
    """B = W/(eps theta^2) - (theta-theta_bar)^2 phi^2/(eps theta), with
    its phi- and theta-derivatives (the theta-equation's chain-rule bracket)."""
    w, dw_dphi, _ = bulk_potential(phi, theta, p)
    dth = theta - p.theta_bar
    b = w / (p.eps * theta**2) - dth**2 * phi**2 / (p.eps * theta)
    db_dphi = dw_dphi / (p.eps * theta**2) - 2.0 * dth**2 * phi / (p.eps * theta)
    db_dtheta = (
        2.0 * dth**2 * phi**2 / (p.eps * theta**2)
        - 2.0 * w / (p.eps * theta**3)
        - 2.0 * dth * phi**2 / (p.eps * theta)
    )
    return b, db_dphi, db_dtheta


def _grad_phi_sq(state: ThermoState) -> np.ndarray:
    g = state.grid
    comps = grad_arrays(g, state.phi.values)
    out = np.zeros(g.shape)
    for c in comps:
        out += c**2
    return out


def free_energy_density(state: ThermoState, p: ModelParams) -> Field:
    """psi = (eps*theta/2)|grad phi|^2 + W/(eps*theta) - k_b*theta*log(theta)."""
    _require_positive_theta(state.theta, "free_energy_density", state)
    phi, theta = state.phi.values, state.theta.values
    w, _, _ = bulk_potential(phi, theta, p)
    psi = (
        0.5 * p.eps * theta * _grad_phi_sq(state)
        + w / (p.eps * theta)
        - p.k_b * theta * np.log(theta)
    )
    return Field(state.grid, psi)


def entropy_density(state: ThermoState, p: ModelParams) -> Field:
    """s = -d(psi)/d(theta), expanded in closed form."""
    _require_positive_theta(state.theta, "entropy_density", state)
    phi, theta = state.phi.values, state.theta.values
    w, _, _ = bulk_potential(phi, theta, p)
    dth = theta - p.theta_bar
    s = (
        -0.5 * p.eps * _grad_phi_sq(state)
        + w / (p.eps * theta**2)
        - dth**2 * phi**2 / (p.eps * theta)
        + p.k_b * (1.0 + np.log(theta))
    )
    return Field(state.grid, s)


def internal_energy_density(state: ThermoState, p: ModelParams) -> Field:
    """e = psi + theta*s. The |grad phi|^2 contributions cancel exactly."""
    psi = free_energy_density(state, p).values
    s = entropy_density(state, p).values
    return Field(state.grid, psi + state.theta.values * s)


def chemical_potential(state: ThermoState, p: ModelParams, dealias: bool = True) -> Field:
    """mu = -div(eps*theta*grad phi) + dW/dphi/(eps*theta), divergence form."""
    _require_positive_theta(state.theta, "chemical_potential", state)
    g = state.grid
    phi, theta = state.phi.values, state.theta.values
    grads = grad_arrays(g, phi)
    flux = [p.eps * theta * gi for gi in grads]
    div_flux = divergence_arrays(g, flux, mask=dealias)
    _, dw_dphi, _ = bulk_potential(phi, theta, p)
    bulk = dw_dphi / (p.eps * theta)
    if dealias:
        bulk = dealias_array(g, bulk)
    return Field(g, -div_flux + bulk)


def _regularized_recip(phi: np.ndarray, reg_delta: float) -> np.ndarray:
    """phi/(phi^2 + delta^2), the a1 stand-in for 1/phi; exact 1/phi at delta = 0."""
    if reg_delta == 0.0:
        if float(np.min(np.abs(phi))) < 1e-8:
            raise SingularityError(
                "1/phi is singular: phi crosses zero and reg_delta = 0"
            )
        return 1.0 / phi
    return phi / (phi**2 + reg_delta**2)


def force_square(
    state: ThermoState,
    grad_mu: list[np.ndarray],
    grad_rate: list[np.ndarray],
    p: ModelParams,
    grad_theta: list[np.ndarray] | None = None,
) -> np.ndarray:
    """The dissipation square |grad mu + alpha*grad(dphi/dt)|^2, summed over axes.

    For model "a1" the force gains the transported-entropy coupling
    s*grad(theta)*phi/(phi^2 + delta^2).  The heat forcing and the entropy
    production both form the square here; grad_theta is computed when the
    caller has not already.
    """
    g = state.grid
    extra = None
    if p.model == "a1":
        recip = _regularized_recip(state.phi.values, p.reg_delta)
        s = entropy_density(state, p).values
        if grad_theta is None:
            grad_theta = grad_arrays(g, state.theta.values)
        extra = [s * gt * recip for gt in grad_theta]
    out = np.zeros(g.shape)
    for i in range(g.dim):
        force = grad_mu[i] + p.alpha * grad_rate[i]
        if extra is not None:
            force = force + extra[i]
        out += force**2
    return out


def entropy_production(
    state: ThermoState,
    mu: Field,
    grad_dphi_dt: list[Field],
    p: ModelParams,
) -> Field:
    """Pointwise theta*Delta^* for the selected model; a sum of squares.

    force_square + alpha*dphi_dt^2 + kappa|grad theta|^2/theta, where the
    force carries the a1 coupling when p.model is "a1".
    """
    g = state.grid
    _require_positive_theta(state.theta, "entropy_production", state)
    theta = state.theta.values
    dphi_dt = state.dphi_dt_values()
    grad_mu = grad_arrays(g, mu.values)
    grad_theta = grad_arrays(g, theta)
    force_sq = force_square(
        state, grad_mu, [f.values for f in grad_dphi_dt], p, grad_theta
    )

    grad_theta_sq = np.zeros(g.shape)
    for gt in grad_theta:
        grad_theta_sq += gt**2

    out = force_sq + p.alpha * dphi_dt**2 + p.kappa * grad_theta_sq / theta
    return Field(g, out)


def total_energy(state: ThermoState, p: ModelParams) -> float:
    """Integral of the internal energy density over the box."""
    e = internal_energy_density(state, p)
    return float(np.sum(e.values)) * state.grid.h**state.grid.dim


# --------------------------------------------------------------------------
# finite-difference verification of the variational structure


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
    c = fftn(grid, raw)
    cut = 2.0 * np.pi * (grid.n // 8) / grid.box_len
    keep = np.ones(grid.shape, dtype=bool)
    for ki in grid.k_axes:
        keep &= np.abs(ki) <= cut + 1e-12
    v = ifftn_real(grid, c * keep)
    f = Field(grid, v)
    nrm = l2_norm(f)
    return Field(grid, v / nrm) if nrm > 0 else f


def _total_psi(phi: np.ndarray, theta: np.ndarray, grid: GridSpec, p: ModelParams) -> float:
    st = ThermoState(Field(grid, phi), Field(grid, theta))
    psi = free_energy_density(st, p)
    return float(np.sum(psi.values)) * grid.h**grid.dim


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
    s = entropy_density(state, p).values
    psi_p = free_energy_density(ThermoState(state.phi, Field(g, theta + h_step)), p).values
    psi_m = free_energy_density(ThermoState(state.phi, Field(g, theta - h_step)), p).values
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
        return internal_energy_density(ThermoState(Field(g, ph), Field(g, th)), p).values

    def s_of(ph, th):
        return entropy_density(ThermoState(Field(g, ph), Field(g, th)), p).values

    de = (
        e_of(phi + h_step * dphi, theta + h_step * dtheta)
        - e_of(phi - h_step * dphi, theta - h_step * dtheta)
    ) / (2.0 * h_step)
    ds = (
        s_of(phi + h_step * dphi, theta + h_step * dtheta)
        - s_of(phi - h_step * dphi, theta - h_step * dtheta)
    ) / (2.0 * h_step)
    mu_nd = chemical_potential(state, p, dealias=False).values
    grads = grad_arrays(g, phi)
    transport = divergence_arrays(g, [p.eps * theta * gi * dphi for gi in grads])
    resid = de - (mu_nd * dphi + transport + theta * ds)
    energy_rate_res = l2_norm(Field(g, resid))

    return VariationalReport(entropy_res, gateaux_res, energy_rate_res, h_step)
