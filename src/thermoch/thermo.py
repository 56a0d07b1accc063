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
The identities s = -d(psi)/d(theta), mu = the Gateaux derivative of the total
free energy and the energy rate are checked by centered differences in the
tests (tests/analysis_oracle.py), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

import numpy as np

from .grid import (
    Field,
    GridSpec,
    div_hat,
    grad_arrays,
    grad_from_hat,
    irfftn,
    rfftn,
)

__all__ = [
    "MODELS",
    "ModelParams",
    "ThermoState",
    "StateTerms",
    "PositivityError",
    "SingularityError",
    "bulk_potential",
    "free_energy_density",
    "entropy_density",
    "internal_energy_density",
    "force_square",
    "entropy_production",
    "total_energy",
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

    carried holds terms of this state that the step producing it already
    formed, keyed by their StateTerms names (phi_hat, theta_hat, grad_phi,
    grad_rate); StateTerms starts from them.  It is not an init argument,
    so ThermoState(...) and dataclasses.replace start with none and never
    inherit terms of other values.  A recorded state keeps the ones a
    continued run needs to stay bit for bit the uninterrupted run.
    """

    phi: Field
    theta: Field
    dphi_dt: Field | None = None
    dtheta_dt: Field | None = None
    carried: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.phi.grid != self.theta.grid:
            raise ValueError("phi and theta live on different grids")
        tmin = float(self.theta.values.min())
        if tmin <= 0.0:
            loc = _argmin_index(self.theta.values)
            raise PositivityError(
                f"theta must stay positive; min(theta) = {tmin:.6e} at index {loc} "
                "(state construction)"
            )

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


# --------------------------------------------------------------------------
# bulk potential and its derivatives


def bulk_potential(phi: np.ndarray, theta: np.ndarray, p: ModelParams):
    """W and dW/dphi as arrays (broadcasting over the inputs); phi^2 and
    (theta - theta_bar)^3 are formed once.  dW/dtheta = (theta -
    theta_bar)^2 phi^2 enters no equation and is not formed."""
    dth = theta - p.theta_bar
    c = dth * dth * dth / 3.0
    phi_sq = phi * phi
    well = phi_sq - 1.0
    w = 0.25 * well * well + c * phi_sq
    dw_dphi = (well + 2.0 * c) * phi
    return w, dw_dphi


def _bracket_b(phi: np.ndarray, theta: np.ndarray, p: ModelParams, bulk):
    """dB/dphi and dB/dtheta of B = W/(eps theta^2) - (theta-theta_bar)^2
    phi^2/(eps theta), the theta-equation's chain-rule bracket; bulk is (W,
    dW/dphi) of (phi, theta), as bulk_potential returns them.  B itself
    enters no equation.  1/(eps theta), (theta - theta_bar)^2 and phi^2 are
    formed once and shared by both slopes."""
    w, dw_dphi = bulk
    recip = 1.0 / (p.eps * theta)
    dth = theta - p.theta_bar
    dth_sq = dth * dth
    phi_sq = phi * phi
    db_dphi = recip * (dw_dphi / theta - 2.0 * dth_sq * phi)
    db_dtheta = recip * (2.0 * (dth_sq * phi_sq - w / theta) / theta - 2.0 * dth * phi_sq)
    return db_dphi, db_dtheta


def _sum_sq(comps: list[np.ndarray]) -> np.ndarray:
    """Pointwise sum of squares of the components (|grad f|^2 for a gradient)."""
    return sum(c * c for c in comps)


def free_energy_density(t: StateTerms) -> Field:
    """psi = (eps*theta/2)|grad phi|^2 + W/(eps*theta) - k_b*theta*log(theta)
    of the state t.state, from its grad phi and W."""
    p, theta = t.p, t.theta
    psi = (
        0.5 * p.eps * theta * _sum_sq(t.grad_phi)
        + t.bulk[0] / (p.eps * theta)
        - p.k_b * theta * np.log(theta)
    )
    return Field(t.grid, psi)


def entropy_density(t: StateTerms) -> Field:
    """s = -d(psi)/d(theta) of the state t.state, expanded in closed form."""
    p, phi, theta = t.p, t.phi, t.theta
    dth = theta - p.theta_bar
    s = (
        -0.5 * p.eps * _sum_sq(t.grad_phi)
        + t.bulk[0] / (p.eps * theta**2)
        - dth**2 * phi**2 / (p.eps * theta)
        + p.k_b * (1.0 + np.log(theta))
    )
    return Field(t.grid, s)


def internal_energy_density(t: StateTerms) -> Field:
    """e = psi + theta*s of the state t.state in closed form: the |grad
    phi|^2 and log(theta) contributions cancel exactly, leaving

        e = 2 W/(eps theta) - (theta - theta_bar)^2 phi^2 / eps + k_b theta."""
    p, phi, theta = t.p, t.phi, t.theta
    dth_phi = (theta - p.theta_bar) * phi
    e = (2.0 * t.bulk[0] / theta - dth_phi * dth_phi) / p.eps + p.k_b * theta
    return Field(t.grid, e)


def _regularized_recip(phi: np.ndarray, reg_delta: float) -> np.ndarray:
    """phi/(phi^2 + delta^2), the a1 stand-in for 1/phi; exact 1/phi at delta = 0."""
    if reg_delta == 0.0:
        if float(np.min(np.abs(phi))) < 1e-8:
            raise SingularityError(
                "1/phi is singular: phi crosses zero and reg_delta = 0"
            )
        return 1.0 / phi
    return phi / (phi**2 + reg_delta**2)


class StateTerms:
    """Spectra and derived fields of one state, each formed at most once.

    model_a2.march builds one per state for the step that starts from it and
    for diagnostics.audit of the step that produced it; every density of
    the state takes it.  It starts from the terms the state carries
    (ThermoState.carried: the spectra and gradients the producing step
    formed) and forms the rest from the state's values.  The carried terms
    a continued run reads are recorded with the state, so a run continued
    from a recorded state stays bit for bit the uninterrupted run.  It holds
    the state's one chemical potential, mu_hat, undealiased: the step's f1
    (model_a2._f1_hat) and grad_mu apply the 2/3 rule to it, and the audit's
    production takes the gradient of mu_hat.
    """

    def __init__(self, state: ThermoState, p: ModelParams):
        self.state, self.p, self.grid = state, p, state.grid
        self.phi, self.theta = state.phi.values, state.theta.values
        self.__dict__.update(state.carried)  # cached_property reads these first

    @cached_property
    def phi_hat(self) -> np.ndarray:
        return rfftn(self.grid, self.phi)

    @cached_property
    def theta_hat(self) -> np.ndarray:
        return rfftn(self.grid, self.theta)

    @cached_property
    def grad_phi(self) -> list[np.ndarray]:
        return grad_from_hat(self.grid, self.phi_hat)

    @cached_property
    def grad_theta(self) -> list[np.ndarray]:
        return grad_from_hat(self.grid, self.theta_hat)

    @cached_property
    def grad_rate(self) -> list[np.ndarray]:
        """grad(dphi/dt) of the state's rate cache (zero at t = 0); a
        stepped state carries the step's (grad phi_new - grad phi)/dt."""
        return grad_arrays(self.grid, self.state.dphi_dt_values())

    @cached_property
    def bulk(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, dW/dphi) of the state from bulk_potential."""
        return bulk_potential(self.phi, self.theta, self.p)

    @cached_property
    def mu_hat(self) -> np.ndarray:
        """Spectrum of mu = -div(eps theta grad phi) + dW/dphi / (eps theta)."""
        eps_theta = self.p.eps * self.theta
        flux = [eps_theta * g for g in self.grad_phi]
        return rfftn(self.grid, self.bulk[1] / eps_theta) - div_hat(self.grid, flux)

    @cached_property
    def grad_mu(self) -> list[np.ndarray]:
        """grad mu of the step: the gradient of mu_hat under the 2/3 rule."""
        return grad_from_hat(self.grid, self.mu_hat * self.grid.half_dealias_mask)

    @cached_property
    def bracket_slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """(dB/dphi, dB/dtheta) of the chain-rule bracket (_bracket_b)."""
        return _bracket_b(self.phi, self.theta, self.p, self.bulk)

    @cached_property
    def entropy(self) -> np.ndarray:
        return entropy_density(self).values

    @cached_property
    def recip(self) -> np.ndarray:
        return _regularized_recip(self.phi, self.p.reg_delta)

    @cached_property
    def coupling(self) -> list[np.ndarray]:
        """a1's transported-entropy force s*grad(theta)*phi/(phi^2 + delta^2)."""
        return [self.entropy * gt * self.recip for gt in self.grad_theta]

    def keep_only_entropy(self) -> None:
        """Form the entropy and drop every other formed term but those the
        state carries (march keeps a state's terms past its step only for
        the next audit's ds/dt)."""
        fresh = StateTerms(self.state, self.p)
        self.__dict__ = {**vars(fresh), "entropy": self.entropy}


def force_square(
    t: StateTerms, grad_mu: list[np.ndarray], grad_rate: list[np.ndarray]
) -> np.ndarray:
    """The dissipation square |grad mu + alpha*grad(dphi/dt)|^2, summed over axes.

    For model "a1" the force gains the coupling t.coupling.  The heat
    forcing and the entropy production both form the square here.
    """
    force = [gm + t.p.alpha * gr for gm, gr in zip(grad_mu, grad_rate)]
    if t.p.model == "a1":
        force = [f + c for f, c in zip(force, t.coupling)]
    return _sum_sq(force)


def entropy_production(t: StateTerms) -> Field:
    """Pointwise theta*Delta^* of the state t.state for model t.p.model; a
    sum of squares.

    force_square of the undealiased grad mu and the state's grad(dphi/dt),
    + alpha*dphi_dt^2 + kappa|grad theta|^2/theta; the force carries the a1
    coupling when the model is "a1".
    """
    p, dphi_dt = t.p, t.state.dphi_dt_values()
    force_sq = force_square(t, grad_from_hat(t.grid, t.mu_hat), t.grad_rate)
    out = force_sq + p.alpha * dphi_dt**2 + p.kappa * _sum_sq(t.grad_theta) / t.theta
    return Field(t.grid, out)


def total_energy(t: StateTerms) -> float:
    """Integral of the internal energy density of t.state over the box."""
    return float(np.sum(internal_energy_density(t).values)) * t.grid.h**t.grid.dim
