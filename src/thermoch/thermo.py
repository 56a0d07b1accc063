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
under the two-model energy bookkeeping used by the integrators.  Both read
the bulk entropy B = -d/d(theta)[W/(eps*theta)], formed once per state with
its two slopes (_bracket_b): s = -(eps/2)|grad phi|^2 + B + k_b(1 + log
theta) and e = W/(eps*theta) + theta*(B + k_b), and the slopes form the heat
equation's chain-rule bracket.  The chemical potential is kept in divergence
form,

    mu = -div(eps*theta*grad phi) + (1/(eps*theta)) * dW/dphi,

never collapsed to -eps*theta*lap(phi) (the forms differ when grad theta != 0).
The identities s = -d(psi)/d(theta), mu = the Gateaux derivative of the total
free energy and the energy rate are checked by centered differences in the
tests (tests/analysis_oracle.py, which also owns psi), not here.

Every kernel here returns fresh arrays and updates in place only its own
temporaries, never an input or a StateTerms term.

Both models dissipate |F|^2 + alpha (dphi/dt)^2 (dissipation), F the force
grad(mu) + alpha grad(dphi/dt), plus c = s grad(theta)/phi for a1.  Since
the phase equation reads (1 - alpha lap) dphi/dt = lap(mu) + P div(c), P the
2/3 rule, the force is a function of the rate alone: F = grad lap^-1(r) + c
with r = dphi/dt - P div(c), zero at k = 0 (dissipative_force).  The step
forms it from the rate spectrum its own phase update made, the heat forcing
squares it, and the state the step produces owns it (ThermoState.force), so
the audit's production squares the same array.  Model "a1" adds the
transport of entropy by the mixture velocity

    u = -(grad(mu) + alpha grad(dphi/dt) + s grad(theta)/phi)/phi,

the a1 force over phi (mixture_velocity).  The phase equation gains the
coupling flux P div(s grad(theta)/phi) (StateTerms.coupling_hat), and the
temperature equation is the transported entropy balance

    theta d/dt[s] + div(s u) = theta div(kappa grad(theta)/theta) + production.

Every reciprocal of phi is regularized as 1/phi ~ phi/(phi^2 + delta^2),
delta = ModelParams.reg_delta (StateTerms.recip): odd, smooth, bounded by
1/(2 delta), and vanishing at phi = 0, which switches the transport off
exactly where the mixture has no majority phase.  Expanding theta d/dt[s] by
the chain rule gives the pointwise coefficient theta ds/dtheta = k_b + theta
dB/dtheta on the temperature rate; the step (model_a2.imex_step) keeps the
constant k_b part in its heat propagator (the same per-mode factors as the
fixed-background model), carries theta dB/dtheta against the lagged rate,
and aborts if ds/dtheta loses positivity anywhere
(_require_invertible_entropy_slope), since the expansion is then no longer
invertible for the rate.  The step takes u from the force of the state it
starts from, zero while the state has no rate yet (t = 0), so u lags the
step by one rate, which is first-order consistent, matching the overall
scheme order.  With grad(theta_0) = 0 the first a1 step is the
fixed-background step exactly.
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
    first_min_index,
    grad_from_hat,
    rfftn,
)

__all__ = [
    "MODELS",
    "ModelParams",
    "ThermoState",
    "StateTerms",
    "NumericalError",
    "NonFiniteError",
    "PositivityError",
    "SingularityError",
    "bulk_potential",
    "entropy_density",
    "internal_energy_density",
    "dissipative_force",
    "dissipation",
    "mixture_velocity",
    "entropy_production",
    "total_energy",
]


class NumericalError(ValueError):
    """A numerical failure that ends a run early; label names the termination."""

    label = ""


class NonFiniteError(NumericalError):
    """A state field or an audited quantity holds NaN or infinite values."""

    label = "non_finite"


class PositivityError(NumericalError):
    """Temperature lost pointwise positivity (hard abort, never clamped)."""

    label = "positivity"


class SingularityError(NumericalError):
    """1/phi-type factor hit phi = 0 with no regularization enabled."""

    label = "singularity"


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
        for name in ("eps", "theta_bar", "alpha", "kappa", "k_b", "reg_delta"):
            value = getattr(self, name)
            if name in ("alpha", "reg_delta"):
                ok, rule = value >= 0.0, ">= 0"
            else:
                ok, rule = value > 0.0, "positive"
            if not (ok and np.isfinite(value)):  # NaN fails every comparison
                raise ValueError(f"{name} must be {rule} and finite, got {value}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")


@dataclass
class ThermoState:
    """Phase field, temperature, and the most recent discrete time rates.

    dphi_dt / dtheta_dt hold backward differences from the last completed
    step; they are None (treated as zero) at t = 0.

    Construction is the one check of a valid state: phi and theta finite
    (else NonFiniteError), theta positive (else PositivityError).

    Owned terms: phi_hat, theta_hat and force, which the step that
    produced the state formed (model_a2.imex_step; an isothermal step owns
    phi_hat only): its propagators' spectra and the dissipative force its
    heat forcing squared, which the a1 force holds with the coupling of
    the state before.  StateTerms reads them before forming its own, so the
    audit squares the step's force and a run continued from any recorded
    state is bit for bit the uninterrupted run.  They are not init
    arguments: ThermoState(...) and dataclasses.replace start without them
    (None) and never inherit terms of other values.  Gradients are
    StateTerms caches, never owned.
    """

    phi: Field
    theta: Field
    dphi_dt: Field | None = None
    dtheta_dt: Field | None = None
    phi_hat: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)
    theta_hat: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)
    force: list[np.ndarray] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.phi.grid != self.theta.grid:
            raise ValueError("phi and theta live on different grids")
        for name, values in (("phi", self.phi.values), ("theta", self.theta.values)):
            finite = np.isfinite(values)
            if not finite.all():  # before positivity: NaN <= 0 is False
                loc = first_min_index(finite)
                raise NonFiniteError(
                    f"{name} must be finite; {name} = {float(values[loc])} at index {loc}"
                )
        tmin = float(self.theta.values.min())
        if tmin <= 0.0:
            loc = first_min_index(self.theta.values)
            raise PositivityError(
                f"theta must stay positive; min(theta) = {tmin:.6e} at index {loc}"
            )

    @property
    def grid(self) -> GridSpec:
        return self.phi.grid


# --------------------------------------------------------------------------
# bulk potential and its derivatives


def bulk_potential(phi: np.ndarray, theta: np.ndarray, p: ModelParams):
    """W = well (well/4 + c) + c and dW/dphi = (well + 2c) phi, with well =
    phi^2 - 1 and c = (theta - theta_bar)^3/3, for phi and theta of one shape
    (or scalars).  dW/dtheta = (theta - theta_bar)^2 phi^2 is not formed."""
    dth = theta - p.theta_bar
    c = dth * dth
    c *= dth
    c *= 1.0 / 3.0
    well = phi * phi
    well -= 1.0
    w = 0.25 * well
    w += c
    w *= well
    w += c
    return w, (well + 2.0 * c) * phi


def _bracket_b(phi: np.ndarray, theta: np.ndarray, p: ModelParams, bulk):
    """(B, dB/dphi, dB/dtheta) of the bulk entropy B = -d/d(theta)[W/(eps
    theta)] = W/(eps theta^2) - (theta - theta_bar)^2 phi^2/(eps theta), bulk
    being (W, dW/dphi) from bulk_potential.  B serves the entropy and the
    energy, its slopes the heat forcing; dB/dtheta = -2(B/theta + (theta -
    theta_bar) phi^2/(eps theta)) is written through B."""
    w, dw_dphi = bulk
    inv = 1.0 / theta
    recip = inv * (1.0 / p.eps)  # 1/(eps theta)
    dth = theta - p.theta_bar
    dth_phi = dth * phi
    b = w * inv
    b -= dth_phi * dth_phi
    b *= recip
    db_dphi = dw_dphi * inv
    dth *= -2.0
    dth *= dth_phi  # -2 (theta - theta_bar)^2 phi
    db_dphi += dth
    db_dphi *= recip
    dth_phi *= phi  # (theta - theta_bar) phi^2
    dth_phi *= recip
    db_dtheta = b * inv
    db_dtheta += dth_phi
    db_dtheta *= -2.0
    return b, db_dphi, db_dtheta


def _sum_sq(comps: list[np.ndarray]) -> np.ndarray:
    """Pointwise sum of squares of the components (|grad f|^2 for a gradient)."""
    out = comps[0] * comps[0]
    for c in comps[1:]:
        out += c * c
    return out


def entropy_density(t: StateTerms) -> np.ndarray:
    """s = -d(psi)/d(theta) = -(eps/2)|grad phi|^2 + B + k_b(1 + log theta)
    of the state t.state, with its bulk entropy B (StateTerms.bracket)."""
    p = t.p
    return -0.5 * p.eps * _sum_sq(t.grad_phi) + t.bracket[0] + p.k_b * (1.0 + np.log(t.theta))


def internal_energy_density(t: StateTerms) -> np.ndarray:
    """e = psi + theta*s = W/(eps theta) + theta (B + k_b) of the state
    t.state: the |grad phi|^2 and log(theta) contributions cancel exactly."""
    p, theta = t.p, t.theta
    return t.bulk[0] / (p.eps * theta) + theta * (t.bracket[0] + p.k_b)


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
    the state takes it.  It reads the terms the state owns (ThermoState:
    phi_hat, theta_hat, force) before forming its own, and forms the rest
    from the state's values.  It holds the state's one chemical potential,
    mu_hat, undealiased, which only model_a2.phase_forcing reads, under the
    2/3 rule.  Its one bulk entropy, bracket (B and its slopes),
    serves the state's entropy and energy and the step's heat forcing alike.
    """

    def __init__(self, state: ThermoState, p: ModelParams):
        self.state, self.p, self.grid = state, p, state.grid
        self.phi, self.theta = state.phi.values, state.theta.values

    @cached_property
    def phi_hat(self) -> np.ndarray:
        owned = self.state.phi_hat
        return rfftn(self.grid, self.phi) if owned is None else owned

    @cached_property
    def theta_hat(self) -> np.ndarray:
        owned = self.state.theta_hat
        return rfftn(self.grid, self.theta) if owned is None else owned

    @cached_property
    def grad_phi(self) -> list[np.ndarray]:
        return grad_from_hat(self.grid, self.phi_hat)

    @cached_property
    def grad_theta(self) -> list[np.ndarray]:
        return grad_from_hat(self.grid, self.theta_hat)

    @cached_property
    def force(self) -> list[np.ndarray]:
        """The dissipative force of the state's rate: the one a stepped state
        owns, else formed from the rate's spectrum, zero without a rate."""
        if self.state.force is not None:
            return self.state.force
        if self.state.dphi_dt is None:
            return [np.zeros(self.grid.shape) for _ in range(self.grid.dim)]
        return dissipative_force(self, rfftn(self.grid, self.state.dphi_dt.values))

    @cached_property
    def bulk(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, dW/dphi) of the state from bulk_potential."""
        return bulk_potential(self.phi, self.theta, self.p)

    @cached_property
    def mu_hat(self) -> np.ndarray:
        """Spectrum of mu = -div(eps theta grad phi) + dW/dphi / (eps theta)."""
        eps_theta = self.p.eps * self.theta
        flux = [eps_theta * g for g in self.grad_phi]
        out = rfftn(self.grid, self.bulk[1] / eps_theta)
        out -= div_hat(self.grid, flux)
        return out

    @cached_property
    def bracket(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(B, dB/dphi, dB/dtheta) of the state's bulk entropy (_bracket_b):
        B serves its entropy and energy, the slopes the heat forcing."""
        return _bracket_b(self.phi, self.theta, self.p, self.bulk)

    @cached_property
    def entropy(self) -> np.ndarray:
        return entropy_density(self)

    @cached_property
    def recip(self) -> np.ndarray:
        return _regularized_recip(self.phi, self.p.reg_delta)

    @cached_property
    def coupling(self) -> list[np.ndarray]:
        """a1's transported-entropy force s*grad(theta)*phi/(phi^2 + delta^2)."""
        return [self.entropy * gt * self.recip for gt in self.grad_theta]

    @cached_property
    def coupling_hat(self) -> np.ndarray:
        """Spectrum of a1's coupling flux P div(coupling) under the 2/3 rule."""
        return div_hat(self.grid, self.coupling, mask=True)


def dissipative_force(t: StateTerms, rate_hat: np.ndarray) -> list[np.ndarray]:
    """The force grad(mu) + alpha grad(dphi/dt), plus t.coupling for model
    "a1", of the phase rate with half spectrum rate_hat leaving t.state, the
    one place it is formed: grad lap^-1(rate - t.coupling_hat) + t.coupling,
    zero at k = 0, as the phase equation (1 - alpha lap) dphi/dt = lap(mu) +
    P div(coupling) implies.  dissipation squares it."""
    a1 = t.p.model == "a1"
    inner = rate_hat - t.coupling_hat if a1 else rate_hat
    force = grad_from_hat(t.grid, inner * t.grid.half_inv_lap)
    if a1:
        for f, c in zip(force, t.coupling):
            f += c
    return force


def dissipation(t: StateTerms, rate: np.ndarray, force: list[np.ndarray]) -> np.ndarray:
    """|force|^2 + alpha*rate^2 for the phase rate `rate` and its force
    (dissipative_force): the one place the dissipation is formed.  The heat
    forcing (model_a2.heat_forcing) takes it at the step's fresh rate, the
    entropy production at the state's own."""
    out = _sum_sq(force)
    out += (t.p.alpha * rate) * rate
    return out


def mixture_velocity(t: StateTerms) -> list[np.ndarray]:
    """a1's u = -t.recip times the state's force (StateTerms.force): as
    p.reg_delta shrinks, -div(phi u) approaches div(force) = dphi/dt + (I -
    P) div(coupling), the rate the phase equation transports (checked in
    the tests at delta = 1e-5)."""
    return [-t.recip * f for f in t.force]


def _require_invertible_entropy_slope(t: StateTerms):
    """The a1 chain-rule expansion divides by theta*ds/dtheta; require
    ds/dtheta > 1e-10 pointwise (the free energy's theta-convexity, checked
    at runtime)."""
    ds_dtheta = t.p.k_b / t.theta + t.bracket[2]
    worst = float(np.min(ds_dtheta))
    if worst <= 1e-10:
        loc = first_min_index(ds_dtheta)
        raise SingularityError(
            f"entropy slope ds/dtheta = {worst:.6e} at index {loc} is not "
            "invertible; the transported update cannot be solved for the rate"
        )


def entropy_production(t: StateTerms) -> np.ndarray:
    """Pointwise theta*Delta^* of the state t.state for model t.p.model; a
    sum of squares: the dissipation at the state's own dphi/dt and force
    (StateTerms.force), + kappa|grad theta|^2/theta.  Every transform it
    reads is a term of t."""
    rate = t.state.dphi_dt
    out = dissipation(t, 0.0 if rate is None else rate.values, t.force)
    out += t.p.kappa * _sum_sq(t.grad_theta) / t.theta
    return out


def total_energy(t: StateTerms) -> float:
    """Integral of the internal energy density of t.state over the box."""
    return float(np.sum(internal_energy_density(t))) * t.grid.h**t.grid.dim
