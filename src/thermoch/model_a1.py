"""Temperature-transport variant of the integrator (experimental).

In this mode the entropy is transported by the mixture velocity

    u = -grad(mu)/phi - s grad(theta)/phi^2 - alpha grad(dphi/dt)/phi,

so the phase equation gains the coupling flux div(s grad(theta)/phi) and the
temperature equation is the transported entropy balance

    theta d/dt[s] + div(s u) = theta div(kappa grad(theta)/theta) + production.

The variant is selected by ModelParams.model = "a1", and delta below is
ModelParams.reg_delta.  Every reciprocal of phi is regularized as
1/phi ~ phi/(phi^2 + delta^2) (thermo._regularized_recip): odd, smooth,
bounded by 1/(2 delta), and vanishing at phi = 0, which switches the
transport off exactly where the mixture has no majority phase.  Expanding
theta d/dt[s] by the chain rule gives the pointwise coefficient
theta ds/dtheta = k_b + theta dB/dtheta on the temperature rate; the update
keeps the constant k_b part implicit (the same per-mode heat factor as the
fixed-background model), carries theta dB/dtheta against the lagged rate, and
aborts if ds/dtheta loses positivity anywhere, since the expansion is then no
longer invertible for the rate.

The transport velocity entering a step is the one cached at the end of the
previous step (zero at t = 0, like the rate caches).  Consequences worth
knowing: with grad(theta_0) = 0 the first step reduces to the fixed-background
step exactly, and the velocity lag is first-order consistent, matching the
overall scheme order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec, divergence_arrays, grad_arrays
from .model_a2 import SimConfig, Trajectory, imex_step, march
from .thermo import (
    ModelParams,
    SingularityError,
    ThermoState,
    _argmin_index,
    _bracket_b,
    _regularized_recip,
    chemical_potential,
    entropy_density,
)


@dataclass(frozen=True)
class A1Extras:
    """Per-step carry-over of the transport mode: the cached velocity."""

    velocity: tuple[Field, ...]

    def __post_init__(self):
        grids = {u.grid for u in self.velocity}
        if len(grids) != 1:
            raise ValueError("velocity components must share one grid")

    @classmethod
    def zero(cls, grid: GridSpec) -> "A1Extras":
        return cls(velocity=tuple(Field(grid, np.zeros(grid.shape)) for _ in range(grid.dim)))


def _require_a1(p: ModelParams) -> None:
    if p.model != "a1":
        raise ValueError(f"the transported step needs model 'a1', got {p.model!r}")


def a1_coupling_flux(s: ThermoState, p: ModelParams, dealias: bool = True) -> Field:
    """div(s grad(theta) phi/(phi^2 + delta^2)) — the phase-equation coupling."""
    grid = s.grid
    recip = _regularized_recip(s.phi.values, p.reg_delta)
    entropy = entropy_density(s, p).values
    grad_theta = grad_arrays(grid, s.theta.values)
    comps = [entropy * gt * recip for gt in grad_theta]
    return Field(grid, divergence_arrays(grid, comps, mask=dealias))


def a1_velocity(s: ThermoState, mu: Field, p: ModelParams) -> tuple[Field, ...]:
    """Reconstruct the mixture velocity from the state and its potential.

    Consistency: -div(phi u) approaches lap(mu) + the coupling flux as the
    regularization width p.reg_delta shrinks (checked in the tests at
    delta = 1e-5).
    """
    grid = s.grid
    recip = _regularized_recip(s.phi.values, p.reg_delta)
    entropy = entropy_density(s, p).values
    grad_mu = grad_arrays(grid, mu.values)
    grad_theta = grad_arrays(grid, s.theta.values)
    grad_rate = grad_arrays(grid, s.dphi_dt_values())
    comps = []
    for i in range(grid.dim):
        ui = -(
            grad_mu[i] * recip
            + entropy * grad_theta[i] * recip**2
            + p.alpha * grad_rate[i] * recip
        )
        comps.append(Field(grid, ui))
    return tuple(comps)


def _require_invertible_entropy_slope(s: ThermoState, p: ModelParams):
    """The chain-rule expansion divides by theta*ds/dtheta; require ds/dtheta
    > 1e-10 pointwise (the free energy's theta-convexity, checked at runtime)."""
    _, _, db_dtheta = _bracket_b(s.phi.values, s.theta.values, p)
    ds_dtheta = p.k_b / s.theta.values + db_dtheta
    worst = float(np.min(ds_dtheta))
    if worst <= 1e-10:
        loc = _argmin_index(ds_dtheta)
        raise SingularityError(
            f"entropy slope ds/dtheta = {worst:.6e} at index {loc} is not "
            "invertible; the transported update cannot be solved for the rate"
        )


def a1_step(
    s: ThermoState,
    p: ModelParams,
    dt: float,
    *,
    extras: A1Extras | None = None,
    dealias: bool = True,
) -> tuple[ThermoState, A1Extras]:
    """One transported step; returns the new state and the refreshed carry.

    p.model must be "a1".  The phase update is the fixed-background step
    plus the explicit coupling flux; the temperature update is the
    fixed-background implicit solve with the transported production form
    and the extra forcing -div(s u) evaluated with the cached velocity.
    """
    _require_a1(p)
    if extras is None:
        extras = A1Extras.zero(s.grid)
    _require_invertible_entropy_slope(s, p)

    grid = s.grid
    flux = a1_coupling_flux(s, p, dealias=dealias)
    entropy = entropy_density(s, p).values
    transported = [entropy * u.values for u in extras.velocity]
    div_su = divergence_arrays(grid, transported, mask=dealias)

    new_state = imex_step(
        s,
        p,
        dt,
        dealias=dealias,
        f1_extra=flux.values,
        f2_extra=-div_su,
    )
    mu_new = chemical_potential(new_state, p, dealias=dealias)
    return new_state, A1Extras(velocity=a1_velocity(new_state, mu_new, p))


def simulate(cfg: SimConfig, init: ThermoState) -> Trajectory:
    """Run the transported model (cfg.params.model must be "a1");
    diagnostics use the transported production."""
    _require_a1(cfg.params)
    carry = {"extras": A1Extras.zero(cfg.grid)}

    def step(state: ThermoState) -> ThermoState:
        new_state, carry["extras"] = a1_step(
            state, cfg.params, cfg.dt, extras=carry["extras"], dealias=cfg.dealias
        )
        return new_state

    return march(cfg, init, step)
