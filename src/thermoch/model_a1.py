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

The transport velocity entering a step is recomputed from the state at the
start of the step, u = a1_velocity(s, mu(s)), and is zero when the state has
no rates yet (t = 0, like the rate caches).  Nothing is carried between
steps, so a run restarted from any recorded state continues bit for bit.
Consequences worth knowing: with grad(theta_0) = 0 the first step reduces to
the fixed-background step exactly, and u lags the step by one rate, which is
first-order consistent, matching the overall scheme order.

The stepper is model_a2.imex_step for every model; this module holds only
the a1 terms it adds.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, divergence_arrays, grad_arrays
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


def entropy_transport(s: ThermoState, p: ModelParams, dealias: bool = True) -> np.ndarray:
    """div(s u) with the velocity recomputed from the state; u = 0 while the
    state has no rates."""
    grid = s.grid
    if s.dphi_dt is None:
        velocity = [np.zeros(grid.shape)] * grid.dim
    else:
        mu = chemical_potential(s, p, dealias=dealias)
        velocity = [u.values for u in a1_velocity(s, mu, p)]
    entropy = entropy_density(s, p).values
    return divergence_arrays(grid, [entropy * u for u in velocity], mask=dealias)
