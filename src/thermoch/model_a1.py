"""Temperature-transport variant of the integrator (experimental).

In this mode the entropy is transported by the mixture velocity

    u = -(grad(mu) + alpha grad(dphi/dt) + s grad(theta)/phi)/phi,

the dissipative force (thermo.dissipative_force) over phi.  The phase
equation gains the coupling flux div(s grad(theta)/phi), and the
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
start of the step, u = _velocity(terms), and is zero when the state has no
rates yet (t = 0, like the rate caches).  Its force is the one the audit's
production of the state squares: the dealiased grad mu (StateTerms.grad_mu)
that the heat forcing also reads, and the grad(dphi/dt) that the step
which produced the state formed, (grad phi_new - grad phi)/dt, which the
state owns (thermo.ThermoState), so a run restarted from any recorded
state continues bit for bit.
Consequences worth knowing: with grad(theta_0) = 0 the first step reduces to
the fixed-background step exactly, and u lags the step by one rate, which is
first-order consistent, matching the overall scheme order.

The stepper is model_a2.imex_step for every model; this module holds only
the a1 terms it adds.
"""

from __future__ import annotations

import numpy as np

from .grid import div_hat, first_min_index
from .thermo import SingularityError, StateTerms, dissipative_force


def _velocity(t: StateTerms) -> list[np.ndarray]:
    """u = -t.recip times the state's dissipative force at its own
    grad(dphi/dt), whose coupling is s grad(theta) t.recip.

    Consistency: -div(phi u) approaches lap(mu) + the coupling flux as the
    regularization width p.reg_delta shrinks (checked in the tests at
    delta = 1e-5).
    """
    return [-t.recip * f for f in dissipative_force(t, t.grad_rate)]


def _require_invertible_entropy_slope(t: StateTerms):
    """The chain-rule expansion divides by theta*ds/dtheta; require ds/dtheta
    > 1e-10 pointwise (the free energy's theta-convexity, checked at runtime)."""
    ds_dtheta = t.p.k_b / t.theta + t.bracket[2]
    worst = float(np.min(ds_dtheta))
    if worst <= 1e-10:
        loc = first_min_index(ds_dtheta)
        raise SingularityError(
            f"entropy slope ds/dtheta = {worst:.6e} at index {loc} is not "
            "invertible; the transported update cannot be solved for the rate"
        )


def entropy_transport_hat(t: StateTerms) -> np.ndarray:
    """Spectrum of div(s u), u recomputed from the state with the step's mu.

    u is zero while the state has no rates; the step then skips this term.
    """
    u = _velocity(t)
    return div_hat(t.grid, [t.entropy * ui for ui in u], mask=True)
