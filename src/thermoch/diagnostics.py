"""Thermodynamic audits for simulation snapshots.

Every quantity here is a deterministic function of a state, the entropy
of the state before it, the step size, and the model parameters, so that
re-running a simulation reproduces the diagnostics stream byte for byte.
An audit reads the thermo.StateTerms of its state: model_a2.march builds
one per state and hands the same terms to the next step, so the audit
transforms only what no step needs (lap theta and, outside a1, grad theta);
its production squares the force the step squared, which the state owns.
The terms start from what the state owns (thermo.ThermoState), so sharing
them changes no step.
The central check is a discrete residual of the entropy balance

    theta * ds/dt + theta * div(q / theta) - production,   q = -kappa grad(theta),

which measures how far a discrete trajectory is from satisfying the
dissipation law the continuous model is built on.  The residual is not
expected to vanish at finite step size; the gates assert it shrinks under
refinement.  No step produced a run's initial state, so model_a2.march
audits it with no previous entropy, and that step-0 row forms no residual
(None).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, irfftn, l2_norm, mean
from .thermo import NonFiniteError, StateTerms, _sum_sq, entropy_production, total_energy

CSV_HEADER = (
    "step,t,mass,E_tot,E_drift_rel,min_theta,min_entropy_production,cd_residual_l2"
)


@dataclass(frozen=True)
class DiagnosticsRow:
    """One audited snapshot of a run.  cd_residual_l2 is None on march's
    step-0 row, which no step produced (audit has no prev_entropy); its CSV
    field is then empty."""

    step: int
    t: float
    mass: float
    e_tot: float
    e_drift_rel: float
    min_theta: float
    min_entropy_production: float
    cd_residual_l2: float | None

    def csv_line(self) -> str:
        return ",".join(
            [str(self.step)]
            + [
                "" if v is None else repr(float(v))
                for v in (
                    self.t,
                    self.mass,
                    self.e_tot,
                    self.e_drift_rel,
                    self.min_theta,
                    self.min_entropy_production,
                    self.cd_residual_l2,
                )
            ]
        )


def audit(
    curr: StateTerms,
    dt: float,
    *,
    prev_entropy: np.ndarray | None = None,
    e_ref: float,
    step: int = 0,
    t: float = 0.0,
) -> DiagnosticsRow:
    """Audit curr.state, reached with step size dt from a state whose
    entropy density is prev_entropy.

    The model parameters are curr's, and the drift is measured against the
    energy e_ref (march passes the run's initial energy).  Without
    prev_entropy (march's step-0 row) there is no transition: the row forms
    no residual and holds None.  A non-finite row raises NonFiniteError.
    """
    grid, p, theta = curr.grid, curr.p, curr.theta
    if prev_entropy is not None and prev_entropy.shape != grid.shape:
        raise ValueError("audit requires the previous entropy on the state's grid")
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    volume = grid.box_len**grid.dim
    mass = volume * mean(curr.state.phi)
    e_tot = total_energy(curr)
    e_drift_rel = abs(e_tot - e_ref) / max(abs(e_ref), 1e-30)

    production = entropy_production(curr)

    residual_l2 = None
    if prev_entropy is not None:
        # theta * ds/dt + theta * div(q/theta) with everything evaluated at
        # curr; theta * div(-kappa grad(theta) / theta) = -kappa lap(theta)
        #                                         + kappa |grad(theta)|^2 / theta
        # summed in place, so the audit's peak holds one array, not four terms
        residual = theta * ((curr.entropy - prev_entropy) / dt)
        residual -= p.kappa * irfftn(grid, grid.half_lap * curr.theta_hat)
        residual += p.kappa * _sum_sq(curr.grad_theta) / theta
        residual -= production
        residual_l2 = float(l2_norm(Field(grid, residual)))

    row = DiagnosticsRow(
        step=step,
        t=t,
        mass=float(mass),
        e_tot=float(e_tot),
        e_drift_rel=float(e_drift_rel),
        min_theta=float(np.min(theta)),
        min_entropy_production=float(np.min(production)),
        cd_residual_l2=residual_l2,
    )
    for name in ("e_tot", "e_drift_rel", "min_entropy_production", "cd_residual_l2"):
        value = getattr(row, name)
        if value is not None and not np.isfinite(value):
            raise NonFiniteError(f"{name} must be finite, got {value}")
    return row
