"""Thermodynamic audits for simulation snapshots.

Every quantity here is a deterministic function of a pair of consecutive
states, the step size, and the model parameters, so that re-running a
simulation reproduces the diagnostics stream byte for byte.  An audit reads
the thermo.StateTerms of its two states: model_a2.march builds one per
state and hands the same terms to the next step, so the audit transforms
only what no step needs (the undealiased grad mu, lap theta and, outside
a1, grad theta) and reads the previous state's entropy from its terms.  The
terms start from what the state carries from its step (its spectra and
grad(dphi/dt)) and are otherwise formed from the state's values, so
sharing them changes no step, and a run continued from a recorded state
stays bit for bit the uninterrupted run.  The central
check is a discrete residual of the entropy balance

    theta * ds/dt + theta * div(q / theta) - production,   q = -kappa grad(theta),

which measures how far a discrete trajectory is from satisfying the
dissipation law the continuous model is built on.  The residual is not
expected to vanish at finite step size; the gates assert it shrinks under
refinement.  No step produced a run's initial state, so model_a2.march
audits it against itself, and that step-0 row forms no residual (None).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec, grad_arrays, irfftn, l2_norm, mean, rfftn
from .thermo import NonFiniteError, StateTerms, entropy_production, total_energy

CSV_HEADER = (
    "step,t,mass,E_tot,E_drift_rel,min_theta,min_entropy_production,cd_residual_l2"
)


@dataclass(frozen=True)
class DiagnosticsRow:
    """One audited snapshot of a run.  cd_residual_l2 is None on march's
    step-0 row, which no step produced (audit's prev is curr); its CSV
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
    prev: StateTerms,
    curr: StateTerms,
    dt: float,
    *,
    e_ref: float,
    step: int = 0,
    t: float = 0.0,
) -> DiagnosticsRow:
    """Audit the transition prev.state -> curr.state taken with step size dt.

    The model parameters are curr's, and the drift is measured against the
    energy e_ref (march passes the run's initial energy).  A pair that is one
    StateTerms (prev is curr, as on march's step-0 row) is no transition: its
    row forms no residual and holds None.  A non-finite row raises NonFiniteError.
    """
    if prev.grid != curr.grid:
        raise ValueError("audit requires both states on the same grid")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    grid, p, theta = curr.grid, curr.p, curr.theta

    volume = grid.box_len**grid.dim
    mass = volume * mean(curr.state.phi)
    e_tot = total_energy(curr)
    e_drift_rel = abs(e_tot - e_ref) / max(abs(e_ref), 1e-30)

    production = entropy_production(curr)

    residual_l2 = None
    if prev is not curr:
        # theta * ds/dt + theta * div(q/theta) with everything evaluated at
        # curr; theta * div(-kappa grad(theta) / theta) = -kappa lap(theta)
        #                                         + kappa |grad(theta)|^2 / theta
        ds_dt = (curr.entropy - prev.entropy) / dt
        lap_theta = irfftn(grid, grid.half_lap * curr.theta_hat)
        grad_theta_sq = sum(g * g for g in curr.grad_theta)
        residual = theta * ds_dt - p.kappa * lap_theta + p.kappa * grad_theta_sq / theta
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


# --------------------------------------------------------------------------
# classic two-field phase model demo (not a gated test)


def caginalp_demo(
    n: int = 64,
    steps: int = 400,
    dt: float = 1e-3,
    seed: int = 7,
    sample_every: int = 80,
) -> str:
    """Demonstrate that the classic coupled phase/heat model drifts in energy.

    The demo evolves the two-field system

        tau dphi/dt = xi^2 lap( (phi^3 - phi)/(2a) - 2 theta - xi^2 lap(phi) )
        dtheta/dt + (l/2) dphi/dt = k lap(theta)

    whose candidate conserved density e = W + theta*s collapses to the
    interface energy xi^2 |grad phi|^2 / 2 + (phi^2-1)^2 / (8a).  That density
    is dissipated, not conserved, so its space integral visibly decays — in
    contrast to the coupled model integrated by this package, whose total
    energy drift vanishes with the step size.  The stiffest operator is kept
    implicit; the mobility sign is chosen so the fourth-order term damps
    (the conserved-order-parameter reading of the model).
    """
    tau, xi, a_well, latent, conduct = 1.0, 1.0, 0.5, 1.0, 1.0
    grid = GridSpec(dim=2, n=n, box_len=2.0 * np.pi)
    rng = np.random.default_rng(seed)
    phi = 0.5 * rng.uniform(-1.0, 1.0, grid.shape)
    phi -= phi.mean()
    theta = np.zeros(grid.shape)

    def interface_energy(phi_vals: np.ndarray) -> float:
        grads = grad_arrays(grid, phi_vals)
        density = 0.5 * xi**2 * sum(g * g for g in grads)
        density += (phi_vals**2 - 1.0) ** 2 / (8.0 * a_well)
        return float(np.sum(density) * (grid.box_len / grid.n) ** grid.dim)

    k2 = -grid.half_lap
    phi_denom = 1.0 + dt * xi**4 * k2**2 / tau
    theta_denom = 1.0 + dt * conduct * k2

    lines = [
        "classic coupled phase/heat model: candidate energy e = W + theta*s",
        "step        t     total_e     rel_drift",
    ]
    e0 = interface_energy(phi)
    lines.append(f"{0:>4} {0.0:>8.4f} {e0:>11.6f} {0.0:>13.3e}")
    for j in range(1, steps + 1):
        bulk = (phi**3 - phi) / (2.0 * a_well) - 2.0 * theta
        f_hat = -xi**2 * k2 * rfftn(grid, bulk)
        phi_hat_new = (rfftn(grid, phi) + dt * f_hat / tau) / phi_denom
        phi_new = irfftn(grid, phi_hat_new)
        dphi_dt = (phi_new - phi) / dt
        theta_hat = (rfftn(grid, theta - dt * 0.5 * latent * dphi_dt)) / theta_denom
        theta = irfftn(grid, theta_hat)
        phi = phi_new
        if j % sample_every == 0 or j == steps:
            e = interface_energy(phi)
            lines.append(
                f"{j:>4} {j * dt:>8.4f} {e:>11.6f} {abs(e - e0) / abs(e0):>13.3e}"
            )
    lines.append("the drift is O(1): this system does not conserve e.")
    return "\n".join(lines)
