"""Snapshot audits, the isothermal interface energy, and the energy-drift demo."""

import numpy as np
import pytest

from analysis_oracle import ginzburg_landau_energy
from collect import collect
from spectral_oracle import band_limited
from thermoch.diagnostics import CSV_HEADER, audit, caginalp_demo
from thermoch.grid import Field, GridSpec, mean
from thermoch.model_a2 import SimConfig, simulate
from thermoch.thermo import ModelParams, StateTerms, ThermoState, total_energy

GRID = GridSpec(dim=2, n=32, box_len=2.0 * np.pi)


def params(**kw):
    base = dict(eps=1.0, theta_bar=1.0, alpha=0.5, kappa=1.0, k_b=1.0)
    base.update(kw)
    return ModelParams(**base)


def uniform_state(grid, phi, theta):
    return ThermoState(
        Field(grid, np.full(grid.shape, float(phi))),
        Field(grid, np.full(grid.shape, float(theta))),
    )


class TestAudit:
    def test_stationary_pure_phase(self):
        p = params(theta_bar=1.4)
        s = uniform_state(GRID, 1.0, 1.4)
        prev, curr = StateTerms(s, p), StateTerms(s, p)
        row = audit(prev, curr, 1e-3, e_ref=total_energy(prev), step=5, t=5e-3)
        assert row.step == 5 and row.t == 5e-3
        assert row.e_drift_rel == 0.0
        assert row.cd_residual_l2 <= 1e-12
        assert abs(row.min_entropy_production) <= 1e-14
        assert row.min_theta == pytest.approx(1.4)

    def test_mass_equals_mean_times_volume(self):
        rng = np.random.default_rng(3)
        p = params()
        phi = Field(GRID, 0.2 + 0.1 * rng.standard_normal(GRID.shape))
        s = ThermoState(phi, Field(GRID, np.ones(GRID.shape)))
        prev = StateTerms(s, p)
        row = audit(prev, StateTerms(s, p), 1e-3, e_ref=total_energy(prev))
        volume = GRID.box_len**GRID.dim
        assert row.mass == pytest.approx(mean(phi) * volume, abs=1e-14)

    def test_validation(self):
        p = params()
        s1 = uniform_state(GRID, 1.0, 1.0)
        s2 = uniform_state(GridSpec(dim=1, n=32, box_len=2 * np.pi), 1.0, 1.0)
        t1, t2 = StateTerms(s1, p), StateTerms(s2, p)
        with pytest.raises(ValueError, match="grid"):
            audit(t1, t2, 1e-3, e_ref=1.0)
        with pytest.raises(ValueError, match="dt"):
            audit(t1, t1, 0.0, e_ref=1.0)

    def test_pure_heat_residual_refines_with_dt(self):
        # phi stays exactly zero, so the audit residual is the heat-equation
        # defect, which shrinks roughly linearly with the step size
        p = params(eps=2.0)
        x = GRID.axes[0]
        theta0 = Field(GRID, 2.0 + 0.2 * np.cos(x) * np.ones(GRID.shape))
        residuals = []
        for dt in (4e-3, 2e-3, 1e-3):
            s = ThermoState(Field(GRID, np.zeros(GRID.shape)), theta0)
            cfg = SimConfig(grid=GRID, params=p, dt=dt, t_end=0.04, output_every=10**6)
            traj = simulate(cfg, s)
            assert np.max(np.abs(traj.states[-1].phi.values)) == 0.0
            residuals.append(traj.diagnostics[-1].cd_residual_l2)
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[0] / residuals[2] > 2.0

    def test_csv_line_deterministic(self):
        p = params()
        rng = np.random.default_rng(4)
        s = ThermoState(band_limited(GRID, rng), Field(GRID, np.ones(GRID.shape)))
        e_ref = total_energy(StateTerms(s, p))
        a, b = (
            audit(StateTerms(s, p), StateTerms(s, p), 1e-3, e_ref=e_ref, step=1, t=1e-3).csv_line()
            for _ in range(2)
        )
        assert a == b
        assert len(a.split(",")) == len(CSV_HEADER.split(","))


class TestIsothermalCheck:
    def test_monotone_run_passes(self):
        rng = np.random.default_rng(6)
        p = params(alpha=0.0, model="isothermal")
        s = ThermoState(
            band_limited(GRID, rng, amp=0.05), Field(GRID, np.ones(GRID.shape))
        )
        cfg = SimConfig(grid=GRID, params=p, dt=1e-4, t_end=0.05, output_every=50)
        traj = collect(simulate, cfg, s)
        assert traj.termination == "completed" and len(traj.states) == 11
        energies = [ginzburg_landau_energy(state.phi, p) for state in traj.states]
        # 50 steps between snapshots, each allowed 1e-10 of round-off
        assert all(b - a <= 50 * 1e-10 for a, b in zip(energies, energies[1:]))
        assert energies[-1] < energies[0]

    def test_gl_energy_of_uniform_mixed_state(self):
        p = params(eps=2.0, theta_bar=1.5)
        phi = Field(GRID, np.zeros(GRID.shape))
        # W(0, theta_bar) = 1/4, no gradient part
        expected = 0.25 / (p.eps * p.theta_bar) * GRID.box_len**2
        assert ginzburg_landau_energy(phi, p) == pytest.approx(expected, rel=1e-12)


class TestCaginalpDemo:
    def test_energy_visibly_drifts(self):
        text = caginalp_demo(n=32, steps=200, dt=1e-3, sample_every=100)
        assert "does not conserve" in text
        last_data = [
            ln for ln in text.splitlines() if ln.strip() and ln.strip()[0].isdigit()
        ][-1]
        drift = float(last_data.split()[-1])
        assert drift > 1e-3

    def test_deterministic(self):
        a = caginalp_demo(n=32, steps=50, dt=1e-3, sample_every=25)
        b = caginalp_demo(n=32, steps=50, dt=1e-3, sample_every=25)
        assert a == b
