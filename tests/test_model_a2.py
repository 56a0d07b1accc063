"""IMEX integrator: forcing assembly, mode-wise updates, marching loop."""

import math

import numpy as np
import pytest

from thermoch.grid import Field, GridSpec, fftn, grad_arrays, ifftn_real
from thermoch.model_a2 import SimConfig, Trajectory, imex_step, march, rhs_f1, rhs_f2, simulate
from thermoch.thermo import (
    ModelParams,
    PositivityError,
    SingularityError,
    ThermoState,
    chemical_potential,
    entropy_production,
)

GRID1 = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)
GRID2 = GridSpec(dim=2, n=32, box_len=2.0 * np.pi)


def params(**kw):
    base = dict(eps=1.0, theta_bar=1.0, alpha=0.5, kappa=1.0, k_b=1.0)
    base.update(kw)
    return ModelParams(**base)


def uniform_state(grid, phi=0.0, theta=1.0):
    return ThermoState(
        Field(grid, np.full(grid.shape, float(phi))),
        Field(grid, np.full(grid.shape, float(theta))),
    )


def band_limited(grid, rng, amp=0.1, kmax_int=4):
    c = fftn(grid, rng.standard_normal(grid.shape))
    keep = np.ones(grid.shape, dtype=bool)
    cut = 2.0 * np.pi * kmax_int / grid.box_len
    for ki in grid.k_axes:
        keep &= np.abs(ki) <= cut + 1e-12
    v = ifftn_real(grid, c * keep)
    v -= v.mean()
    return Field(grid, amp * v / np.max(np.abs(v)))


class TestSimConfig:
    def test_validation(self):
        p = params()
        with pytest.raises(ValueError, match="dt"):
            SimConfig(grid=GRID2, params=p, dt=0.6, t_end=1.0)
        with pytest.raises(ValueError, match="dt"):
            SimConfig(grid=GRID2, params=p, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError, match="multiple"):
            SimConfig(grid=GRID2, params=p, dt=0.3, t_end=1.0)
        with pytest.raises(ValueError, match="output_every"):
            SimConfig(grid=GRID2, params=p, dt=0.1, t_end=1.0, output_every=0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=1.0)
        assert cfg.n_steps == 10


class TestRhsF1:
    def test_constant_state_vanishes(self):
        p = params(theta_bar=1.3)
        s = uniform_state(GRID2, phi=0.4, theta=1.3)
        f1 = rhs_f1(s, p)
        assert np.max(np.abs(f1.values)) < 1e-14

    def test_background_theta_cubic_expansion(self):
        # theta == theta_bar kills both the viscous correction and the
        # coupling, leaving lap((phi^3 - phi) / (eps theta_bar))
        a, m = 0.7, 2
        p = params(eps=0.8, theta_bar=1.3)
        x = GRID1.axes[0]
        s = ThermoState(
            Field(GRID1, a * np.sin(m * x)),
            Field(GRID1, np.full(GRID1.shape, p.theta_bar)),
        )
        f1 = rhs_f1(s, p)
        expected = (
            -(m**2) * (0.75 * a**3 - a) * np.sin(m * x)
            + 2.25 * m**2 * a**3 * np.sin(3 * m * x)
        ) / (p.eps * p.theta_bar)
        assert np.max(np.abs(f1.values - expected)) < 1e-9

    def test_constant_offset_adds_bilaplacian(self):
        a, m, delta = 0.5, 2, 0.3
        p = params(eps=0.9, theta_bar=1.1)
        theta_c = p.theta_bar + delta
        x = GRID1.axes[0]
        s = ThermoState(
            Field(GRID1, a * np.sin(m * x)),
            Field(GRID1, np.full(GRID1.shape, theta_c)),
        )
        f1 = rhs_f1(s, p)
        bulk_sin = 0.75 * a**3 - a + 2.0 * delta**3 * a / 3.0
        expected = (
            -(m**2) * bulk_sin * np.sin(m * x)
            + 2.25 * m**2 * a**3 * np.sin(3 * m * x)
        ) / (p.eps * theta_c)
        expected -= p.eps * delta * a * m**4 * np.sin(m * x)
        assert np.max(np.abs(f1.values - expected)) < 1e-10


class TestRhsF2:
    def test_static_state_is_dissipation_square(self):
        # no rates anywhere: f2 collapses to |grad mu|^2, the first summand
        # of the entropy production at zero phase rate and constant theta
        rng = np.random.default_rng(5)
        p = params()
        s = ThermoState(band_limited(GRID2, rng), Field(GRID2, np.ones(GRID2.shape)))
        zero_rate = Field(GRID2, np.zeros(GRID2.shape))
        f2 = rhs_f2(s, zero_rate, p, dealias=False)
        mu = chemical_potential(s, p, dealias=False)
        grad_rate = [Field(GRID2, z) for z in grad_arrays(GRID2, np.zeros(GRID2.shape))]
        production = entropy_production(s, mu, grad_rate, p)
        assert np.min(f2.values) >= 0.0
        assert np.max(np.abs(f2.values - production.values)) < 1e-12

    def test_manufactured_reassembly(self):
        # hand-assembled formula on smooth fields with prescribed rates
        rng = np.random.default_rng(6)
        p = params(eps=0.7, theta_bar=1.2, alpha=0.4, kappa=0.9, k_b=1.1)
        phi = band_limited(GRID2, rng, amp=0.3)
        theta_vals = 1.2 + band_limited(GRID2, rng, amp=0.2).values
        rate_phi = band_limited(GRID2, rng, amp=0.5)
        rate_theta = band_limited(GRID2, rng, amp=0.5)
        s = ThermoState(phi, Field(GRID2, theta_vals), dtheta_dt=rate_theta)
        f2 = rhs_f2(s, rate_phi, p, dealias=False)

        ph, th, rp = phi.values, theta_vals, rate_phi.values
        dth = th - p.theta_bar
        c = dth**3 / 3.0
        w = 0.25 * (ph**2 - 1.0) ** 2 + c * ph**2
        dwdphi = (ph**2 - 1.0) * ph + 2.0 * c * ph
        db_dphi = dwdphi / (p.eps * th**2) - 2.0 * dth**2 * ph / (p.eps * th)
        db_dth = (
            2.0 * dth**2 * ph**2 / (p.eps * th**2)
            - 2.0 * w / (p.eps * th**3)
            - 2.0 * dth * ph**2 / (p.eps * th)
        )
        grads_phi = grad_arrays(GRID2, ph)
        flux = [p.eps * th * gp for gp in grads_phi]
        div_flux = np.zeros(GRID2.shape)
        for i, comp in enumerate(flux):
            div_flux += grad_arrays(GRID2, comp)[i]
        mu = -div_flux + dwdphi / (p.eps * th)
        grads_mu = grad_arrays(GRID2, mu)
        grads_rate = grad_arrays(GRID2, rp)
        expected = p.alpha * rp**2 - th * (db_dphi * rp + db_dth * rate_theta.values)
        for i in range(2):
            expected += p.eps * th * grads_rate[i] * grads_phi[i]
            expected += (grads_mu[i] + p.alpha * grads_rate[i]) ** 2
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(f2.values - expected)) < 1e-10 * scale

    def test_lagged_theta_rate_enters_linearly(self):
        rng = np.random.default_rng(7)
        p = params()
        phi = band_limited(GRID2, rng, amp=0.3)
        theta = Field(GRID2, 1.0 + band_limited(GRID2, rng, amp=0.2).values)
        rate_phi = band_limited(GRID2, rng, amp=0.5)
        cache = band_limited(GRID2, rng, amp=1.0)
        without = rhs_f2(ThermoState(phi, theta), rate_phi, p, dealias=False)
        with_cache = rhs_f2(
            ThermoState(phi, theta, dtheta_dt=cache), rate_phi, p, dealias=False
        )
        from thermoch.thermo import _bracket_b

        _, _, db_dth = _bracket_b(phi.values, theta.values, p)
        expected_gap = -theta.values * db_dth * cache.values
        assert np.max(np.abs(with_cache.values - without.values - expected_gap)) < 1e-12

    def test_a1_without_regularization_is_singular_at_phi_zero(self):
        # phi = 0.9 sin(x) crosses zero; at reg_delta = 0 the a1 force needs 1/phi
        p = params(model="a1", reg_delta=0.0)
        x = GRID1.axes[0]
        s = ThermoState(Field(GRID1, 0.9 * np.sin(x)), Field(GRID1, 1.0 + 0.1 * np.cos(x)))
        with pytest.raises(SingularityError, match="reg_delta"):
            rhs_f2(s, Field(GRID1, np.zeros(GRID1.shape)), p)


class TestImexStep:
    def test_forced_phi_mode_decay_factor(self):
        a, m, dt = 0.3, 3, 1e-2
        p = params(eps=1.1, theta_bar=1.4, alpha=0.6)
        x = GRID1.axes[0]
        s = ThermoState(
            Field(GRID1, 0.2 + a * np.sin(m * x)),
            Field(GRID1, np.full(GRID1.shape, 2.0)),
        )
        zero = Field(GRID1, np.zeros(GRID1.shape))
        out = imex_step(s, p, dt, forced=(zero, zero))
        factor = (1.0 + p.alpha * m**2) / (
            (1.0 + p.alpha * m**2) + dt * p.eps * p.theta_bar * m**4
        )
        expected = 0.2 + factor * a * np.sin(m * x)
        assert np.max(np.abs(out.phi.values - expected)) < 1e-13
        assert np.max(np.abs(out.theta.values - 2.0)) < 1e-13
        assert out.dphi_dt is not None and out.dtheta_dt is not None

    def test_forced_heat_mode_decay_factor(self):
        b, m, dt = 0.2, 2, 5e-3
        p = params(kappa=1.7, k_b=0.8)
        x = GRID1.axes[0]
        s = ThermoState(
            Field(GRID1, np.zeros(GRID1.shape)),
            Field(GRID1, 1.5 + b * np.cos(m * x)),
        )
        out = imex_step(s, p, dt, forced=(None, None))
        factor = p.k_b / (p.k_b + dt * p.kappa * m**2)
        expected = 1.5 + factor * b * np.cos(m * x)
        assert np.max(np.abs(out.theta.values - expected)) < 1e-14

    def test_forced_heat_matches_kernel_to_first_order(self):
        b, m, kappa, k_b = 0.3, 1, 1.0, 1.0
        dt, t_end = 1e-3, 0.1
        p = params(kappa=kappa, k_b=k_b)
        x = GRID1.axes[0]
        s = ThermoState(
            Field(GRID1, np.zeros(GRID1.shape)),
            Field(GRID1, 1.0 + b * np.cos(m * x)),
        )
        n = round(t_end / dt)
        for _ in range(n):
            s = imex_step(s, p, dt, forced=(None, None))
        amp = float(
            np.max(s.theta.values) - np.min(s.theta.values)
        ) / 2.0
        lam = kappa * m**2 / k_b
        exact = b * math.exp(-lam * t_end)
        assert abs(amp - exact) / exact <= 2.0 * dt * lam * t_end

    def test_mean_preserved_over_1000_steps(self):
        rng = np.random.default_rng(8)
        p = params()
        phi = Field(GRID2, 0.3 + band_limited(GRID2, rng, amp=0.01).values)
        s = ThermoState(phi, Field(GRID2, np.ones(GRID2.shape)))
        m0 = float(np.mean(s.phi.values))
        for _ in range(1000):
            s = imex_step(s, p, 1e-4)
        assert abs(float(np.mean(s.phi.values)) - m0) <= 1e-13

    def test_amplification_factors_unconditionally_stable(self):
        p = params(eps=0.8, theta_bar=2.0, alpha=0.3, kappa=1.5, k_b=0.7)
        k2 = GRID2.k_squared
        for dt in (1e-6, 1e-2, 1.0, 1e3):
            phi_gain = (1.0 + p.alpha * k2) / (
                1.0 + p.alpha * k2 + dt * p.eps * p.theta_bar * k2**2
            )
            theta_gain = p.k_b / (p.k_b + dt * p.kappa * k2)
            assert np.all(phi_gain > 0.0) and np.all(phi_gain <= 1.0)
            assert np.all(theta_gain > 0.0) and np.all(theta_gain <= 1.0)

    def test_positivity_abort_carries_state(self):
        p = params()
        s = uniform_state(GRID2, phi=0.0, theta=1e-3)
        sink = Field(GRID2, np.full(GRID2.shape, -10.0))
        with pytest.raises(PositivityError, match="min\\(theta\\)") as err:
            imex_step(s, p, 1e-2, forced=(None, sink))
        assert err.value.state is s

    def test_isothermal_skips_temperature(self):
        rng = np.random.default_rng(9)
        p = params(alpha=0.0, model="isothermal")
        s = ThermoState(band_limited(GRID2, rng), Field(GRID2, np.ones(GRID2.shape)))
        out = imex_step(s, p, 1e-3)
        assert out.theta is s.theta
        assert out.dtheta_dt is None


class TestSimulate:
    def test_pure_phase_is_fixed_point(self):
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=p.theta_bar)
        cfg = SimConfig(grid=GRID2, params=p, dt=1e-3, t_end=1.0, output_every=200)
        traj = simulate(cfg, s)
        assert traj.termination == "completed"
        for state in traj.states:
            assert np.max(np.abs(state.phi.values - 1.0)) <= 1e-12
            assert np.max(np.abs(state.theta.values - p.theta_bar)) <= 1e-12
        last = traj.diagnostics[-1]
        assert last.e_drift_rel <= 1e-12
        assert last.cd_residual_l2 <= 1e-12

    def test_snapshot_cadence(self):
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.05, t_end=1.0, output_every=7)
        traj = simulate(cfg, s)
        assert [row.step for row in traj.diagnostics] == [0, 7, 14, 20]
        assert np.allclose(traj.times, [0.0, 0.35, 0.7, 1.0])

    def test_energy_drift_shrinks_with_dt(self):
        rng = np.random.default_rng(10)
        p = params()
        s = ThermoState(
            band_limited(GRID2, rng, amp=0.03, kmax_int=2),
            Field(GRID2, np.ones(GRID2.shape)),
        )
        drifts = []
        for dt in (4e-4, 1e-4):
            cfg = SimConfig(grid=GRID2, params=p, dt=dt, t_end=0.02, output_every=10**6)
            traj = simulate(cfg, s)
            rows = traj.diagnostics
            drifts.append(abs(rows[-1].e_tot - rows[0].e_tot))
        assert drifts[1] < drifts[0]
        ratio = drifts[0] / drifts[1]
        assert 2.0 < ratio < 8.0  # ~4 for a first-order scheme

    def test_entropy_production_nonnegative_along_run(self):
        rng = np.random.default_rng(12)
        p = params()
        s = ThermoState(
            band_limited(GRID2, rng, amp=0.05, kmax_int=3),
            Field(GRID2, np.ones(GRID2.shape)),
        )
        cfg = SimConfig(grid=GRID2, params=p, dt=1e-4, t_end=0.01, output_every=20)
        traj = simulate(cfg, s)
        assert traj.termination == "completed"
        assert min(r.min_entropy_production for r in traj.diagnostics) >= -1e-10
        assert min(r.min_theta for r in traj.diagnostics) > 0.0

    def test_grid_mismatch_rejected(self):
        p = params()
        s = uniform_state(GRID1, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=1.0)
        with pytest.raises(ValueError, match="grid"):
            simulate(cfg, s)

    def test_a1_params_rejected(self):
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=params(model="a1"), dt=0.1, t_end=1.0)
        with pytest.raises(ValueError, match="model_a1"):
            simulate(cfg, s)


class TestMarch:
    def test_positivity_failure_truncates_with_label(self):
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=1.0, output_every=1)
        calls = {"n": 0}

        def step(state):
            calls["n"] += 1
            if calls["n"] == 3:
                raise PositivityError("boom", state=state)
            return state

        with np.errstate(all="ignore"):
            traj = march(cfg, s, step)
        assert traj.termination == "positivity"
        assert [row.step for row in traj.diagnostics] == [0, 1, 2]

    def test_non_finite_label(self):
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=0.5, output_every=1)

        def step(state):
            raise ValueError("values must be finite")

        traj = march(cfg, s, step)
        assert traj.termination == "non_finite"
        assert traj.message == "values must be finite"
        assert len(traj.states) == 1

    def test_singularity_label_carries_message(self):
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=0.5, output_every=1)

        def step(state):
            raise SingularityError("entropy slope ds/dtheta = -1.0e+00")

        traj = march(cfg, s, step)
        assert traj.termination == "singularity"
        assert "entropy slope" in traj.message
        assert len(traj.states) == 1


class TestTrajectory:
    def test_alignment_validation(self):
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        row = simulate(
            SimConfig(grid=GRID2, params=p, dt=0.1, t_end=0.1), s
        ).diagnostics[0]
        with pytest.raises(ValueError, match="align"):
            Trajectory(times=np.array([0.0, 0.1]), states=[s], diagnostics=[row])
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(
                times=np.array([0.0, 0.0]), states=[s, s], diagnostics=[row, row]
            )
