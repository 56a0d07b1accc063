"""IMEX integrator: forcing assembly, mode-wise updates, marching loop."""

import gc
import math
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest

from analysis_oracle import chemical_potential
from collect import collect
from spectral_oracle import band_limited, count_transforms, dealias, k_squared, rebind
from thermoch import model_a2
from thermoch.diagnostics import audit
from thermoch.grid import Field, GridSpec, grad_arrays, irfftn, rfftn
from thermoch.model_a2 import (
    SimConfig,
    _f1_hat,
    _f2_hat,
    _heat_operator,
    _implicit_solve,
    _phase_operator,
    imex_step,
    march,
    simulate,
)
from thermoch.thermo import (
    ModelParams,
    NonFiniteError,
    PositivityError,
    SingularityError,
    StateTerms,
    ThermoState,
    _bracket_b,
    _regularized_recip,
    bulk_potential,
    dissipation,
    total_energy,
)

GRID1 = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)
GRID2 = GridSpec(dim=2, n=32, box_len=2.0 * np.pi)
GRID64 = GridSpec(dim=2, n=64, box_len=2.0 * np.pi)


def params(**kw):
    base = dict(eps=1.0, theta_bar=1.0, alpha=0.5, kappa=1.0, k_b=1.0)
    base.update(kw)
    return ModelParams(**base)


def uniform_state(grid, phi=0.0, theta=1.0):
    return ThermoState(
        Field(grid, np.full(grid.shape, float(phi))),
        Field(grid, np.full(grid.shape, float(theta))),
    )


def unforced_solves(grid, p, dt, state):
    """Both implicit solves with zero forcing, on real arrays."""
    fields = (state.phi.values, state.theta.values)
    return ThermoState(
        *(
            Field(grid, irfftn(grid, _implicit_solve(op(grid, p), dt, rfftn(grid, v), 0.0)))
            for op, v in zip((_phase_operator, _heat_operator), fields)
        )
    )


def f1_values(state, p):
    """f1 in real space, from the spectrum the step forms."""
    return irfftn(state.grid, _f1_hat(StateTerms(state, p)))


def f2_values(state, rate, p):
    """f2 in real space for the phase rate array `rate`, from the spectrum the step forms."""
    terms = StateTerms(state, p)
    return irfftn(state.grid, _f2_hat(terms, rate, grad_arrays(state.grid, rate)))


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

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_non_finite_t_end_named(self, t_end):
        with pytest.raises(ValueError, match=f"^t_end must be finite, got {t_end}$"):
            SimConfig(grid=GRID2, params=params(), dt=0.1, t_end=t_end)


class TestRhsF1:
    def test_constant_state_vanishes(self):
        p = params(theta_bar=1.3)
        s = uniform_state(GRID2, phi=0.4, theta=1.3)
        f1 = f1_values(s, p)
        assert np.max(np.abs(f1)) < 1e-14

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
        f1 = f1_values(s, p)
        expected = (
            -(m**2) * (0.75 * a**3 - a) * np.sin(m * x)
            + 2.25 * m**2 * a**3 * np.sin(3 * m * x)
        ) / (p.eps * p.theta_bar)
        assert np.max(np.abs(f1 - expected)) < 1e-9

    def test_constant_offset_adds_bilaplacian(self):
        a, m, delta = 0.5, 2, 0.3
        p = params(eps=0.9, theta_bar=1.1)
        theta_c = p.theta_bar + delta
        x = GRID1.axes[0]
        s = ThermoState(
            Field(GRID1, a * np.sin(m * x)),
            Field(GRID1, np.full(GRID1.shape, theta_c)),
        )
        f1 = f1_values(s, p)
        bulk_sin = 0.75 * a**3 - a + 2.0 * delta**3 * a / 3.0
        expected = (
            -(m**2) * bulk_sin * np.sin(m * x)
            + 2.25 * m**2 * a**3 * np.sin(3 * m * x)
        ) / (p.eps * theta_c)
        expected -= p.eps * delta * a * m**4 * np.sin(m * x)
        assert np.max(np.abs(f1 - expected)) < 1e-10


class TestRhsF2:
    def test_static_state_is_dissipation_square(self):
        # no rates anywhere: f2 collapses to |grad mu|^2, the first summand
        # of the entropy production at zero phase rate and constant theta,
        # with the 2/3 rule applied to mu and to the square as the step does
        rng = np.random.default_rng(5)
        p = params()
        s = ThermoState(band_limited(GRID2, rng), Field(GRID2, np.ones(GRID2.shape)))
        zero_rate = np.zeros(GRID2.shape)
        f2 = f2_values(s, zero_rate, p)
        mu = chemical_potential(s, p).values
        expected = dealias(GRID2, sum(g * g for g in grad_arrays(GRID2, dealias(GRID2, mu))))
        assert np.min(f2) >= 0.0
        assert np.max(np.abs(f2 - expected)) < 1e-12

    def test_manufactured_reassembly(self):
        # hand-assembled formula on smooth fields with prescribed rates
        rng = np.random.default_rng(6)
        p = params(eps=0.7, theta_bar=1.2, alpha=0.4, kappa=0.9, k_b=1.1)
        phi = band_limited(GRID2, rng, amp=0.3)
        theta_vals = 1.2 + band_limited(GRID2, rng, amp=0.2).values
        rate_phi = band_limited(GRID2, rng, amp=0.5)
        rate_theta = band_limited(GRID2, rng, amp=0.5)
        s = ThermoState(phi, Field(GRID2, theta_vals), dtheta_dt=rate_theta)
        f2 = f2_values(s, rate_phi.values, p)

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
        grads_mu = grad_arrays(GRID2, dealias(GRID2, mu))
        grads_rate = grad_arrays(GRID2, rp)
        expected = p.alpha * rp**2 - th * (db_dphi * rp + db_dth * rate_theta.values)
        for i in range(2):
            expected += p.eps * th * grads_rate[i] * grads_phi[i]
            expected += (grads_mu[i] + p.alpha * grads_rate[i]) ** 2
        expected = dealias(GRID2, expected)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(f2 - expected)) < 1e-10 * scale

    def test_lagged_theta_rate_enters_linearly(self):
        rng = np.random.default_rng(7)
        p = params()
        phi = band_limited(GRID2, rng, amp=0.3)
        theta = Field(GRID2, 1.0 + band_limited(GRID2, rng, amp=0.2).values)
        rate_phi = band_limited(GRID2, rng, amp=0.5)
        cache = band_limited(GRID2, rng, amp=1.0)
        without = f2_values(ThermoState(phi, theta), rate_phi.values, p)
        with_cache = f2_values(ThermoState(phi, theta, dtheta_dt=cache), rate_phi.values, p)
        db_dth = _bracket_b(
            phi.values, theta.values, p, bulk_potential(phi.values, theta.values, p)
        )[2]
        expected_gap = dealias(GRID2, -theta.values * db_dth * cache.values)
        assert np.max(np.abs(with_cache - without - expected_gap)) < 1e-12

    def test_a1_without_regularization_is_singular_at_phi_zero(self):
        # phi = 0.9 sin(x) crosses zero; at reg_delta = 0 the a1 force needs 1/phi
        p = params(model="a1", reg_delta=0.0)
        x = GRID1.axes[0]
        s = ThermoState(Field(GRID1, 0.9 * np.sin(x)), Field(GRID1, 1.0 + 0.1 * np.cos(x)))
        with pytest.raises(SingularityError, match="reg_delta"):
            f2_values(s, np.zeros(GRID1.shape), p)


class TestImexStep:
    def test_forced_phi_mode_decay_factor(self):
        a, m, dt = 0.3, 3, 1e-2
        p = params(eps=1.1, theta_bar=1.4, alpha=0.6)
        x = GRID1.axes[0]
        s = ThermoState(
            Field(GRID1, 0.2 + a * np.sin(m * x)),
            Field(GRID1, np.full(GRID1.shape, 2.0)),
        )
        out = unforced_solves(GRID1, p, dt, s)
        factor = (1.0 + p.alpha * m**2) / (
            (1.0 + p.alpha * m**2) + dt * p.eps * p.theta_bar * m**4
        )
        expected = 0.2 + factor * a * np.sin(m * x)
        assert np.max(np.abs(out.phi.values - expected)) < 1e-13
        assert np.max(np.abs(out.theta.values - 2.0)) < 1e-13
        out = imex_step(StateTerms(s, p), dt).state
        assert out.dphi_dt is not None and out.dtheta_dt is not None

    def test_forced_heat_mode_decay_factor(self):
        b, m, dt = 0.2, 2, 5e-3
        p = params(kappa=1.7, k_b=0.8)
        x = GRID1.axes[0]
        s = ThermoState(
            Field(GRID1, np.zeros(GRID1.shape)),
            Field(GRID1, 1.5 + b * np.cos(m * x)),
        )
        out = unforced_solves(GRID1, p, dt, s)
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
            s = unforced_solves(GRID1, p, dt, s)
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
            s = imex_step(StateTerms(s, p), 1e-4).state
        assert abs(float(np.mean(s.phi.values)) - m0) <= 1e-13

    def test_amplification_factors_unconditionally_stable(self):
        p = params(eps=0.8, theta_bar=2.0, alpha=0.3, kappa=1.5, k_b=0.7)
        k2 = k_squared(GRID2)
        for dt in (1e-6, 1e-2, 1.0, 1e3):
            phi_gain = (1.0 + p.alpha * k2) / (
                1.0 + p.alpha * k2 + dt * p.eps * p.theta_bar * k2**2
            )
            theta_gain = p.k_b / (p.k_b + dt * p.kappa * k2)
            assert np.all(phi_gain > 0.0) and np.all(phi_gain <= 1.0)
            assert np.all(theta_gain > 0.0) and np.all(theta_gain <= 1.0)

    def test_positivity_abort_names_min_and_index(self, monkeypatch):
        # white noise at dt = 2e-4 drives theta to about -3.5 in one step
        p = params()
        built = []

        def spy(phi, theta, **rates):
            built.append(theta.values)
            return ThermoState(phi, theta, **rates)

        monkeypatch.setattr(model_a2, "ThermoState", spy)
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            s = ThermoState(
                Field(GRID64, 0.01 * rng.standard_normal(GRID64.shape)),
                Field(GRID64, np.ones(GRID64.shape)),
            )
            with pytest.raises(PositivityError, match="min\\(theta\\)") as err:
                imex_step(StateTerms(s, p), 2e-4)
            theta = built[-1]
            loc = tuple(int(i) for i in np.unravel_index(int(np.argmin(theta)), theta.shape))
            assert theta.min() < 0.0
            assert f"min(theta) = {theta.min():.6e} at index {loc}" in str(err.value)

    def test_isothermal_skips_temperature(self):
        rng = np.random.default_rng(9)
        p = params(alpha=0.0, model="isothermal")
        s = ThermoState(band_limited(GRID2, rng), Field(GRID2, np.ones(GRID2.shape)))
        out = imex_step(StateTerms(s, p), 1e-3).state
        assert out.theta is s.theta
        assert out.dtheta_dt is None


class TestSimulate:
    def test_pure_phase_is_fixed_point(self):
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=p.theta_bar)
        cfg = SimConfig(grid=GRID2, params=p, dt=1e-3, t_end=1.0, output_every=200)
        traj = collect(simulate, cfg, s)
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
        traj = collect(simulate, cfg, s)
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
            traj = collect(simulate, cfg, s)
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
        traj = collect(simulate, cfg, s)
        assert traj.termination == "completed"
        assert min(r.min_entropy_production for r in traj.diagnostics) >= -1e-10
        assert min(r.min_theta for r in traj.diagnostics) > 0.0

    def test_grid_mismatch_rejected(self):
        p = params()
        s = uniform_state(GRID1, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=1.0)
        with pytest.raises(ValueError, match="grid"):
            simulate(cfg, s)

    @pytest.mark.parametrize("model", ["a2", "a1", "isothermal"])
    def test_split_run_is_bitwise_equal(self, model):
        # a run resumed from its last recorded state (with its rate caches)
        # continues exactly as the uninterrupted run
        rng = np.random.default_rng(13)
        p = params(model=model)
        init = ThermoState(
            Field(GRID2, 0.9 + band_limited(GRID2, rng, amp=0.05).values),
            Field(GRID2, 1.0 + band_limited(GRID2, rng, amp=0.02).values),
        )
        dt, n = 1e-4, 20
        whole = simulate(SimConfig(grid=GRID2, params=p, dt=dt, t_end=n * dt), init)
        half = SimConfig(grid=GRID2, params=p, dt=dt, t_end=n // 2 * dt)
        first = simulate(half, init)
        second = simulate(half, first.states[-1])
        for traj in (whole, first, second):
            assert traj.termination == "completed"
        a, b = whole.states[-1], second.states[-1]
        assert np.array_equal(a.phi.values, b.phi.values)
        assert np.array_equal(a.theta.values, b.theta.values)


class TestMarch:
    def test_positivity_failure_truncates_with_label(self):
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=1.0, output_every=1)
        calls = {"n": 0}

        def step(terms):
            calls["n"] += 1
            if calls["n"] == 3:
                raise PositivityError("boom")
            return terms

        with np.errstate(all="ignore"):
            traj = collect(march, cfg, s, step)
        assert traj.termination == "positivity"
        assert [row.step for row in traj.diagnostics] == [0, 1, 2]

    def test_non_finite_label(self):
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=0.5, output_every=1)

        def step(terms):
            raise NonFiniteError("values must be finite")

        traj = march(cfg, s, step)
        assert traj.termination == "non_finite"
        assert traj.message == "step 1: values must be finite"
        assert len(traj.states) == 1

    @pytest.mark.parametrize("name", ["phi", "theta"])
    def test_nan_in_a_step_is_reported_with_step_field_index_and_value(self, name):
        p = params()
        init = smooth_state(GRID2, 9)
        cfg = SimConfig(grid=GRID2, params=p, dt=1e-4, t_end=1e-3, output_every=2)
        calls = {"n": 0}

        def step(terms):
            calls["n"] += 1
            new = imex_step(terms, cfg.dt)
            if calls["n"] < 3:
                return new
            new = new.state
            values = getattr(new, name).values.copy()
            values[5, 7] = np.nan
            fields = {"phi": new.phi, "theta": new.theta, name: Field(GRID2, values)}
            return StateTerms(ThermoState(**fields, dphi_dt=new.dphi_dt, dtheta_dt=new.dtheta_dt), p)

        sunk = []
        traj = march(cfg, init, step, lambda state, row: sunk.append(row))
        assert traj.termination == "non_finite"
        assert traj.message == f"step 3: {name} must be finite; {name} = nan at index (5, 7)"
        assert [row.step for row in sunk] == [0, 2]
        assert traj.diagnostics[0] is sunk[-1]

    def test_plain_value_error_propagates(self):
        # a ValueError that is no labeled failure is a bug, not a non-finite state
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=0.5, output_every=1)

        def step(terms):
            raise ValueError("shapes do not match")

        with pytest.raises(ValueError, match="shapes do not match"):
            march(cfg, s, step)

    def test_early_stop_records_last_valid_state(self):
        p = params()
        rng = np.random.default_rng(12)
        s = ThermoState(band_limited(GRID2, rng, amp=0.05), Field(GRID2, np.ones(GRID2.shape)))
        cfg = SimConfig(grid=GRID2, params=p, dt=1e-4, t_end=1e-3, output_every=5)
        produced = []

        def step(terms):
            if len(produced) == 2:
                raise PositivityError("boom")
            new = imex_step(terms, cfg.dt)
            produced.append(new.state)
            return new

        traj = collect(march, cfg, s, step)
        assert traj.termination == "positivity"
        assert [row.step for row in traj.diagnostics] == [0, 2]
        assert traj.states[0] is s and traj.states[1] is produced[1]
        assert traj.times[1] == 2 * cfg.dt
        e0 = total_energy(StateTerms(s, p))
        want = audit(
            StateTerms(produced[1], p), cfg.dt,
            prev_entropy=StateTerms(produced[0], p).entropy, step=2, t=2 * cfg.dt, e_ref=e0,
        )
        assert traj.diagnostics[1] == want

    def test_failure_at_a_recorded_step_adds_no_row(self):
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=1.0, output_every=2)
        calls = {"n": 0}

        def step(terms):
            calls["n"] += 1
            if calls["n"] == 3:
                raise PositivityError("boom")
            return terms

        traj = collect(march, cfg, s, step)
        assert [row.step for row in traj.diagnostics] == [0, 2]

    def test_last_state_that_cannot_be_audited_stays_unrecorded(self):
        # at reg_delta = 0 a phase field crossing zero has no a1 production
        p = params(model="a1", reg_delta=0.0)
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        phi = np.sin(GRID2.axes[0]) * np.ones(GRID2.shape)
        crossing = ThermoState(Field(GRID2, phi), s.theta)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=1.0, output_every=5)
        calls = {"n": 0}

        def step(terms):
            calls["n"] += 1
            return imex_step(terms, cfg.dt) if calls["n"] == 3 else StateTerms(crossing, p)

        sunk = []
        traj = march(cfg, s, step, lambda state, row: sunk.append((state, row)))
        assert traj.termination == "singularity"
        assert [row.step for _, row in sunk] == [0]
        # the run ends with the last recorded state, not the unaudited one
        assert traj.diagnostics[0] is sunk[-1][1]
        assert traj.diagnostics[0].step == 0
        assert traj.states[0].phi is s.phi
        assert traj.states[0].theta is s.theta

    def test_singularity_label_carries_message(self):
        p = params()
        s = uniform_state(GRID2, phi=1.0, theta=1.0)
        cfg = SimConfig(grid=GRID2, params=p, dt=0.1, t_end=0.5, output_every=1)

        def step(terms):
            raise SingularityError("entropy slope ds/dtheta = -1.0e+00")

        traj = march(cfg, s, step)
        assert traj.termination == "singularity"
        assert "entropy slope" in traj.message
        assert len(traj.states) == 1


    @pytest.mark.parametrize("stop_at", [None, 5])
    def test_sink_gets_every_record_and_trajectory_keeps_the_last(self, stop_at):
        p = params()
        init = smooth_state(GRID2, 9)
        cfg = SimConfig(grid=GRID2, params=p, dt=1e-4, t_end=7e-4, output_every=3)
        calls = {"n": 0}

        def step(terms):
            calls["n"] += 1
            if calls["n"] == stop_at:
                raise PositivityError("boom")
            return imex_step(terms, cfg.dt)

        whole = collect(march, cfg, init, step)
        calls["n"], sunk = 0, []
        traj = march(cfg, init, step, lambda state, row: sunk.append((state, row)))
        assert traj.termination == whole.termination
        assert len(traj.states) == len(traj.diagnostics) == 1
        assert [row for _, row in sunk] == whole.diagnostics
        for (state, _), want in zip(sunk, whole.states, strict=True):
            assert np.array_equal(state.phi.values, want.phi.values)
            assert np.array_equal(state.theta.values, want.theta.values)
        assert traj.states[0] is sunk[-1][0]
        assert traj.diagnostics[0] == whole.diagnostics[-1]

    @pytest.mark.parametrize(
        "stop_at", [None, 4, 5], ids=["completed", "stop-after-a-record", "stop-records-its-last"]
    )
    def test_trajectory_holds_exactly_the_last_valid_state(self, stop_at):
        # records at steps 0, 3, 6, 7; a stop in step 4 follows the record of
        # step 3, and a stop in step 5 records step 4 as the run stops
        p = params()
        init = smooth_state(GRID2, 9)
        cfg = SimConfig(grid=GRID2, params=p, dt=1e-4, t_end=7e-4, output_every=3)
        produced, sunk = [init], []

        def step(terms):
            if len(produced) == stop_at:
                raise PositivityError("boom")
            new = imex_step(terms, cfg.dt)
            produced.append(new.state)
            return new

        traj = march(cfg, init, step, lambda state, row: sunk.append((state, row)))
        assert len(traj.states) == len(traj.diagnostics) == 1
        assert traj.states[0] is produced[-1] is sunk[-1][0]
        assert traj.diagnostics[0] is sunk[-1][1]
        assert traj.diagnostics[0].step == len(produced) - 1

    def test_recorded_state_is_released_once_the_next_is_handed_on(self):
        p = params()
        init = smooth_state(GRID2, 9)
        cfg = SimConfig(grid=GRID2, params=p, dt=1e-4, t_end=9e-4, output_every=3)
        refs, alive = [], []

        def sink(state, row):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            refs.append(weakref.ref(state))

        traj = simulate(cfg, init, sink)
        assert traj.termination == "completed"
        # records at steps 0, 3, 6, 9; the caller holds the initial state,
        # and no stepped state outlives the hand-on of the next record
        assert alive == [[], [True], [True, False], [True, False, False]]

    def test_sink_runs_under_the_callers_error_state(self):
        init = smooth_state(GRID2, 9)
        cfg = SimConfig(grid=GRID2, params=params(), dt=1e-4, t_end=3e-4)
        steps = []

        def sink(state, row):
            steps.append(row.step)
            if row.step == 2:
                np.ones(1) / 0.0

        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            simulate(cfg, init, sink)
        # the steps and audits before it ran with the warnings off
        assert steps == [0, 1, 2]


def c2c_oracle_step(state, p, dt):
    """One imex_step on the full complex lattice with np.fft, each operator
    transforming its own input: the reference for the half-spectrum step."""
    grid = state.grid
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=1.0 / grid.n) / grid.box_len
    ks = [k1.reshape([-1 if j == i else 1 for j in range(grid.dim)]) for i in range(grid.dim)]
    k_max = np.pi * grid.n / grid.box_len
    ds = [1j * k * (k != -k_max) for k in ks]
    k2 = sum(k * k for k in ks)
    cut = np.ones(grid.shape, dtype=bool)
    for k in ks:
        cut &= np.abs(k) <= (2.0 / 3.0) * k_max + 1e-12
    fwd = np.fft.fftn

    def inv(c):
        return np.fft.ifftn(c).real

    def grad(v):
        return [inv(fwd(v) * d) for d in ds]

    def div(comps):
        return inv(sum(fwd(c) * d for c, d in zip(comps, ds)) * cut)

    phi, theta = state.phi.values, state.theta.values
    _, dw_dphi = bulk_potential(phi, theta, p)
    bulk = inv(fwd(dw_dphi / (p.eps * theta)) * cut)
    mu = bulk - div([p.eps * theta * g for g in grad(phi)])
    lap_phi = inv(fwd(phi) * -k2)
    inner = mu + p.eps * p.theta_bar * lap_phi
    f1 = inv(fwd(inner) * cut * -k2)
    a1 = p.model == "a1"
    if a1:
        recip = _regularized_recip(phi, p.reg_delta)
        w = bulk_potential(phi, theta, p)[0]
        dth = theta - p.theta_bar
        s = (
            -0.5 * p.eps * sum(g * g for g in grad(phi))
            + w / (p.eps * theta**2)
            - dth**2 * phi**2 / (p.eps * theta)
            + p.k_b * (1.0 + np.log(theta))
        )
        coupling = [s * g * recip for g in grad(theta)]
        f1 = f1 + div(coupling)

    mass = 1.0 + p.alpha * k2
    phi_hat = fwd(phi)
    new_hat = (mass * phi_hat + dt * fwd(f1)) / (mass + dt * p.eps * p.theta_bar * k2**2)
    new_hat[(0,) * grid.dim] = phi_hat[(0,) * grid.dim]
    new_phi = inv(new_hat)
    rate = (new_phi - phi) / dt

    grad_rate = grad(rate)
    force = [gm + p.alpha * gr for gm, gr in zip(grad(mu), grad_rate)]
    if a1:
        force = [f + c for f, c in zip(force, coupling)]
    _, db_dphi, db_dtheta = _bracket_b(phi, theta, p, bulk_potential(phi, theta, p))
    dtheta_dt = 0.0 if state.dtheta_dt is None else state.dtheta_dt.values
    cross = sum(gr * gp for gr, gp in zip(grad_rate, grad(phi)))
    out = (
        p.alpha * rate**2
        + p.eps * theta * cross
        - theta * (db_dphi * rate + db_dtheta * dtheta_dt)
        + sum(f * f for f in force)
    )
    f2 = inv(fwd(out) * cut)
    if a1 and state.dphi_dt is not None:
        old_rate = grad(state.dphi_dt.values)
        u = [
            -(gm * recip + s * gt * recip**2 + p.alpha * gr * recip)
            for gm, gt, gr in zip(grad(mu), grad(theta), old_rate)
        ]
        f2 = f2 - div([s * ui for ui in u])
    new_theta = inv((p.k_b * fwd(theta) + dt * fwd(f2)) / (p.k_b + dt * p.kappa * k2))
    return new_phi, new_theta


class TestHalfSpectrumStep:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
    @pytest.mark.parametrize("model", ["a2", "a1"])
    def test_matches_full_lattice_oracle(self, dim, n, model):
        # the second step, so the rate caches and the a1 velocity are live
        grid = GridSpec(dim=dim, n=n, box_len=2.0 * np.pi)
        rng = np.random.default_rng(40 + dim)
        p = params(model=model)
        phi = Field(grid, 0.9 + band_limited(grid, rng, amp=0.05).values)
        theta = Field(grid, 1.0 + band_limited(grid, rng, amp=0.02).values)
        state = imex_step(StateTerms(ThermoState(phi, theta), p), 1e-4).state
        step = imex_step(StateTerms(state, p), 1e-4).state
        want_phi, want_theta = c2c_oracle_step(state, p, 1e-4)
        for got, want, old in (
            (step.phi.values, want_phi, state.phi.values),
            (step.theta.values, want_theta, state.theta.values),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            # the increment itself, not only the field, agrees
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want - old))

    @pytest.mark.parametrize("model,budget", [("a2", 10), ("a1", 16)])
    def test_fft_count_per_2d_step(self, monkeypatch, model, budget):
        calls = count_transforms(monkeypatch)
        p = params(model=model)
        rng = np.random.default_rng(5)
        phi = Field(GRID2, 0.9 + band_limited(GRID2, rng, amp=0.05).values)
        state = ThermoState(phi, Field(GRID2, np.ones(GRID2.shape)))
        terms = imex_step(StateTerms(state, p), 1e-4)
        calls.clear()
        imex_step(terms, 1e-4)
        assert 0 < len(calls) <= budget
        assert set(calls) <= {"rfftn", "irfftn"}


def smooth_state(grid, seed):
    rng = np.random.default_rng(seed)
    return ThermoState(
        Field(grid, 0.9 + band_limited(grid, rng, amp=0.05).values),
        Field(grid, 1.0 + band_limited(grid, rng, amp=0.02).values),
    )


class TestSharedTerms:
    """march builds one StateTerms per state for both the step and the audit."""

    @pytest.mark.parametrize("output_every", [1, 3])
    @pytest.mark.parametrize("model", ["a2", "a1", "isothermal"])
    def test_rows_equal_standalone_audits(self, model, output_every):
        # a stale or misplaced cache would give a row of the wrong pair
        p = params(model=model)
        init = smooth_state(GRID2, 9)
        cfg = SimConfig(grid=GRID2, params=p, dt=1e-4, t_end=7e-4, output_every=output_every)
        produced = [init]

        def step(terms):
            new = imex_step(terms, cfg.dt)
            produced.append(new.state)
            return new

        traj = collect(march, cfg, init, step)
        assert traj.termination == "completed"
        e0 = total_energy(StateTerms(init, p))
        for state, row in zip(traj.states, traj.diagnostics):
            j = row.step
            assert state is produced[j]
            curr = StateTerms(state, p)
            # march audits the initial state with no previous entropy: no residual
            prev_entropy = StateTerms(produced[j - 1], p).entropy if j else None
            want = audit(curr, cfg.dt, prev_entropy=prev_entropy, step=j, t=row.t, e_ref=e0)
            for got_v, want_v in zip(astuple(row), astuple(want)):
                assert got_v == pytest.approx(want_v, rel=1e-12, abs=0.0)

    def test_transforms_per_step_and_audit(self, monkeypatch):
        n = 10
        cfg = SimConfig(grid=GRID2, params=params(model="a1"), dt=1e-4, t_end=n * 1e-4)
        init = smooth_state(GRID2, 10)  # its c2c transforms are not the run's
        calls = count_transforms(monkeypatch)
        traj = collect(simulate, cfg, init)
        assert traj.termination == "completed" and len(traj.diagnostics) == n + 1
        assert 0 < len(calls) <= 19 * n
        assert set(calls) <= {"rfftn", "irfftn"}

    @pytest.mark.parametrize("model", ["a2", "a1"])
    def test_dissipation_formed_once_per_step_and_per_audit(self, monkeypatch, model):
        # the heat forcing and the audit's production share thermo.dissipation
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return dissipation(*args, **kwargs)

        rebind(monkeypatch, dissipation, counted)
        p = params(model=model)
        terms = imex_step(StateTerms(smooth_state(GRID2, 13), p), 1e-4)  # the a1 velocity is live
        calls.clear()
        new = imex_step(terms, 1e-4)
        assert len(calls) == 1
        calls.clear()
        audit(new, 1e-4, prev_entropy=terms.entropy, e_ref=total_energy(terms))
        assert len(calls) == 1

    @pytest.mark.parametrize("output_every", [1, 5])
    def test_one_state_built_per_step(self, monkeypatch, output_every):
        # march holds plain fields of the state before and of the last record
        init = smooth_state(GRID2, 12)
        built = []

        def spy(*args, **kwargs):
            built.append(args)
            return ThermoState(*args, **kwargs)

        monkeypatch.setattr(model_a2, "ThermoState", spy)
        cfg = SimConfig(
            grid=GRID2, params=params(), dt=1e-4, t_end=1e-3, output_every=output_every
        )
        traj = collect(simulate, cfg, init)
        assert traj.termination == "completed" and traj.diagnostics[-1].step == 10
        assert len(built) == 10

    def test_one_bulk_potential_and_entropy_per_state(self, monkeypatch):
        import thermoch.thermo as thermo

        # one bulk entropy per state, too: the step's bracket and the
        # audit's entropy and energy share it
        counts = {"bulk_potential": 0, "_bracket_b": 0, "entropy_density": 0}
        for name in counts:
            original = getattr(thermo, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(thermo, name, counted)
        cfg = SimConfig(grid=GRID2, params=params(model="a1"), dt=1e-4, t_end=1e-3)
        traj = collect(simulate, cfg, smooth_state(GRID2, 11))
        assert traj.termination == "completed" and len(traj.states) == 11
        assert counts == {"bulk_potential": 11, "_bracket_b": 11, "entropy_density": 11}


def _arrays(value):
    """The arrays of a term: one array, or the items of a tuple or list."""
    return list(value) if isinstance(value, (tuple, list)) else [value]


class TestKernelsWriteNoInput:
    """The kernels fuse their arithmetic in place, but only into arrays they
    formed: a step, or a direct call, leaves its inputs bitwise unchanged."""

    TERMS = ("bulk", "bracket", "phi_hat", "theta_hat", "grad_phi", "grad_rate", "mu_hat")

    @staticmethod
    def assert_unchanged(watched, before):
        for name, arrays in watched.items():
            assert len(arrays) == len(before[name])
            for got, want in zip(arrays, before[name]):
                assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("model", ["a2", "a1"])
    def test_a_step_leaves_its_state_and_terms_unchanged(self, model):
        p = params(model=model)
        # a stepped state: both rates and the owned terms are live
        state = imex_step(StateTerms(smooth_state(GRID2, 17), p), 1e-4).state
        terms = StateTerms(state, p)
        values = {name: getattr(terms, name) for name in self.TERMS}
        watched = {name: _arrays(value) for name, value in values.items()}
        watched["state"] = [getattr(state, f).values for f in ("phi", "theta", "dphi_dt", "dtheta_dt")]
        watched["grid"] = [GRID2.half_lap, GRID2.half_bilap, GRID2.half_dealias_mask, *GRID2.half_grad]
        before = {name: [a.copy() for a in arrays] for name, arrays in watched.items()}
        imex_step(terms, 1e-4)
        self.assert_unchanged(watched, before)
        assert all(getattr(terms, name) is value for name, value in values.items())

    def test_direct_calls_write_no_input(self):
        p = params()
        state = smooth_state(GRID2, 18)
        phi, theta = state.phi.values, state.theta.values
        bulk = bulk_potential(phi, theta, p)
        y_hat, f_hat = rfftn(GRID2, phi), rfftn(GRID2, theta)
        operators = (_phase_operator(GRID2, p), _heat_operator(GRID2, p))
        watched = {
            "fields": [phi, theta],
            "bulk": list(bulk),
            "spectra": [y_hat, f_hat],
            "operators": [np.asarray(part) for op in operators for part in op],
        }
        before = {name: [a.copy() for a in arrays] for name, arrays in watched.items()}
        bulk_potential(phi, theta, p)
        _bracket_b(phi, theta, p, bulk)
        for operator in operators:
            for forcing in (f_hat, 0.0):
                _implicit_solve(operator, 1e-4, y_hat, forcing)
        self.assert_unchanged(watched, before)


OWNED = ("phi_hat", "theta_hat", "grad_rate")


def owned(state):
    """The terms a state owns (thermo.ThermoState), by name."""
    return {name: getattr(state, name) for name in OWNED if getattr(state, name) is not None}


class TestCarriedTerms:
    """A state owns the spectra and the rate gradient its step formed, and
    no other term: grad phi lives only in StateTerms."""

    @pytest.mark.parametrize("model", ["a2", "a1", "isothermal"])
    def test_step_matches_step_without_carried_terms(self, model):
        p = params(model=model)
        state = imex_step(StateTerms(smooth_state(GRID2, 14), p), 1e-4).state
        bare = ThermoState(state.phi, state.theta, state.dphi_dt, state.dtheta_dt)
        assert owned(state) and not owned(bare)
        fresh = StateTerms(bare, p)
        for name, term in owned(state).items():
            want = np.asarray(getattr(fresh, name))
            assert np.max(np.abs(np.asarray(term) - want)) <= 1e-10 * np.max(np.abs(want))
        got = imex_step(StateTerms(state, p), 1e-4).state
        want = imex_step(fresh, 1e-4).state
        assert np.max(np.abs(got.phi.values - want.phi.values)) <= 1e-12
        assert np.max(np.abs(got.theta.values - want.theta.values)) <= 1e-12

    def test_replace_drops_carried_terms(self):
        p = params()
        state = imex_step(StateTerms(smooth_state(GRID2, 15), p), 1e-4).state
        assert set(owned(state)) == set(OWNED)
        hotter = replace(state, theta=Field(GRID2, state.theta.values + 0.1))
        assert owned(hotter) == owned(replace(state)) == {}
        assert np.array_equal(StateTerms(hotter, p).theta_hat, rfftn(GRID2, hotter.theta.values))

    @pytest.mark.parametrize(
        "model,kept",
        [
            ("a2", {"phi_hat", "theta_hat", "grad_rate"}),
            ("isothermal", {"phi_hat"}),
            ("a1", {"phi_hat", "theta_hat", "grad_rate"}),
        ],
    )
    def test_recorded_state_keeps_what_a_continued_run_reads(self, model, kept):
        # grad phi is re-formed bit for bit from the owned phi_hat
        cfg = SimConfig(grid=GRID2, params=params(model=model), dt=1e-4, t_end=3e-4)
        traj = collect(simulate, cfg, smooth_state(GRID2, 16))
        assert owned(traj.states[0]) == {}
        assert all(set(owned(s)) == kept for s in traj.states[1:])

    @pytest.mark.parametrize("model", ["a2", "a1", "isothermal"])
    def test_no_state_of_a_step_or_a_run_holds_grad_phi(self, model):
        p = params(model=model)
        terms = imex_step(StateTerms(smooth_state(GRID2, 19), p), 1e-4)
        # the grad phi_new of the step's rate gradient seeds the new terms
        assert ("grad_phi" in vars(terms)) == (model != "isothermal")
        cfg = SimConfig(grid=GRID2, params=p, dt=1e-4, t_end=4e-4, output_every=2)
        sunk = []
        traj = march(cfg, terms.state, lambda t: imex_step(t, cfg.dt), lambda s, r: sunk.append(s))
        states = [terms.state, *sunk, *traj.states]
        assert len(states) == 5
        assert not any(hasattr(state, "grad_phi") for state in states)
        assert all(set(vars(state)) == set(vars(sunk[0])) for state in states)

    @pytest.mark.parametrize("model", ["a2", "a1", "isothermal"])
    def test_run_continued_from_a_sunk_state_is_the_uninterrupted_run(self, model):
        # continue from the state recorded at step 3 of 9, handed to the sink
        # mid-run: every later record is bitwise the uninterrupted run's
        p = params(model=model)
        dt = 1e-4
        whole = collect(
            simulate, SimConfig(grid=GRID2, params=p, dt=dt, t_end=9 * dt, output_every=3),
            smooth_state(GRID2, 20),
        )
        rest = collect(
            simulate, SimConfig(grid=GRID2, params=p, dt=dt, t_end=6 * dt, output_every=3),
            whole.states[1],
        )
        assert whole.termination == rest.termination == "completed"
        assert len(whole.states) == 4 and len(rest.states) == 3
        for a, b in zip(whole.states[1:], rest.states, strict=True):
            for name in ("phi", "theta", "dphi_dt", "dtheta_dt"):
                assert getattr(a, name) is None or np.array_equal(
                    getattr(a, name).values, getattr(b, name).values
                )
            for name in OWNED:
                assert np.array_equal(getattr(a, name), getattr(b, name))
        # the rows agree too, but for the drift's reference energy and the
        # residual of the continued run's step-0 row, which forms none
        for a, b in zip(whole.diagnostics[1:], rest.diagnostics, strict=True):
            for name in ("mass", "e_tot", "min_theta", "min_entropy_production"):
                assert getattr(a, name) == getattr(b, name)
        residuals = [row.cd_residual_l2 for row in rest.diagnostics]
        assert residuals == [None] + [row.cd_residual_l2 for row in whole.diagnostics[2:]]
