"""Transported-temperature variant: coupling flux, velocity, stepping."""

from dataclasses import replace

import numpy as np
import pytest

from collect import collect
from spectral_oracle import band_limited, grad_arrays
from thermoch.grid import (
    Field,
    GridSpec,
    div_hat,
    irfftn,
    l2_norm,
    mean,
)
from thermoch.model_a2 import SimConfig, imex_step, simulate
from thermoch.thermo import (
    ModelParams,
    SingularityError,
    StateTerms,
    ThermoState,
    mixture_velocity,
)

GRID = GridSpec(dim=2, n=32, box_len=2.0 * np.pi)
GRID1 = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)


def params(**kw):
    base = dict(eps=1.0, theta_bar=1.0, alpha=0.5, kappa=1.0, k_b=1.0, model="a1")
    base.update(kw)
    return ModelParams(**base)


def coupling_flux(s, p):
    """The a1 step's phase-equation coupling div(s grad(theta) phi/(phi^2 + delta^2))."""
    t = StateTerms(s, p)
    return Field(s.grid, irfftn(s.grid, div_hat(s.grid, t.coupling, mask=True)))


def velocity(s, p):
    """The mixture velocity the a1 step transports the entropy with, from the state's force."""
    return mixture_velocity(StateTerms(s, p))


class TestCouplingFlux:
    def test_constant_theta_gives_exact_zero(self):
        rng = np.random.default_rng(1)
        p = params()
        s = ThermoState(band_limited(GRID, rng), Field(GRID, np.full(GRID.shape, 1.3)))
        flux = coupling_flux(s, p)
        assert np.max(np.abs(flux.values)) == 0.0

    def test_linearization_about_pure_phase(self):
        # phi == 1, theta = theta_bar + a sin: flux ~ s(1, theta_bar) lap(theta)
        a = 1e-3
        p = params(theta_bar=2.0)
        x = GRID1.axes[0]
        theta = p.theta_bar + a * np.sin(x)
        s = ThermoState(Field(GRID1, np.ones(GRID1.shape)), Field(GRID1, theta))
        flux = coupling_flux(s, p)
        s_bar = p.k_b * (1.0 + np.log(p.theta_bar))  # entropy of the pure phase
        expected = s_bar * (-a * np.sin(x))
        err = np.max(np.abs(flux.values - expected)) / np.max(np.abs(expected))
        assert err < 0.05

    def test_zero_crossing_without_regularization(self):
        p = params(reg_delta=0.0)
        x = GRID1.axes[0]
        s = ThermoState(
            Field(GRID1, 0.9 * np.sin(x)), Field(GRID1, 1.0 + 0.1 * np.cos(x))
        )
        with pytest.raises(SingularityError, match="reg_delta"):
            coupling_flux(s, p)

    def test_mass_neutral(self):
        # the flux is a total divergence: its mean vanishes identically
        rng = np.random.default_rng(2)
        p = params()
        s = ThermoState(
            Field(GRID, 1.0 + band_limited(GRID, rng, amp=0.3).values),
            Field(GRID, 1.0 + band_limited(GRID, rng, amp=0.2).values),
        )
        assert abs(mean(coupling_flux(s, p))) < 1e-15


class TestVelocity:
    def test_stationary_pure_phase_is_at_rest(self):
        p = params()
        s = ThermoState(
            Field(GRID, np.ones(GRID.shape)), Field(GRID, np.full(GRID.shape, 1.0))
        )
        u = velocity(s, p)
        assert all(np.max(np.abs(ui)) == 0.0 for ui in u)

    def test_reassembly_identity_at_constant_theta(self):
        # -div(phi u) vs dphi/dt, vanishing-delta limit: u transports the
        # phase at the rate its force was formed from
        rng = np.random.default_rng(3)
        p = params(alpha=0.7, reg_delta=1e-5)
        phi = Field(GRID, 1.0 + 0.3 * band_limited(GRID, rng, kmax_int=3).values / 0.1)
        assert float(np.min(np.abs(phi.values))) >= 0.5
        rate = band_limited(GRID, rng, amp=0.2, kmax_int=3)
        s = ThermoState(phi, Field(GRID, np.ones(GRID.shape)), dphi_dt=rate)
        u = velocity(s, p)
        minus_div_phi_u = -divergence(
            [s.phi.values * ui for ui in u]
        )
        target = rate.values
        scale = np.max(np.abs(target))
        assert np.max(np.abs(minus_div_phi_u - target)) <= 1e-8 * max(scale, 1.0)

    def test_kinetic_density_nonnegative(self):
        rng = np.random.default_rng(4)
        p = params()
        s = ThermoState(
            Field(GRID, 1.0 + band_limited(GRID, rng, amp=0.4).values),
            Field(GRID, 1.0 + band_limited(GRID, rng, amp=0.3).values),
            dphi_dt=band_limited(GRID, rng, amp=0.5),
        )
        u = velocity(s, p)
        kinetic = s.phi.values**2 * sum(ui**2 for ui in u)
        assert float(np.mean(kinetic)) >= 0.0
        assert np.min(kinetic) >= 0.0


def divergence(comps):
    out = np.zeros(GRID.shape)
    for i, comp in enumerate(comps):
        out += grad_arrays(GRID, comp)[i]
    return out


class TestA1Step:
    def test_first_step_equals_fixed_background_at_constant_theta(self):
        rng = np.random.default_rng(5)
        p = params()
        s = ThermoState(
            band_limited(GRID, rng, amp=0.2),
            Field(GRID, np.full(GRID.shape, 1.0)),
        )
        a1_state = imex_step(StateTerms(s, p), 1e-4).state
        a2_state = imex_step(StateTerms(s, replace(p, model="a2")), 1e-4).state
        assert np.max(np.abs(a1_state.phi.values - a2_state.phi.values)) <= 1e-12
        assert np.max(np.abs(a1_state.theta.values - a2_state.theta.values)) <= 1e-12
        # the rate cache the next step recomputes the velocity from
        assert a1_state.dphi_dt is not None

    def test_regularization_sensitivity_is_quadratic(self):
        rng = np.random.default_rng(6)
        p = params()
        phi = Field(GRID, 1.0 + 0.3 * band_limited(GRID, rng, kmax_int=3).values / 0.1)
        assert float(np.min(np.abs(phi.values))) >= 0.5
        theta = Field(GRID, 1.0 + 0.2 * band_limited(GRID, rng, kmax_int=3).values)
        init = ThermoState(phi, theta)

        def two_steps(delta):
            p_delta = replace(p, reg_delta=delta)
            state = imex_step(StateTerms(init, p_delta), 1e-4).state
            state = imex_step(StateTerms(state, p_delta), 1e-4).state
            return state

        outs = [two_steps(d) for d in (2e-2, 1e-2, 5e-3)]
        d1 = np.max(np.abs(outs[0].theta.values - outs[1].theta.values))
        d2 = np.max(np.abs(outs[1].theta.values - outs[2].theta.values))
        assert 3.0 < d1 / d2 < 5.5

    def test_mass_preserved_exactly(self):
        rng = np.random.default_rng(7)
        p = params()
        s = ThermoState(
            Field(GRID, 0.4 + band_limited(GRID, rng, amp=0.2).values),
            Field(GRID, 1.0 + band_limited(GRID, rng, amp=0.1).values),
        )
        m0 = mean(s.phi)
        state = imex_step(StateTerms(s, p), 1e-4).state
        for _ in range(20):
            state = imex_step(StateTerms(state, p), 1e-4).state
        assert abs(mean(state.phi) - m0) <= 1e-14

    def test_bracket_slopes_formed_once_per_step(self, monkeypatch):
        # the slope guard, the heat forcing and the entropy share the state's bracket
        import thermoch.thermo as thermo

        calls = []
        original = thermo._bracket_b

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(thermo, "_bracket_b", counted)
        rng = np.random.default_rng(8)
        s = ThermoState(
            Field(GRID, 0.9 + band_limited(GRID, rng, amp=0.05).values),
            Field(GRID, 1.0 + band_limited(GRID, rng, amp=0.02).values),
        )
        imex_step(StateTerms(s, params()), 1e-4)
        assert len(calls) == 1

    def test_entropy_slope_guard(self):
        p = params(eps=0.1)
        s = ThermoState(
            Field(GRID, np.zeros(GRID.shape)), Field(GRID, np.ones(GRID.shape))
        )
        with pytest.raises(SingularityError, match="ds/dtheta"):
            imex_step(StateTerms(s, p), 1e-4)


class TestSimulateA1:
    def test_coupling_changes_the_run(self):
        rng = np.random.default_rng(8)
        p = params()
        init = ThermoState(
            Field(GRID, 0.9 + band_limited(GRID, rng, amp=0.05).values),
            Field(GRID, 1.0 + band_limited(GRID, rng, amp=0.2, kmax_int=2).values),
        )
        cfg = SimConfig(grid=GRID, params=p, dt=1e-4, t_end=1e-3, output_every=10)
        t_a1 = simulate(cfg, init)
        t_a2 = simulate(replace(cfg, params=replace(p, model="a2")), init)
        assert t_a1.termination == "completed"
        gap = np.max(
            np.abs(t_a1.states[-1].theta.values - t_a2.states[-1].theta.values)
        )
        assert gap > 1e-14

    def test_production_nonnegative_with_transported_form(self):
        rng = np.random.default_rng(9)
        p = params()
        init = ThermoState(
            Field(GRID, 0.9 + band_limited(GRID, rng, amp=0.05).values),
            Field(GRID, 1.0 + band_limited(GRID, rng, amp=0.1, kmax_int=2).values),
        )
        cfg = SimConfig(grid=GRID, params=p, dt=1e-4, t_end=2e-3, output_every=5)
        traj = collect(simulate, cfg, init)
        assert traj.termination == "completed"
        assert min(r.min_entropy_production for r in traj.diagnostics) >= -1e-10

    def test_first_order_self_convergence(self):
        # phase bounded away from zero: near a zero crossing the transport
        # term s grad(theta)/phi^2 is amplified by 1/(4 delta^2) and the
        # model itself (not the scheme) is violent.  The energy drift has a
        # dt-independent floor (the regularized production differs from the
        # transport work by an O(reg_delta^2) factor), so the convergence
        # check is on the state: halving dt should halve the update error.
        rng = np.random.default_rng(10)
        p = params()
        init = ThermoState(
            Field(GRID, 0.9 + band_limited(GRID, rng, amp=0.03, kmax_int=2).values),
            Field(GRID, 1.0 + band_limited(GRID, rng, amp=0.02, kmax_int=2).values),
        )
        finals = []
        drifts = []
        for dt in (4e-4, 2e-4, 1e-4):
            cfg = SimConfig(grid=GRID, params=p, dt=dt, t_end=0.02, output_every=10**6)
            traj = collect(simulate, cfg, init)
            assert traj.termination == "completed"
            rows = traj.diagnostics
            drifts.append(abs(rows[-1].e_tot - rows[0].e_tot))
            finals.append(traj.states[-1])
        for attr in ("phi", "theta"):
            coarse = getattr(finals[0], attr).values - getattr(finals[1], attr).values
            fine = getattr(finals[1], attr).values - getattr(finals[2], attr).values
            ratio = l2_norm(Field(GRID, coarse)) / l2_norm(Field(GRID, fine))
            assert 1.6 < ratio < 2.6
        assert max(drifts) < 1e-2

