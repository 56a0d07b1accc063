"""Constitutive layer: frozen values, FD oracles, variational identities."""

import numpy as np
import pytest

from analysis_oracle import (
    chemical_potential,
    free_energy_density,
    verify_variational_identities,
)
from spectral_oracle import band_limited, count_transforms, fftn, ifftn_real, k_squared
from thermoch import thermo
from thermoch.grid import Field, GridSpec, grad_arrays, grad_from_hat
from thermoch.thermo import (
    ModelParams,
    NonFiniteError,
    PositivityError,
    SingularityError,
    StateTerms,
    ThermoState,
    _bracket_b,
    bulk_potential,
    entropy_density,
    entropy_production,
    internal_energy_density,
    mixture_velocity,
    total_energy,
)


def params(**kw):
    base = dict(eps=1.0, theta_bar=1.0, alpha=0.5, kappa=1.0, k_b=1.0)
    base.update(kw)
    return ModelParams(**base)


def uniform_state(grid, phi_val, theta_val):
    return ThermoState(
        Field(grid, np.full(grid.shape, float(phi_val))),
        Field(grid, np.full(grid.shape, float(theta_val))),
    )


GRID1 = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)
GRID2 = GridSpec(dim=2, n=32, box_len=2.0 * np.pi)


class TestModelParams:
    def test_model_is_spelled_as_in_the_config(self):
        for model in ("a2", "a1", "isothermal"):
            assert params(model=model).model == model
        with pytest.raises(ValueError, match="model"):
            params(model="A1")

    def test_negative_reg_delta_rejected(self):
        with pytest.raises(ValueError, match="reg_delta"):
            params(reg_delta=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["eps", "theta_bar", "alpha", "kappa", "k_b", "reg_delta"])
    def test_non_finite_value_rejected_by_name(self, name, value):
        # NaN passes every `<= 0` test, so each check must ask for finiteness
        with pytest.raises(ValueError, match=f"^{name} must be .* and finite, got {value}$"):
            params(**{name: value})


class TestBulkPotential:
    def test_frozen_point_value(self):
        # phi = 0.5, theta = theta_bar + 1: W = 0.5625/4 + (1/3)*0.25 exactly
        p = params()
        w, dw_dphi = bulk_potential(np.float64(0.5), np.float64(2.0), p)
        assert w == pytest.approx(0.140625 + 1.0 / 12.0, abs=1e-15)
        assert dw_dphi == pytest.approx(-0.375 + 1.0 / 3.0, abs=1e-15)

    def test_derivatives_against_fd(self):
        rng = np.random.default_rng(21)
        p = params(theta_bar=1.3)
        phi = rng.uniform(-1.5, 1.5, size=50)
        theta = rng.uniform(0.5, 5.0, size=50)
        h = 1e-6
        w, dw_dphi = bulk_potential(phi, theta, p)
        dw_dtheta = (theta - p.theta_bar) ** 2 * phi**2  # analytic; bulk_potential omits it
        fd_phi = (bulk_potential(phi + h, theta, p)[0] - bulk_potential(phi - h, theta, p)[0]) / (2 * h)
        fd_th = (bulk_potential(phi, theta + h, p)[0] - bulk_potential(phi, theta - h, p)[0]) / (2 * h)
        assert np.max(np.abs(dw_dphi - fd_phi)) < 1e-8
        assert np.max(np.abs(dw_dtheta - fd_th)) < 1e-8

    def test_bracket_slopes_against_fd(self):
        # B = -d/dtheta[W/(eps theta)] = W/(eps theta^2) - (theta - theta_bar)^2 phi^2/(eps theta)
        rng = np.random.default_rng(22)
        p = params(eps=0.7, theta_bar=1.3)
        phi = rng.uniform(-1.5, 1.5, size=50)
        theta = rng.uniform(0.5, 5.0, size=50)

        def bulk_weight(ph, th):
            return bulk_potential(ph, th, p)[0] / (p.eps * th)

        def b(ph, th):
            return _bracket_b(ph, th, p, bulk_potential(ph, th, p))[0]

        h = 1e-6
        bb, db_dphi, db_dtheta = _bracket_b(phi, theta, p, bulk_potential(phi, theta, p))
        fd_b = -(bulk_weight(phi, theta + h) - bulk_weight(phi, theta - h)) / (2 * h)
        assert np.max(np.abs(bb - fd_b)) < 1e-7
        assert np.max(np.abs(db_dphi - (b(phi + h, theta) - b(phi - h, theta)) / (2 * h))) < 1e-7
        assert np.max(np.abs(db_dtheta - (b(phi, theta + h) - b(phi, theta - h)) / (2 * h))) < 1e-7

    def test_minima_at_pure_phases(self):
        p = params()
        _, dw_dphi = bulk_potential(np.array([-1.0, 1.0]), np.full(2, p.theta_bar), p)
        assert np.max(np.abs(dw_dphi)) == 0.0

    def test_closed_forms_on_a_field(self):
        # W, W', B, dB/dphi and dB/dtheta written out plainly, on a 32^2 field
        # with theta on both sides of theta_bar; the kernels fuse the same
        # arithmetic in place, so they agree to round-off of the largest value
        rng = np.random.default_rng(23)
        p = params(eps=0.7, theta_bar=1.3)
        phi = rng.uniform(-1.5, 1.5, size=GRID2.shape)
        theta = rng.uniform(0.5, 2.5, size=GRID2.shape)
        assert (theta < p.theta_bar).any() and (theta > p.theta_bar).any()
        eps, u = p.eps, theta - p.theta_bar
        w = (phi**2 - 1.0) ** 2 / 4.0 + u**3 * phi**2 / 3.0
        dw_dphi = (phi**2 - 1.0) * phi + 2.0 * u**3 * phi / 3.0
        want = (
            w,
            dw_dphi,
            w / (eps * theta**2) - u**2 * phi**2 / (eps * theta),
            dw_dphi / (eps * theta**2) - 2.0 * u**2 * phi / (eps * theta),
            2.0 * u**2 * phi**2 / (eps * theta**2)
            - 2.0 * w / (eps * theta**3)
            - 2.0 * u * phi**2 / (eps * theta),
        )
        bulk = bulk_potential(phi, theta, p)
        got = (*bulk, *_bracket_b(phi, theta, p, bulk))
        for g, e in zip(got, want):
            np.testing.assert_allclose(g, e, rtol=1e-13, atol=1e-13 * np.max(np.abs(e)))


class TestDensities:
    def test_uniform_zero_phase_frozen_values(self):
        # phi == 0, theta == 1, eps = k_b = 1: psi = 1/4, s = 1.25, e = 1.5
        p = params(theta_bar=2.0)
        t = StateTerms(uniform_state(GRID1, 0.0, 1.0), p)
        psi = free_energy_density(t)
        s = entropy_density(t)
        e = internal_energy_density(t)
        assert np.max(np.abs(psi - 0.25)) < 1e-14
        assert np.max(np.abs(s - 1.25)) < 1e-14
        assert np.max(np.abs(e - 1.5)) < 1e-14

    def test_pure_phase_energy_is_kb_theta_bar(self):
        for kb, tb in [(1.0, 1.0), (0.7, 2.5)]:
            p = params(k_b=kb, theta_bar=tb)
            t = StateTerms(uniform_state(GRID2, 1.0, tb), p)
            e = internal_energy_density(t)
            assert np.max(np.abs(e - kb * tb)) < 1e-13
            assert total_energy(t) == pytest.approx(
                kb * tb * GRID2.box_len**2, rel=1e-12
            )

    def test_energy_closed_form(self):
        # hand derivation: e = psi + theta*s collapses to
        #   2 W/(eps theta) - (theta - theta_bar)^2 phi^2 / eps + k_b theta
        # (the gradient contributions cancel); the definition psi + theta*s
        # is the oracle for that shortcut
        rng = np.random.default_rng(4)
        p = params(eps=0.7, theta_bar=1.4, k_b=0.9)
        phi = band_limited(GRID2, rng, 0.8, zero_mean=False).values
        theta = 2.0 + band_limited(GRID2, rng, 0.5, zero_mean=False).values
        t = StateTerms(ThermoState(Field(GRID2, phi), Field(GRID2, theta)), p)
        e = internal_energy_density(t)
        w, _ = bulk_potential(phi, theta, p)
        expect = 2.0 * w / (p.eps * theta) - (theta - p.theta_bar) ** 2 * phi**2 / p.eps + p.k_b * theta
        assert np.max(np.abs(e - expect)) < 1e-12
        definition = free_energy_density(t) + theta * entropy_density(t)
        assert np.max(np.abs(e - definition)) < 1e-12

    def test_theta_positivity_hard_abort(self):
        p = params()
        vals = np.full(GRID1.shape, 1.0)
        vals[5] = -0.1
        with pytest.raises(PositivityError, match="min\\(theta\\)"):
            ThermoState(Field(GRID1, np.zeros(GRID1.shape)), Field(GRID1, vals))

    def test_fields_on_different_grids_rejected(self):
        with pytest.raises(ValueError, match="^phi and theta live on different grids$"):
            ThermoState(Field(GRID1, np.zeros(GRID1.shape)), Field(GRID2, np.ones(GRID2.shape)))

    @pytest.mark.parametrize("name", ["phi", "theta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_rejected_naming_field_and_index(self, name, bad):
        # a NaN theta must not pass as positive: finiteness is checked first
        fields = {"phi": np.zeros(GRID2.shape), "theta": np.ones(GRID2.shape)}
        fields[name][3, 11] = bad
        with pytest.raises(NonFiniteError) as err:
            ThermoState(*(Field(GRID2, fields[k]) for k in ("phi", "theta")))
        assert str(err.value) == f"{name} must be finite; {name} = {bad} at index (3, 11)"


class TestChemicalPotential:
    def test_single_harmonic_constant_theta(self):
        # at theta == theta_bar the coupling c(theta) vanishes and mu is
        # eps*theta*(2pi/L)^2 sin + (sin^2-1) sin/(eps*theta) exactly
        theta_c = 1.7
        p = params(eps=0.8, theta_bar=theta_c)
        x = GRID1.axes[0]
        phi = np.sin(x)
        st = ThermoState(Field(GRID1, phi), Field(GRID1, np.full(GRID1.shape, theta_c)))
        mu = chemical_potential(st, p).values
        expect = p.eps * theta_c * np.sin(x) + (phi**2 - 1.0) * phi / (p.eps * theta_c)
        assert np.max(np.abs(mu - expect)) < 1e-10

    def test_divergence_form_differs_from_naive_at_nonconstant_theta(self):
        rng = np.random.default_rng(8)
        p = params()
        phi = band_limited(GRID1, rng, 0.5, zero_mean=False).values
        theta = 1.5 + band_limited(GRID1, rng, 0.3, zero_mean=False).values
        st = ThermoState(Field(GRID1, phi), Field(GRID1, theta))
        mu = chemical_potential(st, p).values
        lap_phi = ifftn_real(fftn(phi) * (-k_squared(GRID1)))
        _, dw_dphi = bulk_potential(phi, theta, p)
        naive = -p.eps * theta * lap_phi + dw_dphi / (p.eps * theta)
        # div(theta grad phi) = theta lap(phi) + grad(theta).grad(phi): the forms
        # must differ by a nontrivial amount whenever grad(theta) != 0
        assert np.max(np.abs(mu - naive)) > 1e-3

    def test_uniform_state_gives_bulk_only(self):
        p = params()
        st = uniform_state(GRID2, 0.3, 2.0)
        mu = chemical_potential(st, p).values
        _, dw_dphi = bulk_potential(np.float64(0.3), np.float64(2.0), p)
        assert np.max(np.abs(mu - dw_dphi / p.eps / 2.0)) < 1e-13


class TestEntropyProduction:
    def test_uniform_stationary_state_is_zero(self):
        p = params()
        st = uniform_state(GRID2, 0.5, 2.0)
        prod = entropy_production(StateTerms(st, p))
        assert np.max(np.abs(prod)) < 1e-20

    def test_nonnegative_sum_of_squares(self):
        rng = np.random.default_rng(31)
        for model in ("a2", "a1"):
            p = params(model=model)
            phi = 1.0 + band_limited(GRID2, rng, 0.2, zero_mean=False).values
            theta = 2.0 + band_limited(GRID2, rng, 0.4, zero_mean=False).values
            st = ThermoState(
                Field(GRID2, phi),
                Field(GRID2, theta),
                dphi_dt=band_limited(GRID2, rng, 1.0, zero_mean=False),
            )
            prod = entropy_production(StateTerms(st, p))
            assert prod.min() >= 0.0

    def test_a1_equals_a2_when_theta_constant(self):
        rng = np.random.default_rng(32)
        phi = 1.0 + band_limited(GRID1, rng, 0.3, zero_mean=False).values
        st = ThermoState(
            Field(GRID1, phi),
            Field(GRID1, np.full(GRID1.shape, 2.0)),
            dphi_dt=band_limited(GRID1, rng, 1.0, zero_mean=False),
        )
        p2 = params(model="a2")
        p1 = params(model="a1")
        prod2 = entropy_production(StateTerms(st, p2))
        prod1 = entropy_production(StateTerms(st, p1))
        assert np.max(np.abs(prod1 - prod2)) < 1e-14

    def test_no_rate_gives_a_zero_rate_gradient_without_a_transform(self, monkeypatch):
        # a run's initial state has no rate: its grad(dphi/dt) is zero and
        # forming it transforms nothing
        rng = np.random.default_rng(33)
        st = ThermoState(band_limited(GRID2, rng, 0.5), Field(GRID2, np.full(GRID2.shape, 2.0)))
        t = StateTerms(st, params())
        calls = count_transforms(monkeypatch)
        grad_rate = t.grad_rate
        assert calls == []
        assert len(grad_rate) == GRID2.dim
        assert all(g.shape == GRID2.shape and not g.any() for g in grad_rate)

    @pytest.mark.parametrize("model", ["a2", "a1"])
    def test_force_takes_the_steps_dealiased_grad_mu(self, model):
        # a cosine at 13 = 0.8 k_max puts energy of mu off the 2/3 box, so the
        # step's P grad mu and the undealiased grad mu differ there
        rng = np.random.default_rng(33)
        p = params(model=model)
        x = GRID2.axes[0]
        phi = 1.0 + band_limited(GRID2, rng, 0.2).values + 0.05 * np.cos(13 * x)
        theta = 2.0 + band_limited(GRID2, rng, 0.4).values
        dphi_dt = band_limited(GRID2, rng, 1.0)
        st = ThermoState(Field(GRID2, phi), Field(GRID2, theta), dphi_dt=dphi_dt)

        t = StateTerms(st, p)
        grad_theta = grad_arrays(GRID2, theta)
        force = [
            gm + p.alpha * gr
            for gm, gr in zip(
                grad_from_hat(GRID2, t.mu_hat * GRID2.half_dealias_mask),
                grad_arrays(GRID2, dphi_dt.values),
            )
        ]
        recip = phi / (phi**2 + p.reg_delta**2)
        if model == "a1":
            s = entropy_density(t)
            force = [f + s * gt * recip for f, gt in zip(force, grad_theta)]
        want = (
            sum(f * f for f in force)
            + p.alpha * dphi_dt.values**2
            + p.kappa * sum(g * g for g in grad_theta) / theta
        )
        got = entropy_production(StateTerms(st, p))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(want))
        for u, f in zip(mixture_velocity(StateTerms(st, p)), force):
            np.testing.assert_allclose(u, -recip * f, rtol=1e-12, atol=1e-12 * np.max(np.abs(f)))

    def test_a1_singularity_guard(self):
        p = params(model="a1", reg_delta=0.0)
        st = uniform_state(GRID1, 0.0, 1.0)  # phi == 0 everywhere
        with pytest.raises(SingularityError, match="reg_delta"):
            entropy_production(StateTerms(st, p))


class TestVariationalIdentities:
    def _random_state(self, seed):
        rng = np.random.default_rng(seed)
        phi = band_limited(GRID2, rng, 0.9, zero_mean=False).values
        theta = 2.0 + band_limited(GRID2, rng, 1.0, zero_mean=False).values
        return ThermoState(Field(GRID2, phi), Field(GRID2, theta))

    def test_residuals_small(self):
        p = params(eps=0.8, theta_bar=1.2)
        st = self._random_state(100)
        rep = verify_variational_identities(st, p, h_step=1e-5)
        assert rep.entropy_residual < 1e-6
        assert rep.gateaux_residual < 1e-6
        assert rep.energy_rate_residual < 1e-6

    def test_richardson_quadratic_drop(self):
        # centered differences: halving h must shrink residuals ~4x
        p = params()
        st = self._random_state(101)
        r1 = verify_variational_identities(st, p, h_step=2e-4)
        r2 = verify_variational_identities(st, p, h_step=1e-4)
        assert r2.entropy_residual < 0.4 * r1.entropy_residual
        assert r2.energy_rate_residual < 0.4 * r1.energy_rate_residual

    def test_a_wrong_entropy_fails_the_entropy_identity(self, monkeypatch):
        # the criterion-02 oracle must see a defect in thermo.entropy_density
        p = params(eps=0.8, theta_bar=1.2)
        st = self._random_state(100)
        right = thermo.entropy_density

        def shifted(t):
            return right(t) + 1e-3

        monkeypatch.setattr(thermo, "entropy_density", shifted)
        rep = verify_variational_identities(st, p, h_step=1e-5)
        assert rep.entropy_residual > 1e-6

    def test_report_rows(self):
        p = params()
        st = self._random_state(102)
        rep = verify_variational_identities(st, p)
        rows = rep.rows()
        assert [r[0] for r in rows] == ["entropy_vs_dtheta_psi", "mu_vs_gateaux", "energy_rate"]
