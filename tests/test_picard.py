"""Linear propagators, iterate norm, fixed-point loop, estimate checks."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from analysis_oracle import linear_solve, phi_apriori_ratios, theta_apriori_ratios
from spectral_oracle import (
    count_transforms,
    full_symbols,
    grad_symbol,
    half_spectra,
    k_abs,
    k_squared,
    laplacian_array,
)
from thermoch import picard
from thermoch.besov import build_partition, besov_norm, check_smallness
from thermoch.grid import Field, GridSpec, irfftn, rfftn
from thermoch.model_a2 import SimConfig, _etd_factors, _heat_operator, _phase_operator, _rate
from thermoch.picard import (
    KNormReport,
    PicardConfig,
    REPORT_CSV_HEADER,
    _free_flow,
    _map_in_place,
    _propagators,
    k_norm,
    picard_iterate,
)
from thermoch.thermo import ModelParams, NonFiniteError, PositivityError

GRID1 = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)
GRID2 = GridSpec(dim=2, n=32, box_len=2.0 * np.pi)
PART1 = build_partition(GRID1)
PART2 = build_partition(GRID2)


def params(**kw):
    base = dict(eps=1.0, theta_bar=2.0, alpha=0.5, kappa=1.0, k_b=1.0)
    base.update(kw)
    return ModelParams(**base)


def zero(grid):
    return Field(grid, np.zeros(grid.shape))


def band_limited(grid, rng, amp=0.1, kmax=3.0):
    coeffs = np.zeros(grid.shape, dtype=complex)
    keep = (k_abs(grid) > 0) & (k_abs(grid) <= kmax + 1e-12)
    coeffs[keep] = rng.standard_normal(keep.sum()) + 1j * rng.standard_normal(keep.sum())
    v = np.fft.ifftn(coeffs).real
    v *= amp / max(np.max(np.abs(v)), 1e-300)
    return Field(grid, v)


def decay(hat0, lam, times):
    """Half spectra of the unforced flow hat0 * exp(-lam t) at every time,
    as one broadcast product."""
    return hat0 * np.exp(-times.reshape(-1, *[1] * lam.ndim) * lam)


def free_hats(f, p, times):
    """Half spectra of the unforced damped bilaplacian flow of f."""
    return decay(rfftn(f.grid, f.values), _rate(_phase_operator(f.grid, p)), np.asarray(times))


def field_k_norm(dphi, dtheta, part, times):
    """k_norm of two series of Fields, taken on their half spectra."""
    dphi_hat, dtheta_hat = (half_spectra(f, part.grid, len(times)) for f in (dphi, dtheta))
    return k_norm(dphi_hat, dtheta_hat, part, times)


class TestFreeEvolution:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(0)
        f = band_limited(GRID1, rng, amp=0.5, kmax=10.0)
        out = free_hats(f, params(), [0.0])
        assert np.max(np.abs(irfftn(GRID1, out[0]) - f.values)) < 1e-14

    def test_zero_mode_constant_forever(self):
        f = Field(GRID2, np.full(GRID2.shape, 0.7))
        for h in free_hats(f, params(), [0.1, 1.0, 10.0]):
            assert np.max(np.abs(irfftn(GRID2, h) - 0.7)) < 1e-13

    def test_per_snapshot_flow_is_decay_row_bitwise(self):
        rng = np.random.default_rng(5)
        p = params(alpha=1.0, theta_bar=100.0)
        hat0 = rfftn(GRID2, band_limited(GRID2, rng, amp=0.5, kmax=10.0).values)
        lam = _rate(_phase_operator(GRID2, p))
        times = PicardConfig(chi=4e-6, t_end=1e-2, dt=1e-4).times
        rows = decay(hat0, lam, times)
        for t, row in zip(times, rows):
            assert np.array_equal(_free_flow(hat0, lam, t), row)

    def test_single_mode_matches_scalar_exponential(self):
        x = GRID1.axes[0]
        p = params()
        f = Field(GRID1, np.cos(3 * x))
        times = np.linspace(0.0, 0.1, 11)
        lam = p.eps * p.theta_bar * 3.0**4 / (1.0 + p.alpha * 3.0**2)
        for h, t in zip(free_hats(f, p, times), times):
            exact = math.exp(-lam * t) * np.cos(3 * x)
            assert np.max(np.abs(irfftn(GRID1, h) - exact)) < 1e-14

    def test_times_must_increase(self):
        f = zero(GRID1)
        with pytest.raises(ValueError, match="increasing"):
            linear_solve(_phase_operator, [f] * 3, f, params(), [0.0, 0.2, 0.1])


class TestLinearSolvers:
    def test_unforced_reduces_to_free_evolution(self):
        rng = np.random.default_rng(1)
        f = band_limited(GRID1, rng, amp=0.3, kmax=8.0)
        p = params()
        times = np.linspace(0.0, 0.05, 21)
        forced = linear_solve(_phase_operator, [zero(GRID1)] * len(times), f, p, times)
        gap = np.max(np.abs(irfftn(GRID1, forced) - irfftn(GRID1, free_hats(f, p, times))))
        assert gap < 1e-12

    def test_constant_forcing_single_mode_closed_form(self):
        x = GRID1.axes[0]
        p = params(eps=0.8, theta_bar=1.5, alpha=0.3)
        times = np.linspace(0.0, 0.2, 9)
        g = [Field(GRID1, 0.7 * np.sin(2 * x)) for _ in times]
        sol = linear_solve(_phase_operator, g, zero(GRID1), p, times)
        mass = 1.0 + p.alpha * 4.0
        lam = p.eps * p.theta_bar * 16.0 / mass
        for h, t in zip(sol, times):
            exact = (0.7 / (lam * mass)) * (1.0 - math.exp(-lam * t)) * np.sin(2 * x)
            assert np.max(np.abs(irfftn(GRID1, h) - exact)) < 1e-12

    def test_nonuniform_times_still_exact_for_constant_forcing(self):
        x = GRID1.axes[0]
        p = params()
        times = np.array([0.0, 0.013, 0.05, 0.0721, 0.2])
        g = [Field(GRID1, np.cos(x)) for _ in times]
        sol = linear_solve(_phase_operator, g, zero(GRID1), p, times)
        mass = 1.0 + p.alpha
        lam = p.eps * p.theta_bar / mass
        for h, t in zip(sol, times):
            exact = (1.0 / (lam * mass)) * (1.0 - math.exp(-lam * t)) * np.cos(x)
            assert np.max(np.abs(irfftn(GRID1, h) - exact)) < 1e-12

    def test_zero_mode_forcing_integrates_linearly(self):
        p = params(k_b=3.0)
        times = np.linspace(0.0, 1.0, 6)
        h = [Field(GRID1, np.full(GRID1.shape, 0.6)) for _ in times]
        sol = linear_solve(_heat_operator, h, zero(GRID1), p, times)
        for y, t in zip(sol, times):
            assert np.max(np.abs(irfftn(GRID1, y) - 0.6 * t / p.k_b)) < 1e-13

    def test_heat_decay_single_mode_exact(self):
        x = GRID1.axes[0]
        p = params(kappa=2.0, k_b=3.0)
        times = np.linspace(0.0, 0.5, 6)
        theta0 = Field(GRID1, np.cos(2 * x))
        sol = linear_solve(_heat_operator, [zero(GRID1)] * 6, theta0, p, times)
        for y, t in zip(sol, times):
            exact = math.exp(-p.kappa * 4.0 * t / p.k_b) * np.cos(2 * x)
            assert np.max(np.abs(irfftn(GRID1, y) - exact)) < 1e-14

    def test_constant_heat_forcing_approaches_steady_state_monotonically(self):
        x = GRID1.axes[0]
        p = params(kappa=2.0, k_b=1.0)
        times = np.linspace(0.0, 2.0, 21)
        h = [Field(GRID1, 0.5 * np.cos(x)) for _ in times]
        sol = linear_solve(_heat_operator, h, zero(GRID1), p, times)
        steady = 0.5 / p.kappa * np.cos(x)
        gaps = [np.max(np.abs(irfftn(GRID1, y) - steady)) for y in sol]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("operator", [_phase_operator, _heat_operator])
    def test_one_implicit_step_matches_exact_decay_to_second_order(self, operator):
        # zero forcing: the step's propagator of (mass, stiffness) is the
        # exact decay e^(-lam dt) of the free flow, to round-off on every
        # mode, the stiff ones included
        rng = np.random.default_rng(12)
        p = params(eps=0.8, theta_bar=1.5, alpha=0.3, kappa=1.7, k_b=0.8)
        dt = 1e-3
        hat0 = rfftn(GRID2, rng.standard_normal(GRID2.shape))
        lam = _rate(operator(GRID2, p))
        decay, gain = _etd_factors(GRID2, p, dt)[[_phase_operator, _heat_operator].index(operator)]
        step = decay * hat0 + gain * 0.0
        exact = _free_flow(hat0, lam, dt)
        assert np.max(lam * dt) > 1.0  # the stiff modes are reached
        assert np.all(np.abs(step - exact) <= 1e-15 * np.abs(hat0))

    def test_forcing_grid_mismatch_rejected(self):
        times = np.linspace(0.0, 0.1, 3)
        with pytest.raises(ValueError, match="length mismatch"):
            linear_solve(_phase_operator, [zero(GRID1)] * 2, zero(GRID1), params(), times)
        with pytest.raises(ValueError, match="grid"):
            linear_solve(_heat_operator, [zero(GRID2)] * 3, zero(GRID1), params(), times)


class TestKNorm:
    def test_zero_pair_is_zero(self):
        times = np.linspace(0.0, 0.1, 5)
        rep = field_k_norm([zero(GRID1)] * 5, [zero(GRID1)] * 5, PART1, times)
        assert rep.total == 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        times = np.linspace(0.0, 0.1, 6)
        dphi = [band_limited(GRID1, rng, amp=0.2) for _ in times]
        dtheta = [band_limited(GRID1, rng, amp=0.1) for _ in times]
        base = field_k_norm(dphi, dtheta, PART1, times).total
        c = -2.5
        scaled = field_k_norm(
            [Field(GRID1, c * f.values) for f in dphi],
            [Field(GRID1, c * f.values) for f in dtheta],
            PART1,
            times,
        ).total
        assert abs(scaled - abs(c) * base) < 1e-10 * max(1.0, base)

    def test_time_constant_temperature_only_hand_assembled(self):
        x = GRID1.axes[0]
        dth = Field(GRID1, 0.2 * np.cos(2 * x))
        n = 6
        times = np.linspace(0.0, 0.5, n)
        rep = field_k_norm([zero(GRID1)] * n, [dth] * n, PART1, times)
        lap = Field(GRID1, laplacian_array(GRID1, dth.values))
        hand = besov_norm(dth, 0.5, PART1).total + 0.5 * besov_norm(lap, 0.5, PART1).total
        assert abs(rep.total - hand) < 1e-12
        assert rep.phi_sup == rep.phi_bilap_int == rep.phi_rate_sq == 0.0
        assert rep.theta_rate_int == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        times = np.linspace(0.0, 0.1, 5)
        for _ in range(20):
            a = [band_limited(GRID1, rng, amp=0.3) for _ in times]
            b = [band_limited(GRID1, rng, amp=0.2) for _ in times]
            ta = [band_limited(GRID1, rng, amp=0.1) for _ in times]
            tb = [band_limited(GRID1, rng, amp=0.4) for _ in times]
            lhs = field_k_norm(
                [Field(GRID1, u.values + v.values) for u, v in zip(a, b)],
                [Field(GRID1, u.values + v.values) for u, v in zip(ta, tb)],
                PART1,
                times,
            ).total
            rhs = field_k_norm(a, ta, PART1, times).total + field_k_norm(b, tb, PART1, times).total
            assert lhs <= rhs + 1e-10

    def test_needs_three_snapshots(self):
        times = np.linspace(0.0, 0.1, 2)
        with pytest.raises(ValueError, match="3 snapshots"):
            field_k_norm([zero(GRID1)] * 2, [zero(GRID1)] * 2, PART1, times)

    def test_report_rejects_negative_summand(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            KNormReport(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_report_rejects_non_finite_summand(self, value):
        with pytest.raises(NonFiniteError, match="finite and >= 0"):
            KNormReport(0.0, 0.0, 0.0, 0.0, value, 0.0, 0.0)

    def test_total_is_sum_of_summands(self):
        rep = KNormReport(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
        assert rep.total == 28.0
        assert sum(rep.summands.values()) == rep.total


def old_formula_k_norm(dphi, dtheta, part, times):
    """Oracle: the seven summands with every derivative taken in real space by
    full-lattice np.fft and block norms from np.fft.fftn times the symbols."""
    grid = part.grid
    scale = math.sqrt(grid.box_len**grid.dim) / grid.size
    symbols = full_symbols(part)

    def apply(values, multiplier):
        return np.fft.ifftn(np.fft.fftn(values) * multiplier).real

    def blocks(values):
        coeffs = np.fft.fftn(values)
        return np.array([scale * np.linalg.norm(sym * coeffs) for sym in symbols])

    def chemin_lerner(series, s, rho, vector=False):
        rows = np.array(
            [np.sqrt(sum(blocks(c) ** 2 for c in f)) if vector else blocks(f) for f in series]
        )
        dt = times[1] - times[0]
        total = 0.0
        for i, q in enumerate(part.qs):
            v = rows[:, i]
            agg = {1: dt * np.sum(v[:-1]), 2: math.sqrt(dt * np.sum(v[:-1] ** 2))}.get(
                rho, np.max(v)
            )
            total += 2.0 ** (q * s) * agg
        return total

    def rates(series):
        return [0.0 * series[0]] + [
            (b - a) / (t1 - t0) for a, b, t0, t1 in zip(series, series[1:], times, times[1:])
        ]

    def grad(values):
        return [apply(values, grad_symbol(grid, i)) for i in range(grid.dim)]

    k2 = k_squared(grid)
    phi = [f.values for f in dphi]
    theta = [f.values for f in dtheta]
    s_lo = grid.dim / 2.0
    return {
        "phi_sup": chemin_lerner(phi, s_lo + 2.0, math.inf),
        "phi_bilap_int": chemin_lerner([apply(v, k2**2) for v in phi], s_lo, 1),
        "phi_rate_sq": chemin_lerner(rates(phi), s_lo, 2),
        "phi_rate_grad_sq": chemin_lerner([grad(r) for r in rates(phi)], s_lo, 2, vector=True),
        "theta_sup": chemin_lerner(theta, s_lo, math.inf),
        "theta_lap_int": chemin_lerner([apply(v, -k2) for v in theta], s_lo, 1),
        "theta_rate_int": chemin_lerner(rates(theta), s_lo, 1),
    }


def nyquist_series(grid, rng, n, amp):
    """Random smooth snapshots, each with energy on the Nyquist planes."""
    sign = (-1.0) ** np.arange(grid.n)
    out = []
    for _ in range(n):
        v = band_limited(grid, rng, amp=amp, kmax=6.0).values
        for axis in range(grid.dim):
            v = v + 0.3 * amp * rng.uniform(0.5, 1.5) * np.moveaxis(
                np.broadcast_to(sign, grid.shape), -1, axis
            )
        out.append(Field(grid, v))
    return out


class TestSpectralKNorm:
    @pytest.mark.parametrize("grid", [GRID1, GRID2], ids=["1d", "2d"])
    def test_fields_match_old_formula(self, grid):
        part = build_partition(grid)
        rng = np.random.default_rng(11)
        times = np.linspace(0.0, 0.05, 6)
        dphi = nyquist_series(grid, rng, times.size, 0.2)
        dtheta = nyquist_series(grid, rng, times.size, 0.1)
        got = field_k_norm(dphi, dtheta, part, times).summands
        want = old_formula_k_norm(dphi, dtheta, part, times)
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert value > 0.0
            assert abs(got[name] - value) <= 1e-12 * value, name

    def test_spectra_give_the_same_report_without_transforms(self, monkeypatch):
        rng = np.random.default_rng(12)
        times = np.linspace(0.0, 0.05, 5)
        dphi = nyquist_series(GRID2, rng, times.size, 0.2)
        dtheta = nyquist_series(GRID2, rng, times.size, 0.1)
        want = field_k_norm(dphi, dtheta, PART2, times)
        phi_hat = np.stack([rfftn(GRID2, f.values) for f in dphi])
        theta_hat = np.stack([rfftn(GRID2, f.values) for f in dtheta])
        calls = count_transforms(monkeypatch)
        got = k_norm(phi_hat, theta_hat, PART2, times)
        assert calls == []
        for name, value in want.summands.items():
            assert got.summands[name] == pytest.approx(value, rel=1e-14)

    def test_memory_beyond_inputs_is_a_fraction_of_one_stack(self):
        # criterion 11's spectra: 101 snapshots of the 64^2 half lattice
        grid = GridSpec(dim=2, n=64, box_len=2.0 * np.pi)
        part = build_partition(grid)
        times = np.linspace(0.0, 1e-2, 101)
        rng = np.random.default_rng(14)
        shape = (times.size, *grid.half_shape)
        phi, theta = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        k_norm(phi, theta, part, times)  # the partition's lazy rings, the grid's weights
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            k_norm(phi, theta, part, times)
            extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert extra < phi.nbytes / 4, extra

    def test_spectra_of_wrong_shape_rejected(self):
        times = np.linspace(0.0, 0.1, 3)
        bad = np.zeros((3,) + GRID2.shape, dtype=complex)
        with pytest.raises(ValueError, match="shape"):
            k_norm(bad, bad, PART2, times)
        with pytest.raises(ValueError, match="shape"):
            k_norm(iter(bad), iter(bad), PART2, times)
        # a short series would leave zero energy rows and a silently small norm
        good = np.ones((3, *GRID2.half_shape), dtype=complex)
        with pytest.raises(ValueError, match="2 snapshots, not 3"):
            k_norm(good, iter(good[:2]), PART2, times)
        with pytest.raises(ValueError, match="more than 3 snapshots"):
            k_norm(np.concatenate([good, good]), good, PART2, times)


class TestPicardConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="chi"):
            PicardConfig(chi=0.0, t_end=1.0)
        with pytest.raises(ValueError, match="t_end"):
            PicardConfig(chi=1.0, t_end=-1.0)
        with pytest.raises(ValueError, match="n_iter"):
            PicardConfig(chi=1.0, t_end=1.0, n_iter=1)
        with pytest.raises(ValueError, match="tol"):
            PicardConfig(chi=1.0, t_end=1.0, tol=0.0)
        with pytest.raises(ValueError, match="multiple"):
            PicardConfig(chi=1.0, t_end=1.0, dt=0.3)
        with pytest.raises(ValueError, match="multiple"):
            PicardConfig(chi=1.0, t_end=1.0, dt=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["chi", "t_end", "tol", "dt"])
    def test_non_finite_value_named(self, name, value):
        # a NaN chi puts no iterate in the ball, a NaN tol never converges
        kwargs = dict(chi=1.0, t_end=1.0, dt=0.01) | {name: value}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            PicardConfig(**kwargs)

    def test_dt_obeys_the_direct_runs_rule(self):
        # t_end = 1.2 covers two steps of 0.6, but simulate takes dt <= 0.5
        with pytest.raises(ValueError, match=r"\(0, 0.5\], got 0.6"):
            PicardConfig(chi=1.0, t_end=1.2, dt=0.6)
        assert PicardConfig(chi=1.0, t_end=1.0, dt=0.5).times.size == 3
        # with dt unset the spacing is t_end/100, and the message names it
        spacing = r"^the snapshot spacing \(dt or t_end/100\) must lie in \(0, 0\.5\], got 0\.6$"
        with pytest.raises(ValueError, match=spacing):
            PicardConfig(chi=1.0, t_end=60.0)

    def test_clock_is_the_direct_runs(self):
        # one rule and one tolerance, 1e-9 max(1, t_end): 1e-10 off a
        # multiple of dt passes both, 1e-8 off fails both
        t_end = 1e-2 + 1e-10
        sim = SimConfig(GRID2, params(), 1e-4, t_end)
        assert PicardConfig(chi=1.0, t_end=t_end, dt=1e-4).n_steps == sim.n_steps == 100
        for make in (lambda: SimConfig(GRID2, params(), 1e-4, 1e-2 + 1e-8),
                     lambda: PicardConfig(chi=1.0, t_end=1e-2 + 1e-8, dt=1e-4)):
            with pytest.raises(ValueError, match="^t_end must be an integer multiple of dt$"):
                make()

    def test_default_time_grid(self):
        cfg = PicardConfig(chi=1.0, t_end=0.5)
        times = cfg.times
        assert len(times) == 101
        assert times[0] == 0.0
        assert abs(times[-1] - 0.5) < 1e-12
        steps = np.diff(times)
        assert np.allclose(steps, steps[0], rtol=1e-12)


def admissible_data(part=PART2):
    """Small single-mode phase and a temperature offset at 2.05x margin, the
    offset a product of cosines along every axis."""
    grid = part.grid
    x, *others = grid.axes
    rest = math.prod(np.cos(ax) for ax in others)
    p = ModelParams(eps=1.0, theta_bar=100.0, alpha=1.0, kappa=1.0, k_b=1.0)
    phi0 = Field(grid, 5e-5 * np.cos(x) * np.ones(grid.shape))
    probe = Field(grid, p.theta_bar + np.cos(x) * rest)
    rep = check_smallness(phi0, probe, p, 0.5, part)
    a = rep.rhs2 / (2.05 * rep.lhs2)
    theta0 = Field(grid, p.theta_bar + a * np.cos(x) * rest)
    return phi0, theta0, p


def divergent_problem():
    """Data on which the map stops contracting: ratios nan, 0.33, 1.98, 390,
    and the iterate loses temperature positivity in application 5."""
    g = GridSpec(dim=2, n=16, box_len=2.0 * np.pi)
    part = build_partition(g)
    x, y = g.axes
    p = ModelParams(eps=0.5, theta_bar=1.0, alpha=0.5, kappa=1.0, k_b=1.0)
    phi0 = Field(g, np.cos(x) * np.cos(y) + 0.3 * np.cos(2 * x))
    theta0 = Field(g, 1.0 + 0.5 * np.cos(y) * np.ones_like(x))
    cfg = PicardConfig(chi=0.01, t_end=0.1, n_iter=8, tol=1e-14, dt=5e-3)
    return phi0, theta0, p, cfg, part


def finals(rep):
    return rep.final_phi.values, rep.final_theta.values, rep.simulate_rel_diff


def initial_iterate(phi0, theta0, p, cfg):
    """picard_iterate's starting pair (0, heat flow of theta0 - theta_bar), as
    the map holds it: the compact box of the phase correction and of the
    temperature's departure from its heat flow, both at rest, and the run's
    propagators, whose free flows start from (phi0_hat, dtheta0_hat)."""
    props = _propagators(phi0, theta0, p, cfg.step)
    dphi = np.zeros((cfg.times.size, props[0].size), dtype=complex)
    return dphi, np.zeros_like(dphi), props


def expanded(grid, stack):
    """Half spectra of a compact stack on the 2/3-rule box, zero off it."""
    out = np.zeros((len(stack), *grid.half_shape), dtype=complex)
    out.reshape(len(stack), -1)[:, np.flatnonzero(grid.half_dealias_mask)] = stack
    return out


def off_box_data(grid):
    """Phase and temperature offset with energy on and off the 2/3-rule box:
    cos(x) and cos(k x) along every axis, with k = 7n/16 > (2/3)(n/2)."""
    k = 7 * grid.n // 16
    wave = sum(np.cos(ax) + np.cos(k * ax) for ax in grid.axes) * np.ones(grid.shape)
    p = ModelParams(eps=1.0, theta_bar=100.0, alpha=1.0, kappa=1.0, k_b=1.0)
    return Field(grid, 5e-5 * wave), Field(grid, p.theta_bar + 1e-3 * wave), p


class TestPicardIterate:
    def test_stationary_data_converges_immediately(self):
        g = GRID2
        p = params()
        cfg = PicardConfig(chi=0.1, t_end=1e-2, n_iter=4, dt=5e-4)
        rep = picard_iterate(
            Field(g, np.full(g.shape, 0.3)), Field(g, np.full(g.shape, p.theta_bar)), p, cfg, PART2
        )
        assert rep.converged and not rep.diverged
        assert len(rep.rows) <= 2
        assert rep.rows[0].diff_norm == 0.0
        assert rep.rows[0].in_ball
        assert rep.simulate_rel_diff == 0.0

    def test_contraction_on_admissible_data(self):
        phi0, theta0, p = admissible_data()
        rep_small = check_smallness(phi0, theta0, p, 0.5, PART2)
        assert all(rep_small.satisfied)
        assert min(rep_small.margins) >= 2.0
        cfg = PicardConfig(chi=4e-6, t_end=1e-2, n_iter=6, tol=1e-14, dt=2e-4)
        rep = picard_iterate(phi0, theta0, p, cfg, PART2)
        assert rep.converged and not rep.diverged
        for row in rep.rows:
            assert row.in_ball
            if row.iteration >= 2:
                assert row.ratio <= 0.9
        assert rep.simulate_rel_diff <= 0.05
        assert all(rep.smallness.satisfied)

    def test_contraction_on_admissible_data_in_3d(self):
        # criterion 11's problem and bounds at 16^3: it converges in 3
        # applications with ratios near 2e-4
        part = build_partition(GridSpec(dim=3, n=16, box_len=2.0 * np.pi))
        phi0, theta0, p = admissible_data(part)
        cfg = PicardConfig(chi=4e-6, t_end=1e-2, n_iter=6, dt=1e-4)
        rep = picard_iterate(phi0, theta0, p, cfg, part)
        assert all(rep.smallness.satisfied) and min(rep.smallness.margins) >= 2.0
        assert rep.converged and not rep.diverged
        assert all(row.in_ball for row in rep.rows)
        assert all(row.ratio <= 0.9 for row in rep.rows if row.iteration >= 2)
        assert rep.simulate_rel_diff <= 0.05

    def test_three_non_contracting_ratios_in_a_row_diverge(self):
        # the map stays defined and its norms finite, but it stops
        # contracting: ratios nan, 0.641, 0.913, 1.027, 0.935, 1.156, 1.023,
        # 1.268.  The 0.935 row resets the streak, so the run stops at row 8
        # as diverged, where a streak that did not reset would end at row 7
        g = GridSpec(dim=2, n=16, box_len=2.0 * np.pi)
        x, y = g.axes
        p = params(theta_bar=5.5, alpha=1.0)
        phi0 = Field(g, 0.8 * np.cos(x) * np.cos(y))
        theta0 = Field(g, 5.5 + 1.1 * np.cos(x) * np.ones(g.shape))
        cfg = PicardConfig(chi=1e6, t_end=0.05, n_iter=8, dt=2.5e-3)
        rep = picard_iterate(phi0, theta0, p, cfg, build_partition(g))
        assert rep.diverged and not rep.converged
        ratios = [row.ratio for row in rep.rows]
        assert math.isnan(ratios[0])
        assert [r >= 1.0 for r in ratios[1:]] == [False, False, True, False, True, True, True]
        assert all(math.isfinite(row.k_norm) and row.in_ball for row in rep.rows)

    def test_propagators_formed_once_per_run(self, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(picard, name)
            monkeypatch.setattr(picard, name, lambda *a: calls.append(name) or real(*a))

        for name in ("_etd_factors", "_phase_operator", "_heat_operator"):
            counting(name)
        phi0, theta0, p = admissible_data()
        cfg = PicardConfig(chi=4e-6, t_end=1e-2, n_iter=3, tol=1e-300, dt=1e-3)
        rep = picard_iterate(phi0, theta0, p, cfg, PART2)
        assert len(rep.rows) == 3
        assert sorted(calls) == ["_etd_factors", "_heat_operator", "_phase_operator"]

    def test_step_and_map_share_one_propagator(self):
        # a picard run and its direct run form the ETD pairs of their
        # (grid, params, dt) once between them, every step reads them, and
        # the map's pairs are the step's, gathered to the 2/3-rule box
        _etd_factors.cache_clear()
        phi0, theta0, p = admissible_data()
        cfg = PicardConfig(chi=4e-6, t_end=1e-2, n_iter=3, tol=1e-300, dt=1e-3)
        rep = picard_iterate(phi0, theta0, p, cfg, PART2)
        assert len(rep.rows) == 3 and math.isfinite(rep.simulate_rel_diff)
        info = _etd_factors.cache_info()
        assert info.misses == 1 and info.hits == cfg.n_steps
        pairs = _etd_factors(GRID2, p, cfg.step)
        box, _, etds, _ = initial_iterate(phi0, theta0, p, cfg)[2]
        for got, want in zip(etds, pairs):
            assert all(np.array_equal(g, np.take(w, box)) for g, w in zip(got, want))

    def test_divergence_is_reported_not_raised(self):
        phi0, theta0, p, cfg, part = divergent_problem()
        rep = picard_iterate(phi0, theta0, p, cfg, part)
        assert rep.diverged and not rep.converged
        assert len(rep.rows) >= 1
        assert not rep.rows[-1].in_ball

    def test_failed_run_keeps_its_last_accepted_iterate(self, monkeypatch):
        phi0, theta0, p, cfg, part = divergent_problem()
        stopped = picard_iterate(phi0, theta0, p, cfg, part)
        assert stopped.diverged and len(stopped.rows) == 4
        accepted = picard_iterate(phi0, theta0, p, replace(cfg, n_iter=4), part)
        for got, want in zip(finals(stopped), finals(accepted)):
            assert np.array_equal(got, want)

        # a failure after the map has written the last slot: in the size
        # norm of application 4
        accepted = picard_iterate(phi0, theta0, p, replace(cfg, n_iter=3), part)
        calls = []

        def failing_k_norm(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise NonFiniteError("summand phi_sup must be finite and >= 0, got inf")
            return k_norm(*args, **kwargs)

        monkeypatch.setattr(picard, "k_norm", failing_k_norm)
        injected = picard_iterate(phi0, theta0, p, cfg, part)
        assert injected.diverged and len(injected.rows) == 3
        for got, want in zip(finals(injected), finals(accepted)):
            assert np.array_equal(got, want)

    def test_nan_forcing_in_application_2_keeps_the_last_accepted_iterate(self, monkeypatch):
        phi0, theta0, p, cfg, part = divergent_problem()
        # a tolerance every difference meets stops after the first application
        accepted = picard_iterate(phi0, theta0, p, replace(cfg, tol=1e300), part)
        assert accepted.converged and len(accepted.rows) == 1
        # each application forces every snapshot but the last once
        per_map, calls, right_f1 = cfg.times.size - 1, [], picard.phase_forcing

        def nan_in_map_2(terms):
            calls.append(1)
            f1 = right_f1(terms)
            return f1 * np.nan if len(calls) > per_map else f1

        monkeypatch.setattr(picard, "phase_forcing", nan_in_map_2)
        # the NaN forcing reaches the map's own difference norm, whose
        # summand check raises NonFiniteError: empirical divergence
        injected = picard_iterate(phi0, theta0, p, cfg, part)
        assert len(calls) > per_map
        assert injected.diverged and not injected.converged
        assert len(injected.rows) == 1
        for got, want in zip(finals(injected), finals(accepted)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("amplitude", [1e30, 1e80])
    def test_data_beyond_the_double_range_diverge_without_warning(self, amplitude):
        # the map and the size norm overflow, the suite's warnings are
        # errors; at 1e80 the direct run fails at step 0 as well.  At 1e30
        # the first application stays finite, its first snapshot's force
        # being that of the zero rate, and the second overflows
        g = GridSpec(dim=2, n=16, box_len=2.0 * np.pi)
        p = params()
        phi0 = Field(g, amplitude * np.cos(g.axes[0]) * np.ones(g.shape))
        theta0 = Field(g, np.full(g.shape, p.theta_bar))
        cfg = PicardConfig(chi=1e-4, t_end=1e-2, dt=1e-3)
        rep = picard_iterate(phi0, theta0, p, cfg, build_partition(g))
        assert rep.diverged and len(rep.rows) == (1 if amplitude == 1e30 else 0)
        assert not any(row.in_ball for row in rep.rows)
        assert rep.simulate_rel_diff == math.inf
        assert not rep.smallness.satisfied[0]

    def test_program_error_in_the_map_propagates(self, monkeypatch):
        def broken(terms):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(picard, "phase_forcing", broken)
        phi0, theta0, p = admissible_data()
        cfg = PicardConfig(chi=4e-6, t_end=1e-2, n_iter=3, dt=1e-3)
        with pytest.raises(ValueError, match="broadcast"):
            picard_iterate(phi0, theta0, p, cfg, PART2)

    def test_csv_is_deterministic_and_well_formed(self):
        phi0, theta0, p = admissible_data()
        cfg = PicardConfig(chi=4e-6, t_end=1e-2, n_iter=3, tol=1e-14, dt=1e-3)
        first = picard_iterate(phi0, theta0, p, cfg, PART2).to_csv()
        second = picard_iterate(phi0, theta0, p, cfg, PART2).to_csv()
        assert first == second
        lines = first.splitlines()
        assert lines[0] == REPORT_CSV_HEADER
        data = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert all(len(ln.split(",")) == 5 for ln in data)
        assert any("smallness report" in ln for ln in lines)

    def test_solution_map_transform_budget(self, monkeypatch):
        # one application on a 2D grid, its difference norm included: at most
        # 10 transforms per snapshot that forces, plus the two inversions of
        # the last one
        phi0, theta0, p = admissible_data()
        cfg = PicardConfig(chi=4e-6, t_end=1e-2, dt=1e-3)
        times = cfg.times
        dphi, dtheta, props = initial_iterate(phi0, theta0, p, cfg)
        calls = count_transforms(monkeypatch)
        _map_in_place(GRID2, dphi, dtheta, props, p, times, PART2)
        assert 0 < len(calls) <= 10 * (times.size - 1) + 2
        assert set(calls) <= {"rfftn", "irfftn"}
        assert dphi.shape == dtheta.shape == (times.size, np.sum(GRID2.half_dealias_mask))

    def test_streamed_difference_is_the_norm_of_the_difference(self):
        phi0, theta0, p = admissible_data()
        cfg = PicardConfig(chi=4e-6, t_end=1e-2, dt=1e-3)
        times = cfg.times
        dphi, dtheta, props = initial_iterate(phi0, theta0, p, cfg)
        for _ in range(2):
            old = (dphi.copy(), dtheta.copy())
            got = _map_in_place(GRID2, dphi, dtheta, props, p, times, PART2)
            assert np.any(dphi != old[0]) and np.any(dtheta != old[1])
            # the heat flow cancels: the difference is that of the compact box
            want = k_norm(
                expanded(GRID2, dphi - old[0]), expanded(GRID2, dtheta - old[1]), PART2, times
            )
            assert got.summands == want.summands
            assert got.total > 0.0

    @pytest.mark.parametrize("grid", [GRID1, GRID2], ids=["1d", "2d"])
    def test_corrections_live_on_the_box(self, grid, monkeypatch):
        # off the 2/3-rule box the iterate is the free flow: phase free flow
        # and theta_bar plus the free heat flow, in the states the second
        # application forces (the iterate after one application, snapshot 0
        # the initial data) and in the final fields
        phi0, theta0, p = off_box_data(grid)
        part = build_partition(grid)
        cfg = PicardConfig(chi=1.0, t_end=1e-2, n_iter=2, tol=1e-300, dt=1e-3)
        seen = []

        def recording(terms, *args):
            seen.append((terms.phi.copy(), terms.theta.copy()))
            return real(terms, *args)

        real = picard.heat_forcing
        monkeypatch.setattr(picard, "heat_forcing", recording)
        rep = picard_iterate(phi0, theta0, p, cfg, part)
        assert len(rep.rows) == 2
        times = cfg.times
        after_one = seen[times.size - 1 :]
        assert len(after_one) == times.size - 1
        snapshots = [*zip(times, after_one), (times[-1], finals(rep)[:2])]
        # the free flows of the absolute data: the heat flow keeps theta_bar
        flows = [
            (rfftn(grid, phi0.values), _rate(_phase_operator(grid, p))),
            (rfftn(grid, theta0.values), _rate(_heat_operator(grid, p))),
        ]
        off = ~grid.half_dealias_mask
        for t, fields in snapshots:
            for values, (hat0, lam) in zip(fields, flows):
                tol = 1e-12 * np.max(np.abs(hat0))
                assert np.max(np.abs(hat0[off])) > 1e6 * tol
                gap = rfftn(grid, values)[off] - _free_flow(hat0, lam, t)[off]
                assert np.max(np.abs(gap)) <= tol

    def test_memory_beyond_inputs_is_under_1_6_stacks(self):
        # criterion 11's problem: 101 snapshots of the 64^2 half lattice,
        # held as one pair of correction stacks
        grid = GridSpec(dim=2, n=64, box_len=2.0 * np.pi)
        part = build_partition(grid)
        phi0, theta0, p = admissible_data(part)
        cfg = PicardConfig(chi=4e-6, t_end=1e-2, n_iter=6, dt=1e-4)
        stack = cfg.times.size * math.prod(grid.half_shape) * np.dtype(complex).itemsize
        part.rings  # the partition's lazy rings
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rep = picard_iterate(phi0, theta0, p, cfg, part)
            extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert extra < 1.6 * stack, extra / stack

    def test_grid_mismatch_rejected(self):
        cfg = PicardConfig(chi=1.0, t_end=1e-2, dt=1e-3)
        with pytest.raises(ValueError, match="grid"):
            picard_iterate(zero(GRID1), zero(GRID1), params(), cfg, PART2)

    def test_initial_temperature_through_zero_raises(self):
        # the initial data are the map's snapshot 0 and the direct run's
        # initial state: not an iterate that leaves the domain
        cfg = PicardConfig(chi=1.0, t_end=1e-2, dt=1e-3)
        theta0 = Field(GRID2, np.cos(GRID2.axes[0]) * np.ones(GRID2.shape))
        with pytest.raises(PositivityError, match="^theta must stay positive"):
            picard_iterate(zero(GRID2), theta0, params(), cfg, PART2)

    def test_model_a1_rejected(self):
        cfg = PicardConfig(chi=1.0, t_end=1e-2, dt=1e-3)
        theta0 = Field(GRID2, np.full(GRID2.shape, 2.0))
        with pytest.raises(ValueError, match="^the solution map linearizes model 'a2', got 'a1'$"):
            picard_iterate(zero(GRID2), theta0, params(model="a1"), cfg, PART2)


def random_series(grid, rng, n, amp):
    return [band_limited(grid, rng, amp=amp, kmax=6.0) for _ in range(n)]


def random_params(rng, alpha_floor=0.3):
    return ModelParams(
        eps=float(rng.uniform(0.5, 2.0)),
        theta_bar=float(rng.uniform(0.5, 3.0)),
        alpha=float(rng.uniform(alpha_floor, 2.0)),
        kappa=float(rng.uniform(0.3, 3.0)),
        k_b=float(rng.uniform(0.3, 3.0)),
    )


class TestAprioriEstimates:
    """Empirical constants: calibrate on one batch, hold out on a fresh one."""

    def test_phi_bounds_calibrate_and_hold(self):
        rng = np.random.default_rng(8)
        times = np.linspace(0.0, 0.1, 11)

        def draw():
            p = random_params(rng)
            phi0 = band_limited(GRID1, rng, amp=float(rng.uniform(0.1, 1.0)))
            g = random_series(GRID1, rng, len(times), amp=float(rng.uniform(0.1, 2.0)))
            return phi_apriori_ratios(g, phi0, p, times, PART1)

        calibration = np.array([draw() for _ in range(20)])
        assert np.all(np.isfinite(calibration)) and np.all(calibration > 0.0)
        c = 1.1 * calibration.max(axis=0)
        holdout = np.array([draw() for _ in range(20)])
        assert np.all(holdout <= c)

    def test_theta_bound_calibrates_and_holds(self):
        rng = np.random.default_rng(9)
        times = np.linspace(0.0, 0.1, 11)

        def draw():
            p = random_params(rng)
            theta0 = band_limited(GRID1, rng, amp=float(rng.uniform(0.1, 1.0)))
            h = random_series(GRID1, rng, len(times), amp=float(rng.uniform(0.1, 2.0)))
            return theta_apriori_ratios(h, theta0, p, times, PART1)

        calibration = [draw() for _ in range(20)]
        assert all(math.isfinite(r) and r > 0.0 for r in calibration)
        c = 1.1 * max(calibration)
        assert all(draw() <= c for _ in range(20))

    def test_undamped_flow_skips_the_rate_bound(self):
        rng = np.random.default_rng(10)
        times = np.linspace(0.0, 0.1, 6)
        p = params(alpha=0.0)
        phi0 = band_limited(GRID1, rng, amp=0.5)
        g = random_series(GRID1, rng, len(times), amp=0.5)
        r1, r2, r3, r4 = phi_apriori_ratios(g, phi0, p, times, PART1)
        assert math.isfinite(r1) and math.isfinite(r3)
        assert r2 == 0.0
        assert math.isnan(r4)
