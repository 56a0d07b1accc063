"""Dyadic partition, Besov/time-frequency norms, smallness, product continuity."""

import math

import numpy as np
import pytest

from analysis_oracle import chemin_lerner_norm
from spectral_oracle import (
    band_limited,
    block_energies,
    count_transforms,
    fed,
    full_symbols,
    grad_symbol,
    k_squared,
    laplacian_array,
    project_block,
)
from thermoch.besov import (
    SeriesEnergies,
    besov_norm,
    build_partition,
    check_smallness,
    chi_bump,
)
from thermoch.grid import Field, GridSpec, grad_arrays, l2_norm, rfftn
from thermoch.thermo import ModelParams


GRID = GridSpec(dim=2, n=64, box_len=2.0 * np.pi)
PART = build_partition(GRID)


def random_field(grid, rng, amp=1.0):
    return Field(grid, amp * rng.standard_normal(grid.shape))


class TestPartition:
    def test_bump_plateaus_exact(self):
        r = np.array([0.0, 0.5, 0.75, 1.3334, 2.0, 10.0])
        chi = chi_bump(r)
        assert chi[0] == 1.0 and chi[1] == 1.0 and chi[2] == 1.0
        assert chi[3] == 0.0 and chi[4] == 0.0 and chi[5] == 0.0
        mid = chi_bump(np.array([1.0]))[0]
        assert 0.0 < mid < 1.0

    def test_partition_of_unity_on_lattice(self):
        for grid in (GRID, GridSpec(dim=1, n=128, box_len=3.0), GridSpec(dim=3, n=16, box_len=1.0)):
            part = build_partition(grid)
            total = np.zeros(grid.half_shape)
            for sym in part.symbols:
                total += sym
            assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_ring_supports(self):
        part = PART
        r = np.sqrt(-GRID.half_lap)
        for i, q in enumerate(part.qs):
            if q == -1:
                continue
            sym = part.symbols[i]
            outside = (r <= 0.75 * 2.0**q) | (r >= (8.0 / 3.0) * 2.0**q)
            assert np.max(np.abs(sym[outside])) == 0.0

    def test_exact_dyadic_frequency_splits_between_two_rings(self):
        # |xi| = 2^q: phi_{q-1} + phi_q = 1 and every other symbol vanishes
        for q in (1, 2, 3):
            r = np.array([2.0**q])
            low = chi_bump(r)[0]
            assert (low == 0.0) if q >= 2 else True
            ring_prev = chi_bump(r / 2.0**q)[0] - chi_bump(r / 2.0 ** (q - 1))[0]
            ring_here = chi_bump(r / 2.0 ** (q + 1))[0] - chi_bump(r / 2.0**q)[0]
            assert ring_prev + ring_here + low == pytest.approx(1.0, abs=1e-14)

    def test_single_mode_hits_two_blocks(self):
        q0 = 3  # mode with |k| = 8 on the 2pi box
        x = GRID.axes[0]
        f = Field(GRID, np.sin(2.0**q0 * x) * np.ones(GRID.shape))
        rep = besov_norm(f, 0.0, PART)
        active = [q for q, v in rep.per_block if v > 1e-12]
        assert active == [q0 - 1, q0]

    def test_project_block_range_check(self):
        f = Field(GRID, np.zeros(GRID.shape))
        with pytest.raises(ValueError):
            project_block(f, PART.q_max + 1, PART)


class TestBesovNorm:
    def test_field_off_the_partitions_grid_rejected(self):
        other = GridSpec(dim=2, n=64, box_len=3.0)  # same shape, other box
        with pytest.raises(ValueError, match="^a field lives on a different grid$"):
            besov_norm(Field(other, np.ones(other.shape)), 1.0, PART)

    def test_single_mode_against_direct_sum_oracle(self):
        # f = a sin(kx): coefficients live at +-k only, so each block norm is
        # phi_q(|k|) * a * sqrt(L^d / 2); evaluated with scalar chi calls
        a, m = 0.37, 5
        s = 1.0
        x = GRID.axes[0]
        f = Field(GRID, a * np.sin(m * x) * np.ones(GRID.shape))
        rep = besov_norm(f, s, PART)
        spatial = a * math.sqrt(GRID.box_len**2 / 2.0)
        oracle = 0.0
        for q in PART.qs:
            if q == -1:
                w = chi_bump(np.array([float(m)]))[0]
            else:
                w = (
                    chi_bump(np.array([m / 2.0 ** (q + 1)]))[0]
                    - chi_bump(np.array([m / 2.0**q]))[0]
                )
            oracle += 2.0 ** (q * s) * w * spatial
        assert rep.total == pytest.approx(oracle, abs=1e-10)

    def test_zero_field(self):
        rep = besov_norm(Field(GRID, np.zeros(GRID.shape)), 1.0, PART)
        assert rep.total == 0.0
        assert all(v == 0.0 for _, v in rep.per_block)

    def test_s0_dominates_l2(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            f = random_field(GRID, rng)
            rep = besov_norm(f, 0.0, PART)
            assert rep.total >= l2_norm(f) - 1e-12

    def test_subadditive(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            f = random_field(GRID, rng)
            g = random_field(GRID, rng)
            fg = Field(GRID, f.values + g.values)
            assert (
                besov_norm(fg, 1.0, PART).total
                <= besov_norm(f, 1.0, PART).total + besov_norm(g, 1.0, PART).total + 1e-12
            )

    def test_homogeneous(self):
        rng = np.random.default_rng(19)
        f = random_field(GRID, rng)
        n1 = besov_norm(f, 1.5, PART).total
        n3 = besov_norm(Field(GRID, 3.0 * f.values), 1.5, PART).total
        assert n3 == pytest.approx(3.0 * n1, rel=1e-12)

    def test_report_total_is_block_sum(self):
        rng = np.random.default_rng(20)
        rep = besov_norm(random_field(GRID, rng), 0.5, PART)
        assert rep.total == pytest.approx(sum(v for _, v in rep.per_block), rel=1e-14)
        assert all(v >= 0.0 for _, v in rep.per_block)

    def test_weighted_block_beyond_double_range_is_inf_without_warning(self):
        # 2^(5 s) is finite just below s = 1024/5; times a block norm above 1 it is not
        rep = besov_norm(random_field(GRID, np.random.default_rng(21), amp=1e3), 204.7, PART)
        assert rep.per_block[-1] == (5, math.inf)
        assert rep.total == math.inf

    def test_block_energy_beyond_double_range_is_inf_without_warning(self):
        # |f_hat|^2 itself passes the double range
        f = Field(GRID, 1e200 * np.cos(3.0 * GRID.axes[0]) * np.ones(GRID.shape))
        rep = besov_norm(f, 1.0, PART)
        assert rep.total == math.inf
        assert math.inf in [v for _, v in rep.per_block]


def full_lattice_blocks(grid, part, values, multiplier=None):
    """Oracle: block L2 norms from np.fft.fftn and the full-lattice symbols."""
    coeffs = np.fft.fftn(values)
    if multiplier is not None:
        coeffs = coeffs * multiplier
    scale = math.sqrt(grid.box_len**grid.dim) / grid.size
    return np.array([scale * np.linalg.norm(sym * coeffs) for sym in full_symbols(part)])


def nyquist_heavy_field(grid, rng):
    """White noise plus energy on every axis' Nyquist plane and on their crossing."""
    v = rng.standard_normal(grid.shape)
    corner = np.ones(grid.shape)
    for axis in range(grid.dim):
        sign = (-1.0) ** np.arange(grid.n).reshape([-1 if j == axis else 1 for j in range(grid.dim)])
        other = grid.axes[(axis + 1) % grid.dim]
        v = v + sign * (3.0 + 2.0 * np.cos(2.0 * np.pi * other / grid.box_len))
        corner = corner * sign
    return v + 4.0 * corner


HALF_GRIDS = [
    GridSpec(dim=1, n=64, box_len=2.0 * np.pi),
    GridSpec(dim=2, n=32, box_len=3.0),
    GridSpec(dim=3, n=16, box_len=1.0),
]


class TestHalfLatticeBlocks:
    @pytest.mark.parametrize("grid", HALF_GRIDS, ids=lambda g: f"{g.dim}d")
    def test_matches_full_lattice_oracle(self, grid):
        part = build_partition(grid)
        rng = np.random.default_rng(50 + grid.dim)
        v = nyquist_heavy_field(grid, rng)
        nyq = np.abs(np.fft.fftn(v))[(grid.n // 2,) * grid.dim]
        assert nyq > 1.0  # the corner Nyquist mode carries energy
        got = np.sqrt(block_energies(rfftn(grid, v), part))
        want = full_lattice_blocks(grid, part, v)
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    @pytest.mark.parametrize("grid", HALF_GRIDS, ids=lambda g: f"{g.dim}d")
    def test_weighted_matches_derivative_oracle(self, grid):
        # |grad|^2 and |lap|^2 as weights against derivatives taken on the full lattice
        part = build_partition(grid)
        v = nyquist_heavy_field(grid, np.random.default_rng(60 + grid.dim))
        hat = rfftn(grid, v)
        grad_sq = sum(
            full_lattice_blocks(grid, part, v, grad_symbol(grid, i)) ** 2 for i in range(grid.dim)
        )
        got = block_energies(hat, part, grid.half_grad_sq)
        assert np.all(np.abs(got - grad_sq) <= 1e-12 * grad_sq)
        lap = full_lattice_blocks(grid, part, v, -k_squared(grid))
        got = np.sqrt(block_energies(hat, part, grid.half_bilap))
        assert np.all(np.abs(got - lap) <= 1e-12 * lap)

    def test_stack_gives_one_row_per_snapshot(self):
        rng = np.random.default_rng(70)
        hats = np.stack([rfftn(GRID, rng.standard_normal(GRID.shape)) for _ in range(4)])
        (rows,) = fed(SeriesEnergies(PART, 4, (None,)), hats)
        assert rows.shape == (4, len(PART.symbols))
        for hat, row in zip(hats, rows):
            assert np.array_equal(fed(SeriesEnergies(PART, 1, (None,)), [hat])[0, 0], row)

    def test_energies_need_every_snapshot(self):
        hat = np.ones(GRID.half_shape, dtype=complex)
        acc = SeriesEnergies(PART, 3, (None,))
        with pytest.raises(ValueError, match="^the series has 0 snapshots, not 3$"):
            acc.energies
        fed_two = SeriesEnergies(PART, 3, (None,))
        with pytest.raises(ValueError, match="^the series has 2 snapshots, not 3$"):
            fed(fed_two, [hat, hat])
        with pytest.raises(ValueError, match="^the series has more than 3 snapshots$"):
            fed(acc, [hat] * 4)
        assert acc.energies.shape == (1, 3, len(PART.symbols))

    def test_streamed_series_matches_explicit_stacks_bitwise(self):
        # the backward rate and every weight of one streamed series against
        # the block energies of stacks formed explicitly
        rng = np.random.default_rng(71)
        times = np.linspace(0.0, 0.3, 5)
        hats = np.stack([rfftn(GRID, rng.standard_normal(GRID.shape)) for _ in times])
        weights, rate_weights = (None, GRID.half_bilap), (None, GRID.half_grad_sq)
        rates = np.zeros_like(hats)
        rates[1:] = hats[1:] - hats[:-1]
        rates[1:] *= (1.0 / np.diff(times))[:, None, None]
        # one buffer rewritten between adds, as a generator of snapshots hands them
        buffer = np.empty_like(hats[0])
        streamed = (np.copyto(buffer, hat) or buffer for hat in hats)
        for series in (hats, streamed):
            got = fed(SeriesEnergies(PART, times.size, weights, rate_weights, times), series)
            want = [block_energies(hats, PART, w) for w in weights]
            want += [block_energies(rates, PART, w) for w in rate_weights]
            assert got.shape == (4, times.size, len(PART.symbols))
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("grid", HALF_GRIDS + [GRID], ids=lambda g: f"{g.dim}d-{g.n}")
    def test_every_point_in_at_most_two_consecutive_blocks(self, grid):
        part = build_partition(grid)
        nonzero = np.stack([sym != 0.0 for sym in full_symbols(part)])
        count = nonzero.sum(axis=0)
        assert count.min() >= 1 and count.max() <= 2
        lower = np.argmax(nonzero, axis=0)
        upper = np.minimum(lower + 1, len(part.symbols) - 1)
        pairs = np.take_along_axis(nonzero, upper[None], axis=0)[0]
        assert np.all(count == 1 + (pairs & (upper > lower)))
        # the rings table: each half-lattice point once per block holding it
        point, block, _ = part.rings
        half = np.s_[..., : grid.n // 2 + 1]
        assert np.array_equal(np.bincount(point), count[half].ravel())
        half_lower = np.full(point.max() + 1, len(part.symbols))
        np.minimum.at(half_lower, point, block)
        assert np.array_equal(half_lower, lower[half].ravel())
        assert np.all(np.diff(block) >= 0)

    @pytest.mark.parametrize("grid", HALF_GRIDS + [GRID], ids=lambda g: f"{g.dim}d-{g.n}")
    def test_symbols_are_the_full_lattice_ones_sliced(self, grid):
        part = build_partition(grid)
        for half, full in zip(part.symbols, full_symbols(part), strict=True):
            assert np.array_equal(half, full[..., : grid.n // 2 + 1])


class TestBernstein:
    def _ratios(self, f):
        out = []
        for q in range(0, PART.q_max + 1):
            blk = project_block(f, q, PART)
            nb = l2_norm(blk)
            if nb < 1e-13:
                continue
            grads = grad_arrays(GRID, blk.values)
            ng = math.sqrt(sum(l2_norm(Field(GRID, g)) ** 2 for g in grads))
            out.append((q, ng / nb))
        return out

    def test_ratio_bounds_and_calibration(self):
        rng = np.random.default_rng(23)
        cal, held = [], []
        for i in range(200):
            ratios = self._ratios(random_field(GRID, rng))
            bucket = cal if i < 100 else held
            for q, r in ratios:
                bucket.append(r / 2.0**q)        # forward constant
                bucket.append(2.0**q / r)        # inverse constant
        c_cal = 1.1 * max(cal)
        assert c_cal <= 4.0                      # ring support gives 8/3 and 4/3
        assert max(held) <= c_cal

    def test_support_implies_hard_bounds(self):
        rng = np.random.default_rng(24)
        for q, r in self._ratios(random_field(GRID, rng)):
            assert 0.75 * 2.0**q <= r <= (8.0 / 3.0) * 2.0**q + 1e-9


class TestCheminLerner:
    def test_constant_series_rho_inf_equals_besov(self):
        rng = np.random.default_rng(29)
        f = random_field(GRID, rng)
        times = np.linspace(0.0, 1.0, 11)
        series = [f] * 11
        cl = chemin_lerner_norm(series, times, 1.0, np.inf, PART)
        assert cl == pytest.approx(besov_norm(f, 1.0, PART).total, rel=1e-12)

    def test_constant_series_rho1_is_t_times_besov(self):
        rng = np.random.default_rng(30)
        f = random_field(GRID, rng)
        T = 0.8
        times = np.linspace(0.0, T, 17)
        cl = chemin_lerner_norm([f] * 17, times, 0.5, 1, PART)
        assert cl == pytest.approx(T * besov_norm(f, 0.5, PART).total, rel=1e-12)

    def test_rho1_equals_integrated_besov(self):
        # the q-sum and the time-sum commute exactly
        rng = np.random.default_rng(31)
        times = np.linspace(0.0, 0.2, 6)
        series = [random_field(GRID, rng) for _ in times]
        cl = chemin_lerner_norm(series, times, 1.0, 1, PART)
        quad = (times[1] - times[0]) * sum(
            besov_norm(f, 1.0, PART).total for f in series[:-1]
        )
        assert cl == pytest.approx(quad, rel=1e-12)

    def test_decaying_mode_against_integral(self):
        lam = 3.0
        T = 1.0
        dt = 1e-3
        times = np.arange(0.0, T + dt / 2, dt)
        x = GRID.axes[0]
        base = np.sin(4.0 * x) * np.ones(GRID.shape)
        series = [Field(GRID, math.exp(-lam * t) * base) for t in times]
        cl = chemin_lerner_norm(series, times, 1.0, 1, PART)
        expect = (1.0 - math.exp(-lam * T)) / lam * besov_norm(Field(GRID, base), 1.0, PART).total
        assert cl == pytest.approx(expect, rel=1e-2)

    def test_nonuniform_times_rejected(self):
        f = Field(GRID, np.zeros(GRID.shape))
        with pytest.raises(ValueError, match="uniform"):
            chemin_lerner_norm([f, f, f], [0.0, 0.1, 0.3], 1.0, 1, PART)

    def test_bad_rho_rejected(self):
        f = Field(GRID, np.zeros(GRID.shape))
        with pytest.raises(ValueError, match="rho"):
            chemin_lerner_norm([f, f], [0.0, 0.1], 1.0, 3, PART)

    def test_rho_inf_is_the_float_not_the_string(self):
        f = Field(GRID, np.zeros(GRID.shape))
        assert chemin_lerner_norm([f, f], [0.0, 0.1], 1.0, math.inf, PART) == 0.0
        with pytest.raises(ValueError, match=r"^rho must be 1, 2 or inf, got 'inf'$"):
            chemin_lerner_norm([f, f], [0.0, 0.1], 1.0, "inf", PART)


class TestSmallness:
    def test_boundary_equality_not_satisfied(self):
        # phi0 == 0, eps = 1, theta_bar = 100, alpha = kappa = k_b = 1,
        # eps0 = 0.01: lhs1 = (1/100)(1+0)^4 = 0.01 = rhs1 -> strict fails
        p = ModelParams(eps=1.0, theta_bar=100.0, alpha=1.0, kappa=1.0, k_b=1.0)
        phi0 = Field(GRID, np.zeros(GRID.shape))
        theta0 = Field(GRID, np.full(GRID.shape, 100.0))
        rep = check_smallness(phi0, theta0, p, 0.01, PART)
        assert rep.lhs1 == pytest.approx(0.01, abs=1e-15)
        assert rep.rhs1 == pytest.approx(0.01, abs=1e-15)
        assert rep.satisfied[0] is False
        assert rep.satisfied[1] is True  # lhs2 = 0 < rhs2
        assert rep.eps_theta_bar == pytest.approx(100.0)

    def test_admissible_data(self):
        p = ModelParams(eps=1.0, theta_bar=100.0, alpha=1.0, kappa=1.0, k_b=1.0)
        x = GRID.axes[0]
        phi0 = Field(GRID, 1e-4 * np.sin(x) * np.ones(GRID.shape))
        theta0 = Field(GRID, 100.0 + 1e-9 * np.sin(x) * np.ones(GRID.shape))
        rep = check_smallness(phi0, theta0, p, 0.5, PART)
        assert rep.satisfied == (True, True)
        lo, hi = rep.chi_range
        assert 0.0 < lo < hi
        m1, m2 = rep.margins
        assert m1 > 1.0 and m2 > 1.0

    def test_zero_alpha_violates_both_and_admits_no_radius(self):
        # alpha = 0 sets min(1, alpha, kappa, k_b) = 0, so rhs1 = rhs2 = 0;
        # theta0 == theta_bar gives lhs2 = 0, which is not < 0 either
        p = ModelParams(eps=1.0, theta_bar=100.0, alpha=0.0, kappa=1.0, k_b=1.0)
        phi0 = Field(GRID, np.zeros(GRID.shape))
        theta0 = Field(GRID, np.full(GRID.shape, 100.0))
        rep = check_smallness(phi0, theta0, p, 0.5, PART)
        assert (rep.rhs1, rep.rhs2, rep.lhs2) == (0.0, 0.0, 0.0)
        assert rep.satisfied == (False, False)
        assert rep.margins == (0.0, 0.0)
        assert rep.chi_range is None
        assert "no admissible ball radius chi" in rep.to_text()

    def test_eps0_domain(self):
        p = ModelParams(eps=1.0, theta_bar=1.0, alpha=1.0, kappa=1.0, k_b=1.0)
        z = Field(GRID, np.zeros(GRID.shape))
        one = Field(GRID, np.ones(GRID.shape))
        with pytest.raises(ValueError):
            check_smallness(z, one, p, 1.5, PART)

    def test_text_renders(self):
        p = ModelParams(eps=1.0, theta_bar=10.0, alpha=1.0, kappa=1.0, k_b=1.0)
        z = Field(GRID, np.zeros(GRID.shape))
        t0 = Field(GRID, np.full(GRID.shape, 10.0))
        rep = check_smallness(z, t0, p, 0.5, PART)
        assert "margin" in rep.to_text()

    def test_fields_off_the_partitions_grid_rejected(self):
        p = ModelParams(eps=1.0, theta_bar=1.0, alpha=1.0, kappa=1.0, k_b=1.0)
        other = GridSpec(dim=2, n=64, box_len=3.0)  # same shape, other box
        z, o = Field(GRID, np.zeros(GRID.shape)), Field(other, np.ones(other.shape))
        for phi0, theta0 in ((z, o), (Field(other, z.values), Field(GRID, o.values))):
            with pytest.raises(ValueError, match="different grid"):
                check_smallness(phi0, theta0, p, 0.5, PART)

    def test_two_transforms(self, monkeypatch):
        # phi0 and theta0 - theta_bar once each: lap phi0 is a weight on phi0_hat
        p = ModelParams(eps=1.0, theta_bar=10.0, alpha=1.0, kappa=1.0, k_b=1.0)
        phi0 = band_limited(GRID, np.random.default_rng(22))
        theta0 = Field(GRID, 10.0 + phi0.values)
        calls = count_transforms(monkeypatch)
        check_smallness(phi0, theta0, p, 0.5, PART)
        assert calls == ["rfftn", "rfftn"]

    @pytest.mark.parametrize("grid", HALF_GRIDS, ids=lambda g: f"{g.dim}d")
    def test_lhs1_matches_the_laplacian_round_trip(self, grid):
        # lap phi0 taken through physical space and measured as a field
        part = build_partition(grid)
        p = ModelParams(eps=0.7, theta_bar=1e3, alpha=1.0, kappa=1.0, k_b=1.0)
        rng = np.random.default_rng(23 + grid.dim)
        phi0 = Field(grid, rng.standard_normal(grid.shape))
        theta0 = Field(grid, 1e3 + 1e-3 * rng.standard_normal(grid.shape))
        s = grid.dim / 2.0
        lap_n = besov_norm(Field(grid, laplacian_array(grid, phi0.values)), s, part).total
        phi0_n = besov_norm(phi0, s, part).total
        want = p.eps * lap_n + (1.0 / p.theta_bar) * max(1.0, 1.0 / p.eps) * (1.0 + phi0_n) ** 4
        rep = check_smallness(phi0, theta0, p, 0.5, part)
        assert rep.lhs1 == pytest.approx(want, rel=1e-12, abs=0.0)
        dtheta = Field(grid, theta0.values - p.theta_bar)
        assert rep.lhs2 == besov_norm(dtheta, s, part).total

    @pytest.mark.parametrize("amplitude", [1e80, 1e100])
    def test_side_beyond_double_range_is_inf_and_violated(self, amplitude):
        # (1 + ||phi0||)^4 passes the double range: no OverflowError, no warning
        p = ModelParams(eps=1.0, theta_bar=10.0, alpha=1.0, kappa=1.0, k_b=1.0)
        phi0 = Field(GRID, amplitude * np.sin(GRID.axes[0]) * np.ones(GRID.shape))
        rep = check_smallness(phi0, Field(GRID, np.full(GRID.shape, 10.0)), p, 0.5, PART)
        assert rep.lhs1 == math.inf
        assert rep.satisfied == (False, True)
        assert "lhs = inf" in rep.to_text() and "margin x0]" in rep.to_text()

    def test_huge_eps_reports_without_overflow(self):
        # eps^2 passes the double range; min(eps^2, 1/(1 + eps)) does not
        p = ModelParams(eps=1e200, theta_bar=10.0, alpha=1.0, kappa=1.0, k_b=1.0)
        phi0 = Field(GRID, np.zeros(GRID.shape))
        rep = check_smallness(phi0, Field(GRID, np.full(GRID.shape, 10.0)), p, 0.5, PART)
        assert (rep.lhs1, rep.rhs2) == (0.1, 0.0)
        assert rep.satisfied == (True, False)
        assert rep.chi_range is None
        assert "no admissible ball radius chi: inequality 2 VIOLATED" in rep.to_text()

    def test_violated_second_inequality_admits_no_radius(self):
        # lhs2 > rhs2 with every constant 1: the bounds 4 lhs2 and 4 rhs2
        # would give the empty interval (5.757e-01, 6.25e-02)
        grid = GridSpec(dim=1, n=16, box_len=2.0 * np.pi)
        p = ModelParams(eps=1.0, theta_bar=1.0, alpha=1.0, kappa=1.0, k_b=1.0)
        phi0 = Field(grid, np.zeros(grid.shape))
        theta0 = Field(grid, 1.0 + 0.1 * np.sin(grid.axes[0]))
        rep = check_smallness(phi0, theta0, p, 0.5, build_partition(grid))
        assert rep.rhs2 == 0.125**2 < rep.lhs2
        assert rep.satisfied == (False, False)
        assert rep.chi_range is None
        text = rep.to_text()
        assert "no admissible ball radius chi: inequality 2 VIOLATED" in text
        assert "chi in (" not in text


class TestProductContinuity:
    def test_algebra_property_with_calibrated_constant(self):
        rng = np.random.default_rng(43)
        s = GRID.dim / 2.0

        def pair():
            return (
                band_limited(GRID, rng, float(rng.uniform(0.2, 2.0)), 10, zero_mean=False),
                band_limited(GRID, rng, float(rng.uniform(0.2, 2.0)), 10, zero_mean=False),
            )

        def ratio(f, g):
            prod = Field(GRID, f.values * g.values)
            denom = besov_norm(f, s, PART).total * besov_norm(g, s, PART).total
            return besov_norm(prod, s, PART).total / denom

        cal = [ratio(*pair()) for _ in range(40)]
        c = 1.1 * max(cal)
        held = [ratio(*pair()) for _ in range(40)]
        assert max(held) <= c
