"""Spectral grid layer: round trips, exact derivatives, dealiasing, quadrature."""

import numpy as np
import pytest

from thermoch.grid import (
    Field,
    GridSpec,
    dealias_array,
    fftn,
    ifftn_real,
    inner,
    l2_norm,
    laplacian_array,
    mean,
    mean_and_inner,
)


def random_field(grid, rng, amp=1.0):
    return Field(grid, amp * rng.standard_normal(grid.shape))


def grad_symbol(grid, axis):
    """The solvers' d/dx_axis multiplier (Nyquist plane zeroed)."""
    return 1j * grid.k_axes[axis] * grid.nyquist_masks[axis]


class TestGridSpec:
    def test_valid_construction(self):
        g = GridSpec(dim=2, n=64, box_len=2.0 * np.pi)
        assert g.shape == (64, 64)
        assert g.h == pytest.approx(2.0 * np.pi / 64)

    @pytest.mark.parametrize("dim,n,L", [(0, 64, 1.0), (4, 64, 1.0), (2, 48, 1.0),
                                         (2, 4, 1.0), (2, 64, 0.0), (2, 64, -1.0)])
    def test_invalid_construction(self, dim, n, L):
        with pytest.raises(ValueError):
            GridSpec(dim=dim, n=n, box_len=L)

    def test_wavenumber_range(self):
        g = GridSpec(dim=1, n=16, box_len=2.0 * np.pi)
        k = np.sort(g.k_axes[0].ravel())
        assert np.array_equal(k, np.arange(-8, 8))


class TestTransformRoundTrip:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
    def test_round_trip(self, dim, n):
        rng = np.random.default_rng(7 + dim)
        g = GridSpec(dim=dim, n=n, box_len=3.7)
        f = random_field(g, rng)
        back = ifftn_real(g, fftn(g, f.values))
        assert np.max(np.abs(back - f.values)) < 1e-12

    def test_parseval_100_trials(self):
        # h^dim * sum f^2 == (L^dim / n^(2 dim)) * sum |fhat|^2
        rng = np.random.default_rng(11)
        g = GridSpec(dim=2, n=32, box_len=5.1)
        for _ in range(100):
            f = random_field(g, rng)
            lhs = inner(f, f)
            ghat = fftn(g, f.values)
            rhs = g.box_len**g.dim / g.size**2 * np.sum(np.abs(ghat) ** 2)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_non_finite_rejected(self):
        g = GridSpec(dim=1, n=8, box_len=1.0)
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Field(g, vals)


def spectral_sine(grid, m, axis=0):
    """Exact coefficients of sin(m * 2 pi x_axis / L): only modes +-m populated."""
    c = np.zeros(grid.shape, dtype=complex)
    idx_p = [0] * grid.dim
    idx_m = [0] * grid.dim
    idx_p[axis], idx_m[axis] = m, -m % grid.n
    c[tuple(idx_p)] = -0.5j * grid.size
    c[tuple(idx_m)] = +0.5j * grid.size
    return c


class TestDerivatives:
    def test_trig_eigenfunctions_1d(self):
        # feed exact spectral coefficients: the multiplier action is then the
        # only thing under test (sampling noise amplified by k^4 is excluded)
        g = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)
        x = g.axes[0]
        for m in (1, 3, 7):
            fh = spectral_sine(g, m)
            d1 = ifftn_real(g, fh * grad_symbol(g, 0))
            d2 = ifftn_real(g, fh * (-g.k_squared))
            d4 = ifftn_real(g, fh * g.k_squared**2)
            assert np.max(np.abs(d1 - m * np.cos(m * x))) < 1e-12 * m
            assert np.max(np.abs(d2 + m**2 * np.sin(m * x))) < 1e-12 * m**2
            assert np.max(np.abs(d4 - m**4 * np.sin(m * x))) < 1e-12 * m**4

    def test_trig_eigenfunctions_2d_general_box(self):
        L = 3.0
        g = GridSpec(dim=2, n=32, box_len=L)
        X, Y = np.meshgrid(np.arange(32) * g.h, np.arange(32) * g.h, indexing="ij")
        kx, ky = 2 * 2 * np.pi / L, 5 * 2 * np.pi / L
        f = Field(g, np.cos(kx * X) * np.sin(ky * Y))
        lap = laplacian_array(g, f.values)
        expect = -(kx**2 + ky**2) * f.values
        assert np.max(np.abs(lap - expect)) < 1e-12 * (kx**2 + ky**2)

    def test_laplacian_twice_equals_bilaplacian(self):
        rng = np.random.default_rng(3)
        g = GridSpec(dim=2, n=32, box_len=1.0)
        fh = fftn(g, random_field(g, rng).values)
        twice = fh * (-g.k_squared) * (-g.k_squared)
        once = fh * g.k_squared**2
        scale = np.max(np.abs(once)) or 1.0
        assert np.max(np.abs(twice - once)) < 1e-12 * scale

    def test_grad_of_constant_is_zero(self):
        g = GridSpec(dim=3, n=8, box_len=1.0)
        fh = fftn(g, np.full(g.shape, 4.25))
        for ax in range(3):
            d = ifftn_real(g, fh * grad_symbol(g, ax))
            assert np.max(np.abs(d)) < 1e-13

    def test_mean_of_laplacian_is_zero(self):
        rng = np.random.default_rng(5)
        g = GridSpec(dim=2, n=32, box_len=2.0)
        f = random_field(g, rng)
        lap = Field(g, laplacian_array(g, f.values))
        # k=0 coefficient is multiplied by exactly 0: mean survives at round-off
        assert abs(mean(lap)) < 1e-13


class TestDealias:
    def test_sin_squared_against_analytic(self):
        # sin^2 = (1 - cos(2.))/2 lives on modes {0, 2}; untouched for n >= 16
        for n in (16, 32, 64):
            g = GridSpec(dim=1, n=n, box_len=2.0 * np.pi)
            x = g.axes[0]
            cut = dealias_array(g, np.sin(x) ** 2)
            expect = 0.5 * (1.0 - np.cos(2.0 * x))
            assert np.max(np.abs(cut - expect)) < 1e-12

    def test_dealias_is_projection(self):
        rng = np.random.default_rng(9)
        g = GridSpec(dim=2, n=32, box_len=1.0)
        fh = fftn(g, random_field(g, rng).values)
        once = fh * g.dealias_mask
        twice = fh * g.dealias_mask * g.dealias_mask
        assert np.array_equal(once, twice)

    def test_cutoff_location(self):
        g = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)
        c = np.ones(g.shape, dtype=complex)
        kept = (c * g.dealias_mask).real
        k_int = np.rint(g.k_axes[0].ravel()).astype(int)
        for idx, m in enumerate(k_int):
            assert kept.ravel()[idx] == (1.0 if abs(m) <= 21 else 0.0), m


class TestQuadrature:
    def test_mean_and_inner_analytic(self):
        g = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)
        x = g.axes[0]
        f = Field(g, np.sin(x))
        gfld = Field(g, np.sin(x))
        m, ip = mean_and_inner(f, gfld)
        assert abs(m) < 1e-15
        assert ip == pytest.approx(np.pi, rel=1e-12)  # integral of sin^2 over [0, 2pi)

    def test_mean_of_ones(self):
        g = GridSpec(dim=2, n=16, box_len=3.0)
        f = Field(g, np.ones(g.shape))
        assert mean(f) == 1.0
        assert inner(f, f) == pytest.approx(9.0, rel=1e-14)

    def test_l2_norm_parseval_consistency(self):
        rng = np.random.default_rng(13)
        g = GridSpec(dim=1, n=128, box_len=1.0)
        f = random_field(g, rng)
        assert l2_norm(f) ** 2 == pytest.approx(inner(f, f), rel=1e-12)

    def test_grid_mismatch_rejected(self):
        g1 = GridSpec(dim=1, n=8, box_len=1.0)
        g2 = GridSpec(dim=1, n=16, box_len=1.0)
        with pytest.raises(ValueError):
            mean_and_inner(Field(g1, np.zeros(8)), Field(g2, np.zeros(16)))
