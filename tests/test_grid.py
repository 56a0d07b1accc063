"""Spectral grid layer: round trips, exact derivatives, dealiasing, quadrature."""

import numpy as np
import pytest

from analysis_oracle import divergence_arrays
from spectral_oracle import fftn, grad_symbol, ifftn_real, k_axes, k_squared, laplacian_array
from thermoch.grid import (
    Field,
    GridSpec,
    dealias_in_place,
    grad_arrays,
    inner,
    irfftn,
    l2_norm,
    mean,
    rfftn,
)


def random_field(grid, rng, amp=1.0):
    return Field(grid, amp * rng.standard_normal(grid.shape))


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

    def test_field_of_the_wrong_shape_rejected(self):
        g = GridSpec(dim=2, n=16, box_len=2.0 * np.pi)
        message = r"^field shape \(16, 8\) does not match grid \(16, 16\)$"
        with pytest.raises(ValueError, match=message):
            Field(g, np.zeros((16, 8)))

    def test_wavenumber_range(self):
        # full axes hold -n/2..n/2-1; the half lattice's last axis 0..n/2
        g = GridSpec(dim=2, n=16, box_len=2.0 * np.pi)
        first, last = (np.sort(k.ravel()) for k in g.half_k_axes)
        assert np.array_equal(first, np.arange(-8, 8))
        assert np.array_equal(last, np.arange(0, 9))


class TestTransformRoundTrip:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
    def test_round_trip(self, dim, n):
        rng = np.random.default_rng(7 + dim)
        g = GridSpec(dim=dim, n=n, box_len=3.7)
        f = random_field(g, rng)
        back = irfftn(g, rfftn(g, f.values))
        assert np.max(np.abs(back - f.values)) < 1e-12

    def test_parseval_100_trials(self):
        # h^dim * sum f^2 == (L^dim / n^(2 dim)) * sum |fhat|^2
        rng = np.random.default_rng(11)
        g = GridSpec(dim=2, n=32, box_len=5.1)
        for _ in range(100):
            f = random_field(g, rng)
            lhs = inner(f, f)
            ghat = fftn(f.values)
            rhs = g.box_len**g.dim / g.size**2 * np.sum(np.abs(ghat) ** 2)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def spectral_sine(grid, m):
    """Exact half spectrum of sin(m * 2 pi x_last / L): only mode +m stored."""
    c = np.zeros(grid.half_shape, dtype=complex)
    c[(0,) * (grid.dim - 1) + (m,)] = -0.5j * grid.size
    return c


class TestDerivatives:
    def test_trig_eigenfunctions_1d(self):
        # feed exact spectral coefficients: the multiplier action is then the
        # only thing under test (sampling noise amplified by k^4 is excluded)
        g = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)
        x = g.axes[0]
        for m in (1, 3, 7):
            fh = spectral_sine(g, m)
            d1 = irfftn(g, fh * g.half_grad[0])
            d2 = irfftn(g, fh * g.half_lap)
            d4 = irfftn(g, fh * g.half_bilap)
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
        fh = rfftn(g, random_field(g, rng).values)
        twice = fh * g.half_lap * g.half_lap
        once = fh * g.half_bilap
        scale = np.max(np.abs(once)) or 1.0
        assert np.max(np.abs(twice - once)) < 1e-12 * scale

    def test_grad_of_constant_is_zero(self):
        g = GridSpec(dim=3, n=8, box_len=1.0)
        for d in grad_arrays(g, np.full(g.shape, 4.25)):
            assert np.max(np.abs(d)) < 1e-13

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (3, 8)])
    def test_pure_nyquist_field(self, dim, n):
        # (-1)^(i+j+...) lives on the Nyquist bin of every axis, stored as
        # -n/2 on the full axes and +n/2 on the half lattice's last axis
        g = GridSpec(dim=dim, n=n, box_len=2.7)
        f = np.ones(g.shape)
        for ax in g.axes:
            f = f * np.cos(np.pi * n * ax / g.box_len)
        for d in grad_arrays(g, f):
            assert np.array_equal(d, np.zeros(g.shape))
        k_nyq = np.pi * n / g.box_len
        expect = -dim * k_nyq**2 * f
        assert np.max(np.abs(laplacian_array(g, f) - expect)) <= 1e-12 * np.max(np.abs(expect))
        if dim > 1:
            # Nyquist on the first axis only, a resolved mode on the last
            k1 = 2.0 * np.pi / g.box_len
            mixed = np.cos(k_nyq * g.axes[0]) * np.cos(k1 * g.axes[-1]) * np.ones(g.shape)
            grads = grad_arrays(g, mixed)
            assert np.max(np.abs(grads[0])) <= 1e-12 * k_nyq
            slope = -k1 * np.cos(k_nyq * g.axes[0]) * np.sin(k1 * g.axes[-1])
            assert np.max(np.abs(grads[-1] - slope)) <= 1e-12 * k_nyq

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8)])
    def test_half_lattice_matches_full_lattice(self, dim, n):
        rng = np.random.default_rng(dim)
        g = GridSpec(dim=dim, n=n, box_len=1.3)
        v = rng.standard_normal(g.shape)
        comps = [rng.standard_normal(g.shape) for _ in range(dim)]
        fh = fftn(v)
        full_div = sum(fftn(c) * grad_symbol(g, i) for i, c in enumerate(comps))
        cut = np.ones(g.shape, dtype=bool)
        for k in k_axes(g):
            cut &= np.abs(k) <= (2.0 / 3.0) * np.pi * n / g.box_len + 1e-12
        pairs = [(a, ifftn_real(fh * grad_symbol(g, i))) for i, a in enumerate(grad_arrays(g, v))]
        pairs += [
            (laplacian_array(g, v), ifftn_real(-fh * k_squared(g))),
            (divergence_arrays(g, comps), ifftn_real(full_div)),
            (divergence_arrays(g, comps, mask=True), ifftn_real(full_div * cut)),
            (irfftn(g, rfftn(g, v) * g.half_dealias_mask), ifftn_real(fh * cut)),
            (irfftn(g, rfftn(g, v) * g.half_bilap), ifftn_real(fh * k_squared(g) ** 2)),
        ]
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

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
            cut = irfftn(g, rfftn(g, np.sin(x) ** 2) * g.half_dealias_mask)
            expect = 0.5 * (1.0 - np.cos(2.0 * x))
            assert np.max(np.abs(cut - expect)) < 1e-12

    def test_dealias_is_projection(self):
        rng = np.random.default_rng(9)
        g = GridSpec(dim=2, n=32, box_len=1.0)
        fh = rfftn(g, random_field(g, rng).values)
        once = fh * g.half_dealias_mask
        twice = fh * g.half_dealias_mask * g.half_dealias_mask
        assert np.array_equal(once, twice)
        # the in-place form the step uses is the same projection, on its own copy
        kept = fh.copy()
        assert dealias_in_place(g, kept) is kept and np.array_equal(kept, once)

    def test_cutoff_location(self):
        g = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)
        kept = g.half_dealias_mask
        k_int = np.rint(g.half_k_axes[0].ravel()).astype(int)
        for idx, m in enumerate(k_int):
            assert kept.ravel()[idx] == (1.0 if abs(m) <= 21 else 0.0), m


class TestQuadrature:
    def test_mean_and_inner_analytic(self):
        g = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)
        x = g.axes[0]
        f = Field(g, np.sin(x))
        gfld = Field(g, np.sin(x))
        assert abs(mean(f)) < 1e-15
        # integral of sin^2 over [0, 2pi)
        assert inner(f, gfld) == pytest.approx(np.pi, rel=1e-12)

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
            inner(Field(g1, np.zeros(8)), Field(g2, np.zeros(16)))
