"""Periodic pseudospectral grids on [0, L)^d and exact Fourier calculus.

Conventions used throughout the package:

* forward FFT is unnormalized, the inverse carries the 1/n^dim factor
  (numpy/pocketfft convention);
* wavenumbers per axis are k = (2*pi/L) * {-n/2, ..., n/2 - 1};
* odd derivatives zero the unpaired Nyquist mode so that real fields stay
  real; even derivatives keep it (the multiplier is real there);
* the quadrature weight is h^dim with h = L/n, so inner(f, g) approximates
  the integral over the box and mean(f) is the plain average.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as _sfft

__all__ = [
    "GridSpec",
    "Field",
    "mean_and_inner",
    "mean",
    "inner",
    "l2_norm",
    "fftn",
    "ifftn_real",
    "grad_arrays",
    "laplacian_array",
    "divergence_arrays",
    "dealias_array",
]


def _fft_workers() -> int:
    """Worker cap for the FFT kernels, from the THERMOCH_THREADS env var."""
    try:
        return max(1, int(os.environ.get("THERMOCH_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: `n` points per axis on a box of side `box_len`.

    dim must be 1, 2 or 3; n must be a power of two >= 8 (keeps the dyadic
    frequency decomposition and the 2/3-rule masks exact on the lattice).
    """

    dim: int
    n: int
    box_len: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.box_len > 0.0 and np.isfinite(self.box_len)):
            raise ValueError(f"box_len must be positive and finite, got {self.box_len}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def h(self) -> float:
        """Grid spacing L/n."""
        return self.box_len / self.n

    @property
    def size(self) -> int:
        return self.n**self.dim

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays per axis, broadcastable over the grid."""
        x = np.arange(self.n) * self.h
        out = []
        for i in range(self.dim):
            shape = [1] * self.dim
            shape[i] = self.n
            out.append(x.reshape(shape))
        return tuple(out)

    @cached_property
    def k_axes(self) -> tuple[np.ndarray, ...]:
        """Wavenumber arrays per axis ((2*pi/L)*integers), broadcastable."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=1.0 / self.n) / self.box_len
        out = []
        for i in range(self.dim):
            shape = [1] * self.dim
            shape[i] = self.n
            out.append(k.reshape(shape))
        return tuple(out)

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the full lattice."""
        k2 = np.zeros(self.shape)
        for ki in self.k_axes:
            k2 = k2 + ki**2
        return k2

    @cached_property
    def k_abs(self) -> np.ndarray:
        return np.sqrt(self.k_squared)

    @cached_property
    def nyquist_masks(self) -> tuple[np.ndarray, ...]:
        """Per-axis boolean mask, True off the unpaired Nyquist plane."""
        k_nyq = -np.pi * self.n / self.box_len  # fftfreq stores -n/2, not +n/2
        return tuple(ki != k_nyq for ki in self.k_axes)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep modes with |k_i| <= (2/3) k_max on every axis."""
        k_max = np.pi * self.n / self.box_len
        keep = np.ones(self.shape, dtype=bool)
        for ki in self.k_axes:
            keep &= np.abs(ki) <= (2.0 / 3.0) * k_max + 1e-12 * k_max
        return keep


@dataclass
class Field:
    """Real scalar field sampled on a GridSpec lattice (C-order values)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            bad = int(np.count_nonzero(~np.isfinite(self.values)))
            raise ValueError(f"field contains {bad} non-finite values")


def mean_and_inner(f: Field, g: Field) -> tuple[float, float]:
    """(mean of f, quadrature inner product h^dim * sum(f*g))."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    m = float(np.sum(f.values)) / f.grid.size
    ip = f.grid.h**f.grid.dim * float(np.sum(f.values * g.values))
    return m, ip


def mean(f: Field) -> float:
    return mean_and_inner(f, f)[0]


def inner(f: Field, g: Field) -> float:
    return mean_and_inner(f, g)[1]


def l2_norm(f: Field) -> float:
    """Torus L2 norm sqrt(h^dim * sum f^2)."""
    return float(np.sqrt(inner(f, f)))


# -- the spectral operator layer ----------------------------------------------
# Plain arrays in and out.  Derivatives and dealiasing are multipliers on
# fftn coefficients: 1j*k_axes[i]*nyquist_masks[i] (d/dx_i), -k_squared
# (laplacian), k_squared**2 (bilaplacian) and dealias_mask (2/3 rule).


def fftn(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Unnormalized forward FFT of a real array."""
    return _sfft.fftn(values, workers=_fft_workers())


def ifftn_real(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Inverse FFT (carries the 1/n^dim factor), real part only.

    The imaginary residue of Hermitian-symmetric coefficients is round-off.
    """
    return _sfft.ifftn(coeffs, workers=_fft_workers()).real


def grad_arrays(grid: GridSpec, values: np.ndarray) -> list[np.ndarray]:
    """All gradient components of a real array, via one forward FFT."""
    c = fftn(grid, values)
    return [
        ifftn_real(grid, c * (1j * grid.k_axes[i] * grid.nyquist_masks[i]))
        for i in range(grid.dim)
    ]


def laplacian_array(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    return ifftn_real(grid, fftn(grid, values) * (-grid.k_squared))


def divergence_arrays(grid: GridSpec, comps: list[np.ndarray], mask: bool = False) -> np.ndarray:
    """Spectral divergence of a vector of real arrays (optionally dealiased)."""
    out = np.zeros(grid.shape, dtype=complex)
    for i, v in enumerate(comps):
        out += fftn(grid, v) * (1j * grid.k_axes[i] * grid.nyquist_masks[i])
    if mask:
        out *= grid.dealias_mask
    return ifftn_real(grid, out)


def dealias_array(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    return ifftn_real(grid, fftn(grid, values) * grid.dealias_mask)
