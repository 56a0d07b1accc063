"""Periodic pseudospectral grids on [0, L)^d and exact Fourier calculus.

Conventions used throughout the package:

* the transforms are numpy.fft's: the forward FFT is unnormalized, the
  inverse carries the 1/n^dim factor;
* derivatives, dealiasing and the frequency-block norms act on the half
  spectrum (rfftn/irfftn) through the half_* multipliers cached per
  GridSpec;
* wavenumbers per axis are k = (2*pi/L) * {-n/2, ..., n/2 - 1}; the half
  lattice's last axis holds {0, ..., n/2}, its Nyquist bin stored as +n/2;
* odd derivatives zero the unpaired Nyquist bin of every axis so that real
  fields stay real; even derivatives keep it (the multiplier is real there);
* the quadrature weight is h^dim with h = L/n, so inner(f, g) approximates
  the integral over the box and mean(f) is the plain average.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "first_min_index",
    "mean",
    "inner",
    "l2_norm",
    "rfftn",
    "irfftn",
    "grad_from_hat",
    "div_hat",
    "dealias_in_place",
    "grad_arrays",
]


def _along_axes(vectors: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """vectors[i] reshaped to lie along axis i, broadcastable over the grid."""
    dims = range(len(vectors))
    return tuple(v.reshape([-1 if j == i else 1 for j in dims]) for i, v in enumerate(vectors))


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
    def half_shape(self) -> tuple[int, ...]:
        return self.shape[:-1] + (self.n // 2 + 1,)  # rfftn's last axis

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
        return _along_axes([np.arange(self.n) * self.h] * self.dim)

    @cached_property
    def half_k_axes(self) -> tuple[np.ndarray, ...]:
        """Wavenumbers per axis on the rfftn half lattice (last axis 0..n/2)."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=1.0 / self.n) / self.box_len
        return _along_axes([k] * (self.dim - 1) + [np.abs(k[: self.n // 2 + 1])])

    @cached_property
    def half_grad(self) -> tuple[np.ndarray, ...]:
        """d/dx_i on the half lattice: 1j*k_i, zero on every axis' Nyquist bin."""
        k_nyq = np.pi * self.n / self.box_len
        return tuple(1j * ki * (np.abs(ki) != k_nyq) for ki in self.half_k_axes)

    @cached_property
    def half_grad_sq(self) -> np.ndarray:
        """sum_i |half_grad_i|^2: |grad f|^2 is this weight on |f_hat|^2."""
        return sum(np.abs(g) ** 2 for g in self.half_grad)

    @cached_property
    def half_lap(self) -> np.ndarray:
        """-|k|^2 on the half lattice (the Laplacian)."""
        return -sum(ki**2 for ki in self.half_k_axes)

    @cached_property
    def half_bilap(self) -> np.ndarray:
        """|k|^4 on the half lattice (the bilaplacian)."""
        return self.half_lap**2

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep modes with |k_i| <= (2/3) k_max on every axis."""
        k_max = np.pi * self.n / self.box_len
        keep = np.ones(self.half_lap.shape, dtype=bool)
        for ki in self.half_k_axes:
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


def first_min_index(values: np.ndarray) -> tuple[int, ...]:
    """Grid index (plain ints) of the first minimum, or first False, of values."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmin(values)), values.shape))


def mean(f: Field) -> float:
    """Plain average of f over the grid."""
    return float(np.sum(f.values)) / f.grid.size


def inner(f: Field, g: Field) -> float:
    """Quadrature inner product h^dim * sum(f*g)."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return f.grid.h**f.grid.dim * float(np.sum(f.values * g.values))


def l2_norm(f: Field) -> float:
    """Torus L2 norm sqrt(h^dim * sum f^2)."""
    return float(np.sqrt(inner(f, f)))


# -- the spectral operator layer ----------------------------------------------
# Plain arrays in and out.  Derivatives and dealiasing are multipliers on
# rfftn coefficients (half_grad, half_lap, half_bilap, half_dealias_mask);
# rfftn and irfftn are the package's only calls of a transform (numpy.fft).


def rfftn(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Unnormalized forward FFT of a real array onto the half lattice."""
    return np.fft.rfftn(values)


def irfftn(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of rfftn (carries the 1/n^dim factor): a real array."""
    return np.fft.irfftn(coeffs, s=grid.shape, axes=range(grid.dim))


def grad_from_hat(grid: GridSpec, coeffs: np.ndarray) -> list[np.ndarray]:
    """All gradient components of the field with half spectrum coeffs."""
    return [irfftn(grid, coeffs * g) for g in grid.half_grad]


def dealias_in_place(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Zero the modes the 2/3 rule drops from a half spectrum the caller owns,
    in place (an assignment, not a complex-by-bool product); returns coeffs."""
    np.putmask(coeffs, ~grid.half_dealias_mask, 0.0)
    return coeffs


def div_hat(grid: GridSpec, comps: list[np.ndarray], mask: bool = False) -> np.ndarray:
    """Half spectrum of the divergence of real components (optionally dealiased)."""
    out = rfftn(grid, comps[0]) * grid.half_grad[0]
    for v, g in zip(comps[1:], grid.half_grad[1:]):
        out += rfftn(grid, v) * g
    return dealias_in_place(grid, out) if mask else out


def grad_arrays(grid: GridSpec, values: np.ndarray) -> list[np.ndarray]:
    """All gradient components of a real array, via one forward FFT."""
    return grad_from_hat(grid, rfftn(grid, values))
