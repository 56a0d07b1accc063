"""Full-lattice reference for the tests, and the helpers several test files share.

thermoch forms every derivative, block norm and step on rfftn half spectra.
The tests check it against the full complex lattice formed here: wavenumbers
k = (2*pi/L) * {-n/2, ..., n/2 - 1} per axis in fftfreq order, the Nyquist
planes, the unnormalized scipy.fft.fftn forward transform and the real part
of scipy.fft.ifftn as its inverse: scipy's transforms, not the program's
numpy.fft, so the reference does not share the backend it checks.
"""

import functools
import importlib
import math
import pkgutil
import struct

import numpy as np
import scipy.fft

import thermoch
from thermoch.besov import SeriesEnergies, chi_bump
from thermoch.fieldio import MAGIC, VERSION
from thermoch.grid import Field, grad_from_hat, irfftn, rfftn


def fftn(values):
    """Unnormalized forward FFT of a real array on the full lattice."""
    return scipy.fft.fftn(values)


def ifftn_real(coeffs):
    """Inverse FFT (carries the 1/n^dim factor), real part only."""
    return scipy.fft.ifftn(coeffs).real


@functools.cache
def k_axes(grid):
    """Wavenumber arrays per axis ((2*pi/L)*integers), broadcastable over the grid."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=1.0 / grid.n) / grid.box_len
    dims = range(grid.dim)
    return tuple(k.reshape([-1 if j == i else 1 for j in dims]) for i in dims)


def k_squared(grid):
    """|k|^2 on the full lattice."""
    return sum(ki**2 for ki in k_axes(grid))


def k_abs(grid):
    return np.sqrt(k_squared(grid))


def nyquist_masks(grid):
    """Per-axis boolean mask, True off the unpaired Nyquist plane."""
    return tuple(np.abs(ki) != np.pi * grid.n / grid.box_len for ki in k_axes(grid))


def grad_symbol(grid, axis):
    """The solvers' d/dx_axis multiplier (Nyquist plane zeroed)."""
    return 1j * k_axes(grid)[axis] * nyquist_masks(grid)[axis]


def full_symbols(part):
    """The dyadic symbols of part sampled on the full lattice."""
    r = k_abs(part.grid)
    symbols = [chi_bump(r)]
    for q in range(part.q_max + 1):
        symbols.append(chi_bump(r / 2.0 ** (q + 1)) - chi_bump(r / 2.0**q))
    return symbols


def half_spectra(series, grid, n_times):
    """n_times fields on grid as a stack of rfftn half spectra, shape
    (n_times, *half_shape), the input of picard.k_norm; a stack of that
    shape passes through."""
    if isinstance(series, np.ndarray):
        if series.shape != (n_times, *grid.half_shape):
            raise ValueError(f"spectra of shape {series.shape} do not fit the grid and times")
        return series
    if len(series) != n_times:
        raise ValueError("series and times length mismatch")
    if any(f.grid != grid for f in series):
        raise ValueError("a field lives on a different grid")
    return np.stack([rfftn(grid, f.values) for f in series])


def grad_arrays(grid, values):
    """All gradient components of a real array through its half spectrum."""
    return grad_from_hat(grid, rfftn(grid, values))


def inverse_laplacian(grid, values):
    """lap^-1 of a real array on the full lattice, 0 at k = 0."""
    k2 = k_squared(grid)
    return ifftn_real(fftn(values) * np.divide(-1.0, k2, out=np.zeros_like(k2), where=k2 > 0))


def laplacian_array(grid, values):
    """The Laplacian of a real array through its half spectrum."""
    return irfftn(grid, rfftn(grid, values) * grid.half_lap)


def fed(acc, hats):
    """The energies of the besov.SeriesEnergies acc once every snapshot of
    hats is added."""
    for hat in hats:
        acc.add(hat)
    return acc.energies


def block_energies(hats, part, weight=None):
    """Block energies of a stack of half spectra, shape (..., *half_shape),
    under one operator weight (None: the field itself), fed one snapshot at
    a time to besov.SeriesEnergies; returns (..., n_blocks)."""
    lead = hats.shape[: hats.ndim - part.grid.dim]
    flat = hats.reshape(-1, *part.grid.half_shape)
    (out,) = fed(SeriesEnergies(part, len(flat), (weight,)), flat)
    return out.reshape(lead + (len(part.symbols),))


def dealias(grid, values):
    """values under the 2/3 rule: modes with |k_i| <= (2/3) k_max on every axis kept."""
    cut = np.ones(grid.shape, dtype=bool)
    for ki in k_axes(grid):
        cut &= np.abs(ki) <= (2.0 / 3.0) * np.pi * grid.n / grid.box_len + 1e-12
    return ifftn_real(fftn(values) * cut)


def project_block(f, q, part):
    """The q-th frequency block of f, back in physical space."""
    if not part.q_min <= q <= part.q_max:
        raise ValueError(f"block {q} outside partition range [{part.q_min}, {part.q_max}]")
    coeffs = rfftn(f.grid, f.values) * part.symbols[q - part.q_min]
    return Field(f.grid, irfftn(f.grid, coeffs))


def band_limited(grid, rng, amp=0.1, kmax_int=4, zero_mean=True):
    """White noise cut to |k_i| <= 2*pi*kmax_int/L on every axis, its mean
    removed (unless zero_mean is False) and its max |value| scaled to amp."""
    c = fftn(rng.standard_normal(grid.shape))
    keep = np.ones(grid.shape, dtype=bool)
    cut = 2.0 * np.pi * kmax_int / grid.box_len
    for ki in k_axes(grid):
        keep &= np.abs(ki) <= cut + 1e-12
    v = ifftn_real(c * keep)
    if zero_mean:
        v -= v.mean()
    return Field(grid, amp * v / max(np.max(np.abs(v)), 1e-30))


def malformed_field_files(directory) -> dict:
    """Field files whose header and size agree but whose content is invalid:
    a header grid with n = 12, one with dim = 0, and a 1D n = 8 payload
    holding a NaN.  Returns {name: path}."""
    files = {}
    for name, dim, n, payload in [
        ("n12.bin", 1, 12, [0.0] * 12),
        ("dim0.bin", 0, 8, [0.0]),
        ("nan.bin", 1, 8, [0.0] * 7 + [math.nan]),
    ]:
        path = directory / name
        header = struct.pack("<4sIIId", MAGIC, VERSION, dim, n, 2.0 * math.pi)
        path.write_bytes(header + struct.pack(f"<{len(payload)}d", *payload))
        files[name] = path
    return files


def rebind(monkeypatch, original, replacement) -> None:
    """Replace original by replacement in every thermoch module that bound it.

    A name imported with ``from .grid import rfftn`` is a separate binding in
    each importer, so the bindings are found by identity.
    """
    for info in pkgutil.iter_modules(thermoch.__path__):
        module = importlib.import_module(f"thermoch.{info.name}")
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, replacement)


NUMPY_TRANSFORMS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
)  # fmt: skip


def count_transforms(monkeypatch) -> list:
    """Make every call of grid.rfftn and grid.irfftn, the program's only
    transforms, append its name to the returned list.  A numpy.fft transform
    called outside those two appends "numpy.fft.<name>", so a transform that
    bypasses grid breaks every budget and every name check.  The oracle's own
    c2c transforms (fftn, ifftn_real) are scipy's and are not counted."""
    calls = []
    depth = [0]  # > 0 while a grid transform runs
    for original in (rfftn, irfftn):

        def counted(*args, _name=original.__name__, _original=original, **kwargs):
            calls.append(_name)
            depth[0] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                depth[0] -= 1

        rebind(monkeypatch, original, counted)
    for name in NUMPY_TRANSFORMS:

        def bypass(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
            if not depth[0]:
                calls.append(f"numpy.fft.{_name}")
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, bypass)
    return calls
