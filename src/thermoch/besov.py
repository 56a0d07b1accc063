"""Dyadic frequency decomposition and Besov-type norms on the torus.

The decomposition uses a smooth radial bump chi built from the classic
exp(-1/t) smoothstep:

    sigma(t) = g(t) / (g(t) + g(1-t)),   g(t) = exp(-1/t) for t > 0 else 0,
    chi(r)   = sigma((4/3 - r) / (4/3 - 3/4)),

so chi == 1 for r <= 3/4 and chi == 0 for r >= 4/3 (both exact in floating
point). Ring symbols are differences of rescaled bumps,

    phi_q(r) = chi(r / 2^(q+1)) - chi(r / 2^q),   q = 0, 1, ...,

supported on 3/4 * 2^q <= r <= 8/3 * 2^q; the block q = -1 carries chi
itself. Frequencies are the physical wavenumbers (lattice spacing 2*pi/L).
q_max is the smallest q with (3/4) * 2^(q+1) >= max |xi| on the lattice,
which makes the symbols telescope to exactly 1 on every lattice point.

Norms are the dyadic-lattice analogues of the continuum definitions
(heuristic transfer to the torus, labelled as such in reports):

    besov(f, s)          = sum_q 2^(q s) ||block_q f||_L2
    chemin_lerner(rho)   = sum_q 2^(q s) ( time-L^rho of ||block_q f(t)||_L2 )

with left-endpoint quadrature for rho = 1, a discrete max for rho = inf, and
a left-endpoint ell^2 for rho = 2.

Norms are formed on the rfftn half lattice from |f_hat|^2, a derivative
entering as a weight on it (half_grad_sq, |k|^4, |k|^8); a point counts twice
(its conjugate partner) except on the last axis' 0 and n/2 planes.  Every
point lies in at most two consecutive blocks, so one ring index per point
gives a snapshot's block energies in two bincounts.  SeriesEnergies is the
one contraction: an accumulator that takes a series one snapshot at a time,
forms |f_hat|^2 (and, when asked, that of a subtracted snapshot's difference
and of the backward-difference rate) in reusable half-lattice buffers and
contracts it once per operator weight, so no (n_times, ...) stack of
differences, rates, powers, bins or weighted products is ever formed.  A
caller that produces the snapshots one by one, as the Picard map does,
feeds them as it writes them; series_energies feeds a stack, and
block_energies is its case with one weight.  The symbols are sampled on the
half lattice too; being radial, they take the same value on a point and its
conjugate partner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, GridSpec, laplacian_array, rfftn
from .thermo import ModelParams

__all__ = [
    "DyadicPartition",
    "BesovReport",
    "SmallnessReport",
    "build_partition",
    "half_spectra",
    "SeriesEnergies",
    "series_energies",
    "block_energies",
    "besov_norm",
    "chemin_lerner_norm",
    "check_smallness",
]


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def chi_bump(r: np.ndarray) -> np.ndarray:
    """Smooth radial cutoff: 1 on r <= 3/4, 0 on r >= 4/3."""
    return _smoothstep((4.0 / 3.0 - np.asarray(r, float)) * (12.0 / 7.0))


@dataclass(frozen=True)
class DyadicPartition:
    """Half-lattice samples of the dyadic symbols for one grid.

    symbols[0] is the low block (q = -1); symbols[i] for i >= 1 holds the
    ring symbol phi_{i-1}. They sum to 1 at every lattice frequency.
    """

    grid: GridSpec
    q_min: int
    q_max: int
    symbols: tuple[np.ndarray, ...]

    @property
    def qs(self) -> list[int]:
        return list(range(self.q_min, self.q_max + 1))

    @cached_property
    def rings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lower, w_lower, w_upper) per point of the flattened half lattice:
        its symbols vanish outside blocks lower and lower + 1, and w_* are
        their squares times the point's multiplicity and L^dim / N^2."""
        g = self.grid
        flat = [s.ravel() for s in self.symbols]
        sym = np.stack(flat + [np.zeros_like(flat[0])])  # an empty block on top
        nonzero = sym != 0.0
        lower = np.argmax(nonzero, axis=0)
        points = np.arange(lower.size)
        if np.any(nonzero.sum(axis=0) > 1 + nonzero[lower + 1, points]):
            raise ValueError("a lattice point lies in more than two consecutive blocks")
        mult = np.full(g.half_shape, 2.0)
        mult[..., 0] = mult[..., -1] = 1.0
        w = mult.ravel() * g.box_len**g.dim / float(g.size) ** 2
        return lower, sym[lower, points] ** 2 * w, sym[lower + 1, points] ** 2 * w


def build_partition(grid: GridSpec) -> DyadicPartition:
    r = np.sqrt(-grid.half_lap)
    r_max = float(np.max(r))
    q_max = 0
    while 0.75 * 2.0 ** (q_max + 1) < r_max:
        q_max += 1
    symbols = [chi_bump(r)]
    for q in range(q_max + 1):
        symbols.append(chi_bump(r / 2.0 ** (q + 1)) - chi_bump(r / 2.0**q))
    return DyadicPartition(grid=grid, q_min=-1, q_max=q_max, symbols=tuple(symbols))


def half_spectra(series, grid: GridSpec, n_times: int) -> np.ndarray:
    """n_times fields on grid as a stack of rfftn half spectra, shape
    (n_times, *half_shape); a stack of that shape passes through."""
    if isinstance(series, np.ndarray):
        if series.shape != (n_times, *grid.half_shape):
            raise ValueError(f"spectra of shape {series.shape} do not fit the grid and times")
        return series
    if len(series) != n_times:
        raise ValueError("series and times length mismatch")
    if any(f.grid != grid for f in series):
        raise ValueError("a field lives on a different grid")
    return np.stack([rfftn(grid, f.values) for f in series])


class SeriesEnergies:
    """Squared L2 norms of every dyadic block of a series, one row per
    snapshot, accumulated one snapshot at a time.

    Each entry of weights is an operator's |multiplier|^2 on the half
    lattice (grid.half_grad_sq for the gradient, |k|^4 for the Laplacian)
    or None; each entry of rate_weights is one for the backward-difference
    rate over times, zero on the first snapshot.  add takes the next
    snapshot, a half spectrum, and optionally one to subtract from it;
    energies, of shape (len(weights) + len(rate_weights), n_times,
    n_blocks), holds the series' rows first.  A snapshot added without one
    to subtract is read again by the next add, for its rate, and must not
    change before then.

    The difference, the rate and |.|^2 go to reusable half-lattice buffers,
    and each power is contracted against the rings once per weight (two
    bincounts over the ring index), so no stack is formed: the memory is a
    few snapshots and the energies.
    """

    def __init__(self, part: DyadicPartition, n_times: int, weights, rate_weights=(), times=None):
        self._lower, w_lower, w_upper = part.rings
        self._n_blocks = len(part.symbols)

        def weighted(weight):
            if weight is None:
                return w_lower, w_upper
            weight = np.broadcast_to(weight, part.grid.half_shape).ravel()
            return w_lower * weight, w_upper * weight

        self._rings = [weighted(w) for w in weights]
        self._rate_rings = [weighted(w) for w in rate_weights]
        size = self._lower.size
        n_rows = len(self._rings) + len(self._rate_rings)
        self.energies = np.zeros((n_rows, n_times, self._n_blocks))
        self._diff = np.empty((2, size), dtype=complex)  # this and the last snapshot
        self._rate = np.empty(size, dtype=complex)
        self._power = np.empty(size)
        self._inv_dt = 1.0 / np.diff(np.asarray(times, float)) if self._rate_rings else None
        self._prev = None
        self._t = 0

    def _contract(self, values, rings, energies):
        stride = self._n_blocks + 1  # the spare last bin takes the empty top block
        power = np.square(np.abs(values, out=self._power), out=self._power)
        for (wl, wu), e in zip(rings, energies):
            bins = np.bincount(self._lower, power * wl, minlength=stride)
            bins[1:] += np.bincount(self._lower, power * wu, minlength=stride)[:-1]
            e[self._t] = bins[: self._n_blocks]

    def add(self, hat: np.ndarray, minus: np.ndarray | None = None) -> None:
        t = self._t
        row = hat.reshape(self._lower.size)
        if minus is not None:
            row = np.subtract(row, minus.reshape(row.shape), out=self._diff[t % 2])
        self._contract(row, self._rings, self.energies)
        if t and self._rate_rings:
            np.subtract(row, self._prev, out=self._rate)
            self._rate *= self._inv_dt[t - 1]
            self._contract(self._rate, self._rate_rings, self.energies[len(self._rings) :])
        self._prev = row
        self._t = t + 1


def series_energies(hats, part: DyadicPartition, weights, rate_weights=(), times=None):
    """SeriesEnergies of a stack of n half spectra, shape (n, *half_shape),
    fed one snapshot at a time.  Returns the energies, shape
    (len(weights) + len(rate_weights), n, n_blocks)."""
    acc = SeriesEnergies(part, len(hats), weights, rate_weights, times)
    for hat in hats:
        acc.add(hat)
    return acc.energies


def block_energies(hats: np.ndarray, part: DyadicPartition, weight=None) -> np.ndarray:
    """Squared L2 norms of every dyadic block: series_energies under the one
    operator weight (or none).  hats holds half spectra, shape (...,
    *half_shape); returns (..., n_blocks)."""
    lead = hats.shape[: hats.ndim - part.grid.dim]
    (out,) = series_energies(hats.reshape(-1, *part.grid.half_shape), part, (weight,))
    return out.reshape(lead + (len(part.symbols),))


@dataclass
class BesovReport:
    """Per-block weighted norms 2^(q s) ||block_q f||_L2 and their sum."""

    s: float
    per_block: list[tuple[int, float]]
    total: float

    def to_text(self) -> str:
        lines = [f"torus dyadic norm, s = {self.s:g} (heuristic lattice transfer)"]
        for q, v in self.per_block:
            lines.append(f"  q = {q:3d}: {v:.12e}")
        lines.append(f"  total : {self.total:.12e}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["q,weighted_block_norm"]
        rows += [f"{q},{v!r}" for q, v in self.per_block]
        rows.append(f"total,{self.total!r}")
        return "\n".join(rows) + "\n"


def besov_norm(f: Field, s: float, part: DyadicPartition) -> BesovReport:
    block = np.sqrt(block_energies(half_spectra([f], part.grid, 1)[0], part))
    weighted = [
        (q, float(2.0 ** (q * s) * block[i])) for i, q in enumerate(part.qs)
    ]
    return BesovReport(s=s, per_block=weighted, total=float(sum(v for _, v in weighted)))


def _time_then_blocks(energy: np.ndarray, times, s: float, rho, part: DyadicPartition) -> float:
    """Per block, the time-L^rho of the block norms sqrt(energy[:, block]),
    on uniformly spaced times; then their 2^(q s)-weighted sum."""
    dts = np.diff(np.asarray(times, float))
    if dts.size < 1:
        raise ValueError("need at least 2 snapshots for a time norm")
    if not np.allclose(dts, dts[0], rtol=1e-10, atol=1e-14):
        raise ValueError("snapshot times must be uniformly spaced")
    if rho == 1:
        agg = dts[0] * np.sum(np.sqrt(energy[:-1]), axis=0)
    elif rho == 2:
        agg = np.sqrt(dts[0] * np.sum(energy[:-1], axis=0))
    elif rho in (np.inf, math.inf, "inf"):
        agg = np.sqrt(np.max(energy, axis=0))
    else:
        raise ValueError(f"rho must be 1, 2 or inf, got {rho!r}")
    return float(np.sum(2.0 ** (np.asarray(part.qs) * s) * agg))


def chemin_lerner_norm(series, times, s: float, rho, part: DyadicPartition, weight=None) -> float:
    """Time-then-frequency norm: ell^1 over blocks of time-L^rho block norms.

    series is a list of fields or a stack of their half spectra; weight is
    an operator weight as in SeriesEnergies.  For rho = inf and a
    time-constant series this reduces to besov_norm; for rho = 1 it equals
    the left-endpoint time integral of the instantaneous besov norm (the
    sums commute exactly).
    """
    hats = half_spectra(series, part.grid, len(np.asarray(times)))
    return _time_then_blocks(block_energies(hats, part, weight), times, s, rho, part)


# --------------------------------------------------------------------------
# smallness conditions for the well-posedness regime


@dataclass
class SmallnessReport:
    """Both admissibility inequalities at regularity s = dim/2, verbatim.

    lhs1 < rhs1:  eps*||lap phi0|| + (1/theta_bar) max(1, 1/eps)(1 + ||phi0||)^4
                  < eps0 * min(1, alpha, kappa, k_b)
    lhs2 < rhs2:  ||theta0 - theta_bar||
                  < (min(eps^2, 1/(1+eps)) * eps0 * min(1, alpha, kappa, k_b)
                     / (theta_bar * (1 + alpha)))^2

    chi_range is the admissible ball-radius interval derived from the second
    inequality with the dimension constant set to 1 (documented convention);
    eps_theta_bar is displayed because admissibility forces eps*theta_bar > 1.
    """

    lhs1: float
    rhs1: float
    lhs2: float
    rhs2: float
    eps0: float
    satisfied: tuple[bool, bool]
    chi_range: tuple[float, float]
    eps_theta_bar: float

    @property
    def margins(self) -> tuple[float, float]:
        m1 = self.rhs1 / self.lhs1 if self.lhs1 > 0 else math.inf
        m2 = self.rhs2 / self.lhs2 if self.lhs2 > 0 else math.inf
        return (m1, m2)

    def to_text(self) -> str:
        m1, m2 = self.margins
        ok = lambda b: "satisfied" if b else "VIOLATED"
        return "\n".join(
            [
                "smallness report (torus dyadic norms, s = dim/2; heuristic lattice transfer)",
                f"  inequality 1: lhs = {self.lhs1:.6e} < rhs = {self.rhs1:.6e}"
                f"  [{ok(self.satisfied[0])}, margin x{m1:.3g}]",
                f"  inequality 2: lhs = {self.lhs2:.6e} < rhs = {self.rhs2:.6e}"
                f"  [{ok(self.satisfied[1])}, margin x{m2:.3g}]",
                f"  eps0 = {self.eps0:g}",
                f"  eps * theta_bar = {self.eps_theta_bar:.6g}"
                "  (admissibility implies > 1; displayed, not gated)",
                f"  admissible ball radius chi in ({self.chi_range[0]:.6e},"
                f" {self.chi_range[1]:.6e})  [dimension constant set to 1]",
            ]
        )

    def to_csv(self) -> str:
        rows = [
            "quantity,value",
            f"lhs1,{self.lhs1!r}",
            f"rhs1,{self.rhs1!r}",
            f"lhs2,{self.lhs2!r}",
            f"rhs2,{self.rhs2!r}",
            f"eps0,{self.eps0!r}",
            f"satisfied1,{int(self.satisfied[0])}",
            f"satisfied2,{int(self.satisfied[1])}",
            f"chi_min,{self.chi_range[0]!r}",
            f"chi_max,{self.chi_range[1]!r}",
            f"eps_theta_bar,{self.eps_theta_bar!r}",
        ]
        return "\n".join(rows) + "\n"


def check_smallness(
    phi0: Field,
    theta0: Field,
    p: ModelParams,
    eps0: float,
    part: DyadicPartition,
) -> SmallnessReport:
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie in (0, 1)")
    g = phi0.grid
    s = g.dim / 2.0
    m_min = min(1.0, p.alpha, p.kappa, p.k_b)

    lap_phi0 = Field(g, laplacian_array(g, phi0.values))
    phi0_norm = besov_norm(phi0, s, part).total
    lhs1 = p.eps * besov_norm(lap_phi0, s, part).total + (1.0 / p.theta_bar) * max(
        1.0, 1.0 / p.eps
    ) * (1.0 + phi0_norm) ** 4
    rhs1 = eps0 * m_min

    dtheta = Field(g, theta0.values - p.theta_bar)
    lhs2 = besov_norm(dtheta, s, part).total
    rhs2 = (
        min(p.eps**2, 1.0 / (1.0 + p.eps)) * eps0 * m_min / (p.theta_bar * (1.0 + p.alpha))
    ) ** 2

    chi_range = (4.0 * lhs2 / m_min, 4.0 * rhs2 / m_min)
    return SmallnessReport(
        lhs1=float(lhs1),
        rhs1=float(rhs1),
        lhs2=float(lhs2),
        rhs2=float(rhs2),
        eps0=eps0,
        satisfied=(lhs1 < rhs1, lhs2 < rhs2),
        chi_range=chi_range,
        eps_theta_bar=p.eps * p.theta_bar,
    )
