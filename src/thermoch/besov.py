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
a left-endpoint ell^2 for rho = 2; _time_then_blocks forms the second from
block energies, for the Picard iterate norm.

Norms are formed on the rfftn half lattice from |f_hat|^2, a derivative
entering as a weight on it (half_grad_sq, |k|^4, |k|^8); a point counts twice
(its conjugate partner) except on the last axis' 0 and n/2 planes.  The
rings table lists every (point, block, weight) with a nonzero symbol, sorted
by block, so a snapshot's block energies under every operator weight are one
gathered product and one np.add.reduceat over the block starts.
SeriesEnergies is the one contraction: an accumulator that takes a series
one snapshot at a time, forms |f_hat|^2 (and, when asked, that of the
backward-difference rate) and contracts it, so no (n_times, ...) stack of
rates, powers, bins or weighted products is ever formed.  Every caller
feeds it spectra directly, the Picard map as it writes them; the smallness
check weights |phi0_hat|^2 by |k|^4 (half_bilap) for lap phi0.  Energies
beyond the double range are inf, with no numpy warning.  The symbols are
sampled on the half lattice too; being radial, they take the same value on
a point and its conjugate partner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, GridSpec, rfftn
from .thermo import ModelParams

__all__ = [
    "DyadicPartition",
    "BesovReport",
    "SmallnessReport",
    "build_partition",
    "SeriesEnergies",
    "besov_norm",
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
        """(point, block, weight) of every nonzero symbol sample on the
        flattened half lattice, sorted by block: weight is the symbol's
        square times the point's multiplicity and L^dim / N^2."""
        g = self.grid
        mult = np.full(g.half_shape, 2.0)
        mult[..., 0] = mult[..., -1] = 1.0
        w = mult.ravel() * g.box_len**g.dim / float(g.size) ** 2
        sym = np.stack([s.ravel() for s in self.symbols])
        block, point = np.nonzero(sym)  # row-major: by block, then by point
        return point, block, sym[block, point] ** 2 * w[point]


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


class SeriesEnergies:
    """Squared L2 norms of every dyadic block of a series, one row per
    snapshot, accumulated one snapshot at a time.

    Each entry of weights is an operator's |multiplier|^2 on the half
    lattice (grid.half_grad_sq for the gradient, |k|^4 for the Laplacian)
    or None; each entry of rate_weights is one for the backward-difference
    rate over times, zero on the first snapshot.  add takes the next
    snapshot, a half spectrum, and copies what it keeps, so a caller may
    hand it one buffer rewritten between calls.  energies, of shape
    (len(weights) + len(rate_weights), n_times, n_blocks), holds the
    series' rows first; it is read once all n_times snapshots are in.

    The snapshot goes to one of two half-lattice buffers, and the rate
    overwrites the last snapshot once it is read.  Each |.|^2 is contracted
    against the rings table for all its weights at once (one gathered
    product, one reduceat over the block starts), so no stack is formed: the
    memory is two snapshots, the weighted table and the energies.
    """

    def __init__(self, part: DyadicPartition, n_times: int, weights, rate_weights=(), times=None):
        self._point, block, ring_w = part.rings
        self._shape = part.grid.half_shape
        self._blocks, self._starts = np.unique(block, return_index=True)

        def on_rings(weight):
            if weight is None:
                return ring_w
            return ring_w * np.broadcast_to(weight, self._shape).ravel()[self._point]

        # every weight on the rings table, in the order of the energies' rows
        self._weights = np.stack([on_rings(w) for w in (*weights, *rate_weights)])
        self._plain = slice(0, len(weights))
        self._rates = slice(len(weights), None)
        self._energies = np.zeros((len(self._weights), n_times, len(part.symbols)))
        self._rows = np.empty((2, math.prod(self._shape)), dtype=complex)  # this and the last
        self._inv_dt = 1.0 / np.diff(np.asarray(times, float)) if rate_weights else None
        self._t = 0

    @property
    def energies(self) -> np.ndarray:
        if self._t != (n := self._energies.shape[1]):
            raise ValueError(f"the series has {self._t} snapshots, not {n}")
        return self._energies

    def _contract(self, values, rows):
        power = np.abs(values)
        products = np.square(power, out=power)[self._point] * self._weights[rows]
        blocks = np.add.reduceat(products, self._starts, axis=1)
        self._energies[rows, self._t, self._blocks] = blocks

    def add(self, hat: np.ndarray) -> None:
        t = self._t
        if hat.shape != self._shape:
            raise ValueError(f"a spectrum of shape {hat.shape} does not fit {self._shape}")
        if t == self._energies.shape[1]:
            raise ValueError(f"the series has more than {t} snapshots")
        row, last = self._rows[t % 2], self._rows[(t - 1) % 2]
        np.copyto(row, hat.reshape(row.shape))
        self._contract(row, self._plain)
        if t and self._inv_dt is not None:
            rate = np.subtract(row, last, out=last)  # the last snapshot is read
            rate *= self._inv_dt[t - 1]
            self._contract(rate, self._rates)
        self._t = t + 1


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


def besov_norm(f: Field, s: float, part: DyadicPartition) -> BesovReport:
    if f.grid != part.grid:
        raise ValueError("a field lives on a different grid")
    with np.errstate(all="ignore"):  # a block beyond the double range is inf
        return _besov(rfftn(part.grid, f.values), s, part)


def _besov(hat: np.ndarray, s: float, part: DyadicPartition, weight=None) -> BesovReport:
    """besov_norm of the half spectrum hat under an operator weight, or none."""
    acc = SeriesEnergies(part, 1, (weight,))
    acc.add(hat)
    # Python floats: a product beyond the double range is inf, with no numpy warning
    block = np.sqrt(acc.energies[0, 0]).tolist()
    weighted = [(q, 2.0 ** (q * s) * b) for q, b in zip(part.qs, block)]
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
    elif rho == math.inf:
        agg = np.sqrt(np.max(energy, axis=0))
    else:
        raise ValueError(f"rho must be 1, 2 or inf, got {rho!r}")
    return float(np.sum(2.0 ** (np.asarray(part.qs) * s) * agg))


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

    m_min = min(1, alpha, kappa, k_b); satisfied and chi_range follow from
    the four sides.  chi_range is the admissible ball-radius interval
    (4 lhs2, 4 rhs2)/m_min derived from the second inequality with the
    dimension constant set to 1 (documented convention), None unless that
    inequality holds; eps_theta_bar is displayed because admissibility
    forces eps*theta_bar > 1.
    """

    lhs1: float
    rhs1: float
    lhs2: float
    rhs2: float
    eps0: float
    m_min: float
    eps_theta_bar: float

    @property
    def satisfied(self) -> tuple[bool, bool]:
        return (self.lhs1 < self.rhs1, self.lhs2 < self.rhs2)

    @property
    def chi_range(self) -> tuple[float, float] | None:
        if not self.satisfied[1]:  # else rhs2 > 0, so m_min > 0
            return None
        return (4.0 * self.lhs2 / self.m_min, 4.0 * self.rhs2 / self.m_min)

    @property
    def margins(self) -> tuple[float, float]:
        """rhs/lhs per inequality: above 1 exactly when it holds."""
        margin = lambda lhs, rhs: rhs / lhs if lhs > 0 else (math.inf if rhs > 0 else 0.0)
        return (margin(self.lhs1, self.rhs1), margin(self.lhs2, self.rhs2))

    def to_text(self) -> str:
        m1, m2 = self.margins
        ok = lambda b: "satisfied" if b else "VIOLATED"
        why = "min(1, alpha, kappa, k_b) = 0" if self.m_min == 0.0 else "inequality 2 VIOLATED"
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
                f" {self.chi_range[1]:.6e})  [dimension constant set to 1]"
                if self.chi_range is not None
                else f"  no admissible ball radius chi: {why}",
            ]
        )


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
    if part.grid != g or theta0.grid != g:
        raise ValueError("a field lives on a different grid")
    s = g.dim / 2.0
    m_min = min(1.0, p.alpha, p.kappa, p.k_b)

    with np.errstate(all="ignore"):  # numpy scalars: a side beyond the double range is inf
        phi0_hat = rfftn(g, phi0.values)
        phi0_norm = _besov(phi0_hat, s, part).total
        lap_phi0_norm = _besov(phi0_hat, s, part, g.half_bilap).total  # |lap|^2 = |k|^4
        quartic = np.float64(1.0 + phi0_norm) ** 4
        lhs1 = float(p.eps * lap_phi0_norm + (1.0 / p.theta_bar) * max(1.0, 1.0 / p.eps) * quartic)
        lhs2 = _besov(rfftn(g, theta0.values - p.theta_bar), s, part).total
        small = min(np.float64(p.eps) ** 2, 1.0 / (1.0 + p.eps)) * eps0 * m_min
        rhs2 = float(np.float64(small / (p.theta_bar * (1.0 + p.alpha))) ** 2)
    return SmallnessReport(
        lhs1=lhs1,
        rhs1=eps0 * m_min,
        lhs2=lhs2,
        rhs2=rhs2,
        eps0=eps0,
        m_min=m_min,
        eps_theta_bar=p.eps * p.theta_bar,
    )
