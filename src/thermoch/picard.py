"""Fixed-point machinery for the coupled system near a hot uniform state.

The solution is sought as (phi, theta) = (phi_free + dphi, theta_bar +
dtheta): the free part solves the damped bilaplacian flow with the full
initial phase, and the corrections solve forced linear problems whose
forcings are re-evaluated on the previous iterate.  This module provides
the free flows of the two equations' linear parts (model_a2's (mass,
stiffness) pairs, decaying at the rate stiffness/mass, model_a2._rate), the
seven-term space-time norm that measures iterates, and the Picard loop with
contraction diagnostics.  Its one-interval propagators are the direct run's
own (model_a2._etd_factors).  The numerical checks of the linear a-priori
estimates behind the construction are test oracles
(tests/analysis_oracle.py), built on these propagators.

All propagators are diagonal in Fourier space and integrate piecewise-
constant forcing exactly, so the only discretization left is the sampling
of the forcing at the snapshot times (left endpoints).

Every forcing the map applies is cut by the 2/3 rule, so the phase
correction and the temperature's departure from its free heat flow have no
spectrum off the 2/3-rule box.  The Picard loop carries that pair as
compact stacks of their rfftn half spectra on the box, shape
(n_times, n_box), and each application of the map updates them in place.
A run forms its propagators once (_propagators): the box, each equation's
free flow hat0 * exp(-lam t), evaluated per snapshot where it is read, and
its one-interval ETD pair on the box; the map, the size norm and the final
fields read them.  One application inverts each snapshot's two absolute
fields once, forms both forcings from one thermo.StateTerms and advances
the box by one exact interval, so no forcing series is kept; the old
snapshot it overwrites waits in one box buffer per series until the next
forcing has read it.  A snapshot is expanded to a full half spectrum, in a
reused buffer, only where a transform or a norm reads it.  The iterate
norm streams the spectra without a transform: one snapshot at a time, it
forms |f_hat|^2 and the backward rate's power and contracts them against
the dyadic rings (besov.SeriesEnergies), every derivative a weight on
|f_hat|^2, so the map measures the successive difference as it writes it.
k_norm takes any two series of half spectra (a stack is one), and
picard_iterate takes the initial Fields.  A run's clock is PicardConfig's,
which keeps model_a2.run_clock, the rule of the direct run it ends with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .besov import (
    DyadicPartition,
    SeriesEnergies,
    SmallnessReport,
    _time_then_blocks,
    check_smallness,
)
from .grid import Field, GridSpec, irfftn, l2_norm, rfftn
from .model_a2 import (
    SimConfig,
    _etd_factors,
    _f1_hat,
    _f2_hat,
    _heat_operator,
    _phase_operator,
    _rate,
    run_clock,
    simulate,
)
from .thermo import (ModelParams, NonFiniteError, NumericalError, StateTerms, ThermoState,
                     dissipative_force)

REPORT_CSV_HEADER = "iteration,k_norm,diff_norm,ratio,in_ball"


# --------------------------------------------------------------------------
# exact linear propagators (diagonal in Fourier space)


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1d array")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    return times


def _free_flow(hat0: np.ndarray, lam: np.ndarray, t: float, out=None) -> np.ndarray:
    """Half spectrum of the unforced flow hat0 * exp(-lam t) at the time t,
    written to out when given."""
    return np.multiply(hat0, np.exp(-t * lam), out=out)


def _expand(out: np.ndarray, box: np.ndarray, values, flow=None, t: float = 0.0) -> np.ndarray:
    """out as the half spectrum of values held on the box, plus the free flow
    (hat0, lam) at the time t when given; without one, out must be zero off
    the box, and stays so."""
    if flow is None:
        np.put(out, box, values)
    else:
        _free_flow(*flow, t, out=out)
        np.put(out, box, np.take(out, box) + values)
    return out


def _spectra(grid: GridSpec, stack: np.ndarray, box: np.ndarray, times, flow=None):
    """The half spectra of a series held on the box, plus its free flow when
    given: one snapshot at a time, each expanded into the same buffer."""
    out = np.zeros(grid.half_shape, dtype=complex)
    return (_expand(out, box, c, flow, t) for t, c in zip(times, stack))


def _propagators(grid: GridSpec, p: ModelParams, hat0, dt: float):
    """A run's exact propagators, formed once: (box, flows, etds).

    box holds the flat indices of the 2/3-rule box on the half lattice,
    where the map's corrections live.  Per equation (phase, heat), flows
    holds the free flow (hat0, lam) of its initial half spectrum at the
    decay rate _rate, and etds the direct run's ETD pair (decay, gain) of
    the snapshot spacing dt (model_a2._etd_factors), gathered to the box.
    """
    box = np.flatnonzero(grid.half_dealias_mask)
    operators = (_phase_operator(grid, p), _heat_operator(grid, p))
    flows = [(h, _rate(op)) for h, op in zip(hat0, operators)]
    etds = [tuple(np.take(a, box) for a in pair) for pair in _etd_factors(grid, p, dt)]
    return box, flows, etds


# --------------------------------------------------------------------------
# the seven-term iterate norm


@dataclass(frozen=True)
class KNormReport:
    """The seven summands measuring one iterate pair, plus their sum.

    Phase correction: supremum-in-time of the order-(dim/2 + 2) norm, time
    integral of the bilaplacian, mean-square rate and rate gradient.
    Temperature correction: supremum-in-time, time integral of the
    laplacian, time integral of the rate.  All spatial norms except the
    first are taken at order dim/2.
    """

    phi_sup: float
    phi_bilap_int: float
    phi_rate_sq: float
    phi_rate_grad_sq: float
    theta_sup: float
    theta_lap_int: float
    theta_rate_int: float

    def __post_init__(self):
        for name, value in self.summands.items():
            if not math.isfinite(value):
                raise NonFiniteError(f"summand {name} must be finite and >= 0, got {value}")
            if value < 0.0:
                raise ValueError(f"summand {name} must be finite and >= 0, got {value}")

    @property
    def summands(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def total(self) -> float:
        return float(sum(self.summands.values()))


def k_norm(dphi, dtheta, part: DyadicPartition, times) -> KNormReport:
    """Mixed space-time norm of a correction pair sampled on a uniform grid.

    dphi and dtheta are series of rfftn half spectra, each an iterable of
    exactly times.size snapshots of shape half_shape (a stack of shape
    (n_times, *half_shape) is one), read once, one snapshot at a time, and
    measured without any transform.  Time derivatives are backward
    differences of the series (zero on the first snapshot, matching
    corrections that start from rest), so at least three snapshots are
    required for the rate terms to mean anything.
    """
    times = _check_times(times)
    if times.size < 3:
        raise ValueError("need at least 3 snapshots for the iterate norm")
    accs = [SeriesEnergies(part, times.size, *w, times) for w in _norm_weights(part.grid)]
    with np.errstate(all="ignore"):  # norms no longer finite fail the KNormReport
        for hats, acc in zip((dphi, dtheta), accs):
            for hat in hats:
                acc.add(hat)
        return _norm_report(*(acc.energies for acc in accs), part, times)


def _norm_weights(grid: GridSpec):
    """(weights, rate_weights) of the phase and of the temperature series.

    Derivatives are weights on |f_hat|^2: |k|^8 for the bilaplacian, |k|^4
    for the Laplacian, half_grad_sq for the gradient.
    """
    return (
        ((None, grid.half_bilap**2), (None, grid.half_grad_sq)),
        ((None, grid.half_bilap), (None,)),
    )


def _norm_report(phi_energies, theta_energies, part: DyadicPartition, times) -> KNormReport:
    """The seven summands from the block energies of the two series, as
    SeriesEnergies forms them under _norm_weights."""
    phi, phi_bilap, phi_rate, phi_rate_grad = phi_energies
    theta, theta_lap, theta_rate = theta_energies
    s_lo = part.grid.dim / 2.0
    s_hi = s_lo + 2.0

    def norm(energy, s, rho):
        return _time_then_blocks(energy, times, s, rho, part)

    return KNormReport(
        phi_sup=norm(phi, s_hi, math.inf),
        phi_bilap_int=norm(phi_bilap, s_lo, 1),
        phi_rate_sq=norm(phi_rate, s_lo, 2),
        phi_rate_grad_sq=norm(phi_rate_grad, s_lo, 2),
        theta_sup=norm(theta, s_lo, math.inf),
        theta_lap_int=norm(theta_lap, s_lo, 1),
        theta_rate_int=norm(theta_rate, s_lo, 1),
    )


# --------------------------------------------------------------------------
# Picard iteration of the solution map


@dataclass(frozen=True)
class PicardConfig:
    """Ball radius, clock and stopping rules for the fixed-point loop; the
    clock obeys model_a2.run_clock, with n_steps >= 2."""

    chi: float
    t_end: float
    n_iter: int = 8
    tol: float = 1e-10
    dt: float | None = None
    n_steps: int = field(init=False)  # run_clock's step count

    def __post_init__(self):
        for name, value in (("chi", self.chi), ("t_end", self.t_end), ("tol", self.tol),
                            ("dt", self.step)):
            if not (value > 0.0 and np.isfinite(value)):  # NaN fails every comparison
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.n_iter < 2:
            raise ValueError("n_iter must be at least 2")
        if self.t_end < 2.0 * self.step:
            raise ValueError("t_end must be a multiple of dt covering >= 2 steps")
        # the direct run of picard_iterate steps on this clock
        n = run_clock(self.step, self.t_end, "the snapshot spacing (dt or t_end/100)")
        object.__setattr__(self, "n_steps", n)

    @property
    def step(self) -> float:
        """The snapshot spacing: dt, or t_end/100 when dt is unset."""
        return self.t_end / 100.0 if self.dt is None else self.dt

    @cached_property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class PicardRow:
    """One application of the solution map, as measured by the iterate norm."""

    iteration: int
    k_norm: float
    diff_norm: float
    ratio: float
    in_ball: bool

    def csv_line(self) -> str:
        return (
            f"{self.iteration},{self.k_norm!r},{self.diff_norm!r},"
            f"{self.ratio!r},{int(self.in_ball)}"
        )


@dataclass(frozen=True)
class PicardReport:
    """Contraction diagnostics for one fixed-point run.

    converged: the last successive difference fell below the tolerance.
    diverged: the difference ratio was >= 1 three times in a row, or an
    iterate left the domain of the map (temperature through zero, norms no
    longer finite); reported, never raised, since mapping where contraction
    fails is the point of the tool.  simulate_rel_diff compares the final
    phase against a direct run on the same horizon.
    """

    rows: tuple[PicardRow, ...]
    converged: bool
    diverged: bool
    chi: float
    simulate_rel_diff: float
    smallness: SmallnessReport
    final_phi: Field
    final_theta: Field

    def to_csv(self) -> str:
        lines = [REPORT_CSV_HEADER]
        lines += [r.csv_line() for r in self.rows]
        lines.append(f"# converged = {int(self.converged)}, diverged = {int(self.diverged)}")
        lines.append(f"# chi = {self.chi!r}")
        lines.append(f"# final phase vs direct run, relative l2 = {self.simulate_rel_diff!r}")
        lines += ["# " + ln for ln in self.smallness.to_text().splitlines()]
        return "\n".join(lines) + "\n"


def _map_in_place(grid: GridSpec, dphi, dtheta, props, p: ModelParams, times, part):
    """One application of the solution map, in place: freeze forcings, solve
    linear; returns the KNormReport of the successive difference.

    props is the run's (box, flows, etds) (_propagators).  dphi and dtheta
    hold the current iterate on the box, shape (n_times, n_box): the phase
    correction and the temperature's departure from its free heat flow;
    they leave holding the next iterate.  Snapshot j's two forcings, formed
    from one StateTerms of the absolute fields (free flow plus expanded box)
    with backward-difference rates, rate gradient and force (of the rate
    spectrum) as in model_a2.imex_step, vanish off the box and advance it
    from rest by one exact interval to slot j + 1.  That slot's old
    snapshot waits in one box buffer per series until the next forcing reads
    it, and new - old goes to the accumulators of the iterate norm.  The
    last state is validated but acts beyond the horizon.
    """
    box, flows, etds = props
    diffs = [SeriesEnergies(part, times.size, *w, times) for w in _norm_weights(grid)]
    hats = np.empty((2, *grid.half_shape), dtype=complex)  # the absolute spectra
    diff = np.zeros(grid.half_shape, dtype=complex)  # new - old, zero off the box
    # snapshot 0, the initial data, is never rewritten: its difference is zero
    for acc in diffs:
        acc.add(diff)
    held = (dphi[0].copy(), dtheta[0].copy())
    prev = prev_grad = prev_hat = None
    for j, t in enumerate(times):
        for hat, flow, c in zip(hats, flows, held):
            _expand(hat, box, c, flow, t)
        now = (irfftn(grid, hats[0]), p.theta_bar + irfftn(grid, hats[1]))
        dt = t - times[j - 1] if j else 1.0  # the first rates are now - now = 0
        rate, theta_rate = ((a - b) / dt for a, b in zip(now, prev or now))
        state = ThermoState(*(Field(grid, a) for a in (*now, rate, theta_rate)))
        if j + 1 < times.size:
            state.phi_hat = hats[0]
            terms = StateTerms(state, p)
            grad_rate = [(g - h) / dt for g, h in zip(terms.grad_phi, prev_grad or terms.grad_phi)]
            force = dissipative_force(terms, (hats[0] - (hats[0] if j == 0 else prev_hat)) / dt)
            forcings = (_f1_hat(terms), _f2_hat(terms, rate, grad_rate, force))
            series = zip((dphi, dtheta), held, etds, forcings, diffs)
            for stack, c, (decay, gain), f, acc in series:
                np.copyto(c, stack[j + 1])
                stack[j + 1] = decay * stack[j] + gain * np.take(f, box)
                acc.add(_expand(diff, box, stack[j + 1] - c))
            prev_grad, prev_hat = terms.grad_phi, hats[0].copy()
        prev = now
    return _norm_report(*(acc.energies for acc in diffs), part, times)


def _simulate_rel_diff(phi_picard: Field, phi0: Field, theta0: Field, p, cfg) -> float:
    """Relative l2 gap of phi_picard to the final phase of a direct run on the
    clock of cfg, inf when that run stops early."""
    sim = SimConfig(phi0.grid, p, cfg.step, cfg.t_end, output_every=cfg.n_steps)
    try:
        traj = simulate(sim, ThermoState(phi0, theta0))
    except NumericalError:  # the direct run fails at step 0
        return math.inf
    if traj.termination != "completed":
        return math.inf
    phi_direct = traj.states[-1].phi
    gap = l2_norm(Field(phi0.grid, phi_picard.values - phi_direct.values))
    return gap / max(l2_norm(phi_direct), 1e-30)


def picard_iterate(
    phi0: Field,
    theta0: Field,
    p: ModelParams,
    cfg: PicardConfig,
    part: DyadicPartition,
    eps0: float = 0.5,
) -> PicardReport:
    """Iterate the solution map and measure its empirical contraction.

    Starts from the correction pair (0, heat flow of theta0 - theta_bar),
    applies the map up to cfg.n_iter times, and records per iteration the
    iterate norm, the successive-difference norm, their ratio, and ball
    containment.  The pair is one pair of compact stacks on the 2/3-rule
    box (_map_in_place) that every application updates in place, measuring
    the difference as it writes; the size norm is then taken on the updated
    pair, expanded snapshot by snapshot, the heat flow added to the
    temperature's.  Stops early on convergence (difference below cfg.tol)
    or after three consecutive non-contracting ratios (reported as
    diverged; further iterations of a non-contracting map only overflow).
    The map and the size norm run with numpy's warnings off, as
    model_a2.march runs the step; an iterate that leaves the domain of the
    map (a thermo.NumericalError) is reported as diverged too, the final
    fields come from the last accepted iterate, and any other error
    propagates.  A direct run that fails has simulate_rel_diff inf.
    """
    grid = phi0.grid
    if theta0.grid != grid or part.grid != grid:
        raise ValueError("initial fields and partition must share one grid")
    if p.model != "a2":
        raise ValueError(f"the solution map linearizes model 'a2', got {p.model!r}")
    times = cfg.times

    hat0 = (rfftn(grid, phi0.values), rfftn(grid, theta0.values - p.theta_bar))
    props = _propagators(grid, p, hat0, cfg.step)
    box, (phi_flow, theta_flow), _ = props
    # the phase correction and the temperature's departure from its heat
    # flow, both at rest
    dphi = np.zeros((times.size, box.size), dtype=complex)
    dtheta = np.zeros_like(dphi)

    rows: list[PicardRow] = []
    converged = diverged = False
    prev_diff = None
    bad_streak = 0
    for m in range(1, cfg.n_iter + 1):
        last = (dphi[-1].copy(), dtheta[-1].copy())
        try:
            with np.errstate(all="ignore"):  # k_norm sets its own
                diff = _map_in_place(grid, dphi, dtheta, props, p, times, part).total
            size = k_norm(
                _spectra(grid, dphi, box, times),
                _spectra(grid, dtheta, box, times, theta_flow),
                part,
                times,
            ).total
        except NumericalError:
            # the iterate left the domain of the map (temperature through
            # zero, or norms no longer finite): empirical divergence.  The
            # final fields are read from the last slot, which goes back to
            # the last accepted iterate's.
            dphi[-1], dtheta[-1] = last
            diverged = True
            break
        ratio = diff / prev_diff if prev_diff else math.nan
        rows.append(PicardRow(m, k_norm=size, diff_norm=diff, ratio=ratio, in_ball=size <= cfg.chi))
        prev_diff = diff
        if diff < cfg.tol:
            converged = True
            break
        bad_streak = bad_streak + 1 if (not math.isnan(ratio) and ratio >= 1.0) else 0
        if bad_streak >= 3:
            diverged = True
            break

    end = np.empty(grid.half_shape, dtype=complex)
    final_phi = Field(grid, irfftn(grid, _expand(end, box, dphi[-1], phi_flow, times[-1])))
    theta_end = irfftn(grid, _expand(end, box, dtheta[-1], theta_flow, times[-1]))
    final_theta = Field(grid, p.theta_bar + theta_end)
    return PicardReport(
        rows=tuple(rows),
        converged=converged,
        diverged=diverged,
        chi=cfg.chi,
        simulate_rel_diff=_simulate_rel_diff(final_phi, phi0, theta0, p, cfg),
        smallness=check_smallness(phi0, theta0, p, eps0, part),
        final_phi=final_phi,
        final_theta=final_theta,
    )
