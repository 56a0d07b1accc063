"""Acceptance gate: thirteen must-hold behaviors, one test per criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion (two for criterion 04: its slope and its drift floor).  Every
tolerance is pinned in the assertions; the three-run refinement study
(criteria 04-06) is built once per module and shared.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from analysis_oracle import (
    ginzburg_landau_energy,
    phi_apriori_ratios,
    theta_apriori_ratios,
    verify_variational_identities,
)
from collect import collect
from spectral_oracle import band_limited, fftn, project_block
from thermoch.besov import besov_norm, build_partition, check_smallness, chi_bump
from thermoch.cli import EXIT_OK, main
from thermoch.grid import Field, GridSpec, grad_arrays, irfftn, l2_norm, rfftn
from thermoch.model_a2 import (
    SimConfig,
    _heat_operator,
    _implicit_solve,
    _phase_operator,
    imex_step,
    simulate,
)
from thermoch.picard import PicardConfig, picard_iterate
from thermoch.rng import Xoshiro256StarStar
from thermoch.thermo import ModelParams, StateTerms, ThermoState, entropy_production

GRID = GridSpec(dim=2, n=64, box_len=2.0 * np.pi)
GRID_1D = GridSpec(dim=1, n=64, box_len=2.0 * np.pi)
REFINEMENT_DTS = (4e-4, 2e-4, 1e-4)


def params(**kw):
    base = dict(eps=1.0, theta_bar=1.0, alpha=0.5, kappa=1.0, k_b=1.0)
    base.update(kw)
    return ModelParams(**base)


def spinodal(grid, seed, amplitude, mean):
    noise = Xoshiro256StarStar(seed).uniform_symmetric(amplitude, grid.shape)
    return Field(grid, noise - noise.mean() + mean)


@pytest.fixture(scope="module")
def refinement_runs():
    """Three completed runs of the same data at dt = 4e-4, 2e-4, 1e-4."""
    p = params()
    rng = np.random.default_rng(42)
    init = ThermoState(
        band_limited(GRID, rng, amp=0.03, kmax_int=2),
        Field(GRID, np.ones(GRID.shape)),
    )
    runs = []
    for dt in REFINEMENT_DTS:
        cfg = SimConfig(grid=GRID, params=p, dt=dt, t_end=0.05, output_every=25)
        traj = collect(simulate, cfg, init)
        assert traj.termination == "completed"
        runs.append(traj)
    return p, runs


def test_criterion_01_spectral_exactness():
    rng = np.random.default_rng(1)
    grids = (
        GRID_1D,
        GridSpec(dim=2, n=32, box_len=3.7),
        GridSpec(dim=2, n=64, box_len=2.0 * np.pi),
    )
    for trial in range(100):
        grid = grids[trial % len(grids)]

        # trig eigenfunctions of grad / laplacian / bilaplacian to 1e-12.
        # Sampling cos() leaves 1-ulp white noise over all frequencies, which
        # the quartic symbol would amplify by k_max^4; project the sample onto
        # its exact two-coefficient representation before applying the ops.
        ms = rng.integers(-(grid.n // 4), grid.n // 4 + 1, size=grid.dim)
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        ks = [2.0 * np.pi * m / grid.box_len for m in ms]
        arg = sum(k * ax for k, ax in zip(ks, grid.axes)) + phase
        raw = rfftn(grid, np.cos(arg) * np.ones(grid.shape))
        mask = np.abs(raw) > 1e-8 * np.max(np.abs(raw))
        spec = raw * mask
        f = Field(grid, irfftn(grid, spec))
        k2 = sum(k * k for k in ks)

        lap = irfftn(grid, spec * grid.half_lap)
        assert np.max(np.abs(lap + k2 * f.values)) <= 1e-12 * max(1.0, k2)
        bilap = irfftn(grid, spec * grid.half_bilap)
        assert np.max(np.abs(bilap - k2**2 * f.values)) <= 1e-12 * max(1.0, k2**2)
        gx = irfftn(grid, spec * grid.half_grad[0])
        expected = -ks[0] * np.sin(arg) * np.ones(grid.shape)
        assert np.max(np.abs(gx - expected)) <= 1e-12 * max(1.0, abs(ks[0]))

        # Parseval to 1e-12 (relative)
        v = rng.standard_normal(grid.shape)
        physical = float(np.sum(v * v))
        spectral = float(np.sum(np.abs(fftn(v)) ** 2)) / grid.size
        assert abs(physical - spectral) <= 1e-12 * physical


def test_criterion_02_constitutive_identities():
    grid = GridSpec(dim=2, n=32, box_len=2.0 * np.pi)
    p = params(theta_bar=1.5)
    rng = np.random.default_rng(2)
    for trial in range(20):
        base = float(rng.uniform(0.75, 4.5))
        amp = min(base - 0.5, 5.0 - base, 0.5)
        state = ThermoState(
            band_limited(grid, rng, amp=0.5, kmax_int=3),
            Field(grid, base + band_limited(grid, rng, amp=amp, kmax_int=3).values),
        )
        assert state.theta.values.min() >= 0.5 and state.theta.values.max() <= 5.0
        report = verify_variational_identities(state, p, h_step=1e-5, seed=trial)
        assert report.entropy_residual <= 1e-6
        assert report.gateaux_residual <= 1e-6


def test_criterion_03_mass_conservation():
    p = params()
    init = ThermoState(
        spinodal(GRID, seed=1, amplitude=1e-3, mean=0.1),
        Field(GRID, np.ones(GRID.shape)),
    )
    cfg = SimConfig(grid=GRID, params=p, dt=1e-6, t_end=1e-2, output_every=10_000)
    traj = simulate(cfg, init)
    assert traj.termination == "completed"
    assert traj.diagnostics[-1].step == 10_000
    drift = abs(
        float(traj.states[-1].phi.values.mean()) - float(init.phi.values.mean())
    )
    assert drift <= 1e-12


def test_criterion_04_energy_drift_first_order(refinement_runs):
    _, runs = refinement_runs
    drifts = [
        abs(traj.diagnostics[-1].e_tot - traj.diagnostics[0].e_tot) for traj in runs
    ]
    slope = np.polyfit(np.log(REFINEMENT_DTS), np.log(drifts), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_criterion_04_energy_drift_has_no_floor(refinement_runs):
    # the signed drift fitted to c + a dt + b dt^2: a step driven by another
    # chemical potential than the energy's leaves a dt-independent c
    _, runs = refinement_runs
    drifts = [traj.diagnostics[-1].e_tot - traj.diagnostics[0].e_tot for traj in runs]
    floor = np.polyfit(REFINEMENT_DTS, drifts, 2)[-1]
    assert abs(floor) <= 1e-8


def test_criterion_05_entropy_production_nonnegative(refinement_runs):
    p, runs = refinement_runs
    for traj in runs:
        assert min(r.min_entropy_production for r in traj.diagnostics) >= -1e-10
        # both production forms, pointwise over every recorded snapshot
        for state in traj.states:
            for form in (p, replace(p, model="a1")):
                production = entropy_production(StateTerms(state, form))
                assert float(production.min()) >= -1e-10


def test_criterion_06_clausius_duhem_residual_refines(refinement_runs):
    _, runs = refinement_runs
    residuals = [
        max(r.cd_residual_l2 for r in traj.diagnostics if r.step > 0) for traj in runs
    ]
    assert residuals[0] > residuals[1] > residuals[2]


def test_criterion_07_isothermal_energy_decay():
    p = params(alpha=0.0, model="isothermal")
    state = ThermoState(
        spinodal(GRID, seed=11, amplitude=0.05, mean=0.0),
        Field(GRID, np.ones(GRID.shape)),
    )
    energy = ginzburg_landau_energy(state.phi, p)
    for _ in range(10_000):
        state = imex_step(StateTerms(state, p), 1e-4).state
        new_energy = ginzburg_landau_energy(state.phi, p)
        assert new_energy - energy <= 1e-10
        energy = new_energy


def test_criterion_08_heat_kernel_oracle():
    # conduction operator in isolation: zero forcing, phi frozen at zero
    b, mode, dt, t_end = 0.3, 1, 1e-3, 0.1
    p = params()
    x = GRID_1D.axes[0]
    state = ThermoState(
        Field(GRID_1D, np.zeros(GRID_1D.shape)),
        Field(GRID_1D, 1.0 + b * np.cos(mode * x)),
    )
    zero = np.zeros(GRID_1D.n // 2 + 1)  # half spectrum of the zero forcing
    for _ in range(round(t_end / dt)):
        phi_hat = _implicit_solve(
            _phase_operator(GRID_1D, p), dt, rfftn(GRID_1D, state.phi.values), zero
        )
        theta_hat = _implicit_solve(
            _heat_operator(GRID_1D, p), dt, rfftn(GRID_1D, state.theta.values), zero
        )
        state = ThermoState(
            Field(GRID_1D, irfftn(GRID_1D, phi_hat)),
            Field(GRID_1D, irfftn(GRID_1D, theta_hat)),
        )
    assert np.max(np.abs(state.phi.values)) == 0.0
    amplitude = (state.theta.values.max() - state.theta.values.min()) / 2.0
    lam = p.kappa * mode**2 / p.k_b
    exact = b * math.exp(-lam * t_end)
    assert abs(amplitude - exact) / exact <= 2.0 * dt * lam * t_end


def test_criterion_09_littlewood_paley():
    # partition of unity on every lattice frequency
    for grid in (GRID, GridSpec(dim=1, n=128, box_len=3.0)):
        part = build_partition(grid)
        total = np.zeros(grid.half_shape)
        for sym in part.symbols:
            total += sym
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    # Bernstein ratios: calibrate on 100 trials, hold out on 100 fresh ones
    part = build_partition(GRID)
    rng = np.random.default_rng(9)

    def normalized_ratios(f):
        out = []
        for q in range(0, part.q_max + 1):
            block = project_block(f, q, part)
            nb = l2_norm(block)
            if nb < 1e-13:
                continue
            grads = grad_arrays(GRID, block.values)
            ng = math.sqrt(sum(l2_norm(Field(GRID, g)) ** 2 for g in grads))
            out += [ng / nb / 2.0**q, 2.0**q * nb / ng]
        return out

    calibration, holdout = [], []
    for i in range(200):
        bucket = calibration if i < 100 else holdout
        bucket += normalized_ratios(Field(GRID, rng.standard_normal(GRID.shape)))
    constant = 1.1 * max(calibration)
    assert max(holdout) <= constant

    # single-mode norms against the scalar ring-weight oracle
    x = GRID.axes[0]
    for amp, mode, s in ((0.37, 5, 1.0), (1.25, 1, 0.5), (0.02, 17, 2.0)):
        f = Field(GRID, amp * np.sin(mode * x) * np.ones(GRID.shape))
        spatial = amp * math.sqrt(GRID.box_len**2 / 2.0)
        oracle = 0.0
        for q in part.qs:
            if q == -1:
                w = chi_bump(np.array([float(mode)]))[0]
            else:
                w = (
                    chi_bump(np.array([mode / 2.0 ** (q + 1)]))[0]
                    - chi_bump(np.array([mode / 2.0**q]))[0]
                )
            oracle += 2.0 ** (q * s) * w * spatial
        assert besov_norm(f, s, part).total == pytest.approx(oracle, abs=1e-10)


def test_criterion_10_linear_apriori_estimates():
    part = build_partition(GRID_1D)
    rng = np.random.default_rng(10)
    times = np.linspace(0.0, 0.1, 11)

    def random_params():
        return ModelParams(
            eps=float(rng.uniform(0.5, 2.0)),
            theta_bar=float(rng.uniform(0.5, 3.0)),
            alpha=float(rng.uniform(0.3, 2.0)),
            kappa=float(rng.uniform(0.3, 3.0)),
            k_b=float(rng.uniform(0.3, 3.0)),
        )

    def draw():
        p = random_params()
        data = band_limited(GRID_1D, rng, amp=float(rng.uniform(0.1, 1.0)), kmax_int=6)
        series = [
            band_limited(GRID_1D, rng, amp=float(rng.uniform(0.1, 2.0)), kmax_int=6)
            for _ in times
        ]
        phi_r = phi_apriori_ratios(series, data, p, times, part)
        theta_r = theta_apriori_ratios(series, data, p, times, part)
        return list(phi_r) + [theta_r]

    calibration = np.array([draw() for _ in range(50)])
    assert np.all(np.isfinite(calibration)) and np.all(calibration > 0.0)
    constant = 1.1 * calibration.max()
    holdout = np.array([draw() for _ in range(50)])
    assert np.all(holdout <= constant)


def test_criterion_11_empirical_contraction():
    part = build_partition(GRID)
    p = params(theta_bar=100.0, alpha=1.0)
    x, y = GRID.axes
    phi0 = Field(GRID, 5e-5 * np.cos(x) * np.ones(GRID.shape))

    # scale the temperature perturbation to sit at twice the admissible bound
    probe = Field(GRID, p.theta_bar + np.cos(x) * np.cos(y))
    gauge = check_smallness(phi0, probe, p, 0.5, part)
    theta0 = Field(
        GRID, p.theta_bar + (gauge.rhs2 / (2.05 * gauge.lhs2)) * np.cos(x) * np.cos(y)
    )
    smallness = check_smallness(phi0, theta0, p, 0.5, part)
    assert min(smallness.margins) >= 2.0
    assert all(smallness.satisfied)

    cfg = PicardConfig(chi=4e-6, t_end=1e-2, n_iter=6, dt=1e-4)
    report = picard_iterate(phi0, theta0, p, cfg, part, eps0=0.5)
    assert report.converged and not report.diverged
    assert all(row.in_ball for row in report.rows)
    assert all(row.ratio <= 0.9 for row in report.rows if row.iteration >= 2)
    assert report.simulate_rel_diff <= 0.05


def test_criterion_12_a1_a2_agreement():
    grid = GridSpec(dim=2, n=32, box_len=2.0 * np.pi)
    p = params(model="a1")
    rng = np.random.default_rng(21)
    phi = Field(grid, 0.9 + band_limited(grid, rng, amp=0.05, kmax_int=2).values)
    assert np.abs(phi.values).min() >= 0.5

    # grad(theta0) = 0 exactly: the transported coupling vanishes
    state = ThermoState(phi, Field(grid, np.ones(grid.shape)))
    a2_next = imex_step(StateTerms(state, replace(p, model="a2")), 1e-4).state
    a1_next = imex_step(StateTerms(state, replace(p, reg_delta=1e-2)), 1e-4).state
    assert np.max(np.abs(a1_next.phi.values - a2_next.phi.values)) <= 1e-10
    assert np.max(np.abs(a1_next.theta.values - a2_next.theta.values)) <= 1e-10

    # halving the regularization width quarters its imprint on the state
    state = ThermoState(
        phi, Field(grid, 1.0 + band_limited(grid, rng, amp=0.02, kmax_int=2).values)
    )
    finals = {}
    for delta in (2e-2, 1e-2, 5e-3):
        cfg = SimConfig(
            grid=grid, params=replace(p, reg_delta=delta), dt=1e-4, t_end=5e-3, output_every=10**6
        )
        traj = simulate(cfg, state)
        assert traj.termination == "completed"
        finals[delta] = traj.states[-1]
    for attr in ("phi", "theta"):
        coarse = l2_norm(
            Field(grid, getattr(finals[2e-2], attr).values - getattr(finals[1e-2], attr).values)
        )
        fine = l2_norm(
            Field(grid, getattr(finals[1e-2], attr).values - getattr(finals[5e-3], attr).values)
        )
        assert 3.0 < coarse / fine < 5.5


def test_criterion_13_deterministic_outputs(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[grid]\ndim = 2\nn = 32\n\n"
        "[physics]\nalpha = 0.5\n\n"
        "[run]\nmodel = a2\ndt = 0.0002\nt_end = 0.002\noutput_every = 5\n\n"
        "[init]\nkind = spinodal\namplitude = 0.001\nseed = 7\nmean = 0.1\n"
    )
    outputs = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        code = main(["simulate", "--config", str(config), "--output", str(outdir)])
        assert code == EXIT_OK
        outputs.append((outdir / "diagnostics.csv").read_bytes())
    assert outputs[0] == outputs[1]
