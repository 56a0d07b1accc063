"""The benchmark's workloads: seeded inputs and the checks on each run's outputs.

Each workload writes a config (``run.ini``) and, where it needs them,
``from_file`` fields into a directory; the program sees only those files
and the CLI arguments.  bench/README.md says why each workload is there.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from thermoch import fieldio
from thermoch.besov import build_partition, check_smallness
from thermoch.grid import Field, GridSpec
from thermoch.thermo import ModelParams

BOX = 2.0 * math.pi

# Tolerances of the acceptance criteria the checks reuse.
MEAN_DRIFT_TOL = 1e-12  # criterion 03
PRODUCTION_FLOOR = -1e-10  # criterion 05
RATIO_CEILING = 0.9  # criterion 11
SIMULATE_REL_DIFF_TOL = 0.05  # criterion 11


@dataclass(frozen=True)
class Outcome:
    """What one CLI run produced: a problem (None when every check held),
    the bytes that must repeat between runs of one seed, and the number of
    Picard iterations (0 for simulate)."""

    problem: str | None
    fingerprint: bytes = b""
    iterations: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    steps: int  # time steps of one run; picard-verify: of its direct run
    seed_flag: bool  # the seed reaches the program as --seed, not in a file
    write_inputs: Callable[[int, int, Path], None]  # (seed, steps, directory)

    def prepare(self, seed: int, directory: Path) -> None:
        """Write run.ini and the input fields for this seed."""
        self.write_inputs(seed, self.steps, directory)

    def cli_args(self, seed: int, output: str) -> list[str]:
        args = [self.command, "--config", "run.ini", "--output", output]
        if self.seed_flag:
            args += ["--seed", str(seed)]
        return args

    def probe_args(self, seed: int) -> list[str]:
        """Arguments of bench/setup_probe.py for this workload."""
        args = ["run.ini"]
        if self.seed_flag:
            args += ["--seed", str(seed)]
        if self.command == "picard-verify":
            args.append("--partition")
        return args

    def check(self, output: Path, stdout: str, exit_code: int) -> Outcome:
        if exit_code != 0:
            return Outcome(f"exit code {exit_code}")
        try:
            if self.command == "picard-verify":
                return _check_picard(output)
            return _check_simulate(output, stdout, self.steps)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            return Outcome(f"unreadable outputs: {exc!r}")


# --------------------------------------------------------------------------
# inputs


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


def _write_a2_spinodal(seed: int, steps: int, directory: Path) -> None:
    dt = 2e-4
    (directory / "run.ini").write_text(_ini({
        "grid": {"dim": 2, "n": 128},
        "physics": {"eps": 1.0, "theta_bar": 1.0, "alpha": 0.5},
        "run": {"model": "a2", "dt": dt, "t_end": steps * dt, "output_every": 100},
        "init": {"kind": "spinodal", "amplitude": 1e-3, "mean": 0.1},
    }))


def _band_limited(rng: np.random.Generator, n: int, k_max: float) -> np.ndarray:
    """Zero-mean field on |k| <= k_max (integer wavenumbers), max |value| = 1."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    keep = np.hypot(k[:, None], k[None, :]) <= k_max
    coeffs = np.fft.fft2(rng.standard_normal((n, n))) * keep
    coeffs[0, 0] = 0.0
    values = np.fft.ifft2(coeffs).real
    return values / np.max(np.abs(values))


def _write_a1_dense(seed: int, steps: int, directory: Path) -> None:
    # phi stays near 0.9: a1 on data that crosses phi = 0 stops at once.
    n, dt = 64, 1e-4
    grid = GridSpec(dim=2, n=n, box_len=BOX)
    rng = np.random.default_rng(seed)
    fieldio.write_field(directory / "phi0.bin", Field(grid, 0.9 + 0.05 * _band_limited(rng, n, 4)))
    fieldio.write_field(directory / "theta0.bin", Field(grid, 1.0 + 0.02 * _band_limited(rng, n, 4)))
    (directory / "run.ini").write_text(_ini({
        "grid": {"dim": 2, "n": n},
        "physics": {"eps": 1.0, "theta_bar": 1.0, "alpha": 0.5, "reg_delta": 0.01},
        "run": {"model": "a1", "dt": dt, "t_end": steps * dt, "output_every": 1},
        "init": {"kind": "from_file", "path": "phi0.bin"},
        "theta_init": {"kind": "from_file", "path": "theta0.bin"},
    }))


def _write_picard_c11(seed: int, steps: int, directory: Path) -> None:
    """Criterion 11's problem; deterministic, so the seed is unused.
    Its horizon is fixed at 100 steps of 1e-4 by the criterion."""
    grid = GridSpec(dim=2, n=64, box_len=BOX)
    p = ModelParams(eps=1.0, theta_bar=100.0, alpha=1.0, kappa=1.0, k_b=1.0)
    part = build_partition(grid)
    x, y = grid.axes
    phi0 = Field(grid, 5e-5 * np.cos(x) * np.ones(grid.shape))
    # temperature perturbation 2.05x below the second smallness bound
    probe = Field(grid, p.theta_bar + np.cos(x) * np.cos(y))
    gauge = check_smallness(phi0, probe, p, 0.5, part)
    scale = gauge.rhs2 / (2.05 * gauge.lhs2)
    theta0 = Field(grid, p.theta_bar + scale * np.cos(x) * np.cos(y))
    fieldio.write_field(directory / "phi0.bin", phi0)
    fieldio.write_field(directory / "theta0.bin", theta0)
    (directory / "run.ini").write_text(_ini({
        "grid": {"dim": 2, "n": 64},
        "physics": {"eps": 1.0, "theta_bar": 100.0, "alpha": 1.0},
        "run": {"model": "a2", "dt": 1e-4, "t_end": 1e-2, "eps0": 0.5},
        "init": {"kind": "from_file", "path": "phi0.bin"},
        "theta_init": {"kind": "from_file", "path": "theta0.bin"},
        "picard": {"chi": 4e-6, "t_end": 1e-2, "n_iter": 6, "dt": 1e-4},
    }))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("a2-spinodal-128", "simulate", steps=200, seed_flag=True,
                 write_inputs=_write_a2_spinodal),
        Workload("a1-dense-64", "simulate", steps=150, seed_flag=False,
                 write_inputs=_write_a1_dense),
        Workload("picard-c11-64", "picard-verify", steps=100, seed_flag=False,
                 write_inputs=_write_picard_c11),
    )
}


# --------------------------------------------------------------------------
# output checks


def _check_simulate(output: Path, stdout: str, steps: int) -> Outcome:
    if "termination: completed" not in stdout:
        return Outcome("run did not report termination: completed")
    raw = (output / "diagnostics.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(raw.decode())))
    if int(rows[-1]["step"]) != steps:
        return Outcome(f"last diagnostics row is step {rows[-1]['step']}, not {steps}")
    if any(float(r["min_theta"]) <= 0.0 for r in rows):
        return Outcome("min_theta <= 0 in a diagnostics row")
    if any(float(r["min_entropy_production"]) < PRODUCTION_FLOOR for r in rows):
        return Outcome(f"min_entropy_production below {PRODUCTION_FLOOR} in a diagnostics row")
    first = fieldio.read_field(output / "phi_00000000.bin").values
    last = fieldio.read_field(output / f"phi_{steps:08d}.bin").values
    drift = abs(float(last.mean()) - float(first.mean()))
    if drift > MEAN_DRIFT_TOL:
        return Outcome(f"mean of phi drifted by {drift:.3e}")
    return Outcome(None, fingerprint=raw)


def _check_picard(output: Path) -> Outcome:
    raw = (output / "picard_report.csv").read_bytes()
    text = raw.decode()
    rows = list(csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")))
    comments = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    if "converged = 1, diverged = 0" not in comments:
        return Outcome("fixed-point run did not converge without diverging")
    if not rows or not all(r["in_ball"] == "1" for r in rows):
        return Outcome("an iterate left the ball")
    if any(float(r["ratio"]) > RATIO_CEILING for r in rows if int(r["iteration"]) >= 2):
        return Outcome(f"contraction ratio above {RATIO_CEILING}")
    marker = "final phase vs direct run, relative l2 = "
    rel_diff = float(next(c for c in comments if c.startswith(marker))[len(marker):])
    if not rel_diff <= SIMULATE_REL_DIFF_TOL:
        return Outcome(f"simulate_rel_diff {rel_diff!r} above {SIMULATE_REL_DIFF_TOL}")
    return Outcome(None, fingerprint=raw, iterations=len(rows))
