"""Command-line front end: one config file in, one output directory out.

Subcommands:

  simulate         march the configured model (run.model: a2, a1 or
                   isothermal) and stream snapshots and diagnostics.csv,
                   then plot-ready columns for the final state
  check-smallness  evaluate both admissibility inequalities on the initial data
  picard-verify    run the fixed-point iteration and report contraction ratios
  besov-norm       print the per-block norm table for a stored field
  demo-caginalp    print the energy-drift demonstration for the classic model

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(positivity loss, singularity, non-finite state or audit row, early
termination, fixed-point divergence; a run's error names its step, a
state's its field, grid index and value), 4 I/O error (held lock,
unreadable files).  A sentinel lock guards the output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import fieldio
from .besov import besov_norm, build_partition, check_smallness
from .config import ConfigError, RunConfig, generate_initial, load_config, with_seed
from .diagnostics import CSV_HEADER, caginalp_demo
from .fieldio import FieldIOError
from .model_a2 import simulate
from .picard import picard_iterate
from .thermo import NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

LOCK_NAME = ".thermoch.lock"


def _finite(text: str) -> float:
    """argparse type: a finite float; "nan", "inf" and "1e400" are usage errors."""
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoch",
        description="Pseudospectral runs and analysis for coupled phase/temperature models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name: str, help_text: str, handler):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the run config")
        cmd.add_argument("--output", help="override [run] output_dir")
        cmd.add_argument(
            "--seed", type=int, help="override the spinodal noise seed (u64)"
        )
        cmd.set_defaults(handler=handler)
        return cmd

    add_config_command("simulate", "march the configured model", _cmd_simulate)
    add_config_command(
        "check-smallness", "evaluate the admissibility inequalities", _cmd_check_smallness
    )
    add_config_command(
        "picard-verify", "measure fixed-point contraction empirically", _cmd_picard_verify
    )

    besov = sub.add_parser("besov-norm", help="per-block norm table for a stored field")
    besov.add_argument("--field", required=True, help="path to a .bin field file")
    besov.add_argument("--s", type=_finite, default=1.0, help="regularity index (default 1.0)")
    besov.set_defaults(handler=_cmd_besov_norm)

    demo = sub.add_parser(
        "demo-caginalp", help="energy-drift demonstration for the classic model"
    )
    demo.set_defaults(handler=_cmd_demo)
    return parser


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.output is not None:
        cfg = replace(cfg, output_dir=args.output)
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    return cfg


@contextlib.contextmanager
def _locked_output(output_dir: Path):
    """Create output_dir and hold its sentinel lock for the block."""
    output_dir.mkdir(parents=True, exist_ok=True)
    lock = output_dir / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise OSError(
            f"output directory {output_dir} is locked by another run "
            f"(remove {lock} if that run is dead)"
        ) from None
    try:
        with os.fdopen(fd, "w") as sentinel:  # closes fd even when the write fails
            sentinel.write(f"{os.getpid()}\n")
        yield
    finally:
        lock.unlink(missing_ok=True)


def _cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    init = generate_initial(cfg)
    outdir = Path(cfg.output_dir)
    header, suffix = CSV_HEADER, ""
    if cfg.params.model == "a1":
        header, suffix = header + ",reg_delta", "," + repr(float(cfg.params.reg_delta))
    with _locked_output(outdir), open(outdir / "diagnostics.csv", "w") as csv:
        csv.write(header + "\n")

        def write_state(state, row):
            # snapshots first, then the flushed row, so every row on disk has them
            fieldio.write_field(outdir / f"phi_{row.step:08d}.bin", state.phi)
            fieldio.write_field(outdir / f"theta_{row.step:08d}.bin", state.theta)
            csv.write(row.csv_line() + suffix + "\n")
            csv.flush()

        traj = simulate(cfg, init, write_state)
        fieldio.write_plot(outdir / "phi_final.dat", traj.states[-1].phi)
        fieldio.write_plot(outdir / "theta_final.dat", traj.states[-1].theta)
    last = traj.diagnostics[-1]
    print(f"model: {cfg.params.model}  steps: {last.step}/{cfg.n_steps}  t: {last.t!r}")
    print(
        f"termination: {traj.termination}  E_drift_rel: {last.e_drift_rel!r}  "
        f"min_theta: {last.min_theta!r}"
    )
    print(f"outputs: {outdir}")
    if traj.termination != "completed":
        print(f"error: run stopped early ({traj.termination}): {traj.message}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_check_smallness(args) -> int:
    cfg = _load_run_config(args)
    init = generate_initial(cfg)
    part = build_partition(cfg.grid)
    report = check_smallness(init.phi, init.theta, cfg.params, cfg.eps0, part)
    outdir = Path(cfg.output_dir)
    with _locked_output(outdir):
        (outdir / "smallness_report.txt").write_text(report.to_text() + "\n")
    print(report.to_text())
    return EXIT_OK


def _cmd_picard_verify(args) -> int:
    cfg = _load_run_config(args)
    if cfg.picard is None:
        raise ConfigError("picard-verify requires a [picard] section in the config")
    if cfg.params.model != "a2":
        raise ConfigError(f"picard-verify linearizes model a2, not run.model = {cfg.params.model}")
    init = generate_initial(cfg)
    part = build_partition(cfg.grid)
    report = picard_iterate(
        init.phi, init.theta, cfg.params, cfg.picard, part, eps0=cfg.eps0
    )
    outdir = Path(cfg.output_dir)
    with _locked_output(outdir):
        (outdir / "picard_report.csv").write_text(report.to_csv())
        (outdir / "smallness_report.txt").write_text(report.smallness.to_text() + "\n")
    print(
        f"iterations: {len(report.rows)}  converged: {report.converged}  "
        f"diverged: {report.diverged}"
    )
    print(
        f"chi: {report.chi!r}  simulate_rel_diff: {report.simulate_rel_diff!r}  "
        f"smallness_satisfied: {report.smallness.satisfied}"
    )
    print(f"outputs: {outdir}")
    if report.diverged:
        print("error: fixed-point iteration left the ball or blew up", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_besov_norm(args) -> int:
    field = fieldio.read_field(args.field)
    part = build_partition(field.grid)
    print(besov_norm(field, args.s, part).to_text())
    return EXIT_OK


def _cmd_demo(args) -> int:
    print(caginalp_demo())
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FieldIOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
