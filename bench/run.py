"""Benchmark of the thermoch CLI: time to solution on three workloads.

    python3 bench/run.py --workload a2-spinodal-128 --seed 1 --seconds 40 --trace 0

Run it from the root of a thermoch checkout.  It writes the workload's
inputs for the seed under .bench_run/, then, for about --seconds, runs
rounds of: the fixed reference work (reference.py), a set-up probe
(setup_probe.py) and the CLI (``python -m thermoch.cli``), each program a
fresh child process and one at a time.  Every CLI child's outputs are
checked.  It prints the environment, a table of metrics and, as its last
line, one JSON object with the metrics BENCHMARK.json names.  With
--trace 1 the rounds are a plain CLI child and a traced one (tracer.py),
and the metrics are per layer.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

MIN_ROUNDS = 3  # the medians and the repeat checks need a few children
TOTAL_LIMIT_S = 170.0  # a child still running this long after start is killed
# Median of reference.reference_seconds() on the box the bounds were set on
# (2-vCPU KVM guest, Xeon at 2.1 GHz); end-to-end times are scaled to it.
REFERENCE_S = 0.65
EXACT_UNITS = ("count", "B")  # per-layer values that must repeat exactly


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


def run_child(argv: list[str], cwd: Path, env: dict, limit_s: float) -> Sample:
    """Run one child to its end, timed from spawn to exit.

    CPU time and peak RSS come from the child's own rusage (``wait4``), not
    from RUSAGE_CHILDREN, whose maxrss is the largest over every child.
    """
    with open(cwd / "child.out", "wb") as out, open(cwd / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(limit_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
        stdout=(cwd / "child.out").read_text(errors="replace"),
    )


def environment() -> dict:
    """What was measured and where: code identity, versions, CPUs."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "thermoch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy

    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


class Runner:
    """One benchmark run: its children, their checks and their samples."""

    def __init__(self, workload, seed: int, workdir: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = started
        self.python = sys.executable
        # THERMOCH_THREADS at its default of 1.  Children write compiled
        # files, as a user's runs would, but only inside the checkout; the
        # untimed warm-up probe fills that cache.
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
            THERMOCH_THREADS="1",
        )
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprint: bytes | None = None
        self.iterations = 0

    def child(self, argv: list[str]) -> Sample:
        limit = TOTAL_LIMIT_S - (time.perf_counter() - self.started)
        return run_child(argv, self.workdir, self.env, limit)

    def probe(self) -> Sample:
        """The set-up probe; a probe that fails counts as a failed run."""
        argv = [self.python, str(BENCH / "setup_probe.py")]
        sample = self.child(argv + self.workload.probe_args(self.seed))
        if sample.exit_code != 0:
            self.fail(f"set-up probe exit code {sample.exit_code}")
        return sample

    def cli(self, traced: bool) -> Sample:
        """One CLI child, its outputs checked against the first run's."""
        index = self.attempted
        output = f"out{index}"
        args = self.workload.cli_args(self.seed, output)
        if traced:
            argv = [self.python, str(BENCH / "tracer.py"), "spans.json"] + args
        else:
            argv = [self.python, "-m", "thermoch.cli"] + args
        sample = self.child(argv)
        outcome = self.workload.check(self.workdir / output, sample.stdout, sample.exit_code)
        shutil.rmtree(self.workdir / output, ignore_errors=True)
        self.attempted += 1
        if outcome.problem is not None:
            self.fail(f"run {index}: {outcome.problem}")
        elif self.fingerprint is None:
            self.fingerprint = outcome.fingerprint
        elif outcome.fingerprint != self.fingerprint:
            self.fail(f"run {index}: outputs differ from the first run of this seed")
        self.iterations = outcome.iterations
        return sample

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def spans(self) -> list | None:
        path = self.workdir / "spans.json"
        if not path.exists():
            return None
        spans = json.loads(path.read_text())
        path.unlink()
        return spans


def rounds(seconds: float, body) -> None:
    """Call body() until the next call would pass the deadline (and at
    least MIN_ROUNDS times)."""
    deadline = time.perf_counter() + seconds
    durations: list[float] = []
    while len(durations) < MIN_ROUNDS or (
        time.perf_counter() + statistics.median(durations) <= deadline
    ):
        begin = time.perf_counter()
        body()
        durations.append(time.perf_counter() - begin)


class Table:
    """Metrics as name -> (value, unit, samples, (q1, q3))."""

    def __init__(self):
        self.rows: dict[str, tuple[float, str, int, tuple]] = {}

    def median(self, name: str, values: list[float], unit: str, scale: float = 1.0) -> None:
        if len(values) < 2:
            q1 = mid = q3 = values[0]
        else:
            q1, mid, q3 = statistics.quantiles(values, n=4)
        self.rows[name] = (mid * scale, unit, len(values), (q1 * scale, q3 * scale))

    def exact(self, name: str, value, unit: str, samples: int) -> None:
        self.rows[name] = (value, unit, samples, ())


def end_to_end(runner: Runner, seconds: float) -> Table:
    references: list[float] = []
    setups: list[Sample] = []
    plain: list[Sample] = []
    from reference import reference_seconds

    def body():
        references.append(reference_seconds())
        setups.append(runner.probe())
        plain.append(runner.cli(traced=False))

    rounds(seconds, body)
    table = Table()
    # Times at the reference speed; see reference.py.
    table.median("reference_s", references, "s")
    scale = REFERENCE_S / table.rows["reference_s"][0]
    table.median("wall_s", [s.wall_s for s in plain], "s", scale)
    table.median("setup_s", [s.wall_s for s in setups], "s", scale)
    table.median("cpu_s", [s.cpu_s for s in plain], "s", scale)
    table.median("peak_rss_mb", [s.peak_rss_mb for s in plain], "MB")
    table.median("wall_raw_s", [s.wall_s for s in plain], "s")
    table.median("setup_raw_s", [s.wall_s for s in setups], "s")
    table.median("cpu_raw_s", [s.cpu_s for s in plain], "s")
    return table


def per_layer(runner: Runner, seconds: float) -> Table:
    from tracer import layer_metrics

    plain: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict] = []

    def body():
        plain.append(runner.cli(traced=False))
        traced.append(runner.cli(traced=True))
        spans = runner.spans()
        if spans is None:
            runner.problems.append("a traced run wrote no spans")
        else:
            layers.append(layer_metrics(spans))

    rounds(seconds, body)
    table = Table()
    exact = [{k: v for k, (v, unit) in m.items() if unit in EXACT_UNITS} for m in layers]
    if any(counts != exact[0] for counts in exact[1:]):
        runner.problems.append("per-layer counts differ between traced runs")
    for name, (value, unit) in (layers[0].items() if layers else ()):
        if unit in EXACT_UNITS:
            table.exact(name, value, unit, len(layers))
        else:
            table.median(name, [m[name][0] for m in layers], unit)
    table.exact("picard.iterations", runner.iterations, "count", len(traced))
    overhead = [t.wall_s / p.wall_s - 1.0 for t, p in zip(traced, plain)]
    table.median("trace.overhead_frac", overhead, "ratio")
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "thermoch" / "cli.py").is_file():
        print(f"error: no thermoch sources at {SRC / 'thermoch'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    workdir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.prepare(args.seed, workdir)
        runner = Runner(workload, args.seed, workdir, started)
        record = environment()
        record.update(
            workload=workload.name,
            seed=args.seed,
            trace=args.trace,
            THERMOCH_THREADS=runner.env["THERMOCH_THREADS"],
        )
        # Untimed warm-up: fills the compiled-file cache and the page cache.
        if runner.probe().exit_code != 0:
            print((workdir / "child.err").read_text(), file=sys.stderr)
            return 1
        record["loadavg_before"] = os.getloadavg()
        table = (per_layer if args.trace else end_to_end)(runner, args.seconds)
        record["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"env {json.dumps(record)}")
    print(f"{'metric':<44} {'value':>14} {'unit':<6} {'n':>4}  quartiles")
    for name, (value, unit, n, spread) in table.rows.items():
        quarts = "  ".join(f"{q:.6g}" for q in spread)
        print(f"{name:<44} {value:>14.6g} {unit:<6} {n:>4}  {quarts}")
    fail_frac = runner.failed / max(runner.attempted, 1)
    print(f"{'fail_frac':<44} {fail_frac:>14.6g} {'ratio':<6} {runner.attempted:>4}")
    for problem in runner.problems:
        print(f"problem: {problem}")

    result = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        if entry["name"] not in table.rows:
            print(f"error: no value for {entry['name']}", file=sys.stderr)
            return 1
        value, unit, _, _ = table.rows[entry["name"]]
        if unit != entry["unit"]:
            print(f"error: {entry['name']} is in {unit}, BENCHMARK.json says {entry['unit']}", file=sys.stderr)
            return 1
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
