"""The benchmark's workloads through the CLI, in-process: each run's inputs
come from bench/workloads.py, its outputs pass that file's checks, and its
transforms, counted at grid.rfftn and grid.irfftn, stay within budget."""

import importlib.util
import sys
from pathlib import Path

import pytest

from spectral_oracle import count_transforms, rebind
from thermoch import diagnostics
from thermoch.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module.WORKLOADS
    finally:
        del sys.modules[spec.name]


def count_audit_transforms(monkeypatch, calls) -> list:
    """Make every diagnostics.audit append the number of calls it added."""
    per_audit = []
    original = diagnostics.audit

    def counted(*args, **kwargs):
        before = len(calls)
        try:
            return original(*args, **kwargs)
        finally:
            per_audit.append(len(calls) - before)

    rebind(monkeypatch, original, counted)
    return per_audit


# (workload, transforms per run, transforms per audit) at seed 1.  These were
# the traced benchmark runs' gates; while the transforms were scipy.fft's,
# the tracer and this counter read the same: 2017 and 9, 2559 and 8.0199,
# 4029 and 9.5.
BUDGETS = [
    ("a2-spinodal-128", 2018, 9.0),  # 10 a step; the initial state has no rate
    ("a1-dense-64", 2560, 8.02),  # each state owns the spectra its step formed
    ("picard-c11-64", 4030, None),  # the free flow per snapshot from one spectrum
]


@pytest.mark.parametrize("name,max_total,max_per_audit", BUDGETS, ids=[b[0] for b in BUDGETS])
def test_transforms_of_a_workload_run(
    workloads, tmp_path, monkeypatch, capsys, name, max_total, max_per_audit
):
    workload = workloads[name]
    workload.prepare(1, tmp_path)
    monkeypatch.chdir(tmp_path)
    calls = count_transforms(monkeypatch)
    per_audit = count_audit_transforms(monkeypatch, calls)
    code = main(workload.cli_args(1, "out"))
    outcome = workload.check(tmp_path / "out", capsys.readouterr().out, code)
    assert code == EXIT_OK and outcome.problem is None, outcome.problem
    assert 0 < len(calls) <= max_total
    assert set(calls) <= {"rfftn", "irfftn"}
    assert per_audit
    if max_per_audit is not None:
        assert sum(per_audit) / len(per_audit) <= max_per_audit
