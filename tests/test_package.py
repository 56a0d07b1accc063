"""The package's public surface: every name a module exports exists, every
list of the CLI's subcommands names the same ones, and the program runs on
numpy alone, in one thread."""

import argparse
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermoch
from thermoch import cli, fieldio
from thermoch.grid import Field, GridSpec

SRC = str(Path(thermoch.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"

# A 2D run of 10 steps, and a 1D fixed-point check of 4 snapshots.
SIMULATE = """
[grid]
dim = 2
n = 16

[run]
model = a2
dt = 0.0002
t_end = 0.002
output_every = 5

[init]
kind = spinodal
amplitude = 0.001
seed = 7
mean = 0.1
"""

PICARD = """
[grid]
dim = 1
n = 16

[physics]
theta_bar = 100.0

[run]
model = a2

[init]
kind = single_mode
amplitude = 5e-5

[picard]
chi = 4e-6
t_end = 0.003
n_iter = 4
dt = 0.001
"""


def run_python(code, cwd, env=None) -> subprocess.CompletedProcess:
    """code in a fresh interpreter on this package, with warnings as errors;
    env (default os.environ) is the child's environment."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ if env is None else env, PYTHONPATH=SRC),
    )


def test_every_name_in_all_exists():
    exported = {}
    for info in pkgutil.iter_modules(thermoch.__path__):
        module = importlib.import_module(f"thermoch.{info.name}")
        for attr in getattr(module, "__all__", ()):
            exported[f"{info.name}.{attr}"] = hasattr(module, attr)
    missing = [name for name, found in exported.items() if not found]
    assert exported and not missing, missing


def test_module_table_lists_every_module():
    # a module added or deleted cannot leave a stale row in the package docstring
    table = thermoch.__doc__.split("Modules\n-------\n", 1)[1]
    listed = [line.split()[0] for line in table.splitlines() if line.strip()]
    found = [info.name for info in pkgutil.iter_modules(thermoch.__path__)]
    assert sorted(listed) == sorted(found)


def test_subcommand_lists_name_the_parsers_commands():
    # a subcommand added or deleted cannot leave a stale row in the README
    # table or in the cli docstring
    section = README.read_text().split("### Subcommands\n\n", 1)[1].split("\n\n", 1)[0]
    in_readme = re.findall(r"^\| ``([\w-]+)`` \|", section, flags=re.MULTILINE)
    listing = cli.__doc__.split("Subcommands:\n\n", 1)[1].split("\n\n", 1)[0]
    in_docstring = re.findall(r"^  (\S+)", listing, flags=re.MULTILINE)
    (action,) = (
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    in_parser = list(action.choices)
    assert in_parser and in_readme == in_parser and in_docstring == in_parser


def test_cli_import_loads_no_scipy(tmp_path):
    # the transforms are numpy.fft's: scipy's import cost stays out of every run
    proc = run_python(
        "import sys, thermoch.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_import_loads_no_numpy(tmp_path):
    # the CLI's thread setting must come before numpy's import, so the
    # package itself imports nothing
    proc = run_python("import sys, thermoch\nprint('numpy' in sys.modules)", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_runs_one_thread(tmp_path):
    # thermoch calls no BLAS routine, so OpenBLAS starts no worker pool.
    # Without the setting this reads 2 or more on a machine with 2 or more
    # CPUs; with 1 CPU OpenBLAS starts no worker, and the test cannot fail.
    # The suite's own import of thermoch.cli has set the variable: drop it.
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    proc = run_python(
        "import os, thermoch.cli\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])",
        tmp_path,
        env={key: value for key, value in os.environ.items() if key not in names},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


def test_cli_import_keeps_the_users_blas_threads(tmp_path):
    proc = run_python(
        "import os, thermoch.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
        tmp_path,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="3"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "3"


def test_commands_run_with_scipy_blocked(tmp_path):
    # every subcommand, each once
    (tmp_path / "sim.ini").write_text(SIMULATE)
    (tmp_path / "picard.ini").write_text(PICARD)
    grid = GridSpec(dim=1, n=16, box_len=2 * np.pi)
    fieldio.write_field(tmp_path / "mode.bin", Field(grid, np.cos(3 * grid.axes[0])))
    proc = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now fails\n"
        "from thermoch.cli import main\n"
        "codes = [main(['simulate', '--config', 'sim.ini', '--output', 'sim']),\n"
        "         main(['check-smallness', '--config', 'sim.ini', '--output', 'small']),\n"
        "         main(['picard-verify', '--config', 'picard.ini', '--output', 'picard']),\n"
        "         main(['besov-norm', '--field', 'mode.bin'])]\n"
        "sys.exit(max(codes))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "termination: completed" in proc.stdout
    assert "converged: True" in proc.stdout
    assert "torus dyadic norm, s = 1" in proc.stdout
    assert (tmp_path / "sim" / "diagnostics.csv").is_file()
    assert (tmp_path / "small" / "smallness_report.txt").is_file()
    assert (tmp_path / "picard" / "picard_report.csv").is_file()
