"""The README's examples run as written."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thermoch.config import generate_initial, loads_config
from thermoch.model_a2 import simulate

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(lang):
    blocks = re.findall(rf"```{lang}\n(.*?)```", README, flags=re.DOTALL)
    assert len(blocks) == 1, f"expected one {lang} block in README.md"
    return blocks[0]


def test_python_api_example_runs_the_quickstart(capsys):
    namespace = {}
    exec(compile(code_block("python"), "README.md", "exec"), namespace)
    traj = namespace["traj"]
    assert traj.termination == "completed"
    assert traj.diagnostics[-1].step == 100
    assert capsys.readouterr().out.startswith("completed 100 ")

    # same physics and the same seeded data as the Quickstart's INI
    quickstart = loads_config(code_block("ini"))
    assert namespace["params"] == quickstart.params
    init = generate_initial(quickstart)
    assert np.array_equal(namespace["state"].phi.values, init.phi.values)
    assert np.array_equal(namespace["state"].theta.values, init.theta.values)


def quickstart(n, **run):
    """The Quickstart's config at n^2, its [run] keys replaced by run."""
    cfg = loads_config(code_block("ini"))
    return replace(cfg, grid=replace(cfg.grid, n=n), **run)


@pytest.mark.parametrize("n", [64, 128])
def test_quickstart_conserves_energy(n):
    # 100 steps at the Quickstart's dt: the heat forcing squares the force
    # the phase update implies, so the energy the phase loses heats theta
    cfg = quickstart(n)
    traj = simulate(cfg, generate_initial(cfg))
    assert traj.termination == "completed" and traj.diagnostics[-1].step == 100
    assert traj.diagnostics[-1].e_drift_rel <= 1e-3


def test_quickstart_drift_falls_as_dt_halves_at_128():
    # t_end = 1e-3 at dt = t_end/10 ... t_end/80: a consistency error would
    # leave a drift that does not shrink with dt
    drifts = []
    for steps in (10, 20, 40, 80):
        cfg = quickstart(128, dt=1e-3 / steps, t_end=1e-3, output_every=steps)
        traj = simulate(cfg, generate_initial(cfg))
        assert traj.termination == "completed"
        drifts.append(traj.diagnostics[-1].e_drift_rel)
    assert all(fine < coarse for coarse, fine in zip(drifts, drifts[1:]))
