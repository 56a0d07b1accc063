"""The README's examples run as written."""

import re
from pathlib import Path

import numpy as np

from thermoch.config import generate_initial, loads_config

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
