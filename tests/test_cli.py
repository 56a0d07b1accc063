"""Command-line behavior: orchestration, outputs, exit codes, determinism."""

import errno
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermoch
from collect import collect
from spectral_oracle import malformed_field_files
from test_package import run_python
from thermoch import cli, fieldio
from thermoch.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, LOCK_NAME, main
from thermoch.config import generate_initial, load_config
from thermoch.diagnostics import CSV_HEADER
from thermoch.grid import Field, GridSpec
from thermoch.model_a2 import simulate

GENTLE = """
[grid]
dim = 2
n = 32

[physics]
alpha = 0.5

[run]
model = a2
dt = 0.0002
t_end = 0.002
output_every = 5
output_dir = {out}

[init]
kind = spinodal
amplitude = 0.001
seed = 7
mean = 0.1
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def gentle_a1(out) -> str:
    text = GENTLE.format(out=out).replace("model = a2", "model = a1")
    text = text.replace("amplitude = 0.001", "amplitude = 0.0001")
    text = text.replace("mean = 0.1", "mean = 0.9")
    return text.replace("dt = 0.0002", "dt = 0.0001").replace("t_end = 0.002", "t_end = 0.0005")


class TestSimulate:
    def test_completed_run_writes_everything(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, GENTLE.format(out=out))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        assert "termination: completed" in capsys.readouterr().out

        # snapshots at steps 0, 5, 10 for both fields, plus plot columns
        for step in (0, 5, 10):
            for name in ("phi", "theta"):
                assert (out / f"{name}_{step:08d}.bin").is_file()
        assert (out / "phi_final.dat").is_file()
        assert (out / "theta_final.dat").is_file()
        assert not (out / LOCK_NAME).exists()

        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4  # header + steps 0, 5, 10
        assert lines[1].startswith("0,0.0,")
        # no step produced the initial state: its residual field alone is empty
        assert lines[1].endswith(",") and lines[1].count(",,") == 0
        assert all(float(line.split(",")[-1]) >= 0.0 for line in lines[2:])

    def test_identical_config_and_seed_byte_identical_csv(self, tmp_path):
        cfg = write_config(tmp_path, GENTLE.format(out=tmp_path / "ignored"))
        for name in ("a", "b"):
            code = main(
                ["simulate", "--config", str(cfg), "--output", str(tmp_path / name)]
            )
            assert code == EXIT_OK
        a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert a == b

    def test_seed_override_changes_the_run(self, tmp_path):
        cfg = write_config(tmp_path, GENTLE.format(out=tmp_path / "ignored"))
        main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "a")])
        main(
            ["simulate", "--config", str(cfg), "--output", str(tmp_path / "b"),
             "--seed", "8"]
        )
        a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert a != b

    def test_a1_diagnostics_gains_reg_delta_column(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, gentle_a1(out))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER + ",reg_delta"
        assert all(line.endswith(",0.01") for line in lines[1:])

    def test_numerical_blowup_exits_3_with_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = GENTLE.format(out=out).replace("amplitude = 0.001", "amplitude = 0.5")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert "stopped early" in capsys.readouterr().err
        assert (out / "diagnostics.csv").is_file()
        assert not (out / LOCK_NAME).exists()

    def test_a1_singularity_is_labeled_with_its_message(self, tmp_path, capsys):
        # spinodal data around phi = 0 at eps = 0.1: ds/dtheta < 0 where
        # |phi| < 0.74, so the transported update cannot be solved
        out = tmp_path / "out"
        text = GENTLE.format(out=out).replace("model = a2", "model = a1")
        text = text.replace("mean = 0.1", "mean = 0.0")
        text = text.replace("alpha = 0.5", "alpha = 0.5\neps = 0.1")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "termination: singularity" in captured.out
        assert "entropy slope" in captured.err
        assert (out / "diagnostics.csv").is_file()

    def test_a1_singularity_stops_at_step_1_with_its_label(self, tmp_path, capsys):
        # at reg_delta = 0 a phase field crossing zero has no a1 coupling.
        # The initial state has no rate, hence no force, and its audit needs
        # no 1/phi; the first step's coupling flux does
        grid = GridSpec(dim=2, n=32, box_len=2.0 * math.pi)
        x, y = np.meshgrid(*grid.axes, indexing="ij")
        fieldio.write_field(tmp_path / "phi0.bin", Field(grid, 0.9 * np.sin(x)))
        fieldio.write_field(tmp_path / "theta0.bin", Field(grid, 1.0 + 0.02 * np.cos(y)))
        out = tmp_path / "out"
        text = GENTLE.format(out=out).replace("model = a2", "model = a1")
        text = text.replace("alpha = 0.5", "alpha = 0.5\nreg_delta = 0.0")
        text = text.replace(
            "kind = spinodal\namplitude = 0.001\nseed = 7\nmean = 0.1",
            f"kind = from_file\npath = {tmp_path / 'phi0.bin'}\n\n"
            f"[theta_init]\nkind = from_file\npath = {tmp_path / 'theta0.bin'}",
        )
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "termination: singularity" in captured.out
        assert "(singularity): step 1: 1/phi is singular" in captured.err
        assert "Traceback" not in captured.err
        assert csv_steps(out / "diagnostics.csv") == [0]
        assert not (out / LOCK_NAME).exists()

    def test_held_lock_exits_4_and_is_not_stolen(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / LOCK_NAME).write_text("12345\n")
        cfg = write_config(tmp_path, GENTLE.format(out=out))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_IO
        assert LOCK_NAME in capsys.readouterr().err
        assert (out / LOCK_NAME).read_text() == "12345\n"

    def test_failed_lock_write_exits_4_and_leaves_no_lock_or_descriptor(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, GENTLE.format(out=out))
        opened, real_fdopen = [], os.fdopen

        class FullDisk:
            """The lock file, on a device with no space left."""

            def __init__(self, fd, *args, **kwargs):
                # held by the test, so no finalizer closes the file for the CLI
                opened.append(self)
                self.fd, self.file = fd, real_fdopen(fd, *args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli.os, "fdopen", FullDisk)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert not (out / LOCK_NAME).exists()
        assert len(opened) == 1
        with pytest.raises(OSError) as err:
            os.fstat(opened[0].fd)
        assert err.value.errno == errno.EBADF

    def test_config_errors_exit_2_naming_the_field(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, GENTLE.format(out=tmp_path / "out") + "unknown_key = 1\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "unknown_key" in capsys.readouterr().err

    def test_non_finite_config_value_exits_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = GENTLE.format(out=out).replace("alpha = 0.5", "alpha = 0.5\neps = nan")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "physics.eps must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_initial_state_exits_3_without_traceback(self, tmp_path, capsys):
        # the initial energy of this state overflows, before the first step;
        # under the suite's filterwarnings = error a numpy warning would raise
        out = tmp_path / "out"
        text = (
            "[grid]\ndim = 1\nn = 16\n\n[run]\nmodel = a2\n"
            f"output_dir = {out}\n\n[init]\nkind = single_mode\namplitude = 1e100\n"
        )
        cfg = write_config(tmp_path, text)
        code = main(["simulate", "--config", str(cfg)])
        stderr = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert "numerical failure: step 0: e_tot must be finite, got inf" in stderr
        assert "Traceback" not in stderr
        assert not (out / LOCK_NAME).exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.ini")])
        assert code == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_non_utf8_config_exits_2_without_traceback(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(GENTLE.format(out=out).encode() + b"\xff\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert str(cfg) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_from_file_missing_field_exits_4(self, tmp_path, capsys):
        # a missing file, then malformed ones: an invalid header grid, a NaN payload
        paths = [tmp_path / "ghost.bin", *malformed_field_files(tmp_path).values()]
        for path, command in itertools.product(paths, ["simulate", "check-smallness"]):
            text = GENTLE.format(out=tmp_path / "out").replace(
                "kind = spinodal\namplitude = 0.001\nseed = 7\nmean = 0.1",
                f"kind = from_file\npath = {path}",
            )
            cfg = write_config(tmp_path, text)
            assert main([command, "--config", str(cfg)]) == EXIT_IO
            assert str(path) in capsys.readouterr().err

    def test_isothermal_model_runs(self, tmp_path):
        out = tmp_path / "out"
        text = GENTLE.format(out=out).replace("model = a2", "model = isothermal")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 4


def csv_steps(path) -> list[int]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith(CSV_HEADER)
    return [int(line.split(",", 1)[0]) for line in lines[1:]]


def bins_of(out) -> list[str]:
    return sorted(p.name for p in out.glob("*.bin"))


def pair_names(steps) -> list[str]:
    return sorted(f"{name}_{step:08d}.bin" for step in steps for name in ("phi", "theta"))


class TestStreaming:
    """simulate writes each recorded state and its row as the run reaches it."""

    @pytest.mark.parametrize("model", ["a2", "a1"])
    def test_outputs_equal_what_simulate_records(self, tmp_path, model):
        out = tmp_path / "out"
        text = GENTLE.format(out=out) if model == "a2" else gentle_a1(out)
        cfg = write_config(tmp_path, text.replace("output_every = 5", "output_every = 2"))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK

        run = load_config(cfg)
        traj = collect(simulate, run, generate_initial(run))
        assert len(traj.states) > 2
        want = tmp_path / "want"
        want.mkdir()
        for state, row in zip(traj.states, traj.diagnostics):
            fieldio.write_field(want / f"phi_{row.step:08d}.bin", state.phi)
            fieldio.write_field(want / f"theta_{row.step:08d}.bin", state.theta)
        fieldio.write_plot(want / "phi_final.dat", traj.states[-1].phi)
        assert bins_of(out) == bins_of(want)
        for name in bins_of(want) + ["phi_final.dat"]:
            assert (out / name).read_bytes() == (want / name).read_bytes()

        header, suffix = CSV_HEADER, ""
        if model == "a1":
            header, suffix = CSV_HEADER + ",reg_delta", ",0.01"
        rows = "".join(row.csv_line() + suffix + "\n" for row in traj.diagnostics)
        assert (out / "diagnostics.csv").read_bytes() == (header + "\n" + rows).encode()

    def test_each_row_is_on_disk_with_its_pair_when_sunk(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, GENTLE.format(out=out))
        real, seen = cli.simulate, []

        def spying(sim, init, sink):
            def wrapped(state, row):
                sink(state, row)
                on_disk = fieldio.read_field(out / f"theta_{row.step:08d}.bin")
                seen.append(
                    (csv_steps(out / "diagnostics.csv"), bins_of(out),
                     np.array_equal(on_disk.values, state.theta.values))
                )

            return real(sim, init, wrapped)

        monkeypatch.setattr(cli, "simulate", spying)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        assert len(seen) == 3
        for k, (steps, bins, same) in enumerate(seen, start=1):
            assert steps == [0, 5, 10][:k]
            assert bins == pair_names(steps)
            assert same

    def test_early_stop_leaves_a_pair_for_every_row(self, tmp_path, capsys):
        # this data loses positivity in step 2, so the last valid state,
        # step 1, is no output step and is recorded as the run stops
        out = tmp_path / "out"
        text = GENTLE.format(out=out).replace("amplitude = 0.001", "amplitude = 0.2")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert "termination: positivity" in capsys.readouterr().out
        steps = csv_steps(out / "diagnostics.csv")
        assert steps == [0, 1]
        assert bins_of(out) == pair_names(steps)
        final = (out / "theta_final.dat").read_text().split()
        assert float(final[2]) == fieldio.read_field(out / "theta_00000001.bin").values[0, 0]


PICARD = """
[grid]
dim = 2
n = 32

[physics]
theta_bar = 100.0

[run]
model = a2
output_dir = {out}

[init]
kind = single_mode
k = 1
amplitude = 5e-5

[theta_init]
kind = constant_plus_sine
a = 3e-7
k = 1

[picard]
chi = 4e-6
t_end = 0.01
n_iter = 6
dt = 0.0005
"""


class TestAnalysisCommands:
    def test_check_smallness_writes_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, PICARD.format(out=out))
        assert main(["check-smallness", "--config", str(cfg)]) == EXIT_OK
        text = (out / "smallness_report.txt").read_text()
        assert "inequality 1" in text
        assert text.strip() in capsys.readouterr().out

    def test_picard_verify_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, PICARD.format(out=out))
        assert main(["picard-verify", "--config", str(cfg)]) == EXIT_OK
        assert "converged: True" in capsys.readouterr().out
        report = (out / "picard_report.csv").read_text()
        assert report.startswith("iteration,k_norm,diff_norm,ratio,in_ball")
        assert "# converged = 1, diverged = 0" in report
        assert (out / "smallness_report.txt").is_file()

    def test_picard_verify_requires_picard_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GENTLE.format(out=tmp_path / "out"))
        assert main(["picard-verify", "--config", str(cfg)]) == EXIT_CONFIG
        assert "[picard]" in capsys.readouterr().err

    def test_picard_verify_empty_picard_section_names_the_missing_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GENTLE.format(out=tmp_path / "out") + "\n[picard]\n")
        assert main(["picard-verify", "--config", str(cfg)]) == EXIT_CONFIG
        assert "missing required key picard.chi" in capsys.readouterr().err

    def test_picard_verify_requires_model_a2(self, tmp_path, capsys):
        text = PICARD.format(out=tmp_path / "out").replace("model = a2", "model = isothermal")
        cfg = write_config(tmp_path, text)
        assert main(["picard-verify", "--config", str(cfg)]) == EXIT_CONFIG
        assert "run.model" in capsys.readouterr().err

    def test_besov_norm_prints_blocks_summing_to_total(self, tmp_path, capsys):
        grid = GridSpec(dim=2, n=32, box_len=2.0 * math.pi)
        rng = np.random.default_rng(5)
        path = tmp_path / "f.bin"
        fieldio.write_field(path, Field(grid, rng.normal(size=grid.shape)))
        assert main(["besov-norm", "--field", str(path), "--s", "1.0"]) == EXIT_OK
        out = capsys.readouterr().out
        blocks = [
            float(line.split(":")[1]) for line in out.splitlines() if "q =" in line
        ]
        total = next(
            float(line.split(":")[1]) for line in out.splitlines() if "total" in line
        )
        assert math.isclose(sum(blocks), total, rel_tol=1e-9)

    @pytest.mark.parametrize("s", ["nan", "inf", "-inf", "1e400"])
    def test_besov_norm_non_finite_s_is_a_usage_error(self, tmp_path, capsys, s):
        with pytest.raises(SystemExit) as exc:
            main(["besov-norm", "--field", str(tmp_path / "f.bin"), f"--s={s}"])
        assert exc.value.code == 2
        assert f"argument --s: expected a finite number, got '{s}'" in capsys.readouterr().err

    @pytest.mark.parametrize("s, q", [("300", 4), ("2000", 4), ("-2000", -1)])
    def test_besov_norm_overflowing_weight_is_a_usage_error(self, tmp_path, capsys, s, q):
        # 16^3 has blocks q = -1 .. 4: 2^(q s) passes the double range at q s = 1024
        grid = GridSpec(dim=3, n=16, box_len=2.0 * math.pi)
        path = tmp_path / "f.bin"
        fieldio.write_field(path, Field(grid, np.random.default_rng(6).normal(size=grid.shape)))
        assert main(["besov-norm", "--field", str(path), f"--s={s}"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: --s {s}: the weight 2^(q s) of block q = {q} overflows\n"
        )

    @pytest.mark.parametrize("command", ["check-smallness", "picard-verify"])
    @pytest.mark.parametrize(
        "clock",
        ["dt = 0.7\nt_end = 1.4", "dt = 0.01\nt_end = 0.005", "dt = 0.01\nt_end = 0.025"],
        ids=["dt_above_half", "t_end_below_dt", "t_end_not_a_multiple"],
    )
    def test_clock_that_simulate_rejects_exits_2(self, tmp_path, capsys, command, clock):
        out = tmp_path / "out"
        text = PICARD.format(out=out).replace("model = a2", f"model = a2\n{clock}")
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: run: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_picard_clock_that_simulate_rejects_exits_2(self, tmp_path, capsys):
        # picard-verify ends with a direct run on the [picard] clock: its dt
        # obeys simulate's rule, checked at load, before any iteration
        out = tmp_path / "out"
        text = PICARD.format(out=out).replace("dim = 2", "dim = 1").replace("n = 32", "n = 16")
        text = text.replace("t_end = 0.01", "t_end = 1.2").replace("dt = 0.0005", "dt = 0.6")
        cfg = write_config(tmp_path, text)
        assert main(["picard-verify", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: picard: the snapshot spacing (dt or t_end/100) must lie in (0, 0.5]"
        )
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check-smallness", "picard-verify"])
    def test_zero_alpha_reports_both_inequalities_violated(self, tmp_path, capsys, command):
        # min(1, alpha, kappa, k_b) = 0: both right-hand sides vanish
        out = tmp_path / "out"
        text = PICARD.format(out=out).replace("theta_bar = 100.0", "theta_bar = 100.0\nalpha = 0.0")
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", str(cfg)]) == EXIT_OK
        report = (out / "smallness_report.txt").read_text()
        assert report.count("VIOLATED") == 2
        assert "no admissible ball radius chi" in report
        if command == "picard-verify":
            assert (out / "picard_report.csv").is_file()

    def test_besov_norm_missing_file_exits_4(self, tmp_path, capsys):
        # a missing file, then malformed ones: an invalid header grid, a NaN payload
        paths = [tmp_path / "ghost.bin", *malformed_field_files(tmp_path).values()]
        for path in paths:
            code = main(["besov-norm", "--field", str(path)])
            assert code == EXIT_IO
            assert str(path) in capsys.readouterr().err


HUGE = """
[grid]
dim = {dim}
n = 16

[physics]
eps = {eps}

[run]
model = a2
output_dir = out

[init]
kind = single_mode
amplitude = {amplitude}

[picard]
chi = 1e-4
t_end = 1e-2
dt = 1e-3
"""


class TestDataBeyondTheDoubleRange:
    """A side or a norm beyond the double range is inf in a report: no
    traceback and no numpy warning, with warnings as errors."""

    def run(self, tmp_path, text, args):
        write_config(tmp_path, text)
        code = f"import sys\nfrom thermoch.cli import main\nsys.exit(main({args!r}))"
        proc = run_python(code, tmp_path)
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
        return proc

    @pytest.mark.parametrize(
        "amplitude, eps", [("1e80", "1.0"), ("1e100", "1.0"), ("0.01", "1e200")]
    )
    def test_check_smallness_reports_inf_sides(self, tmp_path, amplitude, eps):
        text = HUGE.format(dim=1, eps=eps, amplitude=amplitude)
        proc = self.run(tmp_path, text, ["check-smallness", "--config", "run.ini"])
        assert proc.returncode == EXIT_OK
        report = (tmp_path / "out" / "smallness_report.txt").read_text()
        assert "VIOLATED" in report
        if eps == "1.0":
            assert "inequality 1: lhs = inf" in report and "VIOLATED, margin x0]" in report
        else:  # rhs2 underflows to 0, so no ball radius is admissible
            assert "no admissible ball radius chi: inequality 2 VIOLATED" in report
            assert "chi in (" not in report

    def test_besov_norm_of_a_huge_field(self, tmp_path):
        grid = GridSpec(dim=1, n=16, box_len=2.0 * math.pi)
        fieldio.write_field(tmp_path / "big.bin", Field(grid, 1e200 * np.cos(3 * grid.axes[0])))
        proc = self.run(tmp_path, "", ["besov-norm", "--field", "big.bin"])
        assert proc.returncode == EXIT_OK
        assert "total : inf" in proc.stdout

    @pytest.mark.parametrize("amplitude", ["1e30", "1e80"])
    def test_picard_verify_diverges_with_both_reports(self, tmp_path, amplitude):
        text = HUGE.format(dim=2, eps="1.0", amplitude=amplitude)
        proc = self.run(tmp_path, text, ["picard-verify", "--config", "run.ini"])
        assert proc.returncode == EXIT_NUMERICAL
        assert "diverged: True" in proc.stdout
        for name in ("picard_report.csv", "smallness_report.txt"):
            assert (tmp_path / "out" / name).is_file()


class TestParser:
    @pytest.mark.parametrize("command", ["frobnicate", "demo-caginalp"])
    def test_unknown_subcommand_is_a_usage_error(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2

    def test_config_flag_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, GENTLE.format(out=out))
        # the child imports the package under test, installed or not
        src = str(Path(thermoch.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "thermoch.cli", "simulate", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == EXIT_OK
        assert "termination: completed" in proc.stdout
