"""Config parsing, canonical serialization, and initial-data generation."""

import math

import numpy as np
import pytest

from spectral_oracle import fftn
from thermoch import fieldio
from thermoch.config import (
    ConfigError,
    canonical_text,
    generate_initial,
    load_config,
    loads_config,
    with_seed,
)
from thermoch.grid import Field, GridSpec
from thermoch.model_a2 import SimConfig
from thermoch.thermo import PositivityError

MINIMAL = """
[grid]
dim = 1
n = 128

[run]
model = a2
"""

MINIMAL_2D = MINIMAL.replace("dim = 1", "dim = 2").replace("n = 128", "n = 32")

EVERY_SECTION = (
    MINIMAL_2D.replace("n = 32", "n = 32\nbox_len = 12.5")
    + "\n[physics]\neps = 0.5\ntheta_bar = 2.0\nalpha = 0.25\n"
    + "\n[init]\nkind = single_mode\nk = 3\namplitude = 0.125\n"
    + "\n[theta_init]\nkind = constant_plus_sine\na = 0.05\nk = 2\n"
    + "\n[picard]\nchi = 1e-4\nt_end = 0.02\nn_iter = 5\ndt = 0.0002\n"
)

SPINODAL = MINIMAL_2D + "\n[init]\nkind = spinodal\namplitude = 0.05\nseed = 42\nmean = 0.3\n"

# The canonical bytes of EVERY_SECTION and SPINODAL: a reordered or
# dropped schema row fails here.
EVERY_SECTION_CANONICAL = """\
[grid]
dim = 2
n = 32
box_len = 12.5

[physics]
eps = 0.5
theta_bar = 2.0
alpha = 0.25
kappa = 1.0
k_b = 1.0
reg_delta = 0.01

[run]
model = a2
dt = 0.001
t_end = 0.1
output_every = 10
output_dir = out
eps0 = 0.5

[init]
kind = single_mode
k = 3
amplitude = 0.125

[theta_init]
kind = constant_plus_sine
a = 0.05
k = 2

[picard]
chi = 0.0001
t_end = 0.02
n_iter = 5
tol = 1e-10
dt = 0.0002
"""

SPINODAL_CANONICAL = """\
[grid]
dim = 2
n = 32
box_len = 6.283185307179586

[physics]
eps = 1.0
theta_bar = 1.0
alpha = 1.0
kappa = 1.0
k_b = 1.0
reg_delta = 0.01

[run]
model = a2
dt = 0.001
t_end = 0.1
output_every = 10
output_dir = out
eps0 = 0.5

[init]
kind = spinodal
amplitude = 0.05
seed = 42
mean = 0.3

[theta_init]
kind = constant
"""


class TestLoadConfig:
    def test_minimal_fills_documented_defaults(self):
        cfg = loads_config(MINIMAL)
        assert cfg.grid == GridSpec(dim=1, n=128, box_len=2.0 * math.pi)
        assert cfg.params.model == "a2"
        assert cfg.dt == 1e-3
        assert cfg.t_end == 0.1
        assert cfg.output_every == 10
        assert cfg.output_dir == "out"
        assert cfg.eps0 == 0.5
        p = cfg.params
        assert (p.eps, p.theta_bar, p.alpha, p.kappa, p.k_b) == (1.0,) * 5
        assert p.reg_delta == 0.01
        assert cfg.init.kind == "spinodal"
        assert (cfg.init.amplitude, cfg.init.seed, cfg.init.mean) == (0.01, 1, 0.0)
        assert cfg.theta_init.kind == "constant"
        assert cfg.picard is None

    def test_a1_model_maps_to_params(self):
        cfg = loads_config(
            MINIMAL.replace("model = a2", "model = a1")
            + "\n[physics]\nreg_delta = 0.05\n"
        )
        assert cfg.params.model == "a1"
        assert cfg.params.reg_delta == 0.05

    def test_unknown_key_error_names_it(self):
        # the 2/3 rule is always on, so a config that sets dealias is rejected
        for extra, key in [
            ("\n[physics]\nepsilonn = 2.0\n", "epsilonn"),
            ("dealias = false\n", "dealias"),  # MINIMAL ends in its [run] section
        ]:
            with pytest.raises(ConfigError, match=key):
                loads_config(MINIMAL + extra)

    def test_unknown_section_error_names_it(self):
        with pytest.raises(ConfigError, match=r"\[outputs\]"):
            loads_config(MINIMAL + "\n[outputs]\ndir = x\n")

    @pytest.mark.parametrize("section", ["init", "theta_init"])
    def test_unknown_kind_error_names_the_field(self, section):
        with pytest.raises(ConfigError, match=rf"^{section}\.kind must be one of"):
            loads_config(MINIMAL + f"\n[{section}]\nkind = bogus\n")

    def test_zero_dt_rejected_with_field_name(self):
        with pytest.raises(ConfigError, match=r"^run: dt must lie in \(0, 0\.5\], got 0\.0$"):
            loads_config(MINIMAL + "dt = 0.0\n")

    @pytest.mark.parametrize(
        "clock, message",
        [
            ("dt = 0.7\nt_end = 1.4\n", r"dt must lie in \(0, 0\.5\], got 0\.7"),
            ("dt = 0.01\nt_end = 0.005\n", "t_end must cover at least one step"),
            ("dt = 0.01\nt_end = 0.025\n", "t_end must be an integer multiple of dt"),
        ],
        ids=["dt_above_half", "t_end_below_dt", "t_end_not_a_multiple"],
    )
    def test_clock_that_simulate_rejects_is_rejected_at_load(self, clock, message):
        # MINIMAL ends in its [run] section
        with pytest.raises(ConfigError, match=rf"^run: {message}"):
            loads_config(MINIMAL + clock)

    def test_loaded_config_is_the_sim_config_simulate_marches(self):
        cfg = loads_config(MINIMAL)
        assert isinstance(cfg, SimConfig)
        assert cfg.n_steps == 100

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_u64_range_rejected(self, seed):
        message = rf"^init\.seed must be an unsigned 64-bit integer, got {seed}$"
        with pytest.raises(ConfigError, match=message):
            loads_config(SPINODAL.replace("seed = 42", f"seed = {seed}"))

    @pytest.mark.parametrize("eps0", ["0.0", "1.0"])
    def test_eps0_outside_the_unit_interval_rejected(self, eps0):
        # MINIMAL ends in its [run] section
        with pytest.raises(ConfigError, match=r"^run\.eps0 must lie in \(0, 1\)$"):
            loads_config(MINIMAL + f"eps0 = {eps0}\n")

    def test_type_error_names_section_and_key(self):
        with pytest.raises(ConfigError, match=r"grid\.dim.*'three'"):
            loads_config(MINIMAL.replace("dim = 1", "dim = three"))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match=r"grid\.n"):
            loads_config("[grid]\ndim = 1\n\n[run]\nmodel = a2\n")
        with pytest.raises(ConfigError, match=r"run\.model"):
            loads_config("[grid]\ndim = 1\nn = 16\n")

    def test_bad_model_name(self):
        with pytest.raises(ConfigError, match="a3"):
            loads_config(MINIMAL.replace("model = a2", "model = a3"))

    def test_grid_validation_is_wrapped(self):
        with pytest.raises(ConfigError, match="power of two"):
            loads_config(MINIMAL.replace("n = 128", "n = 100"))

    def test_malformed_text_reports_parse_error(self):
        with pytest.raises(ConfigError, match="parse error"):
            loads_config("[grid\ndim = 1\n")

    def test_keys_outside_selected_kind_rejected(self):
        with pytest.raises(ConfigError, match=r"init\.amplitude does not apply"):
            loads_config(MINIMAL + "\n[init]\nkind = tanh_stripe\namplitude = 0.5\n")
        with pytest.raises(ConfigError, match=r"theta_init\.a does not apply"):
            loads_config(MINIMAL + "\n[theta_init]\nkind = constant\na = 0.5\n")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("physics", "eps", "nan"),
            ("physics", "kappa", "inf"),
            ("run", "dt", "-inf"),
            ("init", "amplitude", "nan"),
            ("picard", "chi", "nan"),
            ("picard", "tol", "nan"),
        ],
    )
    def test_non_finite_float_rejected_naming_the_field(self, section, key, value):
        sections = {
            "physics": f"\n[physics]\n{key} = {value}\n",
            "run": f"{key} = {value}\n",  # MINIMAL ends in its [run] section
            "init": f"\n[init]\nkind = spinodal\n{key} = {value}\n",
            "picard": "\n[picard]\n"
            + "\n".join(f"{k} = {value if k == key else 0.01}" for k in ("chi", "t_end", "tol"))
            + "\n",
        }
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be finite, got '{value}'"):
            loads_config(MINIMAL + sections[section])

    def test_empty_picard_section_is_not_an_absent_one(self):
        with pytest.raises(ConfigError, match=r"^missing required key picard\.chi$"):
            loads_config(MINIMAL + "\n[picard]\n")

    def test_default_section_with_keys_rejected(self):
        # configparser would copy n into every section; the error names the
        # section the key was written in
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
            loads_config("[DEFAULT]\nn = 16\n\n" + MINIMAL)

    def test_from_file_requires_path(self):
        with pytest.raises(ConfigError, match=r"init\.path"):
            loads_config(MINIMAL + "\n[init]\nkind = from_file\n")

    def test_picard_section_parsed_and_validated(self):
        cfg = loads_config(MINIMAL + "\n[picard]\nchi = 1e-4\nt_end = 0.01\n")
        assert cfg.picard is not None
        assert cfg.picard.chi == 1e-4
        assert cfg.picard.n_iter == 8
        with pytest.raises(ConfigError, match="picard"):
            loads_config(MINIMAL + "\n[picard]\nchi = -1.0\nt_end = 0.01\n")

    def test_inline_and_full_line_comments(self):
        cfg = loads_config(
            "# experiment 7\n[grid]\ndim = 1\nn = 16  # coarse\n\n[run]\nmodel = a2\n"
        )
        assert cfg.grid.n == 16

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_non_utf8_file_error_names_it(self, tmp_path):
        # read as UTF-8 whatever the locale; a bad byte names the file and its offset
        path = tmp_path / "bad.ini"
        path.write_bytes(b"# \xff\n" + MINIMAL.encode())
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"config file is not UTF-8: {path} (byte 2)"

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL)
        assert load_config(path) == loads_config(MINIMAL)


class TestCanonicalForm:
    @pytest.mark.parametrize("model", ["a2", "a1", "isothermal"])
    def test_round_trip_is_identity(self, model):
        cfg = loads_config(MINIMAL.replace("model = a2", f"model = {model}"))
        assert cfg.params.model == model
        text = canonical_text(cfg)
        assert loads_config(text) == cfg
        assert canonical_text(loads_config(text)) == text

    def test_round_trip_with_every_section(self):
        cfg = loads_config(EVERY_SECTION)
        text = canonical_text(cfg)
        assert loads_config(text) == cfg
        assert canonical_text(loads_config(text)) == text

    @pytest.mark.parametrize(
        "text, expected",
        [
            (EVERY_SECTION, EVERY_SECTION_CANONICAL),
            # an unset optional key is left out
            (
                EVERY_SECTION.replace("dt = 0.0002\n", ""),
                EVERY_SECTION_CANONICAL.replace("dt = 0.0002\n", ""),
            ),
            (SPINODAL, SPINODAL_CANONICAL),
        ],
        ids=["every-section", "picard-without-dt", "spinodal"],
    )
    def test_canonical_bytes_are_pinned(self, text, expected):
        assert canonical_text(loads_config(text)) == expected

    def test_floats_serialized_as_repr(self):
        text = canonical_text(loads_config(MINIMAL))
        assert "box_len = 6.283185307179586" in text
        assert "dt = 0.001" in text

    def test_only_relevant_init_keys_emitted(self):
        text = canonical_text(
            loads_config(MINIMAL + "\n[init]\nkind = tanh_stripe\nwidth = 0.5\n")
        )
        assert "width = 0.5" in text
        assert "seed" not in text

    def test_with_seed_replaces_spinodal_seed(self):
        cfg = loads_config(MINIMAL)
        assert with_seed(cfg, 99).init.seed == 99
        single = loads_config(MINIMAL + "\n[init]\nkind = single_mode\n")
        with pytest.raises(ConfigError, match="seed"):
            with_seed(single, 99)


class TestGenerateInitial:
    def test_tanh_stripe_mean_matches_analytic(self):
        # The profile integrates in closed form: int tanh((x-c)/w) dx
        # = w log cosh((x-c)/w), so the box mean of the stripe is
        # 2(w/L) [log cosh(3L/4w) - log cosh(L/4w)] - 1.
        cfg = loads_config(MINIMAL + "\n[init]\nkind = tanh_stripe\n")
        state = generate_initial(cfg)
        length = cfg.grid.box_len
        w = cfg.init.width
        analytic = (
            2.0
            * (w / length)
            * (np.log(np.cosh(3 * length / (4 * w))) - np.log(np.cosh(length / (4 * w))))
            - 1.0
        )
        assert abs(state.phi.values.mean() - analytic) <= 1e-6

    def test_tanh_stripe_shape(self):
        cfg = loads_config(MINIMAL_2D + "\n[init]\nkind = tanh_stripe\n")
        phi = generate_initial(cfg).phi.values
        assert phi.shape == (32, 32)
        # constant along the second axis; the plateaus sit at -1 and
        # 2 tanh(4) - 1 for the default width L/16
        assert np.ptp(phi, axis=1).max() == 0.0
        assert abs(phi[0, 0] + 1.0) < 1e-3
        assert abs(phi[16, 0] - (2.0 * np.tanh(4.0) - 1.0)) < 1e-12

    def test_tanh_stripe_unresolvable_width_rejected(self):
        cfg = loads_config(MINIMAL + "\n[init]\nkind = tanh_stripe\nwidth = 0.01\n")
        with pytest.raises(ConfigError, match="grid spacing"):
            generate_initial(cfg)

    def test_spinodal_deterministic_and_mean_targeted(self):
        cfg = loads_config(
            MINIMAL_2D + "\n[init]\nkind = spinodal\namplitude = 0.05\nseed = 42\nmean = 0.3\n"
        )
        a = generate_initial(cfg).phi.values
        b = generate_initial(cfg).phi.values
        assert np.array_equal(a, b)
        assert abs(a.mean() - 0.3) < 1e-14
        assert np.abs(a - 0.3).max() <= 2 * 0.05
        other = generate_initial(with_seed(cfg, 43)).phi.values
        assert not np.array_equal(a, other)

    def test_single_mode_excites_exactly_two_coefficients(self):
        cfg = loads_config(MINIMAL_2D + "\n[init]\nkind = single_mode\nk = 3\namplitude = 0.25\n")
        phi = generate_initial(cfg).phi
        coeffs = fftn(phi.values)
        big = np.abs(coeffs) > 1e-9 * np.abs(coeffs).max()
        assert big.sum() == 2
        assert sorted(idx[0] for idx in np.argwhere(big)) == [3, 32 - 3]
        assert abs(phi.values.max() - 0.25) < 1e-12

    def test_single_mode_wavenumber_bounds(self):
        cfg = loads_config(MINIMAL_2D + "\n[init]\nkind = single_mode\nk = 16\n")
        with pytest.raises(ConfigError, match=r"init\.k"):
            generate_initial(cfg)

    def test_from_file_round_trip_and_grid_check(self, tmp_path):
        grid = GridSpec(dim=2, n=32, box_len=2.0 * math.pi)
        rng = np.random.default_rng(3)
        f = Field(grid, rng.normal(size=grid.shape))
        path = tmp_path / "phi.bin"
        fieldio.write_field(path, f)
        cfg = loads_config(MINIMAL_2D + f"\n[init]\nkind = from_file\npath = {path}\n")
        assert np.array_equal(generate_initial(cfg).phi.values, f.values)
        mismatched = loads_config(
            MINIMAL.replace("n = 128", "n = 32") + f"\n[init]\nkind = from_file\npath = {path}\n"
        )
        with pytest.raises(ConfigError, match="does not match"):
            generate_initial(mismatched)

    def test_theta_constant_is_theta_bar(self):
        cfg = loads_config(MINIMAL + "\n[physics]\ntheta_bar = 2.5\n")
        theta = generate_initial(cfg).theta.values
        assert np.all(theta == 2.5)

    def test_theta_constant_plus_sine(self):
        cfg = loads_config(
            MINIMAL_2D + "\n[theta_init]\nkind = constant_plus_sine\na = 0.2\nk = 2\n"
        )
        theta = generate_initial(cfg).theta.values
        assert abs(theta.mean() - 1.0) < 1e-14
        assert abs(theta.max() - 1.2) < 1e-12
        assert abs(theta.min() - 0.8) < 1e-12

    def test_theta_sine_wavenumber_bounds(self):
        cfg = loads_config(MINIMAL_2D + "\n[theta_init]\nkind = constant_plus_sine\nk = 16\n")
        with pytest.raises(ConfigError, match=r"^theta_init\.k must lie in \[1, 15\], got 16$"):
            generate_initial(cfg)

    def test_theta_from_file_must_stay_positive(self, tmp_path):
        grid = GridSpec(dim=1, n=128, box_len=2.0 * math.pi)
        path = tmp_path / "theta.bin"
        fieldio.write_field(path, Field(grid, np.full(grid.shape, -1.0)))
        cfg = loads_config(MINIMAL + f"\n[theta_init]\nkind = from_file\npath = {path}\n")
        with pytest.raises(PositivityError):
            generate_initial(cfg)
