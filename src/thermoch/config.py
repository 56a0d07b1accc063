"""Run configuration: strict INI parsing, canonical form, initial data.

The on-disk format is flat `key = value` pairs under fixed section headers,
chosen over nested formats so experiment configs diff cleanly.  Parsing is
strict: unknown sections or keys, malformed values, and keys that do not
apply to the selected variant are all errors naming the offending field.

Sections, keys and defaults (a missing section means all defaults):

  [grid]        dim (required), n (required), box_len = 6.283185307179586
  [physics]     eps = 1.0, theta_bar = 1.0, alpha = 1.0, kappa = 1.0,
                k_b = 1.0, reg_delta = 0.01
  [run]         model (required: a2 | a1 | isothermal), dt = 0.001,
                t_end = 0.1, output_every = 10, output_dir = out,
                eps0 = 0.5
  [init]        kind = spinodal (tanh_stripe | spinodal | single_mode |
                from_file); tanh_stripe: width = box_len/16;
                spinodal: amplitude = 0.01, seed = 1, mean = 0.0;
                single_mode: k = 1, amplitude = 0.01; from_file: path
  [theta_init]  kind = constant (constant | constant_plus_sine | from_file);
                constant_plus_sine: a = 0.1, k = 1; from_file: path
  [picard]      optional; chi (required), t_end (required), n_iter = 8,
                tol = 1e-10, dt (optional)

Every run applies the 2/3 rule to the step's nonlinear terms; there is no
key for it, so a config that sets one (such as [run] dealias) is rejected as
an unknown key.

A parsed config serializes back to one canonical text (fixed section and
key order, repr floats) and reparses to an equal value; configs are the
reproducibility record, so this round trip is load-bearing.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fieldio
from .grid import Field, GridSpec
from .picard import PicardConfig
from .rng import Xoshiro256StarStar
from .thermo import MODELS, ModelParams, ThermoState

INIT_KINDS = ("tanh_stripe", "spinodal", "single_mode", "from_file")
THETA_KINDS = ("constant", "constant_plus_sine", "from_file")

_SCHEMA = {
    "grid": ("dim", "n", "box_len"),
    "physics": ("eps", "theta_bar", "alpha", "kappa", "k_b", "reg_delta"),
    "run": ("model", "dt", "t_end", "output_every", "output_dir", "eps0"),
    "init": ("kind", "width", "amplitude", "seed", "mean", "k", "path"),
    "theta_init": ("kind", "a", "k", "path"),
    "picard": ("chi", "t_end", "n_iter", "tol", "dt"),
}

_INIT_KEYS_BY_KIND = {
    "tanh_stripe": ("width",),
    "spinodal": ("amplitude", "seed", "mean"),
    "single_mode": ("k", "amplitude"),
    "from_file": ("path",),
}

_THETA_KEYS_BY_KIND = {
    "constant": (),
    "constant_plus_sine": ("a", "k"),
    "from_file": ("path",),
}


class ConfigError(ValueError):
    """Config parsing or validation failure; the message names the field."""


@dataclass(frozen=True)
class InitSpec:
    """How the initial phase field is produced."""

    kind: str
    width: float | None = None
    amplitude: float | None = None
    seed: int | None = None
    mean: float | None = None
    k: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ConfigError(f"init.kind must be one of {INIT_KINDS}, got {self.kind!r}")
        wanted = _INIT_KEYS_BY_KIND[self.kind]
        for key in ("width", "amplitude", "seed", "mean", "k", "path"):
            value = getattr(self, key)
            if value is not None and key not in wanted:
                raise ConfigError(f"init.{key} does not apply to init.kind = {self.kind}")
            if value is None and key in wanted:
                raise ConfigError(f"init.{key} is required for init.kind = {self.kind}")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ConfigError(f"init.seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class ThetaInitSpec:
    """How the initial temperature field is produced."""

    kind: str
    a: float | None = None
    k: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in THETA_KINDS:
            raise ConfigError(
                f"theta_init.kind must be one of {THETA_KINDS}, got {self.kind!r}"
            )
        wanted = _THETA_KEYS_BY_KIND[self.kind]
        for key in ("a", "k", "path"):
            value = getattr(self, key)
            if value is not None and key not in wanted:
                raise ConfigError(f"theta_init.{key} does not apply to kind = {self.kind}")
            if value is None and key in wanted:
                raise ConfigError(f"theta_init.{key} is required for kind = {self.kind}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: grid, physics, marching, data, outputs.

    The run's model ([run] model) and [physics] reg_delta live in params.
    """

    grid: GridSpec
    params: ModelParams
    dt: float
    t_end: float
    output_every: int
    output_dir: str
    init: InitSpec
    theta_init: ThetaInitSpec
    eps0: float
    picard: PicardConfig | None = None

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ConfigError("run.dt must be positive")
        if self.t_end <= 0.0:
            raise ConfigError("run.t_end must be positive")
        if self.output_every < 1:
            raise ConfigError("run.output_every must be a positive integer")
        if not 0.0 < self.eps0 < 1.0:
            raise ConfigError("run.eps0 must lie in (0, 1)")


# --------------------------------------------------------------------------
# parsing


def _typed(section: str, key: str, raw: str, kind: type):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"{section}.{key}: cannot parse {raw!r} as {kind.__name__}"
        ) from None


class _Section:
    """One validated section; tracks key types and presence."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.raw = dict(parser.items(name)) if parser.has_section(name) else {}
        for key in self.raw:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]")

    def get(self, key: str, kind: type, default=None, required: bool = False):
        if key not in self.raw:
            if required:
                raise ConfigError(f"missing required key {self.name}.{key}")
            return default
        return _typed(self.name, key, self.raw[key], kind)


def loads_config(text: str) -> RunConfig:
    """Parse config text; see the module docstring for the schema."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")

    grid_sec = _Section(parser, "grid")
    physics = _Section(parser, "physics")
    run = _Section(parser, "run")
    init_sec = _Section(parser, "init")
    theta_sec = _Section(parser, "theta_init")
    picard_sec = _Section(parser, "picard")

    try:
        grid = GridSpec(
            dim=grid_sec.get("dim", int, required=True),
            n=grid_sec.get("n", int, required=True),
            box_len=grid_sec.get("box_len", float, default=2.0 * math.pi),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"grid: {exc}") from None

    model = run.get("model", str, required=True)
    if model not in MODELS:
        raise ConfigError(f"run.model must be one of {MODELS}, got {model!r}")
    try:
        params = ModelParams(
            eps=physics.get("eps", float, 1.0),
            theta_bar=physics.get("theta_bar", float, 1.0),
            alpha=physics.get("alpha", float, 1.0),
            kappa=physics.get("kappa", float, 1.0),
            k_b=physics.get("k_b", float, 1.0),
            model=model,
            reg_delta=physics.get("reg_delta", float, 1e-2),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"physics: {exc}") from None

    kind = init_sec.get("kind", str, "spinodal")
    defaults = {
        "tanh_stripe": {"width": grid.box_len / 16.0},
        "spinodal": {"amplitude": 0.01, "seed": 1, "mean": 0.0},
        "single_mode": {"k": 1, "amplitude": 0.01},
    }.get(kind, {})
    init = InitSpec(
        kind=kind,
        width=init_sec.get("width", float, defaults.get("width")),
        amplitude=init_sec.get("amplitude", float, defaults.get("amplitude")),
        seed=init_sec.get("seed", int, defaults.get("seed")),
        mean=init_sec.get("mean", float, defaults.get("mean")),
        k=init_sec.get("k", int, defaults.get("k")),
        path=init_sec.get("path", str, None, required=(kind == "from_file")),
    )

    theta_kind = theta_sec.get("kind", str, "constant")
    theta_defaults = {"constant_plus_sine": {"a": 0.1, "k": 1}}.get(theta_kind, {})
    theta_init = ThetaInitSpec(
        kind=theta_kind,
        a=theta_sec.get("a", float, theta_defaults.get("a")),
        k=theta_sec.get("k", int, theta_defaults.get("k")),
        path=theta_sec.get("path", str, None, required=(theta_kind == "from_file")),
    )

    picard = None
    if picard_sec.raw:
        try:
            picard = PicardConfig(
                chi=picard_sec.get("chi", float, required=True),
                t_end=picard_sec.get("t_end", float, required=True),
                n_iter=picard_sec.get("n_iter", int, 8),
                tol=picard_sec.get("tol", float, 1e-10),
                dt=picard_sec.get("dt", float, None),
            )
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"picard: {exc}") from None

    return RunConfig(
        grid=grid,
        params=params,
        dt=run.get("dt", float, 1e-3),
        t_end=run.get("t_end", float, 0.1),
        output_every=run.get("output_every", int, 10),
        output_dir=run.get("output_dir", str, "out"),
        init=init,
        theta_init=theta_init,
        eps0=run.get("eps0", float, 0.5),
        picard=picard,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return loads_config(path.read_text())


# --------------------------------------------------------------------------
# canonical serialization


def _kv(key: str, value) -> str:
    if isinstance(value, float):
        return f"{key} = {value!r}"
    return f"{key} = {value}"


def canonical_text(cfg: RunConfig) -> str:
    """The unique text form: fixed section and key order, repr floats."""
    p = cfg.params
    lines = [
        "[grid]",
        _kv("dim", cfg.grid.dim),
        _kv("n", cfg.grid.n),
        _kv("box_len", float(cfg.grid.box_len)),
        "",
        "[physics]",
        _kv("eps", p.eps),
        _kv("theta_bar", p.theta_bar),
        _kv("alpha", p.alpha),
        _kv("kappa", p.kappa),
        _kv("k_b", p.k_b),
        _kv("reg_delta", p.reg_delta),
        "",
        "[run]",
        _kv("model", p.model),
        _kv("dt", cfg.dt),
        _kv("t_end", cfg.t_end),
        _kv("output_every", cfg.output_every),
        _kv("output_dir", cfg.output_dir),
        _kv("eps0", cfg.eps0),
        "",
        "[init]",
        _kv("kind", cfg.init.kind),
    ]
    for key in _INIT_KEYS_BY_KIND[cfg.init.kind]:
        lines.append(_kv(key, getattr(cfg.init, key)))
    lines += ["", "[theta_init]", _kv("kind", cfg.theta_init.kind)]
    for key in _THETA_KEYS_BY_KIND[cfg.theta_init.kind]:
        lines.append(_kv(key, getattr(cfg.theta_init, key)))
    if cfg.picard is not None:
        lines += [
            "",
            "[picard]",
            _kv("chi", cfg.picard.chi),
            _kv("t_end", cfg.picard.t_end),
            _kv("n_iter", cfg.picard.n_iter),
            _kv("tol", cfg.picard.tol),
        ]
        if cfg.picard.dt is not None:
            lines.append(_kv("dt", cfg.picard.dt))
    return "\n".join(lines) + "\n"


def with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    """Copy of cfg with the initial-noise seed replaced (spinodal only)."""
    if cfg.init.kind != "spinodal":
        raise ConfigError(f"--seed only applies to spinodal initial data, not {cfg.init.kind}")
    return replace(cfg, init=replace(cfg.init, seed=seed))


# --------------------------------------------------------------------------
# initial data


def _phase_initial(cfg: RunConfig) -> np.ndarray:
    grid, spec = cfg.grid, cfg.init
    length = grid.box_len
    x = grid.axes[0]
    if spec.kind == "tanh_stripe":
        if spec.width < 2.0 * grid.h:
            raise ConfigError(
                f"init.width = {spec.width} is below twice the grid spacing "
                f"{grid.h}; the interface cannot be resolved"
            )
        profile = (
            np.tanh((x - length / 4.0) / spec.width)
            - np.tanh((x - 3.0 * length / 4.0) / spec.width)
            - 1.0
        )
        return np.broadcast_to(profile, grid.shape).copy()
    if spec.kind == "spinodal":
        noise = Xoshiro256StarStar(spec.seed).uniform_symmetric(spec.amplitude, grid.shape)
        return noise - noise.mean() + spec.mean
    if spec.kind == "single_mode":
        if not 1 <= spec.k <= grid.n // 2 - 1:
            raise ConfigError(f"init.k must lie in [1, {grid.n // 2 - 1}], got {spec.k}")
        profile = spec.amplitude * np.cos(2.0 * np.pi * spec.k * x / length)
        return np.broadcast_to(profile, grid.shape).copy()
    return _load_field(spec.path, grid).values


def _theta_initial(cfg: RunConfig) -> np.ndarray:
    grid, spec = cfg.grid, cfg.theta_init
    theta_bar = cfg.params.theta_bar
    if spec.kind == "constant":
        return np.full(grid.shape, theta_bar)
    if spec.kind == "constant_plus_sine":
        if not 1 <= spec.k <= grid.n // 2 - 1:
            raise ConfigError(f"theta_init.k must lie in [1, {grid.n // 2 - 1}], got {spec.k}")
        profile = theta_bar + spec.a * np.sin(
            2.0 * np.pi * spec.k * grid.axes[0] / grid.box_len
        )
        return np.broadcast_to(profile, grid.shape).copy()
    return _load_field(spec.path, grid).values


def _load_field(path: str, grid: GridSpec) -> Field:
    f = fieldio.read_field(path)
    if f.grid != grid:
        raise ConfigError(
            f"{path}: field grid (dim={f.grid.dim}, n={f.grid.n}, "
            f"box_len={f.grid.box_len}) does not match the config grid "
            f"(dim={grid.dim}, n={grid.n}, box_len={grid.box_len})"
        )
    return f


def generate_initial(cfg: RunConfig) -> ThermoState:
    """Initial state from the config; deterministic given the seed."""
    grid = cfg.grid
    return ThermoState(
        Field(grid, _phase_initial(cfg)),
        Field(grid, _theta_initial(cfg)),
    )
