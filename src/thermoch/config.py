"""Run configuration: strict INI parsing, canonical form, initial data.

The on-disk format is flat `key = value` pairs under fixed section headers,
chosen over nested formats so experiment configs diff cleanly.  `_SCHEMA`
is the one statement of the sections, keys, types, defaults and the
`[init]`/`[theta_init]` kinds each key applies to; parsing, defaults,
validation and `canonical_text` all walk it.  Parsing is strict: unknown
sections or keys, malformed or non-finite values, and keys that do not apply
to the selected kind are all errors naming the offending field.  A missing
section means all defaults, except [picard], which is parsed only when its
header is present.

Every run applies the 2/3 rule to the step's nonlinear terms; there is no
key for it, so a config that sets one (such as [run] dealias) is rejected as
an unknown key.

A parsed config serializes back to one canonical text (the table's section
and key order, repr floats) and reparses to an equal value; configs are the
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
from .model_a2 import SimConfig
from .picard import PicardConfig
from .rng import Xoshiro256StarStar
from .thermo import MODELS, ModelParams, ThermoState

_REQUIRED = object()  # a default that marks the key as required

# (section, key, type, default, kinds).  type is int, float, str, or the tuple
# of allowed strings; default is _REQUIRED, None for an optional key, a value,
# or a callable of the GridSpec; kinds lists the section's `kind`s the key
# applies to (None: every kind).  Row order is the canonical text's order.
_SCHEMA = (
    ("grid", "dim", int, _REQUIRED, None),
    ("grid", "n", int, _REQUIRED, None),
    ("grid", "box_len", float, 2.0 * math.pi, None),
    ("physics", "eps", float, 1.0, None),
    ("physics", "theta_bar", float, 1.0, None),
    ("physics", "alpha", float, 1.0, None),
    ("physics", "kappa", float, 1.0, None),
    ("physics", "k_b", float, 1.0, None),
    ("physics", "reg_delta", float, 1e-2, None),
    ("run", "model", MODELS, _REQUIRED, None),
    ("run", "dt", float, 1e-3, None),
    ("run", "t_end", float, 0.1, None),
    ("run", "output_every", int, 10, None),
    ("run", "output_dir", str, "out", None),
    ("run", "eps0", float, 0.5, None),
    ("init", "kind", ("tanh_stripe", "spinodal", "single_mode", "from_file"), "spinodal", None),
    ("init", "width", float, lambda grid: grid.box_len / 16.0, ("tanh_stripe",)),
    ("init", "k", int, 1, ("single_mode",)),
    ("init", "amplitude", float, 0.01, ("spinodal", "single_mode")),
    ("init", "seed", int, 1, ("spinodal",)),
    ("init", "mean", float, 0.0, ("spinodal",)),
    ("init", "path", str, _REQUIRED, ("from_file",)),
    ("theta_init", "kind", ("constant", "constant_plus_sine", "from_file"), "constant", None),
    ("theta_init", "a", float, 0.1, ("constant_plus_sine",)),
    ("theta_init", "k", int, 1, ("constant_plus_sine",)),
    ("theta_init", "path", str, _REQUIRED, ("from_file",)),
    ("picard", "chi", float, _REQUIRED, None),
    ("picard", "t_end", float, _REQUIRED, None),
    ("picard", "n_iter", int, 8, None),
    ("picard", "tol", float, 1e-10, None),
    ("picard", "dt", float, None, None),
)
_SECTIONS = tuple(dict.fromkeys(row[0] for row in _SCHEMA))


class ConfigError(ValueError):
    """Config parsing or validation failure; the message names the field."""


@dataclass(frozen=True)
class InitSpec:
    """How the initial phase field is produced; keys outside kind are None."""

    kind: str
    width: float | None = None
    amplitude: float | None = None
    seed: int | None = None
    mean: float | None = None
    k: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ConfigError(f"init.seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class ThetaInitSpec:
    """How the initial temperature field is produced; keys outside kind are None."""

    kind: str
    a: float | None = None
    k: int | None = None
    path: str | None = None


@dataclass(frozen=True, kw_only=True)
class RunConfig(SimConfig):
    """Everything one run needs: the SimConfig that simulate marches (grid,
    physics, clock) plus the run's data and outputs.

    SimConfig states the [run] clock rules, so every subcommand rejects at
    load a clock that simulate would.  The run's model ([run] model) and
    [physics] reg_delta live in params.
    """

    output_dir: str
    init: InitSpec
    theta_init: ThetaInitSpec
    eps0: float
    picard: PicardConfig | None = None

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.eps0 < 1.0:
            raise ConfigError("run.eps0 must lie in (0, 1)")


# --------------------------------------------------------------------------
# parsing


def _value(section: str, key: str, raw: str, typ):
    if isinstance(typ, tuple):
        if raw not in typ:
            raise ConfigError(f"{section}.{key} must be one of {typ}, got {raw!r}")
        return raw
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigError(
            f"{section}.{key}: cannot parse {raw!r} as {typ.__name__}"
        ) from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
    return value


def _section(parser: configparser.ConfigParser, name: str, grid: GridSpec | None = None) -> dict:
    """The typed keys of one section, with defaults filled in from _SCHEMA."""
    rows = [row for row in _SCHEMA if row[0] == name]
    raw = dict(parser.items(name)) if parser.has_section(name) else {}
    keys = [row[1] for row in rows]
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in [{name}]")
    values = {}
    for _, key, typ, default, kinds in rows:
        if kinds is not None and values["kind"] not in kinds:
            if key in raw:
                raise ConfigError(f"{name}.{key} does not apply to {name}.kind = {values['kind']}")
        elif key in raw:
            values[key] = _value(name, key, raw[key], typ)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {name}.{key}")
        else:
            values[key] = default(grid) if callable(default) else default
    return values


def _build(name: str, cls, **values):
    """cls(**values), with a plain ValueError reported under the section name."""
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def loads_config(text: str) -> RunConfig:
    """Parse config text; _SCHEMA states the sections, keys and defaults."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    if parser.defaults():  # configparser would copy its keys into every section
        raise ConfigError(f"unknown section [{parser.default_section}]")
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")

    grid = _build("grid", GridSpec, **_section(parser, "grid"))
    run = _section(parser, "run")
    params = _build("physics", ModelParams, model=run.pop("model"), **_section(parser, "physics"))
    picard = None
    if parser.has_section("picard"):
        picard = _build("picard", PicardConfig, **_section(parser, "picard"))
    return _build(
        "run",
        RunConfig,
        grid=grid,
        params=params,
        init=InitSpec(**_section(parser, "init", grid)),
        theta_init=ThetaInitSpec(**_section(parser, "theta_init")),
        picard=picard,
        **run,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {path} (byte {exc.start})") from None
    return loads_config(text)


# --------------------------------------------------------------------------
# canonical serialization


def canonical_text(cfg: RunConfig) -> str:
    """The unique text form: _SCHEMA's section and key order, repr floats;
    keys outside the section's kind and unset optional keys are left out."""
    owners = {
        "grid": cfg.grid,
        "physics": cfg.params,
        "run": cfg,
        "init": cfg.init,
        "theta_init": cfg.theta_init,
        "picard": cfg.picard,
    }
    lines, current = [], None
    for section, key, typ, _, kinds in _SCHEMA:
        owner = owners[section]
        if owner is None or (kinds is not None and owner.kind not in kinds):
            continue
        value = getattr(cfg.params if key == "model" else owner, key)  # as loads_config puts it
        if value is None:
            continue
        if section != current:
            lines += ["", f"[{section}]"] if lines else [f"[{section}]"]
            current = section
        lines.append(f"{key} = {float(value)!r}" if typ is float else f"{key} = {value}")
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
