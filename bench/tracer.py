"""Span tracer for the benchmark's traced runs, and the per-layer metrics.

Run as a script, it wraps the public functions of the thermoch modules and
the ``scipy.fft`` transforms that ``thermoch.grid`` calls, runs
``thermoch.cli.main`` in-process on the remaining arguments, and writes the
recorded spans to a JSON file once the CLI returns:

    python bench/tracer.py SPANS.json simulate --config run.ini --output out

The exit code is the CLI's.  ``layer_metrics`` turns the spans into the
per-layer metrics documented in bench/README.md.

A span is ``[name, parent, start, end, amount]``: ``parent`` indexes the
enclosing span (-1 for none), times come from ``time.perf_counter`` and
``amount`` is a byte or item count for the spans that carry one.  Spans are
appended when they start, so a parent always precedes its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import pkgutil
import sys
import time

import numpy as np


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _fft_bytes(args, kwargs, result):
    """Computed bytes: the input array plus the output array."""
    return np.asarray(args[0]).nbytes + result.nbytes


def _retained_bytes(args, kwargs, result):
    """Computed bytes of every field array the returned trajectory keeps."""
    total = 0
    for state in getattr(result, "states", ()):
        for part in vars(state).values():
            values = getattr(part, "values", None)
            if isinstance(values, np.ndarray):
                total += values.nbytes
    return total


def _item_count(args, kwargs, result):
    return result.size


# (module, attribute, span name, amount function).  An attribute a later
# version of the program no longer has is skipped, and its metrics read 0.
TARGETS = [
    ("grid", "Field.__post_init__", "grid.field", None),
    ("thermo", "bulk_potential", "thermo.bulk_potential", None),
    ("thermo", "_bracket_b", "thermo._bracket_b", None),
    ("thermo", "chemical_potential", "thermo.chemical_potential", None),
    ("thermo", "entropy_density", "thermo.entropy_density", None),
    ("thermo", "entropy_production", "thermo.entropy_production", None),
    ("thermo", "total_energy", "thermo.total_energy", None),
    ("model_a2", "imex_step", "model_a2.imex_step", None),
    ("model_a2", "rhs_f1", "model_a2.rhs_f1", None),
    ("model_a2", "rhs_f2", "model_a2.rhs_f2", None),
    ("model_a2", "march", "model_a2.march", _retained_bytes),
    ("model_a1", "a1_step", "model_a1.a1_step", None),
    ("model_a1", "a1_coupling_flux", "model_a1.a1_coupling_flux", None),
    ("model_a1", "a1_velocity", "model_a1.a1_velocity", None),
    ("diagnostics", "audit", "diagnostics.audit", None),
    ("fieldio", "write_field", "fieldio.write_field", _file_size),
    ("fieldio", "write_plot", "fieldio.write_plot", None),
    ("fieldio", "read_field", "fieldio.read_field", _file_size),
    ("config", "load_config", "config.load_config", None),
    ("config", "generate_initial", "config.generate_initial", None),
    ("rng", "Xoshiro256StarStar.uniform_symmetric", "rng.uniform_symmetric", _item_count),
    ("besov", "chemin_lerner_norm", "besov.chemin_lerner_norm", None),
    ("besov", "chemin_lerner_norm_vector", "besov.chemin_lerner_norm_vector", None),
    ("besov", "check_smallness", "besov.check_smallness", None),
    ("besov", "build_partition", "besov.build_partition", None),
    ("picard", "k_norm", "picard.k_norm", None),
    ("picard", "linear_phi_solve", "picard.linear_phi_solve", None),
    ("picard", "linear_theta_solve", "picard.linear_theta_solve", None),
    ("picard", "free_evolution", "picard.free_evolution", None),
    ("picard", "picard_iterate", "picard.picard_iterate", None),
]

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)

THERMO_KERNELS = (
    "bulk_potential",
    "_bracket_b",
    "chemical_potential",
    "entropy_density",
    "entropy_production",
    "total_energy",
)


class Tracer:
    """Records spans in memory around every wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, amount=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, 0.0, 0.0, 0]
            open_.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            if amount is not None:
                span[4] = int(amount(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every target in every thermoch namespace that bound it.

        A name imported with ``from .x import f`` is a separate binding in
        each importer, so bindings are found by identity; methods are
        wrapped once on their class.
        """
        import scipy.fft

        import thermoch

        modules = {
            info.name: importlib.import_module(f"thermoch.{info.name}")
            for info in pkgutil.iter_modules(thermoch.__path__)
        }
        namespaces = list(modules.values())
        for module, attribute, name, amount in TARGETS:
            holder = modules.get(module)
            *owners, leaf = attribute.split(".")
            for owner in owners:
                holder = getattr(holder, owner, None)
            original = getattr(holder, leaf, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original, amount)
            if owners:
                setattr(holder, leaf, wrapped)
            else:
                _rebind(namespaces, original, wrapped)
        for leaf in FFT_NAMES:
            original = getattr(scipy.fft, leaf)
            wrapped = self.wrap("grid.fft", original, _fft_bytes)
            _rebind(namespaces + [scipy.fft], original, wrapped)


def _rebind(namespaces, original, wrapped):
    for namespace in namespaces:
        for key, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, key, wrapped)


def _percentile_ms(durations, q):
    """Nearest-rank percentile of durations in seconds, in milliseconds."""
    if not durations:
        return 0.0
    ranked = sorted(durations)
    return 1e3 * ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    Self time is a span's duration minus the durations of its direct
    children.  "Per step" divides by the outermost time steps of the run
    (``a1_step`` when the run has any, else ``imex_step``); the FFT and
    Field counts per step count only calls made inside those steps.
    """
    count = len(spans)
    duration = [end - start for _, _, start, end, _ in spans]
    children = [0.0] * count
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]] += duration[i]
    names = {span[0] for span in spans}
    step_name = "model_a1.a1_step" if "model_a1.a1_step" in names else "model_a2.imex_step"

    # Flags inherited from the enclosing spans.
    in_step = [False] * count
    in_audit = [False] * count
    in_imex = [False] * count
    in_picard = [False] * count
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    amount: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    steps = step_ffts = step_fft_bytes = step_fields = audit_ffts = 0
    picard_rhs_s = 0.0
    for i, (name, parent, _, _, qty) in enumerate(spans):
        up = parent if parent >= 0 else None
        in_step[i] = (up is not None and in_step[up]) or name == step_name
        in_audit[i] = (up is not None and in_audit[up]) or name == "diagnostics.audit"
        in_imex[i] = (up is not None and in_imex[up]) or name == "model_a2.imex_step"
        in_picard[i] = (up is not None and in_picard[up]) or name == "picard.picard_iterate"
        own = duration[i] - children[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        amount[name] = amount.get(name, 0) + qty
        durations.setdefault(name, []).append(duration[i])
        if name == step_name and not (up is not None and in_step[up]):
            steps += 1
        if name == "grid.fft":
            if in_step[i]:
                step_ffts += 1
                step_fft_bytes += qty
            if in_audit[i]:
                audit_ffts += 1
        if name == "grid.field" and in_step[i]:
            step_fields += 1
        if name in ("model_a2.rhs_f1", "model_a2.rhs_f2") and in_picard[i] and not in_imex[i]:
            picard_rhs_s += own

    per_step = 1.0 / max(steps, 1)
    total_s = sum(duration[i] for i, span in enumerate(spans) if span[0] == "cli.main")
    audits = calls.get("diagnostics.audit", 0)

    def n(name):
        return calls.get(name, 0)

    def own(name):
        return self_s.get(name, 0.0)

    m: dict[str, tuple[float, str]] = {
        "grid.fft.calls_per_step": (step_ffts * per_step, "count"),
        "grid.fft.calls": (n("grid.fft"), "count"),
        "grid.fft.bytes_per_step": (step_fft_bytes * per_step, "B"),
        "grid.fft.self_s": (own("grid.fft"), "s"),
        "grid.field.constructions_per_step": (step_fields * per_step, "count"),
        "grid.field.self_s": (own("grid.field"), "s"),
    }
    for kernel in THERMO_KERNELS:
        m[f"thermo.{kernel}.calls_per_step"] = (n(f"thermo.{kernel}") * per_step, "count")
        m[f"thermo.{kernel}.self_s"] = (own(f"thermo.{kernel}"), "s")
    for step in ("model_a2.imex_step", "model_a1.a1_step"):
        m[f"{step}.calls"] = (n(step), "count")
        m[f"{step}.ms_p50"] = (_percentile_ms(durations.get(step, []), 0.50), "ms")
        m[f"{step}.ms_p99"] = (_percentile_ms(durations.get(step, []), 0.99), "ms")
    m.update(
        {
            "model_a2.imex_step.self_s": (own("model_a2.imex_step"), "s"),
            "model_a2.rhs_f1.self_s": (own("model_a2.rhs_f1"), "s"),
            "model_a2.rhs_f2.self_s": (own("model_a2.rhs_f2"), "s"),
            "model_a2.march.retained_bytes": (amount.get("model_a2.march", 0), "B"),
            "model_a1.a1_coupling_flux.self_s": (own("model_a1.a1_coupling_flux"), "s"),
            "model_a1.a1_velocity.self_s": (own("model_a1.a1_velocity"), "s"),
            "diagnostics.audit.calls": (audits, "count"),
            "diagnostics.audit.ms_p50": (_percentile_ms(durations.get("diagnostics.audit", []), 0.50), "ms"),
            "diagnostics.audit.ms_p99": (_percentile_ms(durations.get("diagnostics.audit", []), 0.99), "ms"),
            "diagnostics.audit.share": (
                sum(durations.get("diagnostics.audit", [])) / total_s if total_s else 0.0,
                "ratio",
            ),
            "diagnostics.audit.fft_calls_per_audit": (audit_ffts / max(audits, 1), "count"),
            "fieldio.write_field.calls": (n("fieldio.write_field"), "count"),
            "fieldio.write_field.bytes": (amount.get("fieldio.write_field", 0), "B"),
            "fieldio.write_field.self_s": (own("fieldio.write_field"), "s"),
            "fieldio.write_plot.self_s": (own("fieldio.write_plot"), "s"),
            "fieldio.read_field.bytes": (amount.get("fieldio.read_field", 0), "B"),
            "fieldio.read_field.self_s": (own("fieldio.read_field"), "s"),
            "config.load_config.self_s": (own("config.load_config"), "s"),
            "config.generate_initial.self_s": (own("config.generate_initial"), "s"),
            "rng.uniform_symmetric.values": (amount.get("rng.uniform_symmetric", 0), "count"),
            "rng.uniform_symmetric.self_s": (own("rng.uniform_symmetric"), "s"),
        }
    )
    for name in ("chemin_lerner_norm", "chemin_lerner_norm_vector"):
        m[f"besov.{name}.calls"] = (n(f"besov.{name}"), "count")
        m[f"besov.{name}.self_s"] = (own(f"besov.{name}"), "s")
    for name in ("check_smallness", "build_partition"):
        m[f"besov.{name}.self_s"] = (own(f"besov.{name}"), "s")
    m["picard.k_norm.calls"] = (n("picard.k_norm"), "count")
    for name in ("k_norm", "linear_phi_solve", "linear_theta_solve", "free_evolution"):
        m[f"picard.{name}.self_s"] = (own(f"picard.{name}"), "s")
    m["picard.rhs.self_s"] = (picard_rhs_s, "s")
    return m


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from thermoch import cli

    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
