"""The package's public surface: every name a module exports exists."""

import importlib
import pkgutil

import thermoch


def test_every_name_in_all_exists():
    exported = {}
    for info in pkgutil.iter_modules(thermoch.__path__):
        module = importlib.import_module(f"thermoch.{info.name}")
        for attr in getattr(module, "__all__", ()):
            exported[f"{info.name}.{attr}"] = hasattr(module, attr)
    missing = [name for name, found in exported.items() if not found]
    assert exported and not missing, missing
