"""The package imports, every module's export list names something that
exists, and every cache it keeps has a bound."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import powerlap

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(powerlap.__path__) if m.name != "__main__")


def test_package_imports_in_a_fresh_interpreter():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import powerlap; print(powerlap.__version__)"],
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == powerlap.__version__


def test_every_module_is_listed():
    assert {"groups", "graphs", "linalg", "spectra", "pgroup", "verify", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"powerlap.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"powerlap.{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"powerlap.{name}.__all__ names missing attributes: {missing}"


def test_every_cache_has_a_bound():
    # an unbounded cache keyed by its arguments grows with every distinct
    # call; one that takes no arguments holds a single entry
    caches = {}
    for name in MODULES:
        for value in vars(importlib.import_module(f"powerlap.{name}")).values():
            if hasattr(value, "cache_parameters"):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    assert "powerlap.spectra._leaf_spectrum" in caches
    unbounded = [key for key, cache in caches.items()
                 if cache.cache_parameters()["maxsize"] is None
                 and inspect.signature(cache.__wrapped__).parameters]
    assert not unbounded, f"caches with no maxsize: {unbounded}"
