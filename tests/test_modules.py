"""Every name a ``bayesdn`` module exports must exist.

The per-layer tracer wraps the functions named in each module's
``__all__`` and passes over a name that does not resolve, so a stale
entry would drop a traced function without any error.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import bayesdn

MODULES = [m.name for m in pkgutil.iter_modules(bayesdn.__path__)]


def test_modules_found():
    assert {"gibbs", "wishart", "harness", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bayesdn.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats would be half the CLI's import time, and no module needs it
    src = os.path.dirname(os.path.dirname(bayesdn.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import bayesdn.cli; print(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert "'scipy.stats'" not in proc.stdout
