"""Every name a ``bayesdn`` module exports must exist and be used.

The per-layer tracer wraps the functions named in each module's
``__all__`` and passes over a name that does not resolve, so a stale
entry would drop a traced function without any error.  The public
surface is what the package, the demos and the ``tools/`` scripts use, so
an exported name that none of them references is dead code.
"""

import ast
import glob
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import bayesdn

MODULES = [m.name for m in pkgutil.iter_modules(bayesdn.__path__)]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def referenced_names() -> set[str]:
    """Every name the package, the demos and the tools refer to in code.

    A reference is a ``Name``, an ``Attribute`` or an import alias, so
    strings, docstrings and ``__all__`` itself do not count.
    """
    names = set()
    for pattern in ("src/bayesdn/*.py", "demos/*.py", "tools/*.py"):
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(part for part in (node.name, node.asname) if part)
    return names


def test_modules_found():
    assert {"gibbs", "wishart", "harness", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bayesdn.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_exported_name_is_used():
    used = referenced_names()
    unused = [
        f"{name}.{n}"
        for name in MODULES
        for n in getattr(importlib.import_module(f"bayesdn.{name}"), "__all__", ())
        if n not in used
    ]
    assert unused == []


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats would be half the CLI's import time, and no module needs it
    src = os.path.dirname(os.path.dirname(bayesdn.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import bayesdn.cli; print(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert "'scipy.stats'" not in proc.stdout
