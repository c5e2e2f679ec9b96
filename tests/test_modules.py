"""A ``bayesdn`` module exports exactly what the rest of the code imports from it.

The public surface is what the other modules, the demos and the
``tools/`` scripts use, so each name in a module's ``__all__`` must be
imported by one of them; a module's own references do not count.  The
probes that ``tools/sweep_timing.py`` runs in a child interpreter are
string constants, so every string that parses as Python is read as code
too.  Conversely, every name those files import from a ``bayesdn`` module
must be in its ``__all__``.

The per-layer tracer (``perfbench/tracer.py``) wraps the names in each
module's ``__all__`` that are plain Python functions: it passes over a
name that does not resolve, so a stale entry would drop a traced function
without any error, and over any other object, such as the
``functools.lru_cache`` wrapper ``linalg.upper_indices``, whose calls are
then charged to its callers.
It also reads three functions by name that no other module imports; they
stay exported for as long as the tracer names them.
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
SOURCES = ("src/bayesdn/*.py", "demos/*.py", "tools/*.py")
# read by name in perfbench/tracer.py, which wraps the plain functions __all__ lists
TRACED = ("gibbs.update_column", "gibbs.update_hyperparameters", "ista.ista_solve")


def _trees(path: str) -> list[ast.AST]:
    """The file's syntax tree and that of each of its strings that parses as Python."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    trees = [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                trees.append(ast.parse(node.value))
            except (SyntaxError, ValueError):
                pass  # prose
    return trees


def imported_names() -> set[tuple[str, str]]:
    """(module, name) for every name the package, the demos and the tools import from a module.

    ``from .gibbs import x`` inside the package and ``from bayesdn.gibbs
    import x`` outside it both give ``("gibbs", "x")``.
    """
    found = set()
    for pattern in SOURCES:
        for path in glob.glob(os.path.join(ROOT, pattern)):
            for tree in _trees(path):
                for node in ast.walk(tree):
                    if not isinstance(node, ast.ImportFrom) or node.module is None:
                        continue
                    if node.level:
                        module = node.module
                    elif node.module.startswith("bayesdn."):
                        module = node.module.removeprefix("bayesdn.")
                    else:
                        continue
                    found.update((module, alias.name) for alias in node.names)
    return found


def exported_names() -> set[tuple[str, str]]:
    return {
        (name, n)
        for name in MODULES
        for n in getattr(importlib.import_module(f"bayesdn.{name}"), "__all__", ())
    }


def test_modules_found():
    assert {"gibbs", "wishart", "harness", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bayesdn.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_exported_name_is_used():
    used = imported_names()
    unused = sorted(
        f"{module}.{n}"
        for module, n in exported_names()
        if (module, n) not in used and f"{module}.{n}" not in TRACED
    )
    assert unused == []


def test_every_imported_name_is_exported():
    exported = exported_names()
    missing = sorted(f"{module}.{n}" for module, n in imported_names() if (module, n) not in exported)
    assert missing == []


@pytest.mark.parametrize("qual", TRACED)
def test_traced_exception_is_still_traced(qual):
    # the exception lapses once the tracer stops naming the function
    with open(os.path.join(ROOT, "perfbench", "tracer.py"), encoding="utf-8") as fh:
        assert f'"{qual}"' in fh.read()
    assert tuple(qual.split(".")) in exported_names()


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats would be half the CLI's import time, and no module needs it
    src = os.path.dirname(os.path.dirname(bayesdn.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import bayesdn.cli; print(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert "'scipy.stats'" not in proc.stdout
