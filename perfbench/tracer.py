"""Per-layer tracing of bayesdn, installed from outside the program.

Every function named in a traced module's ``__all__`` (or, for a module
without one, every public function it defines) is replaced by a timing
wrapper.  The wrapper is bound, by object identity, into every loaded
``bayesdn`` module that holds the original, so calls that cross modules
(``diffnet -> gibbs.run_chain``, ``harness -> estimate_bnet``) are caught
as well as calls through the package namespace.

A span stack gives each call its parent; spans stay in flat in-memory
arrays until :meth:`Tracer.save` writes them out.  Counters are read from
the values the traced functions return (``IstaResult.iterations``,
``Dataset.n_dropped``, ...), so the program needs no hooks of its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "bayesdn"
MODULES = (
    "linalg",
    "gibbs",
    "wishart",
    "diffnet",
    "structures",
    "metrics",
    "ista",
    "pipeline",
    "harness",
    "cli",
)


def _count_chain(counts, chain):
    cfg = chain.config
    counts["gibbs.sweeps"] += cfg.burn_in + cfg.retained
    draws = getattr(chain, "draws", None)
    if isinstance(draws, np.ndarray):
        counts["gibbs.draw_bytes"] += draws.nbytes


def _count_ista(counts, result):
    counts["ista.iterations"] += result.iterations
    counts["ista.unconverged"] += not result.converged


def _count_wishart(counts, draws):
    counts["wishart.draws"] += draws.shape[0]
    counts["wishart.draw_bytes"] += draws.nbytes


def _count_csv(counts, dataset):
    counts["pipeline.rows_read"] += dataset.rows.shape[0] + dataset.n_dropped
    counts["pipeline.rows_dropped"] += dataset.n_dropped


# Functions whose return values feed counters.  A missing one is reported
# as absent; its counters stay at zero.
COUNTERS = {
    "gibbs.run_chain": _count_chain,
    "ista.ista_solve": _count_ista,
    "wishart.sample_wishart": _count_wishart,
    "pipeline.read_csv": _count_csv,
}

# Functions the per-layer metrics name directly.
NAMED = (
    "gibbs.update_column",
    "gibbs.update_hyperparameters",
    "ista.dnet_loss",
    "wishart.threshold_sweep",
    "wishart.posterior_partial_corr_mean",
    "metrics.confusion",
    "diffnet.dn_adjacency",
    "linalg.cholesky_pd",
    "cli.main",
) + tuple(COUNTERS)


def _targets(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            n
            for n, obj in vars(module).items()
            if not n.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ]
    return [n for n in names if inspect.isfunction(getattr(module, n, None))]


class Tracer:
    """Wraps the traced functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.modules: list[str] = []
        self.absent: list[str] = []
        self.counts: Counter[str] = Counter()
        self.fid = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._originals: dict[int, tuple[object, object]] = {}
        self._bound: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn, counter):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and bind the wrappers wherever the originals live."""
        if not self.names:
            for mod_name in MODULES:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{mod_name}")
                except ImportError:
                    self.absent.append(mod_name)
                    continue
                for name in _targets(module):
                    qual = f"{mod_name}.{name}"
                    fn = getattr(module, name)
                    if id(fn) in self._originals:
                        continue  # re-exported from another traced module
                    fid = len(self.names)
                    self.names.append(qual)
                    self.modules.append(mod_name)
                    wrapper = self._wrap(fid, fn, COUNTERS.get(qual))
                    self._originals[id(fn)] = (fn, wrapper)
            self.absent += [q for q in NAMED if q not in self.names]
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._bound.append((module, attr, value))

    def uninstall(self) -> None:
        """Put every original function back where it was found."""
        for module, attr, value in reversed(self._bound):
            setattr(module, attr, value)
        self._bound.clear()

    def mark(self) -> int:
        """Index of the next span, to delimit one invocation's spans."""
        return len(self.fid)

    def summary(self, lo: int, hi: int) -> dict:
        """Per-function and per-module calls, inclusive and self seconds."""
        n_fn = len(self.names)
        fid = np.frombuffer(self.fid, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[lo:hi]
            - np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        )
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        calls = np.bincount(fid, minlength=n_fn)
        incl = np.bincount(fid, weights=dur, minlength=n_fn)
        excl = np.bincount(fid, weights=self_time, minlength=n_fn)
        out = {"functions": {}, "modules": {m: {"calls": 0, "self_s": 0.0} for m in MODULES}}
        for k, name in enumerate(self.names):
            out["functions"][name] = {
                "calls": int(calls[k]),
                "incl_s": float(incl[k]),
                "self_s": float(excl[k]),
            }
            mod = out["modules"][self.modules[k]]
            mod["calls"] += int(calls[k])
            mod["self_s"] += float(excl[k])
        out["spans"] = int(hi - lo)
        return out

    def save(self, path: str) -> None:
        """Write every recorded span (function, parent, start, end) to ``path``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
