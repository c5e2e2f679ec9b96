"""Time whole Gibbs sweeps: the working tree against a parent revision, or
the stacked column kernel against the lone-chain kernel.

Usage, from the root of a checkout::

    python3 tools/sweep_timing.py --parent <rev> [--runs 21]
    python3 tools/sweep_timing.py --chains [--runs 11]

A sweep here is one step of a chain: the sweep's draws, the p column
updates, the checked resync of Sigma and the hyperparameter update.  Every
probe is a fresh process with one BLAS thread on ar2 data with n = 200
(plus the chain's index), and every timed interval goes through
``Calibration.measure`` of this checkout's ``perfbench/run.py`` (imported,
not changed), which rescales raw seconds by a reference kernel timed
before, during and after the interval.  Times are printed in reference
milliseconds per chain and sweep, so a host that slows down under other
tenants' load does not read as a slower sweep.

``--parent`` times both trees in one process: the working tree's
``src/bayesdn`` is imported as ``bayesdn`` and that of a temporary clone
of ``--parent`` (checked out as ``tools/bench_pairs.py`` does, under
``$TMPDIR`` and removed at the end) as ``bayesdn_parent``.  For each shape
(the desk shape, a stack of 6 chains at p = 10, and lone chains at p = 10,
30, 60 and 100) it builds the same chains in both trees and times
``gibbs.run_batch`` over a short block of sweeps, about 0.1 s, ``--runs``
times on each side, the two sides taking turns and the side that goes
first alternating from pair to pair.  The table gives each side's median
and the median of the per-pair ratios, with the pairs the working tree
wins.  Separate processes swing by several per cent on identical code on a
shared host; short alternating blocks in one process see the same host.

``--chains`` times ``gibbs.run_batch`` on the working tree alone: K
chains of one p (distinct seeds and sample sizes) as one batch, which runs
the stacked kernel, against the same chains each in a batch of its own,
which runs the lone-chain kernel, at p = 10, 30, 60 and 100 and K = 2, 4,
6, 20, 40, 80 and 240 (a run at the paper's scale holds 80 to 240 chains
of one p).  Each of the ``--runs`` runs is a fresh process, and within a
run the two kernels alternate which goes first; the table gives the
median over the runs of ms per chain and sweep, and the median of the
per-run ratios.  The size rule's ``STACK_MIN_CHAINS`` and
``STACK_MAX_CHAINS`` are read off this table.

It only reports; it gates nothing.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH_RUN = os.path.join(ROOT, "perfbench", "run.py")
# (chains, p, sweeps per timed block) for --parent: about 0.1 s a block
PARENT_SHAPES = ((6, 10, 80), (1, 10, 400), (1, 30, 130), (1, 60, 40), (1, 100, 14))
CHAIN_DIMS = (10, 30, 60, 100)
CHAIN_COUNTS = (2, 4, 6, 20, 40, 80, 240)
# seconds of sweeps per timed interval in --chains (at least 3 sweeps)
CHAIN_INTERVAL_S = 0.15

# Imports the reference kernel of perfbench/run.py (its path is argv[1]),
# which pins BLAS to one thread before numpy loads.
PROBE_HEAD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
perfbench_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perfbench_run)
import numpy as np
from bayesdn.linalg import mirror_lower
from bayesdn.structures import StructureSpec, raw_components, sample_gaussian
calibration = perfbench_run.Calibration(np)
"""

# Runs in the working tree with its ``src`` on the path and imports the
# parent's ``src/bayesdn`` (argv[3]) as ``bayesdn_parent``; prints
# [[K, p, sweeps, [parent s, ...], [change s, ...]], ...] in reference
# seconds per block.
PROBE_PARENT = PROBE_HEAD + """
import os
package = os.path.join(json.loads(sys.argv[3]), "src", "bayesdn")
spec = importlib.util.spec_from_file_location(
    "bayesdn_parent", os.path.join(package, "__init__.py"), submodule_search_locations=[package]
)
sys.modules["bayesdn_parent"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sys.modules["bayesdn_parent"])
trees = {
    "parent": importlib.import_module("bayesdn_parent.gibbs"),
    "change": importlib.import_module("bayesdn.gibbs"),
}

shapes, pairs = json.loads(sys.argv[2])
out = []
for k, p, sweeps in shapes:
    theta, _ = raw_components(StructureSpec("ar2", p))
    data = []
    for j in range(k):
        x = sample_gaussian(theta, 200 + j, seed=1000 * p + j)
        data.append((mirror_lower(x.T @ x), 200 + j))
    blocks = {}
    for side, gibbs in trees.items():
        cfg = gibbs.GibbsConfig(burn_in=sweeps - 1, retained=1)
        requests = [gibbs.ChainRequest(s, n, cfg, j + 1) for j, (s, n) in enumerate(data)]
        blocks[side] = lambda run=gibbs.run_batch, requests=requests: run(requests)
    seconds = {"parent": [], "change": []}
    for i in range(pairs):
        for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
            _, _, ref = calibration.measure(blocks[side])
            seconds[side].append(ref)
    out.append([k, p, sweeps, seconds["parent"], seconds["change"]])
print(json.dumps(out))
"""

# Runs in the working tree; prints [[p, K, stacked s, alone s], ...] in
# reference seconds per chain and sweep.
PROBE_CHAINS = PROBE_HEAD + """
from bayesdn.gibbs import ChainRequest, GibbsConfig, run_batch

dims, counts, interval = json.loads(sys.argv[2])
t_sweep = {10: 2.3e-4, 30: 7.8e-4, 60: 2.5e-3, 100: 7.1e-3}  # rough per-chain cost
out = []
for p in dims:
    theta, _ = raw_components(StructureSpec("ar2", p))
    for i, k in enumerate(counts):
        sweeps = max(3, round(interval / (k * t_sweep.get(p, 1e-2))))
        cfg = GibbsConfig(burn_in=0, retained=sweeps)
        requests = []
        for j in range(k):
            n = 200 + j
            x = sample_gaussian(theta, n, seed=1000 * p + j)
            requests.append(ChainRequest(mirror_lower(x.T @ x), n, cfg, j + 1))
        kernels = {
            "stacked": lambda: run_batch(requests),
            "alone": lambda: [run_batch([request]) for request in requests],
        }
        order = ("stacked", "alone") if i % 2 else ("alone", "stacked")
        seconds = {}
        for kernel in order:
            _, _, ref = calibration.measure(kernels[kernel])
            seconds[kernel] = ref / (k * sweeps)
        out.append([p, k, seconds["stacked"], seconds["alone"]])
print(json.dumps(out))
"""


def git(*args: str, cwd: str = ROOT) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True)
    return proc.stdout.strip()


def probe(tree: str, script: str, *args) -> object:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", script, PERFBENCH_RUN, *map(json.dumps, args)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"sweep probe in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare_parent(rev: str, pairs: int) -> None:
    parent = git("rev-parse", "--short", rev)
    with tempfile.TemporaryDirectory(prefix="sweep_parent_") as tmp:
        clone = os.path.join(tmp, "parent")
        git("clone", "--quiet", "--no-checkout", ROOT, clone)
        git("checkout", "--quiet", "--detach", parent, cwd=clone)
        rows = probe(ROOT, PROBE_PARENT, [PARENT_SHAPES, pairs], clone)
    print(
        f"reference ms per chain and sweep, median of {pairs} alternating block pairs "
        "in one process, one BLAS thread, ar2, n = 200 + chain index"
    )
    print(f"{'K':>4} {'p':>5} {'parent ' + parent:>16} {'working tree':>14} {'ratio':>7} {'wins':>7}")
    for k, p, sweeps, old, new in rows:
        per = 1e3 / (k * sweeps)
        ratios = [b / a for a, b in zip(old, new)]
        print(
            f"{k:>4} {p:>5} {statistics.median(old) * per:>16.3f} "
            f"{statistics.median(new) * per:>14.3f} {statistics.median(ratios):>7.3f} "
            f"{sum(r < 1.0 for r in ratios):>3}/{len(ratios)}"
        )


def compare_kernels(runs: int) -> None:
    rows: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for _ in range(runs):
        for p, k, stacked, alone in probe(
            ROOT, PROBE_CHAINS, [CHAIN_DIMS, CHAIN_COUNTS, CHAIN_INTERVAL_S]
        ):
            rows.setdefault((p, k), []).append((stacked, alone))
    print(
        f"reference ms per chain and sweep, median of {runs} runs, one BLAS thread, "
        "ar2, n = 200 + chain index"
    )
    print(f"{'p':>5} {'K':>4} {'alone':>10} {'stacked':>9} {'ratio':>7}")
    for (p, k), pairs in rows.items():
        stacked = statistics.median(s for s, _ in pairs) * 1e3
        alone = statistics.median(c for _, c in pairs) * 1e3
        ratio = statistics.median(s / c for s, c in pairs)
        print(f"{p:>5} {k:>4} {alone:>10.3f} {stacked:>9.3f} {ratio:>7.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--parent", help="git revision to compare the working tree against")
    mode.add_argument(
        "--chains", action="store_true", help="compare the stacked and lone-chain kernels"
    )
    parser.add_argument(
        "--runs", type=int, default=7,
        help="runs (--chains), or alternating block pairs per shape (--parent)",
    )
    args = parser.parse_args()
    if args.chains:
        compare_kernels(args.runs)
    else:
        compare_parent(args.parent, args.runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
