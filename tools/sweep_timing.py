"""Time whole Gibbs sweeps: the working tree against a parent revision, or
the stacked route against the per-chain route.

Usage, from the root of a checkout::

    python3 tools/sweep_timing.py --parent <rev>
    python3 tools/sweep_timing.py --chains

A sweep here is one step of a chain: the sweep's draws, the p column
updates, the checked resync of Sigma and the hyperparameter update.  Each
run is a fresh process with one BLAS thread on ar2 data with n = 200, and
every timed interval goes through ``Calibration.measure`` of this
checkout's ``perfbench/run.py`` (imported, not changed), which rescales
raw seconds by a reference kernel timed before, during and after the
interval.  Times are printed in reference milliseconds, so a host that
slows down under other tenants' load does not read as a slower sweep.

``--parent`` times ``gibbs.chain_draws`` at p = 10, 30, 60 and 100: at
each p it skips the chain's first sweep and times the next ones in one
calibrated interval.  The working tree and a temporary clone of
``--parent`` (checked out as ``tools/bench_pairs.py`` does, under
``$TMPDIR`` and removed at the end) take turns, ``--runs`` times each;
the table gives each side's median ms per sweep and the median of the
per-run ratios.

``--chains`` times ``gibbs.run_chains`` on the working tree alone: K
chains of one p (distinct seeds and sample sizes) on the stacked route
against the same chains on the per-chain route, at p = 10, 30, 60 and 100
and K = 1, 2, 4, 6, 20, 40, 80 and 240 (a run at the paper's scale holds
80 to 240 chains of one p).  Within a run the two routes alternate which
goes first; the table gives the median over ``--runs`` runs of ms per
chain and sweep, and the median of the per-run ratios.  The size rule's
``STACK_MIN_CHAINS`` and ``STACK_MAX_CHAINS`` are read off this table.

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
# sweeps timed at each p: about 0.15 s per p and run
SWEEPS = {10: 480, 30: 160, 60: 48, 100: 20}
CHAIN_DIMS = (10, 30, 60, 100)
CHAIN_COUNTS = (1, 2, 4, 6, 20, 40, 80, 240)
# seconds of per-chain sweeps per timed interval in --chains (at least 3 sweeps)
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

# Runs in the measured tree with that tree's ``src`` on the path; prints
# {p: reference seconds per sweep} as JSON.
PROBE_PARENT = PROBE_HEAD + """
from bayesdn.gibbs import GibbsConfig, chain_draws

out = {}
for p, sweeps in json.loads(sys.argv[2]).items():
    theta, _ = raw_components(StructureSpec("ar2", int(p)))
    x = sample_gaussian(theta, 200, seed=int(p))
    cfg = GibbsConfig(burn_in=0, retained=sweeps + 1, seed=1)
    draws = chain_draws(mirror_lower(x.T @ x), 200, cfg)
    next(draws)
    _, _, ref = calibration.measure(lambda: [next(draws) for _ in range(sweeps)])
    out[p] = ref / sweeps
print(json.dumps(out))
"""

# Runs in the working tree; prints [[p, K, stacked s, per-chain s], ...] in
# reference seconds per chain and sweep.
PROBE_CHAINS = PROBE_HEAD + """
from bayesdn.gibbs import ChainRequest, GibbsConfig, run_chains

dims, counts, interval = json.loads(sys.argv[2])
t_sweep = {10: 2.3e-4, 30: 7.8e-4, 60: 2.5e-3, 100: 7.1e-3}  # rough per-chain cost
out = []
for p in dims:
    theta, _ = raw_components(StructureSpec("ar2", p))
    for k in counts:
        sweeps = max(3, round(interval / (k * t_sweep.get(p, 1e-2))))
        requests = []
        for j in range(k):
            n = 200 + j
            x = sample_gaussian(theta, n, seed=1000 * p + j)
            cfg = GibbsConfig(burn_in=0, retained=sweeps, seed=j + 1)
            requests.append(ChainRequest(mirror_lower(x.T @ x), n, cfg, partials=False))
        routes = {"stacked": True, "per_chain": False}
        order = ("stacked", "per_chain") if k % 2 else ("per_chain", "stacked")
        seconds = {}
        for route in order:
            _, _, ref = calibration.measure(lambda: run_chains(requests, routes[route]))
            seconds[route] = ref / (k * sweeps)
        out.append([p, k, seconds["stacked"], seconds["per_chain"]])
print(json.dumps(out))
"""


def git(*args: str, cwd: str = ROOT) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True)
    return proc.stdout.strip()


def probe(tree: str, script: str, arg) -> object:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", script, PERFBENCH_RUN, json.dumps(arg)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"sweep probe in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare_parent(rev: str, runs: int) -> None:
    parent = git("rev-parse", "--short", rev)
    runs_of = {"change": [], "parent": []}
    with tempfile.TemporaryDirectory(prefix="sweep_parent_") as tmp:
        clone = os.path.join(tmp, "parent")
        git("clone", "--quiet", "--no-checkout", ROOT, clone)
        git("checkout", "--quiet", "--detach", parent, cwd=clone)
        trees = {"parent": clone, "change": ROOT}
        for k in range(runs):
            for side in ("parent", "change")[:: 1 if k % 2 == 0 else -1]:
                runs_of[side].append(probe(trees[side], PROBE_PARENT, SWEEPS))
    print(f"reference ms per sweep, median of {runs} interleaved runs, one BLAS thread, ar2, n = 200")
    print(f"{'p':>5} {'parent ' + parent:>16} {'working tree':>14} {'ratio':>7}")
    for p in map(str, SWEEPS):
        old = [run[p] for run in runs_of["parent"]]
        new = [run[p] for run in runs_of["change"]]
        ratio = statistics.median(b / a for a, b in zip(old, new))
        print(
            f"{p:>5} {statistics.median(old) * 1e3:>16.3f} "
            f"{statistics.median(new) * 1e3:>14.3f} {ratio:>7.2f}"
        )


def compare_routes(runs: int) -> None:
    rows: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for _ in range(runs):
        for p, k, stacked, per_chain in probe(
            ROOT, PROBE_CHAINS, [CHAIN_DIMS, CHAIN_COUNTS, CHAIN_INTERVAL_S]
        ):
            rows.setdefault((p, k), []).append((stacked, per_chain))
    print(
        f"reference ms per chain and sweep, median of {runs} runs, one BLAS thread, "
        "ar2, n = 200 + chain index"
    )
    print(f"{'p':>5} {'K':>4} {'per-chain':>10} {'stacked':>9} {'ratio':>7}")
    for (p, k), pairs in rows.items():
        stacked = statistics.median(s for s, _ in pairs) * 1e3
        per_chain = statistics.median(c for _, c in pairs) * 1e3
        ratio = statistics.median(s / c for s, c in pairs)
        print(f"{p:>5} {k:>4} {per_chain:>10.3f} {stacked:>9.3f} {ratio:>7.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--parent", help="git revision to compare the working tree against")
    mode.add_argument(
        "--chains", action="store_true", help="compare the stacked and per-chain routes"
    )
    parser.add_argument("--runs", type=int, default=7, help="runs (per side with --parent)")
    args = parser.parse_args()
    if args.chains:
        compare_routes(args.runs)
    else:
        compare_parent(args.parent, args.runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
