"""Time whole Gibbs sweeps of the working tree against a parent revision.

Usage, from the root of a checkout::

    python3 tools/sweep_timing.py --parent <rev>

A sweep here is one step of ``gibbs.chain_draws``: the sweep's draws,
the p column updates, the checked resync of Sigma and the hyperparameter
update.  Each run is a fresh process with one BLAS thread on ar2 data
with n = 200.  At each p it skips the chain's first sweep and times
short blocks of the next ones, keeping the fastest block, so a burst of
load from other processes on the host spoils one block rather than the
run.  The working tree and a temporary clone of ``--parent`` (checked
out as ``tools/bench_pairs.py`` does, under ``$TMPDIR`` and removed at
the end) take turns, ``--runs`` times each, and the minimum over the
runs is printed in ms per sweep for p = 10, 30, 60 and 100.  It only
reports; it gates nothing.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (blocks, sweeps per block) at each p: blocks of about 5-15 ms, about
# 0.15 s of sweeps per p and run
SWEEPS = {10: (30, 16), 30: (20, 8), 60: (12, 4), 100: (10, 2)}

# Runs in the measured tree with that tree's ``src`` on the path; prints
# {p: seconds per sweep} as JSON.
PROBE = """
import json, sys, time
from bayesdn.gibbs import GibbsConfig, chain_draws
from bayesdn.linalg import mirror_lower
from bayesdn.structures import StructureSpec, raw_components, sample_gaussian

out = {}
for p, (blocks, sweeps) in json.loads(sys.argv[1]).items():
    theta, _ = raw_components(StructureSpec("ar2", int(p)))
    x = sample_gaussian(theta, 200, seed=int(p))
    cfg = GibbsConfig(burn_in=0, retained=blocks * sweeps + 1, seed=1)
    draws = chain_draws(mirror_lower(x.T @ x), 200, cfg)
    next(draws)
    best = float("inf")
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(sweeps):
            next(draws)
        best = min(best, (time.perf_counter() - start) / sweeps)
    out[p] = best
print(json.dumps(out))
"""


def git(*args: str, cwd: str = ROOT) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True)
    return proc.stdout.strip()


def probe(tree: str) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(SWEEPS)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"sweep probe in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--runs", type=int, default=7, help="interleaved runs per side")
    args = parser.parse_args()
    parent = git("rev-parse", "--short", args.parent)
    best = {"change": {}, "parent": {}}
    with tempfile.TemporaryDirectory(prefix="sweep_parent_") as tmp:
        clone = os.path.join(tmp, "parent")
        git("clone", "--quiet", "--no-checkout", ROOT, clone)
        git("checkout", "--quiet", "--detach", parent, cwd=clone)
        trees = {"parent": clone, "change": ROOT}
        for k in range(args.runs):
            for side in ("parent", "change")[:: 1 if k % 2 == 0 else -1]:
                for p, s in probe(trees[side]).items():
                    best[side][p] = min(s, best[side].get(p, float("inf")))
    print(f"ms per sweep, min of {args.runs} interleaved runs, one BLAS thread, ar2, n = 200")
    print(f"{'p':>5} {'parent ' + parent:>16} {'working tree':>14} {'ratio':>7}")
    for p in map(str, SWEEPS):
        old, new = best["parent"][p] * 1e3, best["change"][p] * 1e3
        print(f"{p:>5} {old:>16.3f} {new:>14.3f} {new / old:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
