"""Benchmark the working tree against a parent commit in alternating pairs.

Usage, from the root of a checkout whose change is committed::

    python3 tools/bench_pairs.py --parent <rev> --first-seed 1201 \\
        --pairs desk_p10=10,dnet_p30=10,real_p60=3,sweep_p30=3

For each workload and each of its seeds (``--first-seed`` on), it runs
``python3 perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s
``run_seconds``, once on a temporary clone of ``--parent`` and once on
the working tree; the side that goes first alternates from seed to seed.  One traced pair at the first seed follows.
The ``environment`` line and the final JSON line of every run are written
to ``BENCH_<short HEAD sha>.json`` at the root, in the order they ran,
after each run.  The clone goes under ``$TMPDIR`` and is removed at the
end.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str, cwd: str = ROOT) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True)
    return proc.stdout.strip()


def bench(tree: str, workload: str, seed: int, trace: int, seconds: float) -> dict:
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = [json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("environment ")]
    if proc.returncode != 0 or not env or not lines[-1].startswith("{"):
        sys.exit(f"{' '.join(argv)} in {tree} failed:\n{proc.stdout}\n{proc.stderr}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "environment": env[0], "result": json.loads(lines[-1])}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", required=True, help="workload=count,... untraced pairs")
    args = parser.parse_args()
    pairs = {name: int(n) for name, n in (kv.split("=") for kv in args.pairs.split(","))}

    if git("status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench"):
        sys.exit("src/ or perfbench/ differ from HEAD: commit the change first")
    parent, change = git("rev-parse", "--short", args.parent), git("rev-parse", "--short", "HEAD")
    seeds = {name: f"{args.first_seed}-{args.first_seed + n - 1}" for name, n in pairs.items()}
    record = {
        "description": (
            "perfbench/run.py final JSON line and environment block of every run, parent and "
            f"change, alternating order per seed; {run_seconds:g} s per run; untraced seeds "
            f"{', '.join(f'{k} {v}' for k, v in seeds.items())}, and one traced run at seed "
            f"{args.first_seed} per workload and side"
        ),
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {run_seconds:g} --trace <0|1>",
        "parent": parent,
        "change": change,
        "runs": [],
    }
    out = os.path.join(ROOT, f"BENCH_{change}.json")
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        clone = os.path.join(tmp, "parent")
        git("clone", "--quiet", "--no-checkout", ROOT, clone)
        git("checkout", "--quiet", "--detach", parent, cwd=clone)
        trees = {"parent": clone, "change": ROOT}
        for name, n in pairs.items():
            jobs = [(args.first_seed + k, 0) for k in range(n)] + [(args.first_seed, 1)]
            for k, (seed, trace) in enumerate(jobs):
                for side in ("parent", "change")[:: 1 if k % 2 == 0 else -1]:
                    run = bench(trees[side], name, seed, trace, run_seconds)
                    record["runs"].append({"side": side, **run})
                    with open(out, "w", encoding="utf-8") as fh:
                        json.dump(record, fh, indent=1)
                        fh.write("\n")
                    metric = run["result"]["metrics"].get("call_s", {}).get("value")
                    print(f"{name} seed {seed} trace {trace} {side}: call_s {metric}", flush=True)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
