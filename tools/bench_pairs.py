"""Benchmark HEAD against a parent commit in alternating pairs.

Usage, from the root of a checkout whose change is committed::

    python3 tools/bench_pairs.py --parent <rev> --first-seed 1201 \\
        --pairs desk_p10=10,dnet_p30=10,real_p60=3,sweep_p30=3

For each workload and each of its seeds (``--first-seed`` on), it runs
``python3 perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s
``run_seconds``, once on a temporary clone of ``--parent`` and once on a
temporary clone of ``HEAD``, so both sides run from trees of the same
layout; the side that goes first alternates from seed to seed.  One
traced pair at the first seed follows.
The ``environment`` line and the final JSON line of every run are written
to ``BENCH_<short HEAD sha>.json`` at the root, in the order they ran,
after each run.  At the end, the record gains a ``summary`` of the claim
rule for each workload and end-to-end metric of ``BENCHMARK.json``, which
is also printed: the median and quartiles of each side's untraced runs,
the pairs the change wins (ties count for neither side), and whether the
rule holds: at least 10 pairs, wins in at least 9 of 10, and a median
better by more than the parent's interquartile range.  The clones go
under ``$TMPDIR`` and are removed at the end.  Standard library only.
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


def write_record(record: dict, out: str) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], metrics: list[dict]) -> list[dict]:
    """The claim rule's numbers for each workload and end-to-end metric, from untraced pairs."""
    out = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            sides: dict[int, dict[str, float]] = {}
            for run in runs:
                value = run["result"]["metrics"].get(name, {}).get("value")
                if run["workload"] == workload and run["trace"] == 0 and value is not None:
                    sides.setdefault(run["seed"], {})[run["side"]] = value
            pairs = [(s["parent"], s["change"]) for s in sides.values() if len(s) == 2]
            if not pairs:
                continue
            parent = quartiles([p for p, _ in pairs])
            change = quartiles([c for _, c in pairs])
            wins = sum(c < p if lower else c > p for p, c in pairs)
            gain = parent[1] - change[1] if lower else change[1] - parent[1]
            out.append({
                "workload": workload, "metric": name, "better": metric["better"],
                "pairs": len(pairs), "change_wins": wins,
                "parent": dict(zip(("q1", "median", "q3"), parent)),
                "change": dict(zip(("q1", "median", "q3"), change)),
                "median_gain": gain, "parent_iqr": parent[2] - parent[0],
                "claim_rule_met": (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                                   and gain > parent[2] - parent[0]),
            })
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    run_seconds = benchmark["run_seconds"]
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
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {}
        for side, rev in (("parent", parent), ("change", change)):
            trees[side] = os.path.join(tmp, side)
            git("clone", "--quiet", "--no-checkout", ROOT, trees[side])
            git("checkout", "--quiet", "--detach", rev, cwd=trees[side])
        for name, n in pairs.items():
            jobs = [(args.first_seed + k, 0) for k in range(n)] + [(args.first_seed, 1)]
            for k, (seed, trace) in enumerate(jobs):
                for side in ("parent", "change")[:: 1 if k % 2 == 0 else -1]:
                    run = bench(trees[side], name, seed, trace, run_seconds)
                    record["runs"].append({"side": side, **run})
                    write_record(record, out)
                    metric = run["result"]["metrics"].get("call_s", {}).get("value")
                    print(f"{name} seed {seed} trace {trace} {side}: call_s {metric}", flush=True)
    record["summary"] = summarize(record["runs"], benchmark["end_to_end"])
    write_record(record, out)
    for row in record["summary"]:
        p, c = row["parent"], row["change"]
        print(f"{row['workload']} {row['metric']} "
              f"({row['better']} is better, {row['pairs']} pairs): "
              f"parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}], "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]; "
              f"change wins {row['change_wins']}/{row['pairs']}; median gain "
              f"{row['median_gain']:.4g} against parent IQR {row['parent_iqr']:.4g}: claim rule "
              f"{'met' if row['claim_rule_met'] else 'not met'}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
