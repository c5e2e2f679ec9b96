"""bayesdn benchmark: closed-loop CLI invocations on one seeded workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload desk_p10 --seed 1 --seconds 25 --trace 0

One process runs one workload.  It pins BLAS to one thread before numpy
is imported, imports ``bayesdn`` from ``src/`` of the checkout, writes
the workload's inputs from ``--seed`` and then calls ``bayesdn.cli.main``
with ``--threads 1`` again and again (the next call starts when the last
one returns) until ``--seconds`` are used up.  The untraced calls cycle
through ``SEEDS_PER_RUN`` CLI seeds derived from ``--seed``, so a run's
median time and accuracy cover several draws of the synthetic data rather
than one.  Every call's outputs are validated and must be byte-identical
to those of the first call with the same CLI seed.

``--trace 0`` reports the end-to-end metrics: median time per call,
set-up time, peak RSS and the workload's graph accuracy.  ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics
(see ``tracer.py``), including the tracing overhead.  Times are in
reference seconds (see ``Calibration``); the raw seconds are printed too.
The last line of standard output is one JSON object; the lines before it
name every metric with its unit, and the environment.  Run artefacts
(outputs, spans, the environment record) go to ``.perfbench_out/`` in the
checkout.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: with a thread pool the p=60 Gibbs sweep time
# varies several-fold from call to call, and ISTA iteration counts differ.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
SEEDS_PER_RUN = 3
CALIBRATION_REF_S = 0.0024
CALIBRATION_SAMPLES = 5
CALIBRATION_INTERVAL_S = 0.25


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Calibration:
    """Converts measured seconds into reference seconds.

    Co-tenants on a shared host change its speed by up to 1.7x within
    seconds to minutes, which swamps the changes being measured.  A fixed
    kernel (small LAPACK/BLAS calls plus interpreter work, the program's own
    mix) is timed before and after each measured interval and, from a timer
    signal, every ``CALIBRATION_INTERVAL_S`` during it.  The interval,
    less the time spent in those samples, is scaled by
    ``CALIBRATION_REF_S`` (about the kernel's time on an idle 2-CPU host)
    over the kernel's median time.  The kernel slows down with the host, so
    the scaled time does not.  The samples touch no state of the program.
    """

    def __init__(self, np):
        a = np.random.default_rng(0).standard_normal((60, 60))
        self.np = np
        self.spd = a @ a.T + 60.0 * np.eye(60)
        self._during: list[float] = []

    def _sample(self) -> float:
        np, spd = self.np, self.spd
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(50):
            lower = np.linalg.cholesky(spd)
            acc += float((lower @ lower.T)[0, 0])
            for j in range(300):
                acc += j * 0.5
        return time.perf_counter() - t0

    def _samples(self) -> list[float]:
        return [self._sample() for _ in range(CALIBRATION_SAMPLES)]

    def _tick(self, signum, frame) -> None:
        self._during.append(self._sample())

    def measure(self, fn):
        """Run ``fn``; return its result, raw seconds and reference seconds."""
        before = self._samples()
        self._during = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - sum(self._during)
        samples = before + self._during + self._samples()
        return result, raw, raw * CALIBRATION_REF_S / statistics.median(samples)


def _import_cli() -> None:
    """Import the CLI in a fresh interpreter, as a user's first command does."""
    proc = subprocess.run(
        [sys.executable, "-c", "import bayesdn.cli"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        timeout=120,
    )
    if proc.returncode != 0:
        _fail(f"importing bayesdn failed:\n{proc.stderr.decode(errors='replace')}")


def _git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a git checkout; do not report an enclosing repository
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None  # no git on this host
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads(np) -> int | None:
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment(np, scipy, load: tuple[float, float, float]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load),
    }


def _tree_bytes(path: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Runner:
    """Runs one workload's CLI calls and checks each one's outputs."""

    def __init__(self, cli, wl, w, seeds: list[int], config_path: str, workdir: str, calibration):
        self.cli = cli
        self.wl = wl
        self.w = w
        self.seeds = seeds
        self.config_path = config_path
        self.workdir = workdir
        self.calibration = calibration
        # CLI seed -> (files, output directory) of the first valid call with it
        self.reference: dict[int, tuple[dict[str, bytes], str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def invoke(self) -> tuple[float, float, str]:
        """One CLI call: raw seconds, reference seconds and output directory."""
        k = self.attempted
        self.attempted += 1
        seed = self.seeds[k % len(self.seeds)]
        outdir = os.path.join(self.workdir, f"call{k:03d}")
        argv = self.wl.command(self.w, seed, self.config_path, outdir)

        def call():
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    return self.cli.main(argv)
            except SystemExit as err:  # argparse rejecting the arguments, say
                return 0 if err.code is None else err.code
            except Exception as err:  # a crash is a failed call, not a benchmark crash
                return f"{type(err).__name__}: {err}"

        rc, raw, ref = self.calibration.measure(call)
        problems = [f"exit code {rc}"] if rc != 0 else self.wl.validate(self.w, outdir)
        if not problems:
            files = _tree_bytes(outdir)
            if seed not in self.reference:
                self.reference[seed] = (files, outdir)
            elif files != self.reference[seed][0]:
                problems = [f"outputs differ from the first call's with seed {seed}"]
        if problems:
            self.failed += 1
            self.problems += [f"call {k}: {p}" for p in problems]
        return raw, ref, outdir

    def loop(self, seconds: float, step, cycle: int) -> None:
        """Closed loop: call ``step`` in whole cycles of ``cycle`` calls (so
        every CLI seed, or traced and untraced, is timed equally often) until
        another cycle would overrun ``seconds``."""
        t_start = time.perf_counter()
        durations: list[float] = []
        while True:
            t0 = time.perf_counter()
            step(len(durations))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_start
            next_cycle_s = cycle * statistics.median(durations)
            if len(durations) % cycle == 0 and elapsed + next_cycle_s > seconds:
                return


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _mean_scores(per_seed: list[dict[str, float]]) -> dict[str, float]:
    """Each score's mean over the CLI seeds whose calls passed (NaN if any is)."""
    if not per_seed:
        return {}
    names = set.intersection(*(set(s) for s in per_seed))
    return {n: statistics.fmean(s[n] for s in per_seed) for n in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load = os.getloadavg()
    if not os.path.isfile(os.path.join(SRC, "bayesdn", "cli.py")):
        _fail(f"no bayesdn sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    try:
        import bayesdn.cli as cli
    except ImportError as err:
        _fail(f"cannot import bayesdn: {err}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        _fail(f"imported bayesdn from {cli.__file__}, not from {SRC}")
    import numpy as np
    import scipy

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    calibration = Calibration(np)
    workdir = os.path.join(OUT, f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)

    # Set-up: a fresh interpreter importing the CLI, and writing the inputs,
    # each SETUP_REPEATS times; setup_s is the sum of the two medians.
    imports = [calibration.measure(_import_cli) for _ in range(SETUP_REPEATS)]
    inputs = [
        calibration.measure(
            lambda k=k: wl.make_inputs(w, args.seed, os.path.join(workdir, f"inputs{k}"))
        )
        for k in range(SETUP_REPEATS)
    ]
    config_path = inputs[0][0]
    setup_raw = statistics.median(m[1] for m in imports) + statistics.median(m[1] for m in inputs)
    setup_s = statistics.median(m[2] for m in imports) + statistics.median(m[2] for m in inputs)

    env = environment(np, scipy, load)
    with open(os.path.join(workdir, "environment.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=1, sort_keys=True)
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        import tracer

        # One CLI seed, so traced and untraced calls must write the same files.
        runner = Runner(cli, wl, w, [args.seed], config_path, workdir, calibration)
        metrics = run_traced(runner, tracer, args.seconds, workdir)
    else:
        seeds = [args.seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]
        runner = Runner(cli, wl, w, seeds, config_path, workdir, calibration)
        calls = []
        runner.loop(args.seconds, lambda _: calls.append(runner.invoke()), len(seeds))
        scores = _mean_scores([wl.score(w, d) for _, d in runner.reference.values()])
        for name, value in sorted(scores.items()):
            print(f"{w.name} {name} = {value} 1")
        print(f"{w.name} accuracy is {w.accuracy}")
        raw = [round(c[0], 4) for c in calls]
        print(f"{w.name} raw seconds: setup {setup_raw:.4f}, calls {raw}")
        print(f"{w.name} reference seconds: calls {[round(c[1], 4) for c in calls]}")
        metrics = {
            "call_s": _metric(statistics.median(c[1] for c in calls), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "accuracy": _metric(scores.get(w.accuracy), "1"),
        }

    for p in runner.problems:
        print(f"FAILED {p}")
    for m in metrics.values():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            m["value"] = None
    for name, m in metrics.items():
        print(f"{w.name} {name} = {m['value']} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0
                and all(m["value"] is not None for m in metrics.values()),
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_traced(runner: Runner, tracer, seconds: float, workdir: str) -> dict:
    """Alternate untraced and traced calls; summarize the traced ones."""
    spans = tracer.Tracer()
    plain: list[float] = []
    traced: list[tuple[float, float, dict, dict, int]] = []

    def step(k):
        if k % 2 == 0:
            plain.append(runner.invoke()[1])
            return
        spans.counts.clear()
        spans.install()
        lo = spans.mark()
        try:
            raw, ref, outdir = runner.invoke()
        finally:
            spans.uninstall()
        size = sum(len(b) for b in _tree_bytes(outdir).values())
        traced.append((ref, ref / raw, spans.summary(lo, spans.mark()), dict(spans.counts), size))

    runner.loop(seconds, step, 2)
    for k, (_, _, _, c, _) in enumerate(traced[1:], start=1):
        if c != traced[0][3]:
            runner.failed += 1
            runner.problems.append(f"traced call {k}: counters differ from the first one's")
    spans.save(os.path.join(workdir, "spans.npz"))
    if spans.absent:
        print("trace: absent targets " + ", ".join(spans.absent))
    if runner.failed == 0:
        print(f"trace: {len(traced)} traced calls wrote files byte-identical to the untraced ones")

    def med(get):
        """Median over traced calls of a time, in reference seconds."""
        return statistics.median(scale * get(s) for _, scale, s, _, _ in traced)

    def fn(qual, key):
        return lambda s: s["functions"].get(qual, {}).get(key, 0)

    def per(total, count):
        return total / count if count else 0.0

    _, _, first, counts, size = traced[0]
    calls = {q: v["calls"] for q, v in first["functions"].items()}
    count = lambda key: counts.get(key, 0)  # noqa: E731
    m: dict[str, dict] = {}
    for mod in tracer.MODULES:
        m[f"{mod}.self_s"] = _metric(med(lambda s: s["modules"][mod]["self_s"]), "s")
        m[f"{mod}.calls"] = _metric(first["modules"][mod]["calls"], "count")
    m["gibbs.sweeps"] = _metric(count("gibbs.sweeps"), "count")
    m["gibbs.update_column.calls"] = _metric(calls.get("gibbs.update_column", 0), "count")
    m["gibbs.update_column.us_per_call"] = _metric(
        1e6 * per(med(fn("gibbs.update_column", "incl_s")), calls.get("gibbs.update_column", 0)),
        "us",
    )
    m["gibbs.update_hyperparameters.self_s"] = _metric(
        med(fn("gibbs.update_hyperparameters", "self_s")), "s"
    )
    m["gibbs.draw_bytes"] = _metric(count("gibbs.draw_bytes"), "bytes_computed")
    m["ista.penalties"] = _metric(calls.get("ista.ista_solve", 0), "count")
    m["ista.iterations"] = _metric(count("ista.iterations"), "count")
    m["ista.us_per_iteration"] = _metric(
        1e6 * per(med(fn("ista.ista_solve", "incl_s")), count("ista.iterations")), "us"
    )
    m["ista.unconverged"] = _metric(count("ista.unconverged"), "count")
    m["ista.dnet_loss.calls"] = _metric(calls.get("ista.dnet_loss", 0), "count")
    m["wishart.draws"] = _metric(count("wishart.draws"), "count")
    m["wishart.us_per_draw"] = _metric(
        1e6 * per(med(fn("wishart.sample_wishart", "incl_s")), count("wishart.draws")), "us"
    )
    m["wishart.draw_bytes"] = _metric(count("wishart.draw_bytes"), "bytes_computed")
    for qual in ("wishart.threshold_sweep", "wishart.posterior_partial_corr_mean"):
        m[f"{qual}.self_s"] = _metric(med(fn(qual, "self_s")), "s")
    for qual in ("metrics.confusion", "diffnet.dn_adjacency", "linalg.cholesky_pd"):
        m[f"{qual}.calls"] = _metric(calls.get(qual, 0), "count")
    m["pipeline.rows_read"] = _metric(count("pipeline.rows_read"), "count")
    m["pipeline.rows_dropped"] = _metric(count("pipeline.rows_dropped"), "count")
    m["cli.bytes_written"] = _metric(size, "bytes")
    m["trace.overhead_s"] = _metric(
        statistics.median(t[0] for t in traced) - statistics.median(plain), "s"
    )
    m["trace.spans"] = _metric(first["spans"], "count")
    m["trace.wrapped"] = _metric(len(spans.names), "count")
    m["trace.absent"] = _metric(len(spans.absent), "count")
    print(
        f"{runner.w.name} ista.unconverged {count('ista.unconverged')} "
        f"of {calls.get('ista.ista_solve', 0)} penalties"
    )
    return m


if __name__ == "__main__":
    sys.exit(main())
