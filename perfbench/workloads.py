"""The four benchmark workloads: their CLI arguments, inputs, checks and scores.

Each workload is one ``bayesdn`` command line.  The benchmark writes the
command's inputs from the master seed, runs it through ``bayesdn.cli.main``
and then reads the emitted files back: it checks them for the failures
listed in :func:`validate` and scores the graph against the truth.
Everything here reads files and uses numpy only, so refactors behind the
CLI cannot break the benchmark.  Why each workload exists is recorded next
to its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

ALL_STRUCTURES = "ar1,ar2,sparse80,sparse40,scale_free,band,cluster,star,circle"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    expected: tuple[str, ...]
    # The score reported as the end-to-end ``accuracy``.  The comparator
    # selects near-complete graphs, so its MCC sits near 0 and swings from
    # seed to seed; its F1 does not.  The Bayesian graph comes from the
    # Wishart reference alone, so on ``desk_p10`` the score is taken from
    # the Gibbs estimate of the difference instead (see :func:`score`).
    accuracy: str
    config: dict = field(default_factory=dict)
    real_csv: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_p10",
            argv=(
                "synthetic", "--structures", "ar2,cluster,circle", "--dims", "10",
                "--sizes", "100", "--estimators", "bnet,dnet", "--mode", "union",
                "--replications", "1",
            ),
            config={"gibbs": {"burn_in": 250, "retained": 500}},
            expected=("results.csv", "manifest.json"),
            accuracy="bnet_el1_score",
        ),
        Workload(
            name="real_p60",
            argv=("real",),
            config={
                "date_column": "date",
                "moving_average_window": 3,
                "gibbs": {"burn_in": 20, "retained": 80},
            },
            expected=(
                "delta_hat.csv", "component_mean_1.csv", "component_mean_2.csv",
                "adjacency.csv", "manifest.json",
            ),
            accuracy="bnet_mcc",
            real_csv=True,
        ),
        Workload(
            name="dnet_p30",
            argv=(
                "synthetic", "--structures", "ar2,cluster,star", "--dims", "30",
                "--sizes", "200", "--estimators", "dnet", "--replications", "1",
            ),
            expected=("results.csv", "manifest.json"),
            accuracy="dnet_f1",
        ),
        Workload(
            name="sweep_p30",
            argv=(
                "sweep", "--structures", ALL_STRUCTURES, "--dims", "30",
                "--sizes", "200", "--replications", "2",
            ),
            expected=("threshold_study.json", "manifest.json"),
            accuracy="sweep_mcc",
        ),
    )
}

# The real-data input: two dated phases drawn from the "band" precision pair.
REAL_P = 60
REAL_ROWS_PER_PHASE = 1500
REAL_BLANK_ROWS = 6  # extra rows with one blank cell, which the reader drops
REAL_START = datetime.date(2020, 1, 1)


def _two_blocks(p: int, diag: float, val_lo: float, val_hi: float) -> np.ndarray:
    h = p // 2
    m = np.zeros((p, p))
    m[:h, :h] = val_lo
    m[h:, h:] = val_hi
    np.fill_diagonal(m, diag)
    return m


def band_pair(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The band design: within-block entries change between the two phases."""
    return _two_blocks(p, 1.0, 0.2, 0.5), _two_blocks(p, 1.0, 0.7, 0.9)


def true_adjacency(theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    adj = np.abs(theta2 - theta1) > 1e-10
    np.fill_diagonal(adj, False)
    return adj


def _gaussian_rows(theta: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    lower = np.linalg.cholesky(np.linalg.inv(theta))
    return rng.standard_normal((n, theta.shape[0])) @ lower.T


def make_inputs(w: Workload, seed: int, workdir: str) -> str:
    """Write the workload's config (and CSV) under ``workdir``; return the config path."""
    os.makedirs(workdir, exist_ok=True)
    config = json.loads(json.dumps(w.config))
    if w.real_csv:
        rng = np.random.default_rng(seed)
        theta1, theta2 = band_pair(REAL_P)
        rows = np.vstack(
            [
                _gaussian_rows(theta1, REAL_ROWS_PER_PHASE, rng),
                _gaussian_rows(theta2, REAL_ROWS_PER_PHASE, rng),
            ]
        )
        total = rows.shape[0] + REAL_BLANK_ROWS
        blank_at = set(rng.choice(total, size=REAL_BLANK_ROWS, replace=False).tolist())
        csv_path = os.path.join(workdir, "data.csv")
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["date"] + [f"x{k}" for k in range(REAL_P)])
            it = iter(rows)
            kept = 0
            for k in range(total):
                date = REAL_START + datetime.timedelta(days=k)
                if k in blank_at:
                    cells = [repr(float(v)) for v in rng.standard_normal(REAL_P)]
                    cells[int(rng.integers(REAL_P))] = ""
                else:
                    if kept == REAL_ROWS_PER_PHASE:
                        config["boundaries"] = [date.isoformat()]
                    cells = [repr(float(v)) for v in next(it)]
                    kept += 1
                writer.writerow([date.isoformat()] + cells)
        config["csv_path"] = csv_path
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True)
    return path


def command(w: Workload, seed: int, config_path: str, outdir: str) -> list[str]:
    return [
        *w.argv,
        "--config", config_path,
        "--seed", str(seed),
        "--threads", "1",
        "--out", outdir,
    ]


def _read_matrix(path: str) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(c) for c in r] for r in rows], dtype=float)


def _read_results(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(cell):
    return float("nan") if cell in ("NA", None) else float(cell)


def validate(w: Workload, outdir: str) -> list[str]:
    """Problems with one invocation's outputs; an empty list means it passed."""
    problems = [f"missing {f}" for f in w.expected if not os.path.isfile(os.path.join(outdir, f))]
    if problems:
        return problems
    if "results.csv" in w.expected:
        rows = _read_results(os.path.join(outdir, "results.csv"))
        if not rows:
            problems.append("results.csv has no rows")
        for r in rows:
            value = _num(r["median"])
            if r["metric"] not in ("sp", "se", "fnr", "f1", "mcc") and not math.isfinite(value):
                problems.append(f"non-finite {r['estimator']} {r['metric']} for {r['structure']}")
    if "threshold_study.json" in w.expected:
        with open(os.path.join(outdir, "threshold_study.json"), encoding="utf-8") as fh:
            study = json.load(fh)
        for st in study:
            for rule, rs in st["rules"].items():
                if not all(math.isfinite(x) for x in rs["median_sparsity_error"]):
                    problems.append(f"non-finite sparsity error for {st['structure']} {rule}")
                if rs["best_eta"] not in st["grid"]:
                    problems.append(f"best eta off the grid for {st['structure']} {rule}")
    if "delta_hat.csv" in w.expected:
        names = ("delta_hat", "component_mean_1", "component_mean_2", "adjacency")
        mats = {n: _read_matrix(os.path.join(outdir, f"{n}.csv")) for n in names}
        for name, m in mats.items():
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                return problems + [f"{name} is not square"]
            if not np.all(np.isfinite(m)):
                problems.append(f"non-finite entry in {name}")
        delta, adj = mats["delta_hat"], mats["adjacency"]
        if not np.allclose(delta, delta.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(delta).max())):
            problems.append("delta_hat is not symmetric")
        if not np.array_equal(adj, adj.T):
            problems.append("adjacency is not symmetric")
        if np.any(np.diag(adj) != 0) or not np.all(np.isin(adj, (0.0, 1.0))):
            problems.append("adjacency has a non-empty diagonal or a non-binary entry")
    return problems


def _mean_finite(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return sum(finite) / len(finite) if finite else float("nan")


def _mcc(est: np.ndarray, truth: np.ndarray) -> float:
    iu = np.triu_indices(truth.shape[0], k=1)
    e, t = est[iu].astype(bool), truth[iu]
    tp, tn = int(np.sum(e & t)), int(np.sum(~e & ~t))
    fp, fn = int(np.sum(e & ~t)), int(np.sum(~e & t))
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    return (tp * tn - fp * fn) / math.sqrt(den) if den > 0 else float("nan")


def score(w: Workload, outdir: str) -> dict[str, float]:
    """Accuracy scores: per structure the median over replications (as the
    CLI emits it), then the mean over structures; NA structures are left out.

    ``<est>_el1_score`` is the mean of 1 / (1 + EL1), EL1 being the mean
    absolute eigenvalue error of the estimated difference (for ``bnet`` the
    Gibbs posterior mean): higher is better, and it is never 0.
    """
    out: dict[str, float] = {}
    if "results.csv" in w.expected:
        rows = _read_results(os.path.join(outdir, "results.csv"))
        for est in ("bnet", "dnet"):
            for metric in ("mcc", "f1", "l1", "el1"):
                values = [
                    _num(r["median"])
                    for r in rows
                    if r["estimator"] == est and r["metric"] == metric
                ]
                if values:
                    out[f"{est}_{metric}"] = _mean_finite(values)
                if values and metric == "el1":
                    out[f"{est}_el1_score"] = _mean_finite([1.0 / (1.0 + v) for v in values])
    if "threshold_study.json" in w.expected:
        with open(os.path.join(outdir, "threshold_study.json"), encoding="utf-8") as fh:
            study = json.load(fh)
        best = [st["rules"]["mean"]["best_mcc"] for st in study]
        out["sweep_mcc"] = _mean_finite([math.nan if b is None else b for b in best])
    if w.real_csv:
        adj = _read_matrix(os.path.join(outdir, "adjacency.csv"))
        out["bnet_mcc"] = _mcc(adj, true_adjacency(*band_pair(REAL_P)))
    return out
