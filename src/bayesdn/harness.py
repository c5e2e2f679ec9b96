"""Experiment harness: synthetic benchmark, threshold study, real-data run.

Every run is reproducible from one master seed: per-task seeds are derived
through ``numpy.random.SeedSequence`` keyed by (structure index, dimension
index, replication index), aggregation happens after a deterministic sort
of the collected results, and files are written with round-tripping float
formatting.  The emitted bytes therefore do not depend on how many worker
processes executed the tasks.

The synthetic benchmark and the threshold study run their tasks in three
stages.  The data stage makes each task's model pair and samples and
names the Gibbs chains it needs (a :class:`~bayesdn.gibbs.ChainRequest`
per sample).  The chain stage runs the requests of all tasks through
``gibbs``, so chains of different tasks can share a stack: the size rule
(``gibbs.chain_batches``) sees the whole list and cuts it into batches,
lone chains and stacks, which the workers take one at a time.  The
scoring stage runs the comparator, turns the chains into estimates and
scores them.  Each stage keeps task order, and a chain's numbers do not
depend on its batch.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Literal

import numpy as np

from .config import FieldError, bound, check_fields, decode
from .diffnet import DN_MODES, bnet_network, bnet_requests, dn_adjacency, estimate_bnet
from .gibbs import ChainRequest, GibbsConfig, chain_batches, run_chains, spawn_seeds
from .ista import IstaConfig, estimate_dnet
from .linalg import mirror_lower
from .metrics import classification_scores, confusion, loss_report
from .pipeline import (
    boxs_m_test,
    moving_average,
    nonparanormal_transform,
    read_csv,
    split_phases,
    write_csv,
)
from .structures import KINDS, MIN_DIM, StructureSpec, make_structure, sample_gaussian
from .wishart import (
    DEFAULT_GRID,
    ThresholdReport,
    best_threshold,
    posterior_partial_corr_mean,
    threshold_sweep,
)

__all__ = [
    "ExperimentConfig",
    "RealAnalysisConfig",
    "ResultsTable",
    "StudyResult",
    "RealAnalysisResult",
    "task_seeds",
    "run_synthetic_experiment",
    "run_threshold_study",
    "run_real_analysis",
    "emit_results_table",
    "emit_study",
    "emit_real",
    "config_to_dict",
    "config_from_dict",
]

LOSS_METRICS = ("l1", "l2", "el1", "el2", "maxel1", "minel1")
SCORE_METRICS = ("sp", "se", "fnr", "f1", "mcc")
_BOOTSTRAP_RESAMPLES = 200


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by the synthetic benchmark and threshold study.

    ``dims`` and ``sample_sizes`` are paired positionally, one sample size
    per dimension, so no dimension may repeat.  ``estimators``
    selects which of the Bayesian network (bnet) and the proximal-gradient
    comparator (dnet) run.  ``rules`` selects the threshold-study edge
    rules: "mean" thresholds the posterior mean partial correlations,
    "ratio" thresholds them relative to a wide Wishart reference (and
    needs chains, so it is much slower).
    """

    structures: tuple[Literal[KINDS], ...] = ("ar2",)
    dims: tuple[int, ...] = bound((10, 30, 100), ge=MIN_DIM)
    # estimate_bnet needs two rows per sample
    sample_sizes: tuple[int, ...] = bound((50, 100, 200), ge=2)
    replications: int = bound(40, ge=1)
    estimators: tuple[Literal["bnet", "dnet"], ...] = ("bnet", "dnet")
    gibbs: GibbsConfig = GibbsConfig()
    ista: IstaConfig = IstaConfig()
    eta: float = bound(0.3, ge=0, le=1)
    sweep_grid: tuple[float, ...] = bound(tuple(float(x) for x in DEFAULT_GRID), ge=0, le=1)
    rules: tuple[Literal["mean", "ratio"], ...] = ("mean",)
    dn_mode: Literal[DN_MODES] = "union"
    eps: float = bound(0.001, gt=0)
    master_seed: int = bound(0, ge=0)

    def __post_init__(self):
        check_fields(self)
        if len(self.dims) != len(self.sample_sizes):
            raise ValueError("dims and sample_sizes must pair up")
        if len(set(self.dims)) != len(self.dims):
            # results are keyed by (structure, p, ...), so a repeat would overwrite
            raise ValueError(f"repeated dimension in dims {self.dims}; run each (p, n) pair separately")
        grid = self.sweep_grid
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("sweep_grid must be non-empty and strictly increasing")


def _is_number(value) -> bool:
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


@dataclass(frozen=True)
class RealAnalysisConfig:
    """Where the data lives and how to split it into the two groups.

    Either ``class_column`` (a column whose two values define the groups)
    or ``boundaries`` (ISO dates cutting the date-ordered rows into named
    phases, two of which are compared) must be given.  ``compare`` names
    the two groups: class values (numbers, or strings that parse as
    numbers) or phase names.  All of this is checked when the config is
    made, before any data is read.
    """

    csv_path: str
    date_column: str | None = None
    class_column: str | None = None
    boundaries: tuple[str, ...] = ()
    phase_names: tuple[str, ...] | None = None
    compare: tuple[str | float, str | float] | None = None
    moving_average_window: int = bound(1, ge=1)
    gibbs: GibbsConfig = GibbsConfig()
    eta: float = bound(0.3, ge=0, le=1)
    dn_mode: Literal[DN_MODES] = "difference"
    eps: float = bound(0.001, gt=0)
    master_seed: int = bound(0, ge=0)

    def __post_init__(self):
        check_fields(self)
        if (self.class_column is None) == (len(self.boundaries) == 0):
            raise ValueError("configure exactly one of class_column or boundaries")
        if self.class_column is not None:
            if not all(map(_is_number, self.compare or ())):
                raise FieldError(
                    "compare", f"must be numbers or numeric strings, got {list(self.compare)}"
                )
            return
        try:
            dates = self.boundary_dates
        except ValueError as err:
            raise FieldError("boundaries", f"must be ISO dates (YYYY-MM-DD): {err}") from None
        if dates != sorted(dates):
            raise FieldError("boundaries", f"must be in date order, got {list(self.boundaries)}")
        phases = self.phases
        if len(phases) != len(dates) + 1:
            raise FieldError(
                "phase_names",
                f"must name {len(dates) + 1} phases for {len(dates)} boundaries, got {len(phases)}",
            )
        if len(set(phases)) != len(phases):
            raise FieldError("phase_names", f"must be distinct, got {list(phases)}")
        for name in self.compare or ():
            if name not in phases:
                raise FieldError("compare", f"must name phases among {list(phases)}, got {name!r}")

    @property
    def class_values(self) -> tuple[float, ...]:
        """The ``compare`` class values as numbers (empty without ``compare``)."""
        return tuple(float(v) for v in self.compare or ())

    @property
    def boundary_dates(self) -> list[datetime.date]:
        """``boundaries`` as dates."""
        return [datetime.date.fromisoformat(b) for b in self.boundaries]

    @property
    def phases(self) -> tuple[str, ...]:
        """The phase names: ``phase_names``, or phase1, phase2, ... when it is empty or None."""
        if self.phase_names:
            return self.phase_names
        return tuple(f"phase{k + 1}" for k in range(len(self.boundaries) + 1))


@dataclass(frozen=True)
class ResultsTable:
    """Per-(structure, p, estimator, metric) medians and spreads.

    ``entries`` maps that key to a dict with the raw ``values`` plus
    ``median``, ``se_mad`` (scaled median absolute deviation over sqrt of
    the replication count) and ``se_boot`` (bootstrap standard error of
    the median).
    """

    entries: dict[tuple[str, int, str, str], dict]


@dataclass(frozen=True)
class RuleStudy:
    median_sparsity_error: np.ndarray
    median_mcc: np.ndarray
    best_eta: float
    best_mcc: float
    per_rep_best_eta: list[float]


@dataclass(frozen=True)
class StudyResult:
    structure: str
    dim: int
    sample_size: int
    grid: np.ndarray
    rules: dict[str, RuleStudy]


@dataclass(frozen=True)
class RealAnalysisResult:
    columns: list[str]
    group_names: tuple[str, str]
    group_sizes: tuple[int, int]
    network: object
    box_m_statistic: float
    box_m_p_value: float


def task_seeds(
    master_seed: int, structure_index: int, dim_index: int, replication: int
) -> list[int]:
    """Derive the four independent 63-bit seeds of one task.

    They seed the model pair, the two samples and the chains.  The spawn
    key is ``(structure_index, dim_index, replication)``, so tasks get
    pairwise distinct streams (see :func:`spawn_seeds`).
    """
    return spawn_seeds(master_seed, 4, (structure_index, dim_index, replication))


def _tasks(cfg: ExperimentConfig) -> list[tuple]:
    """Every (structure, dim, replication) task of a run, in output order."""
    return [
        (cfg, si, di, rep)
        for si in range(len(cfg.structures))
        for di in range(len(cfg.dims))
        for rep in range(cfg.replications)
    ]


def _manifest_seeds(cfg: ExperimentConfig) -> list[list[int]]:
    return [task_seeds(cfg.master_seed, si, di, rep) for _, si, di, rep in _tasks(cfg)]


def _task_data(task):
    """One task's seeds, model pair and the two samples drawn from it."""
    cfg, si, di, rep = task
    seeds = task_seeds(cfg.master_seed, si, di, rep)
    n = cfg.sample_sizes[di]
    pair = make_structure(StructureSpec(cfg.structures[si], cfg.dims[di], seed=seeds[0]))
    x1 = sample_gaussian(pair.theta1, n, seed=seeds[1])
    x2 = sample_gaussian(pair.theta2, n, seed=seeds[2])
    return seeds, pair, x1, x2


def _chain_labels(task) -> tuple[str, str]:
    """How error messages name a task's two chains."""
    cfg, si, di, rep = task
    where = f"{cfg.structures[si]} p={cfg.dims[di]} replication {rep}"
    return f"{where} sample 1", f"{where} sample 2"


def _groups(cfg: ExperimentConfig, results: list):
    """Yield (structure, p, n, per-replication results) in task order."""
    reps = cfg.replications
    k = 0
    for structure in cfg.structures:
        for p, n in zip(cfg.dims, cfg.sample_sizes):
            yield structure, p, n, results[k : k + reps]
            k += reps


@contextmanager
def _mapper(threads: int):
    """A ``map(fn, items) -> list`` in this process, or over a pool of ``threads`` workers."""
    if threads <= 1:
        yield lambda fn, items: [fn(item) for item in items]
        return
    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield lambda fn, items: list(pool.map(fn, items))


def _data_or_scores(stages, task):
    """``(data, None)`` for a task that requests chains, else ``(None, scores)``."""
    data_fn, score_fn = stages
    data = data_fn(task)
    if data[-1]:
        return data, None
    return None, score_fn((task, data, []))


def _run_batch(batch: list[ChainRequest]) -> list:
    """One batch of ``gibbs.chain_batches``: a stack, or a lone chain."""
    return run_chains(batch, stacked=len(batch) > 1)


def _run_staged(data_fn, score_fn, cfg: ExperimentConfig, threads: int) -> list:
    """Run every task of ``cfg`` through the data, chain and scoring stages.

    ``data_fn(task)`` returns the task's data with its chain requests
    last; ``score_fn((task, data, chains))`` gets the summaries of those
    requests, in order.  A task that requests no chains is scored as soon
    as its data is made, so only the tasks waiting for chains hold data.
    The size rule cuts the requests of all tasks into batches, largest
    first, which the workers take one at a time.
    """
    tasks = _tasks(cfg)
    with _mapper(threads) as run:
        first = run(partial(_data_or_scores, (data_fn, score_fn)), tasks)
        waiting = [(task, data) for task, (data, _) in zip(tasks, first) if data is not None]
        requests = [req for _, data in waiting for req in data[-1]]
        batches = chain_batches(requests, max(threads, 1))
        parts = run(_run_batch, [[requests[i] for i in batch] for batch in batches])
        summaries = [None] * len(requests)
        for batch, part in zip(batches, parts):
            for i, summary in zip(batch, part):
                summaries[i] = summary
        chains = iter(summaries)
        pending = [(task, data, [next(chains) for _ in data[-1]]) for task, data in waiting]
        scored = iter(run(score_fn, pending))
        return [scores if data is None else next(scored) for data, scores in first]


def _synthetic_data(task):
    cfg = task[0]
    seeds, pair, x1, x2 = _task_data(task)
    requests = []
    if "bnet" in cfg.estimators:
        chain_cfg = replace(cfg.gibbs, seed=seeds[3])
        requests = bnet_requests(x1, x2, chain_cfg, labels=_chain_labels(task))
    samples = (x1, x2) if "dnet" in cfg.estimators else None
    return (pair.true_delta, pair.true_adjacency), samples, requests


def _synthetic_score(item) -> dict:
    task, ((true_delta, true_adjacency), samples, requests), chains = item
    cfg = task[0]
    out: dict[str, dict[str, float]] = {}
    for est in cfg.estimators:
        if est == "bnet":
            dn = bnet_network(requests, chains, cfg.eta, mode=cfg.dn_mode, eps=cfg.eps)
            delta, adj = dn.delta_hat, dn.adjacency
        else:
            delta, adj, _ = estimate_dnet(*samples, cfg.ista)
        losses = loss_report(delta, true_delta)
        scores = classification_scores(confusion(adj, true_adjacency))
        out[est] = {
            **losses.as_dict(),
            "sp": scores.sp,
            "se": scores.se,
            "fnr": scores.fnr,
            "f1": scores.f1,
            "mcc": scores.mcc,
        }
    return out


def _median(values: np.ndarray) -> float:
    if np.all(np.isnan(values)):
        return float("nan")
    return float(np.nanmedian(values))


def _se_mad(values: np.ndarray) -> float:
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return float("nan")
    med = np.median(finite)
    mad = np.median(np.abs(finite - med))
    return float(1.4826 * mad / np.sqrt(finite.size))


def _se_boot(values: np.ndarray, rng: np.random.Generator) -> float:
    finite = values[~np.isnan(values)]
    if finite.size < 2:
        return float("nan")
    idx = rng.integers(0, finite.size, size=(_BOOTSTRAP_RESAMPLES, finite.size))
    meds = np.median(finite[idx], axis=1)
    return float(np.std(meds, ddof=1))


def run_synthetic_experiment(cfg: ExperimentConfig, threads: int = 1) -> ResultsTable:
    """Benchmark the requested estimators over structures and dimensions.

    For every (structure, dim, replication) triple: generate the model
    pair, sample the two datasets, run the estimators, score the point
    estimate against the true difference and the graph against the true
    support.  Medians and spreads aggregate over replications.  A failing
    chain's error names its structure, p, replication and sample.
    """
    try:
        results = _run_staged(_synthetic_data, _synthetic_score, cfg, threads)
    except Exception as err:
        raise RuntimeError(f"synthetic experiment failed: {err}") from err

    entries: dict[tuple[str, int, str, str], dict] = {}
    boot_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(0xB007,))
    )
    for structure, p, n, per_rep in _groups(cfg, results):
        for est in cfg.estimators:
            for metric in LOSS_METRICS + SCORE_METRICS:
                values = np.array([r[est][metric] for r in per_rep], dtype=float)
                entries[(structure, p, est, metric)] = {
                    "n": n,
                    "values": values,
                    "median": _median(values),
                    "se_mad": _se_mad(values),
                    "se_boot": _se_boot(values, boot_rng),
                }
    return ResultsTable(entries=entries)


def _study_data(task):
    cfg = task[0]
    (_, _, _, s_chain), pair, x1, x2 = _task_data(task)
    n = x1.shape[0]
    scatters = (mirror_lower(x1.T @ x1), mirror_lower(x2.T @ x2))
    requests = []
    if "ratio" in cfg.rules:
        requests = [
            ChainRequest(s, n, replace(cfg.gibbs, seed=c), label=label)
            for s, c, label in zip(scatters, spawn_seeds(s_chain, 2), _chain_labels(task))
        ]
    return pair.true_adjacency, n, scatters, requests


def _study_score(item) -> dict[str, ThresholdReport]:
    task, (true_adjacency, n, scatters, _), chains = item
    cfg = task[0]
    grid = np.asarray(cfg.sweep_grid)
    reports: dict[str, ThresholdReport] = {}
    if "mean" in cfg.rules:
        eh = tuple(posterior_partial_corr_mean(s, n, cfg.eps) for s in scatters)
        reports["mean"] = threshold_sweep(
            true_adjacency, lambda eta: dn_adjacency(eh, eta, cfg.dn_mode), grid
        )
    if "ratio" in cfg.rules:
        rho = tuple(chain.partial_mean for chain in chains)
        eg = tuple(posterior_partial_corr_mean(s, n, 1.0) for s in scatters)
        reports["ratio"] = threshold_sweep(
            true_adjacency, lambda eta: dn_adjacency(rho, eta, cfg.dn_mode, eg), grid
        )
    return reports


def run_threshold_study(cfg: ExperimentConfig, threads: int = 1) -> list[StudyResult]:
    """Scan the threshold grid per structure and dimension.

    Returns, per (structure, dim) and per rule, the median curves over
    replications, the threshold maximizing the median MCC curve, and every
    replication's individually best threshold.
    """
    grid = np.asarray(cfg.sweep_grid)
    results = _run_staged(_study_data, _study_score, cfg, threads)
    out: list[StudyResult] = []
    for structure, p, n, per_rep in _groups(cfg, results):
        rules: dict[str, RuleStudy] = {}
        for rule in cfg.rules:
            sp = np.vstack([r[rule].sparsity_error for r in per_rep])
            mc = np.vstack([r[rule].mcc for r in per_rep])
            with np.errstate(all="ignore"):
                med_mc = np.array([_median(mc[:, k]) for k in range(grid.size)])
            best_eta, best_mcc = best_threshold(grid, med_mc)
            rules[rule] = RuleStudy(
                median_sparsity_error=np.median(sp, axis=0),
                median_mcc=med_mc,
                best_eta=best_eta,
                best_mcc=best_mcc,
                per_rep_best_eta=[r[rule].best_eta for r in per_rep],
            )
        out.append(StudyResult(structure=structure, dim=p, sample_size=n, grid=grid, rules=rules))
    return out


def _two_groups(cfg: RealAnalysisConfig) -> tuple[list[str], tuple[str, str], np.ndarray, np.ndarray]:
    ds = read_csv(cfg.csv_path, date_column=cfg.date_column)
    if cfg.class_column is not None:
        if cfg.class_column not in ds.columns:
            raise ValueError(f"class column {cfg.class_column!r} not found")
        ci = ds.columns.index(cfg.class_column)
        labels = ds.rows[:, ci]
        feature_idx = [k for k in range(len(ds.columns)) if k != ci]
        columns = [ds.columns[k] for k in feature_idx]
        uniq = sorted(set(labels.tolist()))
        if cfg.compare is not None:
            wanted = list(cfg.class_values)
        else:
            if len(uniq) != 2:
                raise ValueError(f"class column has {len(uniq)} values; pass compare=(a, b)")
            wanted = uniq
        g1 = ds.rows[np.isclose(labels, wanted[0])][:, feature_idx]
        g2 = ds.rows[np.isclose(labels, wanted[1])][:, feature_idx]
        names = (str(wanted[0]), str(wanted[1]))
    else:
        split = split_phases(ds, cfg.boundary_dates, list(cfg.phases))
        names = (cfg.compare or cfg.phases)[:2]
        columns = ds.columns
        g1 = split.rows(ds, names[0])
        g2 = split.rows(ds, names[1])
    return columns, names, g1, g2


def _preprocess(x: np.ndarray, window: int) -> np.ndarray:
    if window > 1:
        x = np.column_stack([moving_average(x[:, j], window) for j in range(x.shape[1])])
    return nonparanormal_transform(x)


def run_real_analysis(cfg: RealAnalysisConfig) -> RealAnalysisResult:
    """Differential network between two groups of one dataset.

    Each group is smoothed (optional trailing moving average), marginally
    Gaussianized, and fed to the Bayesian estimator; the homogeneity test
    runs on the two groups' sample covariances.
    """
    columns, names, g1, g2 = _two_groups(cfg)
    t1 = _preprocess(g1, cfg.moving_average_window)
    t2 = _preprocess(g2, cfg.moving_average_window)
    network = estimate_bnet(
        t1,
        t2,
        replace(cfg.gibbs, seed=cfg.master_seed),
        cfg.eta,
        mode=cfg.dn_mode,
        eps=cfg.eps,
    )
    cov1 = mirror_lower((t1 - t1.mean(axis=0)).T @ (t1 - t1.mean(axis=0)) / (t1.shape[0] - 1))
    cov2 = mirror_lower((t2 - t2.mean(axis=0)).T @ (t2 - t2.mean(axis=0)) / (t2.shape[0] - 1))
    stat, pval = boxs_m_test(cov1, t1.shape[0], cov2, t2.shape[0])
    return RealAnalysisResult(
        columns=columns,
        group_names=names,
        group_sizes=(t1.shape[0], t2.shape[0]),
        network=network,
        box_m_statistic=stat,
        box_m_p_value=pval,
    )


# ---------------------------------------------------------------------------
# Serialization and output files
# ---------------------------------------------------------------------------


def config_to_dict(cfg) -> dict:
    """Nested plain-dict form of a config dataclass (JSON writes its tuples as lists)."""
    return dataclasses.asdict(cfg)


def config_from_dict(d: dict, real: bool = False):
    """Rebuild an ExperimentConfig (or RealAnalysisConfig) from a parsed JSON object."""
    return decode(RealAnalysisConfig if real else ExperimentConfig, d)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return [float(x) for x in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _dump_json(payload, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")


def _fmt(x: float) -> str:
    return "NA" if isinstance(x, float) and np.isnan(x) else repr(float(x))


def write_manifest(outdir: str, config_dict: dict, seeds: list[list[int]]) -> str:
    """Write manifest.json with a canonical config hash and derived seeds."""
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    path = os.path.join(outdir, "manifest.json")
    _dump_json({"config": config_dict, "config_hash": digest, "seeds": seeds}, path)
    return digest


def emit_results_table(table: ResultsTable, cfg: ExperimentConfig, outdir: str) -> None:
    """Write results.csv and the manifest (with every task's seeds) to ``outdir``."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "results.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["structure", "p", "n", "estimator", "metric", "median", "se_mad", "se_boot"]
        )
        for key in sorted(table.entries):
            structure, p, est, metric = key
            e = table.entries[key]
            writer.writerow(
                [
                    structure,
                    p,
                    e["n"],
                    est,
                    metric,
                    _fmt(e["median"]),
                    _fmt(e["se_mad"]),
                    _fmt(e["se_boot"]),
                ]
            )
    write_manifest(outdir, config_to_dict(cfg), _manifest_seeds(cfg))


def emit_study(studies: list[StudyResult], cfg: ExperimentConfig, outdir: str) -> None:
    """Write threshold_study.json and the manifest (with every task's seeds) to ``outdir``."""
    payload = []
    for st in studies:
        rules = {}
        for rule, rs in st.rules.items():
            rules[rule] = {
                "median_sparsity_error": [float(x) for x in rs.median_sparsity_error],
                "median_mcc": [None if np.isnan(x) else float(x) for x in rs.median_mcc],
                "best_eta": rs.best_eta,
                "best_mcc": None if np.isnan(rs.best_mcc) else rs.best_mcc,
                "per_rep_best_eta": rs.per_rep_best_eta,
            }
        payload.append(
            {
                "structure": st.structure,
                "p": st.dim,
                "n": st.sample_size,
                "grid": [float(x) for x in st.grid],
                "rules": rules,
            }
        )
    os.makedirs(outdir, exist_ok=True)
    _dump_json(payload, os.path.join(outdir, "threshold_study.json"))
    write_manifest(outdir, config_to_dict(cfg), _manifest_seeds(cfg))


def emit_real(result: RealAnalysisResult, cfg: RealAnalysisConfig, outdir: str) -> None:
    """Write the estimated matrices, the edge list, a summary and the manifest to ``outdir``."""
    net = result.network
    cols = result.columns
    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, "delta_hat.csv"), cols, net.delta_hat)
    write_csv(os.path.join(outdir, "component_mean_1.csv"), cols, net.component_means[0])
    write_csv(os.path.join(outdir, "component_mean_2.csv"), cols, net.component_means[1])
    write_csv(os.path.join(outdir, "adjacency.csv"), cols, net.adjacency.astype(float))
    with open(os.path.join(outdir, "edges.txt"), "w", encoding="utf-8") as fh:
        iu = np.triu_indices(len(cols), k=1)
        for i, j in zip(*iu):
            if net.adjacency[i, j]:
                fh.write(f"{i} {j} {cols[i]} {cols[j]} {repr(float(net.delta_hat[i, j]))}\n")
    _dump_json(
        {
            "groups": list(result.group_names),
            "group_sizes": list(result.group_sizes),
            "eta": net.eta,
            "mode": net.mode,
            "n_edges": int(np.count_nonzero(np.triu(net.adjacency, k=1))),
            "box_m_statistic": result.box_m_statistic,
            "box_m_p_value": result.box_m_p_value,
        },
        os.path.join(outdir, "summary.json"),
    )
    # the chain seeds are spawned from cfg.master_seed, which the config holds
    write_manifest(outdir, config_to_dict(cfg), [])
