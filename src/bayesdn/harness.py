"""Experiment harness: synthetic benchmark, threshold study, real-data run.

Every run is reproducible from one master seed: per-task seeds are derived
through ``numpy.random.SeedSequence`` keyed by (structure index, dimension
index, replication index), aggregation happens after a deterministic sort
of the collected results, and files are written with round-tripping float
formatting.  The emitted bytes therefore do not depend on how many worker
processes executed the tasks.

The synthetic benchmark and the threshold study share one pass of three
stages over their tasks, for the estimators and rules a run asks for.
The data stage makes each task's model pair, samples and scatters, and
names the two Gibbs chains (a :class:`~bayesdn.gibbs.ChainRequest` per
sample) that bnet and the ratio rule share; the mean rule reads only
their scatters.  The chain stage runs the requests of every task that
chains through one ``gibbs.run_chains`` call, so chains of different
tasks can share a stack: the size rule (``gibbs.chain_batches``) sees
the whole list and cuts it into batches, lone chains and stacks, which
the workers take one at a time.  The scoring stage makes each task's two
tight Wishart references once, for bnet's graph and the mean rule alike,
runs the comparator and scores the estimates and the rules.  Each stage
runs over every task in task order, and a chain's numbers do not depend
on its batch.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from typing import Literal

import numpy as np

from .config import FieldError, bound, check_fields
from .diffnet import DN_MODES, bnet_requests, dn_adjacency, estimate_bnet
from .gibbs import GibbsConfig, run_chains, spawn_seeds
from .ista import IstaConfig, estimate_dnet
from .linalg import mirror_lower, upper_indices
from .metrics import LossReport, Scores, classification_scores, confusion, is_na, loss_report
from .pipeline import (
    ColumnError,
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
    "run_synthetic_experiment",
    "run_threshold_study",
    "run_real_analysis",
    "emit_results_table",
    "emit_study",
    "emit_real",
    "write_manifest",
]

_BOOTSTRAP_RESAMPLES = 200


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by the synthetic benchmark and threshold study.

    ``dims`` and ``sample_sizes`` are paired positionally, one sample size
    per dimension, so no dimension may repeat.  ``estimators``
    selects which of the Bayesian network (bnet) and the proximal-gradient
    comparator (dnet) run.  ``rules`` selects the threshold-study edge
    rules: "mean" thresholds the tight Wishart reference, as bnet's graph
    does; "ratio" thresholds bnet's posterior mean partial correlations
    relative to a wide one, so a study without bnet runs chains for it.
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
        for name in ("structures", "dims", "estimators", "rules"):
            if not getattr(self, name):
                raise FieldError(name, "must be non-empty")
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
            groups = self.class_values
        else:
            self._check_phases()
            groups = self.compare or ()
        if len(set(groups)) != len(groups):
            raise FieldError("compare", f"must name two different groups, got {list(self.compare)}")

    def _check_phases(self) -> None:
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
    the median).  ``studies`` is the run's threshold study, if it made one.
    """

    entries: dict[tuple[str, int, str, str], dict]
    studies: tuple[StudyResult, ...] = ()


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
    """A ``map(fn, items) -> list`` in this process, or over a pool of ``threads`` workers.

    The pool refuses a count below 1 with a ``ValueError``.
    """
    if threads == 1:
        yield lambda fn, items: [fn(item) for item in items]
        return
    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield lambda fn, items: list(pool.map(fn, items))


def _data(plan, task):
    """One task's truth, dnet's samples, the requests (with scatters) ``plan`` reads, ``chained``.

    ``plan`` is the run's (estimators, rules); bnet and the ratio rule
    share the chains, so ``chained`` says whether either runs.
    """
    estimators, rules = plan
    cfg, si, di, rep = task
    seeds = task_seeds(cfg.master_seed, si, di, rep)
    pair = make_structure(StructureSpec(cfg.structures[si], cfg.dims[di], seed=seeds[0]))
    x1 = sample_gaussian(pair.theta1, cfg.sample_sizes[di], seed=seeds[1])
    x2 = sample_gaussian(pair.theta2, cfg.sample_sizes[di], seed=seeds[2])
    requests = []
    if "bnet" in estimators or rules:
        where = f"{cfg.structures[si]} p={cfg.dims[di]} replication {rep}"
        labels = (f"{where} sample 1", f"{where} sample 2")  # how errors name the chains
        requests = bnet_requests(x1, x2, cfg.gibbs, seeds[3], labels)
    samples = (x1, x2) if "dnet" in estimators else None
    chained = "bnet" in estimators or "ratio" in rules
    return (pair.true_delta, pair.true_adjacency), samples, requests, chained


def _run_tasks(cfg: ExperimentConfig, plan, run, threads: int) -> list:
    """Every task of ``cfg`` through the data, chain and scoring stages, each mapped by ``run``.

    ``gibbs.run_chains`` cuts the requests of all the tasks that chain
    into batches, largest first, which the workers take one at a time;
    each task is scored with the summaries of its own chains, in request
    order, or with none.
    """
    tasks = _tasks(cfg)
    data = run(partial(_data, plan), tasks)
    requests = [req for *_, reqs, chained in data if chained for req in reqs]
    chains = iter(run_chains(requests, run, threads))
    own = ([next(chains) for _ in reqs] if chained else [] for *_, reqs, chained in data)
    return run(partial(_score, plan), list(zip(tasks, data, own)))


def _bnet_estimate(chains, tight, cfg: ExperimentConfig):
    """bnet's point estimate and graph: its chains' mean difference, its tight references at eta."""
    return chains[1].theta_mean - chains[0].theta_mean, dn_adjacency(tight, cfg.eta, cfg.dn_mode)


def _score(plan, item) -> tuple[dict, dict[str, ThresholdReport]]:
    """One task's scores per estimator and report per rule; bnet and "mean" share ``tight``."""
    estimators, rules = plan
    task, ((true_delta, true_adjacency), samples, requests, _), chains = item
    cfg = task[0]
    if "bnet" in estimators or "mean" in rules:
        tight = tuple(posterior_partial_corr_mean(r.scatter, r.n, cfg.eps) for r in requests)
    scores: dict[str, dict[str, float]] = {}
    for est in estimators:
        if est == "bnet":
            delta, adj = _bnet_estimate(chains, tight, cfg)
        else:
            delta, adj, _ = estimate_dnet(*samples, cfg.ista)
        graph = classification_scores(confusion(adj, true_adjacency))
        scores[est] = {**loss_report(delta, true_delta)._asdict(), **graph._asdict()}
    grid = np.asarray(cfg.sweep_grid)
    reports: dict[str, ThresholdReport] = {}
    if "mean" in rules:
        mean = dn_adjacency(tight, grid, cfg.dn_mode)
        reports["mean"] = threshold_sweep(true_adjacency, mean, grid)
    if "ratio" in rules:
        rho = tuple(chain.partial_mean for chain in chains)
        wide = tuple(posterior_partial_corr_mean(r.scatter, r.n, 1.0) for r in requests)
        ratio = dn_adjacency(rho, grid, cfg.dn_mode, wide)
        reports["ratio"] = threshold_sweep(true_adjacency, ratio, grid)
    return scores, reports


def _nanmedian_columns(a: np.ndarray) -> np.ndarray:
    """``np.nanmedian(a, axis=0)`` for a 2-D float array, bit for bit, without its warning.

    One sort along the rows puts each column's NaNs last; the median of
    the ``k`` numbers before them is the mean of the middle two, or of the
    middle one with itself, as numpy forms it.  An all-NaN column gives NaN.
    """
    ordered = np.sort(a, axis=0)
    k = a.shape[0] - np.count_nonzero(np.isnan(a), axis=0)
    hi = (k // 2)[None]
    lo = np.where(k % 2 == 1, hi, hi - 1)
    mid = np.take_along_axis(ordered, lo, 0)[0] + np.take_along_axis(ordered, hi, 0)[0]
    return np.where(k > 0, mid / 2.0, np.nan)


def _se_mad(values: np.ndarray, median: float) -> float:
    """Scaled MAD over sqrt(count) of the finite ``values``, whose median is ``median``."""
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return float("nan")
    mad = np.median(np.abs(finite - median))
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
    support.  Medians and spreads aggregate over replications.  When bnet
    runs, the table also holds the threshold study of ``cfg.rules`` on its
    chains.  A failing chain's error names its structure, p, replication
    and sample.
    """
    plan = (cfg.estimators, cfg.rules if "bnet" in cfg.estimators else ())
    with _mapper(threads) as run:  # a bad worker count is the caller's error, not a task's
        try:
            results = _run_tasks(cfg, plan, run, threads)
        except Exception as err:
            raise RuntimeError(f"synthetic experiment failed: {err}") from err

    entries: dict[tuple[str, int, str, str], dict] = {}
    boot_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(0xB007,))
    )
    metrics = LossReport._fields + Scores._fields
    for structure, p, n, per_rep in _groups(cfg, [scores for scores, _ in results]):
        for est in cfg.estimators:
            # replications x metrics, and every metric's median from one sort
            table = np.array([[r[est][m] for m in metrics] for r in per_rep], dtype=float)
            for metric, values, median in zip(metrics, table.T, _nanmedian_columns(table)):
                entries[(structure, p, est, metric)] = {
                    "n": n,
                    "values": values,
                    "median": float(median),
                    "se_mad": _se_mad(values, median),
                    "se_boot": _se_boot(values, boot_rng),
                }
    studies = _studies(cfg, plan[1], [reports for _, reports in results]) if plan[1] else []
    return ResultsTable(entries, tuple(studies))


def _studies(cfg: ExperimentConfig, rules: tuple[str, ...], reports: list) -> list[StudyResult]:
    """Per (structure, dim), each rule's median curves and best thresholds over replications."""
    grid = np.asarray(cfg.sweep_grid)
    out: list[StudyResult] = []
    for structure, p, n, per_rep in _groups(cfg, reports):
        studied: dict[str, RuleStudy] = {}
        for rule in rules:
            sp = np.vstack([r[rule].sparsity_error for r in per_rep])
            mc = np.vstack([r[rule].mcc for r in per_rep])
            med_mc = _nanmedian_columns(mc)
            best_eta, best_mcc = best_threshold(grid, med_mc)
            studied[rule] = RuleStudy(
                median_sparsity_error=np.median(sp, axis=0),
                median_mcc=med_mc,
                best_eta=best_eta,
                best_mcc=best_mcc,
                per_rep_best_eta=[r[rule].best_eta for r in per_rep],
            )
        out.append(StudyResult(structure=structure, dim=p, sample_size=n, grid=grid, rules=studied))
    return out


def run_threshold_study(cfg: ExperimentConfig, threads: int = 1) -> list[StudyResult]:
    """Scan the threshold grid per structure and dimension, running no estimator.

    Returns, per (structure, dim) and per rule, the median curves over
    replications, the threshold maximizing the median MCC curve, and every
    replication's individually best threshold.
    """
    plan = ((), cfg.rules)
    with _mapper(threads) as run:
        results = _run_tasks(cfg, plan, run, threads)
    return _studies(cfg, cfg.rules, [reports for _, reports in results])


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
            for given, value in zip(cfg.compare, wanted):
                if value not in uniq:
                    raise ValueError(f"no {cfg.class_column!r} row holds compare value {given!r}")
        else:
            if len(uniq) != 2:
                raise ValueError(f"class column has {len(uniq)} values; pass compare=(a, b)")
            wanted = uniq
        g1 = ds.rows[labels == wanted[0]][:, feature_idx]
        g2 = ds.rows[labels == wanted[1]][:, feature_idx]
        names = (str(wanted[0]), str(wanted[1]))
    else:
        phases = split_phases(ds, cfg.boundary_dates, cfg.phases)
        names = (cfg.compare or cfg.phases)[:2]
        columns = ds.columns
        g1, g2 = phases[names[0]], phases[names[1]]
    return columns, names, g1, g2


def _preprocess(x: np.ndarray, window: int, name: str, columns: list[str]) -> np.ndarray:
    """Group ``name`` averaged over ``window`` trailing rows, then Gaussianized; errors name it."""
    needs = f"moving_average_window {window} needs" if window > 1 else "needs"
    if len(x) < window + 2:  # the average keeps len(x) - window + 1 rows; the ranks need 3
        raise ValueError(f"group {name!r} has {len(x)} rows; {needs} at least {window + 2}")
    p = x.shape[1]
    if len(x) < window + p:  # Box's M needs more rows than columns after the average
        raise ValueError(
            f"group {name!r} has {len(x)} rows of {p} columns; {needs} at least {window + p}"
        )
    if window > 1:
        x = np.column_stack([moving_average(x[:, j], window) for j in range(x.shape[1])])
    try:
        return nonparanormal_transform(x)
    except ColumnError as err:
        raise ValueError(f"group {name!r}: column {columns[err.column]!r} {err.problem}") from None


def run_real_analysis(cfg: RealAnalysisConfig, threads: int = 1) -> RealAnalysisResult:
    """Differential network between two groups of one dataset.

    Each group is smoothed (optional trailing moving average), marginally
    Gaussianized, and fed to the Bayesian estimator, whose two chains run
    over ``threads`` workers; the homogeneity test runs on the two groups'
    sample covariances.  A column that cannot be Gaussianized is named by
    its group and header.
    """
    columns, names, g1, g2 = _two_groups(cfg)
    window = cfg.moving_average_window
    t1, t2 = groups = [_preprocess(g, window, name, columns) for name, g in zip(names, (g1, g2))]
    with _mapper(threads) as run:
        network = estimate_bnet(
            t1, t2, cfg.gibbs, cfg.master_seed, cfg.eta, mode=cfg.dn_mode, eps=cfg.eps, mapper=run
        )
    # each factor is its own centred copy: c.T @ c on one buffer would go to
    # BLAS syrk, whose rounding differs from the gemm these covariances take
    means = (t.mean(axis=0) for t in groups)
    cov1, cov2 = (mirror_lower((t - m).T @ (t - m) / (len(t) - 1)) for t, m in zip(groups, means))
    stat, pval = boxs_m_test(cov1, len(t1), cov2, len(t2))
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
    return "NA" if is_na(x) else repr(float(x))


def write_manifest(outdir: str, config_dict: dict, seeds: list[list[int]], **inputs) -> str:
    """Write manifest.json: the config, its canonical hash, the derived seeds and any ``inputs``.

    ``config_dict`` is the run config's ``asdict``, which ``--config`` reads back.
    """
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    path = os.path.join(outdir, "manifest.json")
    _dump_json({"config": config_dict, "config_hash": digest, "seeds": seeds, **inputs}, path)
    return digest


def emit_results_table(table: ResultsTable, cfg: ExperimentConfig, outdir: str) -> None:
    """Write results.csv, the table's study (:func:`emit_study`) and the manifest to ``outdir``."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "results.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["structure", "p", "n", "estimator", "metric", "median", "se_mad", "se_boot"]
        )
        for (structure, p, est, metric), e in sorted(table.entries.items()):
            spread = [_fmt(e[name]) for name in ("median", "se_mad", "se_boot")]
            writer.writerow([structure, p, e["n"], est, metric, *spread])
    if table.studies:
        emit_study(list(table.studies), cfg, outdir)  # and the manifest
    else:
        write_manifest(outdir, asdict(cfg), _manifest_seeds(cfg))


def emit_study(studies: list[StudyResult], cfg: ExperimentConfig, outdir: str) -> None:
    """Write threshold_study.json and the manifest (with every task's seeds) to ``outdir``."""
    payload = [
        {
            "structure": st.structure,
            "p": st.dim,
            "n": st.sample_size,
            "grid": st.grid,
            "rules": {
                rule: {
                    **asdict(rs),
                    "median_mcc": [None if is_na(x) else float(x) for x in rs.median_mcc],
                    "best_mcc": None if is_na(rs.best_mcc) else rs.best_mcc,
                }
                for rule, rs in st.rules.items()
            },
        }
        for st in studies
    ]
    os.makedirs(outdir, exist_ok=True)
    _dump_json(payload, os.path.join(outdir, "threshold_study.json"))
    write_manifest(outdir, asdict(cfg), _manifest_seeds(cfg))


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
        for i, j in zip(*upper_indices(len(cols))):
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
    write_manifest(outdir, asdict(cfg), [])
