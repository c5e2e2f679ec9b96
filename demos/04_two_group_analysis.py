#!/usr/bin/env python3
"""End-to-end two-group analysis of a CSV time series.

Builds a small dated dataset whose two phases come from different
precision matrices, then runs the full pipeline: moving average,
rank-based Gaussianization, per-phase posterior sampling, thresholding,
and the covariance homogeneity test.  Equivalent to:

    bayesdn real --config <json with csv_path/boundaries> --out out/
"""

import datetime
import tempfile
from pathlib import Path

import numpy as np

from bayesdn.gibbs import GibbsConfig
from bayesdn.harness import RealAnalysisConfig, emit_real, run_real_analysis
from bayesdn.pipeline import write_csv
from bayesdn.structures import StructureSpec, make_structure, sample_gaussian

tmp = tempfile.TemporaryDirectory(prefix="bayesdn_demo_")
workdir = Path(tmp.name)

# two phases, 140 days each, with a covariance change between them
pair = make_structure(StructureSpec("cluster", 8))
phase1 = sample_gaussian(pair.theta1, 140, seed=5)
phase2 = sample_gaussian(pair.theta2, 140, seed=6)
rows = np.vstack([phase1, phase2])
start = datetime.date(2020, 3, 1)
dates = [start + datetime.timedelta(days=k) for k in range(rows.shape[0])]
columns = [f"metric_{k}" for k in range(rows.shape[1])]
csv_path = workdir / "daily_metrics.csv"
write_csv(csv_path, columns, rows, dates=dates)
boundary = (start + datetime.timedelta(days=140)).isoformat()
print(f"dataset: {csv_path} ({rows.shape[0]} rows), phase boundary {boundary}")

cfg = RealAnalysisConfig(
    csv_path=str(csv_path),
    date_column="date",
    boundaries=(boundary,),
    phase_names=("wave1", "plateau1"),
    moving_average_window=7,
    gibbs=GibbsConfig(burn_in=500, retained=1000),
    eta=0.3,
    dn_mode="difference",
    master_seed=11,
)
result = run_real_analysis(cfg)

print(f"\ngroups: {result.group_names}, sizes after smoothing: {result.group_sizes}")
print(f"Box's M statistic {result.box_m_statistic:.1f}, p-value {result.box_m_p_value:.3g}")

net = result.network
edges = [
    (columns[i], columns[j], net.delta_hat[i, j])
    for i, j in zip(*np.triu_indices(len(columns), k=1))
    if net.adjacency[i, j]
]
print(f"\n{len(edges)} differential edges at eta={net.eta}:")
for a, b, w in edges:
    print(f"  {a} -- {b}   (precision change {w:+.3f})")

outdir = workdir / "out"
emit_real(result, cfg, str(outdir))
print(
    f"\nfull outputs (delta, adjacency, component means, edge list, manifest) in {outdir},"
    " a temporary directory removed on exit"
)
tmp.cleanup()
