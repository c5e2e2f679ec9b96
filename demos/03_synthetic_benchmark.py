#!/usr/bin/env python3
"""Head-to-head benchmark of the Bayesian and proximal-gradient estimators.

Runs a reduced version of the synthetic study (two structures, a few
replications) and prints the median losses and classification scores per
estimator.  The full-size run is `bayesdn synthetic --paper-scale`.
"""

import time

from bayesdn.gibbs import GibbsConfig
from bayesdn.harness import ExperimentConfig, run_experiment

cfg = ExperimentConfig(
    structures=("ar2", "cluster"),
    dims=(10,),
    sample_sizes=(100,),
    replications=4,
    estimators=("bnet", "dnet"),
    gibbs=GibbsConfig(burn_in=500, retained=1000),
    eta=0.3,
    dn_mode="union",
    master_seed=2024,
)

start = time.monotonic()
table = run_experiment(cfg, threads=2)
print(f"{cfg.replications} replications x {len(cfg.structures)} structures "
      f"in {time.monotonic() - start:.0f}s\n")

metrics = ("l1", "l2", "el1", "mcc", "f1", "se", "sp")
header = "structure  estimator  " + "".join(f"{m:>8}" for m in metrics)
print(header)
print("-" * len(header))
for structure in cfg.structures:
    for est in cfg.estimators:
        row = [table.entries[(structure, 10, est, m)]["median"] for m in metrics]
        cells = "".join(f"{v:8.3f}" for v in row)
        print(f"{structure:<10} {est:<10}{cells}")

print(
    "\nspread columns (per metric) are also available: "
    "se_mad and se_boot in each table entry"
)
