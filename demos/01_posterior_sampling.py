#!/usr/bin/env python3
"""Sample a precision-matrix posterior and inspect the shrinkage.

Generates data from a known sparse precision matrix, runs the block
Gibbs sampler on the scatter matrix, and compares the posterior mean
against the truth and against the raw inverted sample covariance.
"""

import numpy as np

from bayesdn.gibbs import GibbsConfig, chain_draws
from bayesdn.linalg import invert_pd, mirror_lower
from bayesdn.structures import StructureSpec, make_structure, sample_gaussian

np.set_printoptions(precision=2, suppress=True, linewidth=120)

p, n = 8, 150
pair = make_structure(StructureSpec("ar2", p))
x = sample_gaussian(pair.theta2, n, seed=1)
scatter = mirror_lower(x.T @ x)

print("true precision (first 4 rows):")
print(pair.theta2[:4])

# the chain streams its draws; keep a running mean and two entries' traces.
# The seed is the chain's own, not a sampler setting, so it goes beside cfg.
cfg = GibbsConfig(burn_in=1000, retained=2000)
mean = np.zeros((p, p))
on_edge, off_edge = [], []
for theta in chain_draws(scatter, n, cfg, seed=7):
    mean += theta
    on_edge.append(theta[0, 1])
    off_edge.append(theta[0, p - 1])
mean /= cfg.retained
on_edge, off_edge = np.array(on_edge), np.array(off_edge)

print(f"\nposterior mean over {cfg.retained} retained draws:")
print(mean[:4])

raw = invert_pd(scatter / n)
print("\ninverted sample covariance, for contrast (noisy off the support):")
print(raw[:4])

off_support = pair.theta2 == 0
print(
    f"\nmean |error| off the support: sampler {np.abs(mean - pair.theta2)[off_support].mean():.4f}, "
    f"raw inverse {np.abs(raw - pair.theta2)[off_support].mean():.4f}"
)

# per-draw uncertainty for one edge on and one off the support
print(f"theta[0,1] (true {pair.theta2[0, 1]}): mean {on_edge.mean():+.3f}, sd {on_edge.std():.3f}")
print(f"theta[0,{p-1}] (true 0): mean {off_edge.mean():+.3f}, sd {off_edge.std():.3f}")
