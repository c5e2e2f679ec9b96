#!/usr/bin/env python3
"""Pick an edge threshold by scanning the grid against a known truth.

For one synthetic pair, computes the per-sample posterior mean partial
correlations under the Wishart reference, forms the differential-network
adjacency at each threshold, and prints the sparsity error and MCC
curves that drive the selection.
"""

from bayesdn.diffnet import dn_adjacency
from bayesdn.linalg import mirror_lower
from bayesdn.structures import StructureSpec, make_structure, sample_gaussian
from bayesdn.wishart import DEFAULT_GRID, posterior_partial_corr_mean, threshold_sweep

p, n = 10, 100
pair = make_structure(StructureSpec("ar2", p))
x1 = sample_gaussian(pair.theta1, n, seed=3)
x2 = sample_gaussian(pair.theta2, n, seed=4)

partials = tuple(posterior_partial_corr_mean(mirror_lower(x.T @ x), n) for x in (x1, x2))

# one graph per threshold of the grid, scored in one pass
graphs = dn_adjacency(partials, DEFAULT_GRID, mode="union")
report = threshold_sweep(pair.true_adjacency, graphs, DEFAULT_GRID)

print("eta    sparsity_error   mcc")
for eta, err, mcc in zip(report.grid, report.sparsity_error, report.mcc):
    marker = "  <- best" if eta == report.best_eta else ""
    print(f"{eta:.2f}   {err:14.0f}   {mcc:.3f}{marker}")

print(f"\nbest threshold {report.best_eta:.2f} with MCC {report.best_mcc:.3f}")
print("true edge count:", int(pair.true_adjacency.sum() // 2))
adj = dn_adjacency(partials, report.best_eta, mode="union")
print("edges at the best threshold:", int(adj.sum() // 2))
