"""Bayesian differential network estimation.

Two-sample precision-matrix difference estimation via an adaptive
graphical-lasso block Gibbs sampler, Wishart-calibrated edge thresholds,
synthetic structure generators, a proximal-gradient comparator, and an
experiment harness.
"""

__version__ = "0.1.0"
