"""Wishart-calibrated edge thresholds for graph structure determination.

A conjugate Wishart posterior over the precision matrix supplies Monte
Carlo estimates of the posterior mean partial correlation matrix.  Edges
are then declared either because that mean is large in absolute value
(:func:`edge_rule_mean`) or because the sampler's own partial correlation
estimate is large relative to the Wishart reference
(:func:`edge_rule_ratio`).  :func:`threshold_sweep` scans a grid of
thresholds and scores each candidate against a known truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import cholesky_pd, invert_pd, partial_correlation, require_symmetric
from .metrics import classification_scores, confusion

__all__ = [
    "PRIOR_DOF",
    "EPSILON",
    "RATIO_FLOOR",
    "DEFAULT_GRID",
    "WishartSpec",
    "ThresholdReport",
    "posterior_spec",
    "sample_wishart",
    "posterior_partial_corr_mean",
    "edge_rule_mean",
    "edge_rule_ratio",
    "threshold_sweep",
    "best_threshold",
]

# Degrees of freedom of the conjugate Wishart prior.
PRIOR_DOF = 3.0
# Prior scale is EPSILON * I for the tight reference; 1.0 * I for the wide one.
EPSILON = 0.001
# Denominator floor for the ratio rule.
RATIO_FLOOR = 1e-8

# Threshold candidates: 0.2 to 0.6 in steps of 0.02.
DEFAULT_GRID = np.linspace(0.2, 0.6, 21)

# Draws per block when a step over a draw stack is vectorized: the
# Bartlett products ``lower @ a`` and the partial correlations of the
# Wishart mean.  Each block is a small temporary next to the stack itself.
# The mean still adds the block's matrices one at a time, in draw order,
# so it is the same to the bit as a loop over single draws.
_BLOCK = 32


@dataclass(frozen=True)
class WishartSpec:
    """Degrees of freedom and scale matrix of a Wishart distribution."""

    dof: float
    scale: np.ndarray

    def __post_init__(self):
        scale = require_symmetric(self.scale, "scale")
        object.__setattr__(self, "scale", scale)
        if self.dof < scale.shape[0]:
            raise ValueError(f"dof {self.dof} below dimension {scale.shape[0]}")
        cholesky_pd(scale)

    @property
    def dim(self) -> int:
        return self.scale.shape[0]


@dataclass(frozen=True)
class ThresholdReport:
    """Per-threshold sparsity errors and MCCs, plus the best candidate."""

    grid: np.ndarray
    sparsity_error: np.ndarray
    mcc: np.ndarray
    best_eta: float
    best_mcc: float


def posterior_spec(scatter: np.ndarray, n: int, eps: float = EPSILON) -> WishartSpec:
    """Wishart posterior over the precision matrix given a scatter matrix.

    The conjugate prior regularizes the scatter by ``eps * I``: the
    posterior has ``PRIOR_DOF + n`` degrees of freedom and scale
    ``inv(scatter + eps * I)``.  ``eps=EPSILON`` gives the tight reference
    used by the mean rule; ``eps=1.0`` gives the wide reference used as
    the denominator of the ratio rule.
    """
    scatter = require_symmetric(scatter, "scatter")
    p = scatter.shape[0]
    return WishartSpec(dof=PRIOR_DOF + n, scale=invert_pd(scatter + eps * np.eye(p)))


def sample_wishart(spec: WishartSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` Wishart matrices by the Bartlett decomposition.

    Returns an array of shape ``(count, p, p)``; every draw is symmetric
    positive definite.  The products ``lower @ a`` are formed block by
    block into the Bartlett factors' own storage, so at most two
    ``(count, p, p)`` stacks are alive at once: the factors and the draws.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    p = spec.dim
    lower = cholesky_pd(spec.scale).lower
    a = np.zeros((count, p, p))
    tril = np.tril_indices(p, k=-1)
    a[:, tril[0], tril[1]] = rng.standard_normal((count, p * (p - 1) // 2))
    dof_seq = spec.dof - np.arange(p)
    diag = np.sqrt(rng.chisquare(dof_seq, size=(count, p)))
    idx = np.arange(p)
    a[:, idx, idx] = diag
    for start in range(0, count, _BLOCK):
        a[start : start + _BLOCK] = lower @ a[start : start + _BLOCK]
    return a @ np.transpose(a, (0, 2, 1))


def posterior_partial_corr_mean(
    spec: WishartSpec, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Entrywise mean of the partial correlation matrix over Wishart draws."""
    draws = sample_wishart(spec, count, rng)
    acc = np.zeros((spec.dim, spec.dim))
    for start in range(0, count, _BLOCK):
        for rho in partial_correlation(draws[start : start + _BLOCK]):
            acc += rho
    acc /= count
    return acc


def edge_rule_mean(eh: np.ndarray, eta: float) -> np.ndarray:
    """Edge wherever the posterior mean partial correlation exceeds eta.

    ``edge[i, j] = |eh[i, j]| > eta`` for i != j; the diagonal is never an
    edge.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    eh = require_symmetric(eh, "eh")
    adj = np.abs(eh) > eta
    np.fill_diagonal(adj, False)
    return adj


def edge_rule_ratio(rho_tilde: np.ndarray, eg: np.ndarray, eta: float) -> np.ndarray:
    """Edge wherever |rho_tilde| / |eg| exceeds eta.

    The denominator is floored at ``RATIO_FLOOR``; both sides enter in
    absolute value so the rule is direction-free.
    """
    rho_tilde = require_symmetric(rho_tilde, "rho_tilde")
    eg = require_symmetric(eg, "eg")
    if rho_tilde.shape != eg.shape:
        raise ValueError("matrices must share dimensions")
    ratio = np.abs(rho_tilde) / np.maximum(np.abs(eg), RATIO_FLOOR)
    adj = ratio > eta
    np.fill_diagonal(adj, False)
    return adj


def threshold_sweep(
    truth: np.ndarray,
    rule: Callable[[float], np.ndarray],
    grid: Sequence[float] | np.ndarray = DEFAULT_GRID,
) -> ThresholdReport:
    """Score a thresholding rule against a known adjacency over a grid.

    ``rule(eta)`` must return the estimated adjacency at that threshold.
    Sparsity error is the absolute difference in edge counts; the best
    threshold maximizes MCC, ties broken toward the smallest eta.  NA MCCs
    never win.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    truth = np.asarray(truth, dtype=bool)
    true_edges = int(confusion(truth, truth).tp)
    sparsity = np.empty(grid.size)
    mcc = np.empty(grid.size)
    for k, eta in enumerate(grid):
        est = np.asarray(rule(float(eta)), dtype=bool)
        c = confusion(est, truth)
        sparsity[k] = abs((c.tp + c.fp) - true_edges)
        mcc[k] = classification_scores(c).mcc
    best_eta, best_mcc = best_threshold(grid, mcc)
    return ThresholdReport(
        grid=grid, sparsity_error=sparsity, mcc=mcc, best_eta=best_eta, best_mcc=best_mcc
    )


def best_threshold(grid: np.ndarray, mcc: np.ndarray) -> tuple[float, float]:
    """The threshold of an increasing ``grid`` with the highest MCC, and that MCC.

    NA MCCs never win and ties go to the smallest threshold; when every
    MCC is NA the result is ``(grid[0], nan)``.
    """
    mcc = np.asarray(mcc, dtype=float)
    if np.all(np.isnan(mcc)):
        return float(grid[0]), float("nan")
    best = int(np.nanargmax(mcc))
    return float(grid[best]), float(mcc[best])
