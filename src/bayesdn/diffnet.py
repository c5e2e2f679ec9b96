"""Two-sample differential network assembly.

Runs one Gibbs chain per sample, takes the difference of the posterior
mean precision matrices as the point estimate, and thresholds the
Wishart-reference partial correlations of the two samples into a graph.

Three combination modes turn the per-sample evidence into one edge set:

``difference``
    Edge where the two posterior mean partial correlations differ by more
    than ``eta``.  Vanishes when the samples carry identical conditional
    structure, including under the null.
``xor``
    Edge where exactly one sample's mean rule fires at ``eta``.
``union``
    Edge where either sample's mean rule fires at ``eta``.  This tracks
    the support of the precision difference in designs where both samples
    share a sparsity pattern with unequal magnitudes, which is how the
    synthetic benchmark structures are built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gibbs import GibbsConfig, run_chain, spawn_seeds
from .linalg import mirror_lower
from .wishart import EPSILON, edge_rule_mean, posterior_partial_corr_mean, posterior_spec

__all__ = ["DN_MODES", "DifferentialNetwork", "dn_adjacency", "estimate_bnet"]

DN_MODES = ("difference", "xor", "union")


@dataclass(frozen=True)
class DifferentialNetwork:
    """Point estimate and graph of the difference between two precisions."""

    delta_hat: np.ndarray
    component_means: tuple[np.ndarray, np.ndarray]
    component_partials: tuple[np.ndarray, np.ndarray]
    adjacency: np.ndarray
    eta: float
    mode: str


def dn_adjacency(
    component_partials: tuple[np.ndarray, np.ndarray],
    eta: float,
    mode: str = "difference",
) -> np.ndarray:
    """Combine two partial-correlation summaries into one edge set."""
    if mode not in DN_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {DN_MODES}")
    eh1, eh2 = component_partials
    if eh1.shape != eh2.shape:
        raise ValueError("component partials must share dimensions")
    if mode == "difference":
        adj = np.abs(eh2 - eh1) > eta
        np.fill_diagonal(adj, False)
        return adj
    a1 = edge_rule_mean(eh1, eta)
    a2 = edge_rule_mean(eh2, eta)
    return a1 ^ a2 if mode == "xor" else a1 | a2


def estimate_bnet(
    x1: np.ndarray,
    x2: np.ndarray,
    cfg: GibbsConfig,
    eta: float,
    mode: str = "difference",
    eps: float = EPSILON,
) -> DifferentialNetwork:
    """Estimate the differential network from two samples.

    The two chains take two seeds spawned from ``cfg.seed``, so one seed
    reproduces the whole estimate and neighbouring seeds share no stream.
    The Wishart references are exact and need no seed.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.ndim != 2 or x2.ndim != 2 or x1.shape[1] != x2.shape[1]:
        raise ValueError(f"samples must be 2-d with equal width, got {x1.shape} and {x2.shape}")
    if min(x1.shape[0], x2.shape[0]) < 2:
        raise ValueError("each sample needs at least 2 rows")

    means = []
    partials = []
    for x, chain_seed in zip((x1, x2), spawn_seeds(cfg.seed, 2)):
        scatter = mirror_lower(x.T @ x)
        means.append(run_chain(scatter, x.shape[0], replace(cfg, seed=chain_seed)).theta_mean)
        partials.append(posterior_partial_corr_mean(posterior_spec(scatter, x.shape[0], eps=eps)))

    delta_hat = means[1] - means[0]
    adjacency = dn_adjacency((partials[0], partials[1]), eta, mode)
    return DifferentialNetwork(
        delta_hat=delta_hat,
        component_means=(means[0], means[1]),
        component_partials=(partials[0], partials[1]),
        adjacency=adjacency,
        eta=float(eta),
        mode=mode,
    )
