"""Two-sample differential network assembly and the Bayesian edge rules.

Runs one Gibbs chain per sample, takes the difference of the posterior
mean precision matrices as the point estimate, and thresholds the
Wishart-reference partial correlations of the two samples into a graph.
:func:`estimate_bnet` does all of it for one pair of samples.  A run of
many estimates splits it in two around one call of
``gibbs.run_chains`` over every estimate's chains: :func:`bnet_requests`
names the two chains of one estimate, and :func:`bnet_network` turns
their posterior means into the estimate.

:func:`dn_adjacency` is the one place an edge is decided.  Its per-sample
score is ``|e|`` under the mean rule, or ``|e| / max(|ref|, RATIO_FLOOR)``
under the ratio rule, where ``ref`` is the wide (eps = 1) Wishart
reference.  Three combination modes turn the two samples' values into
one edge set:

``difference``
    Edge where the score of the two samples' difference (``e2 - e1``,
    over ``ref2 - ref1`` for the ratio rule) exceeds ``eta``.  Vanishes
    when the samples carry identical conditional structure, including
    under the null.
``xor``
    Edge where exactly one sample's score exceeds ``eta``.
``union``
    Edge where either sample's score exceeds ``eta``.  This tracks the
    support of the precision difference in designs where both samples
    share a sparsity pattern with unequal magnitudes, which is how the
    synthetic benchmark structures are built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gibbs import ChainRequest, ChainSummary, GibbsConfig, run_chains, spawn_seeds
from .linalg import mirror_lower
from .wishart import EPSILON, posterior_partial_corr_mean

__all__ = [
    "DN_MODES",
    "RATIO_FLOOR",
    "DifferentialNetwork",
    "dn_adjacency",
    "bnet_requests",
    "bnet_network",
    "estimate_bnet",
]

DN_MODES = ("difference", "xor", "union")
# Denominator floor for the ratio rule.
RATIO_FLOOR = 1e-8


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
    partials: tuple[np.ndarray, np.ndarray],
    eta: float,
    mode: str = "difference",
    reference: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Combine two samples' partial correlations into one edge set.

    Without ``reference`` this is the mean rule; with the two samples'
    wide Wishart references it is the ratio rule.  The diagonal is never
    an edge.
    """
    if mode not in DN_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {DN_MODES}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if len({a.shape for a in (*partials, *(reference or ()))}) != 1:
        raise ValueError("partials and references must share dimensions")
    e1, e2 = partials
    ref1, ref2 = (None, None) if reference is None else reference

    def fires(e, ref):
        score = np.abs(e) if ref is None else np.abs(e) / np.maximum(np.abs(ref), RATIO_FLOOR)
        adj = score > eta
        np.fill_diagonal(adj, False)
        return adj

    if mode == "difference":
        return fires(e2 - e1, None if reference is None else ref2 - ref1)
    a1, a2 = fires(e1, ref1), fires(e2, ref2)
    return a1 ^ a2 if mode == "xor" else a1 | a2


def bnet_requests(
    x1: np.ndarray,
    x2: np.ndarray,
    cfg: GibbsConfig,
    labels: tuple[str, str] = ("sample 1", "sample 2"),
) -> list[ChainRequest]:
    """The two chains of one estimate, one per sample, without the partial-correlation fold.

    They take two seeds spawned from ``cfg.seed``, so one seed reproduces
    the whole estimate and neighbouring seeds share no stream.  ``labels``
    name the chains in error messages.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.ndim != 2 or x2.ndim != 2 or x1.shape[1] != x2.shape[1]:
        raise ValueError(f"samples must be 2-d with equal width, got {x1.shape} and {x2.shape}")
    if min(x1.shape[0], x2.shape[0]) < 2:
        raise ValueError("each sample needs at least 2 rows")
    return [
        ChainRequest(
            mirror_lower(x.T @ x), x.shape[0], replace(cfg, seed=seed), partials=False, label=label
        )
        for x, seed, label in zip((x1, x2), spawn_seeds(cfg.seed, 2), labels)
    ]


def bnet_network(
    requests: list[ChainRequest],
    chains: list[ChainSummary],
    eta: float,
    mode: str = "difference",
    eps: float = EPSILON,
) -> DifferentialNetwork:
    """The estimate from the two chains of :func:`bnet_requests` and their summaries.

    The point estimate is the difference of the chains' posterior means;
    the graph thresholds the exact Wishart references of the two scatters,
    which need no seed.
    """
    means = [chain.theta_mean for chain in chains]
    partials = [posterior_partial_corr_mean(req.scatter, req.n, eps) for req in requests]
    return DifferentialNetwork(
        delta_hat=means[1] - means[0],
        component_means=(means[0], means[1]),
        component_partials=(partials[0], partials[1]),
        adjacency=dn_adjacency(tuple(partials), eta, mode),
        eta=float(eta),
        mode=mode,
    )


def estimate_bnet(
    x1: np.ndarray,
    x2: np.ndarray,
    cfg: GibbsConfig,
    eta: float,
    mode: str = "difference",
    eps: float = EPSILON,
) -> DifferentialNetwork:
    """Estimate the differential network from two samples.

    :func:`bnet_requests`, ``gibbs.run_chains`` and :func:`bnet_network`
    in turn; see there.
    """
    requests = bnet_requests(x1, x2, cfg)
    return bnet_network(requests, run_chains(requests), eta, mode, eps)
