"""Two-sample differential network assembly and the Bayesian edge rules.

Runs one Gibbs chain per sample, takes the difference of the posterior
mean precision matrices as the point estimate, and thresholds the
Wishart-reference partial correlations of the two samples into a graph.
:func:`estimate_bnet` does all of it for one pair of samples.
:func:`bnet_requests` names the two chains of one estimate; a run of many
estimates (``bayesdn.harness``) makes one ``gibbs.run_chains`` call over
every estimate's chains and forms each estimate from its chains and
references itself.

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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gibbs import ChainRequest, GibbsConfig, run_chains, spawn_seeds
from .linalg import mirror_lower
from .wishart import EPSILON, posterior_partial_corr_mean

__all__ = [
    "DN_MODES",
    "dn_adjacency",
    "bnet_requests",
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
    eta: float | np.ndarray,
    mode: str = "difference",
    reference: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Combine two samples' partial correlations into one edge set.

    Without ``reference`` this is the mean rule; with the two samples'
    wide Wishart references it is the ratio rule.  The diagonal is never
    an edge.  A float ``eta`` gives one ``(p, p)`` graph; a 1-d array of
    G thresholds gives the ``(G, p, p)`` stack of their graphs, from one
    comparison against the scores.
    """
    if mode not in DN_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {DN_MODES}")
    etas = np.asarray(eta, dtype=float)
    if etas.ndim > 1:
        raise ValueError(f"eta must be a number or a 1-d grid, got shape {etas.shape}")
    bad = etas[~((etas >= 0.0) & (etas <= 1.0))]
    if bad.size:
        raise ValueError(f"eta must lie in [0, 1], got {float(bad.flat[0])}")
    if len({a.shape for a in (*partials, *(reference or ()))}) != 1:
        raise ValueError("partials and references must share dimensions")
    e1, e2 = partials
    ref1, ref2 = (None, None) if reference is None else reference
    diag = np.arange(e1.shape[0])

    def fires(e, ref):
        score = np.abs(e) if ref is None else np.abs(e) / np.maximum(np.abs(ref), RATIO_FLOOR)
        adj = score > etas[..., None, None]
        adj[..., diag, diag] = False
        return adj

    if mode == "difference":
        return fires(e2 - e1, None if reference is None else ref2 - ref1)
    a1, a2 = fires(e1, ref1), fires(e2, ref2)
    return a1 ^ a2 if mode == "xor" else a1 | a2


def bnet_requests(
    x1: np.ndarray,
    x2: np.ndarray,
    cfg: GibbsConfig,
    seed: int,
    labels: tuple[str, str] = ("sample 1", "sample 2"),
) -> list[ChainRequest]:
    """The two chains of one estimate, one per sample.

    They take two seeds spawned from ``seed``, so one seed reproduces
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
        ChainRequest(mirror_lower(x.T @ x), x.shape[0], cfg, s, label=label)
        for x, s, label in zip((x1, x2), spawn_seeds(seed, 2), labels)
    ]


def estimate_bnet(
    x1: np.ndarray,
    x2: np.ndarray,
    cfg: GibbsConfig,
    seed: int,
    eta: float,
    mode: str = "difference",
    eps: float = EPSILON,
    mapper: Callable = map,
) -> DifferentialNetwork:
    """Estimate the differential network from two samples, its chains seeded from ``seed``.

    The point estimate is the difference of the two chains' posterior
    means (:func:`bnet_requests`); the graph thresholds the exact Wishart
    references of the two scatters, which need no seed.  ``mapper`` runs
    the two chains, as in ``run_chains``: the builtin ``map`` in this
    process, or a pool's.
    """
    requests = bnet_requests(x1, x2, cfg, seed)
    means = [chain.theta_mean for chain in run_chains(requests, mapper)]
    partials = tuple(posterior_partial_corr_mean(req.scatter, req.n, eps) for req in requests)
    return DifferentialNetwork(
        delta_hat=means[1] - means[0],
        component_means=(means[0], means[1]),
        component_partials=partials,
        adjacency=dn_adjacency(partials, eta, mode),
        eta=float(eta),
        mode=mode,
    )
