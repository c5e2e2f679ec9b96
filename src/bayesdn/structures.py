"""Generators for the nine synthetic precision-matrix pairs.

Each structure produces two precision matrices sharing a sparsity
pattern, so the support of their difference is the pattern itself.  Raw
matrices follow the published entry recipes exactly; matrices that are
indefinite as written (the star pair, for one) are repaired by a minimal
diagonal shift before any data is sampled, and the true difference is
computed from the repaired pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .config import bound, check_fields
from .linalg import cholesky_pd, invert_pd, require_symmetric, upper_indices

__all__ = [
    "KINDS",
    "MIN_DIM",
    "StructureSpec",
    "raw_components",
    "make_structure",
    "sample_gaussian",
]

KINDS = (
    "ar1",
    "ar2",
    "sparse80",
    "sparse40",
    "scale_free",
    "band",
    "cluster",
    "star",
    "circle",
)

# The smallest dimension of a synthetic design.
MIN_DIM = 4
# Raw structures are shifted so the smallest eigenvalue is at least this.
REPAIR_MARGIN = 0.05
# Entries of the true difference larger than this count as support.
SUPPORT_TOL = 1e-10

_RANDOM_KINDS = ("sparse80", "sparse40", "scale_free")


@dataclass(frozen=True)
class StructureSpec:
    """One of the nine synthetic designs at a given dimension.

    ``seed`` is required for the randomized designs (sparse80, sparse40,
    scale_free) and ignored by the deterministic ones.
    """

    kind: Literal[KINDS]
    dim: int = bound(ge=MIN_DIM)
    seed: int | None = bound(None, ge=0)

    def __post_init__(self):
        check_fields(self)
        if self.kind in _RANDOM_KINDS and self.seed is None:
            raise ValueError(f"structure {self.kind!r} requires a seed")


@dataclass(frozen=True)
class ModelPair:
    """Two positive-definite precision matrices and their true difference."""

    theta1: np.ndarray
    theta2: np.ndarray
    true_delta: np.ndarray
    true_adjacency: np.ndarray


def _toeplitz_power(p: int, base: float) -> np.ndarray:
    idx = np.arange(p)
    return base ** np.abs(idx[:, None] - idx[None, :])


def _banded(p: int, diag: float, band1: float, band2: float = 0.0) -> np.ndarray:
    m = np.zeros((p, p))
    np.fill_diagonal(m, diag)
    i = np.arange(p - 1)
    m[i, i + 1] = m[i + 1, i] = band1
    if band2 != 0.0 and p > 2:
        j = np.arange(p - 2)
        m[j, j + 2] = m[j + 2, j] = band2
    return m


def _two_blocks(p: int, diag: float, val_lo: float, val_hi: float) -> np.ndarray:
    h = p // 2
    m = np.zeros((p, p))
    m[:h, :h] = val_lo
    m[h:, h:] = val_hi
    np.fill_diagonal(m, diag)
    return m


def _star(p: int, spoke: float) -> np.ndarray:
    m = np.eye(p)
    m[0, 1:] = spoke
    m[1:, 0] = spoke
    return m


def _circle(p: int, diag: float, band: float, corner: float) -> np.ndarray:
    m = _banded(p, diag, band)
    m[0, p - 1] = m[p - 1, 0] = corner
    return m


def _sparse_pair(p: int, max_zero_frac: float, rng: np.random.Generator):
    iu = upper_indices(p)
    n_pairs = iu[0].size
    n_zero = int(np.floor(max_zero_frac * n_pairs))
    zero_at = rng.choice(n_pairs, size=n_zero, replace=False)
    vals = rng.uniform(0.2, 0.6, size=n_pairs) * rng.choice([-1.0, 1.0], size=n_pairs)
    vals[zero_at] = 0.0
    m1 = np.zeros((p, p))
    m1[iu] = vals
    m1 += m1.T
    np.fill_diagonal(m1, 1.0)
    m2 = np.zeros((p, p))
    m2[iu] = 1.5 * vals
    m2 += m2.T
    np.fill_diagonal(m2, 1.0)
    return m1, m2


def _preferential_attachment_edges(p: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    # One new edge per arriving node, endpoint chosen with probability
    # proportional to current degree.
    edges = [(0, 1)]
    degree = np.zeros(p)
    degree[0] = degree[1] = 1.0
    for new in range(2, p):
        probs = degree[:new] / degree[:new].sum()
        target = int(rng.choice(new, p=probs))
        edges.append((target, new))
        degree[target] += 1.0
        degree[new] += 1.0
    return edges


def _scale_free_pair(p: int, rng: np.random.Generator, weight: float = 0.3, factor: float = 2.0):
    m1 = np.eye(p)
    for i, j in _preferential_attachment_edges(p, rng):
        m1[i, j] = m1[j, i] = weight
    return m1, factor * m1


def raw_components(spec: StructureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Both components exactly as the design recipes write them (no repair)."""
    p = spec.dim
    kind = spec.kind
    if kind == "ar1":
        return _toeplitz_power(p, 0.7), _toeplitz_power(p, 0.75)
    if kind == "ar2":
        return _banded(p, 0.1, 0.05, 0.025), _banded(p, 1.0, 0.5, 0.25)
    if kind == "sparse80":
        return _sparse_pair(p, 0.80, np.random.default_rng(spec.seed))
    if kind == "sparse40":
        return _sparse_pair(p, 0.40, np.random.default_rng(spec.seed))
    if kind == "scale_free":
        return _scale_free_pair(p, np.random.default_rng(spec.seed))
    if kind == "band":
        return _two_blocks(p, 1.0, 0.2, 0.5), _two_blocks(p, 1.0, 0.7, 0.9)
    if kind == "cluster":
        return _two_blocks(p, 1.0, 0.5, 0.5), _two_blocks(p, 1.0, 0.9, 0.9)
    if kind == "star":
        return _star(p, 0.1), _star(p, 2.1)
    if kind == "circle":
        return _circle(p, 2.0, 1.0, 0.45), _circle(p, 4.0, 2.0, 0.95)
    raise ValueError(f"unknown structure kind {kind!r}")


def pd_repair(m: np.ndarray, margin: float = REPAIR_MARGIN) -> np.ndarray:
    """Shift the diagonal just enough to push all eigenvalues to ``margin``.

    Matrices already satisfying ``lambda_min > margin`` pass through
    unchanged.
    """
    m = require_symmetric(m)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    if lam_min > margin:
        return m
    return m + (margin - lam_min) * np.eye(m.shape[0])


def make_structure(spec: StructureSpec) -> ModelPair:
    """Generate the repaired pair, its difference, and the true adjacency."""
    t1, t2 = raw_components(spec)
    t1 = pd_repair(t1)
    t2 = pd_repair(t2)
    cholesky_pd(t1)
    cholesky_pd(t2)
    delta = t2 - t1
    adjacency = np.abs(delta) > SUPPORT_TOL
    np.fill_diagonal(adjacency, False)
    return ModelPair(theta1=t1, theta2=t2, true_delta=delta, true_adjacency=adjacency)


def sample_gaussian(theta: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` rows from a centered Gaussian with precision ``theta``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sigma = invert_pd(theta)
    lower = cholesky_pd(sigma).lower
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, theta.shape[0])) @ lower.T
