"""Wishart reference for Bayesian edge decisions and the threshold scan.

A conjugate Wishart posterior over the precision matrix is the reference
for every Bayesian edge decision.  :func:`posterior_partial_corr_mean`
takes a sample's scatter matrix and returns the mean partial correlation
matrix under that posterior, computed exactly with no sampling: each
entry depends only on a 2x2 principal block of the precision matrix, that
block is itself Wishart (Muirhead 1982, Thm 3.2.10), and the mean of its
correlation is a closed form (Olkin & Pratt 1958).  The edge rules that
threshold these means live in :func:`bayesdn.diffnet.dn_adjacency`;
:func:`threshold_sweep` scores every threshold of a grid against a known
truth in one pass over the stack of their graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln, hyp2f1

from .linalg import invert_pd, require_symmetric, upper_indices
from .metrics import classification_scores, confusion

__all__ = [
    "EPSILON",
    "DEFAULT_GRID",
    "ThresholdReport",
    "posterior_partial_corr_mean",
    "threshold_sweep",
    "best_threshold",
]

# Degrees of freedom of the conjugate Wishart prior.
PRIOR_DOF = 3.0
# Prior scale is EPSILON * I for the tight reference; 1.0 * I for the wide one.
EPSILON = 0.001

# Threshold candidates: 0.2 to 0.6 in steps of 0.02.
DEFAULT_GRID = np.linspace(0.2, 0.6, 21)

# From this third parameter c on, 2F1(1/2, 1/2; c; z) is summed as its
# power series: each term is below (k + 1) / (c + k) times the last, so 30
# terms reach double precision for every z in [0, 1].  scipy's hyp2f1
# overflows there near z = 1 (inf or nan for c >= 100 and z > 0.9).  The
# sum stops early once a bound on the next term falls below _SERIES_DROP.
_SERIES_MIN_C = 50.0
_SERIES_TERMS = 30
_SERIES_DROP = 2.0**-60


@dataclass(frozen=True)
class ThresholdReport:
    """Per-threshold sparsity errors and MCCs, plus the best candidate."""

    grid: np.ndarray
    sparsity_error: np.ndarray
    mcc: np.ndarray
    best_eta: float
    best_mcc: float


def _hyp2f1_half_half(c: float, z: np.ndarray) -> np.ndarray:
    """2F1(1/2, 1/2; c; z) for c > 1 and every z in [0, 1].

    The series is the sum of the first 30 terms bit for bit: ``bound`` is
    term k at ``max(z)``, formed by the same roundings, so it bounds term k
    at every z, and later terms fall with k.  The total is at least 1, so
    once the bound is below ``_SERIES_DROP`` no further term can change a
    bit of it.  A NaN bound never stops the sum; an empty ``z`` stops it
    at once.
    """
    if c < _SERIES_MIN_C:
        return hyp2f1(0.5, 0.5, c, z)
    term = np.ones_like(z)
    total = np.ones_like(z)
    z_max, bound = float(z.max(initial=0.0)), 1.0
    for k in range(_SERIES_TERMS):
        step = (k + 0.5) ** 2 / ((c + k) * (k + 1))
        bound *= z_max * step
        if bound < _SERIES_DROP:
            break
        term *= z * step
        total += term
    return total


def posterior_partial_corr_mean(scatter: np.ndarray, n: int, eps: float = EPSILON) -> np.ndarray:
    """Mean partial correlation matrix under the Wishart posterior of a sample.

    The conjugate prior regularizes ``scatter`` by ``eps * I``: the
    posterior has ``PRIOR_DOF + n`` degrees of freedom and scale
    ``inv(scatter + eps * I)``.  ``eps=EPSILON`` gives the tight reference
    of the mean rule; ``eps=1.0`` gives the wide reference that divides
    the ratio rule.
    """
    scatter = require_symmetric(scatter, "scatter")
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    psi = invert_pd(scatter + eps * np.eye(scatter.shape[0]))
    return _partial_corr_mean(PRIOR_DOF + n, psi)


def _partial_corr_mean(nu: float, psi: np.ndarray) -> np.ndarray:
    """Exact entrywise mean of the partial correlations of Theta ~ W_p(nu, psi).

    ``nu > 1``; ``psi`` is symmetric positive definite.  rho_ij =
    -theta_ij / sqrt(theta_ii theta_jj) depends only on the 2x2 block of
    (i, j), which is W_2(nu, psi block), so any ``nu > 1`` is valid, even
    below the dimension.  Its mean is minus the mean of a sample
    correlation with population value r = psi_ij / sqrt(psi_ii psi_jj) and
    nu degrees of freedom:

        E[rho_ij] = -r G(nu) 2F1(1/2, 1/2; nu/2 + 1; r^2),
        G(nu) = Gamma((nu + 1)/2)^2 / (Gamma(nu/2) Gamma(nu/2 + 1)).

    The factor G 2F1 rises with r^2 to exactly 1 at |r| = 1; it is capped
    there so that rounding never lifts |E[rho_ij]| above |r|.  The diagonal
    is exactly 1 and is not evaluated.
    """
    p = psi.shape[0]
    d = np.sqrt(np.diag(psi))
    i, j = upper_indices(p)
    r = np.clip(psi[i, j] / (d[i] * d[j]), -1.0, 1.0)
    log_g = 2.0 * gammaln((nu + 1.0) / 2.0) - gammaln(nu / 2.0) - gammaln(nu / 2.0 + 1.0)
    shrink = np.minimum(np.exp(log_g) * _hyp2f1_half_half(nu / 2.0 + 1.0, r * r), 1.0)
    out = np.eye(p)
    out[i, j] = -r * shrink
    out[j, i] = out[i, j]
    return out


def threshold_sweep(
    truth: np.ndarray, graphs: np.ndarray, grid: Sequence[float] | np.ndarray
) -> ThresholdReport:
    """Score a ``(G, p, p)`` stack of graphs, one per threshold of ``grid``, against a truth.

    ``graphs`` is what ``dn_adjacency`` returns for the whole grid.
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
    graphs = np.asarray(graphs, dtype=bool)
    if graphs.shape != (grid.size, *truth.shape):
        raise ValueError(
            f"graphs must be a {(grid.size, *truth.shape)} stack, got shape {graphs.shape}"
        )
    counts = confusion(graphs, truth)
    true_edges = counts[0].tp + counts[0].fn
    sparsity = np.array([abs(c.tp + c.fp - true_edges) for c in counts], dtype=float)
    mcc = np.array([classification_scores(c).mcc for c in counts], dtype=float)
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
