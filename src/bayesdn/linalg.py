"""Dense symmetric / positive-definite matrix primitives.

Every matrix handled by this package is a plain ``numpy.ndarray`` that is
*exactly* symmetric: built by mirroring one triangle, never by averaging
``(m + m.T) / 2`` after the fact.  The helpers here validate and produce
such arrays, so symmetry violations surface at the boundary instead of
deep inside a sampler sweep.

Positive definiteness is decided by the Cholesky factorization with a
scale-aware pivot floor: a matrix is accepted iff the factorization
succeeds and every pivot exceeds ``PIVOT_RTOL * max(diag)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = [
    "NotPositiveDefiniteError",
    "mirror_lower",
    "require_symmetric",
    "cholesky_pd",
    "invert_pd",
    "partial_correlation",
]

# Relative pivot floor for accepting a Cholesky factorization as PD.
PIVOT_RTOL = 1e-12


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """The matrix is not positive definite.

    Attributes
    ----------
    minor : int or None
        1-based index of the first failing leading principal minor
        (LAPACK convention), when known.
    """

    def __init__(self, message: str, minor: int | None = None):
        super().__init__(message)
        self.minor = minor


@dataclass(frozen=True)
class PDFactor:
    """Lower Cholesky factor of a positive-definite matrix.

    ``lower @ lower.T`` reconstructs the source matrix; ``logdet`` is the
    log-determinant of the source matrix (twice the log of the factor's
    diagonal product).
    """

    lower: np.ndarray
    logdet: float


def mirror_lower(m: np.ndarray) -> np.ndarray:
    """Build an exactly symmetric matrix from the lower triangle of ``m``.

    Parameters
    ----------
    m : ndarray, shape (p, p)
        Square array; entries strictly above the diagonal are ignored.

    Returns
    -------
    ndarray
        New array with ``out[i, j] == out[j, i]`` bitwise.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    idx = np.arange(m.shape[0])
    out = np.where(idx[:, None] >= idx, m, m.T)
    out += 0.0  # -0.0 becomes 0.0, as in tril(m) + tril(m, -1).T
    return out


def require_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is square and exactly symmetric.

    Returns ``m`` as a float ndarray.  Raises ``ValueError`` otherwise.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not (m == m.T).all():  # a NaN is unequal to itself, as in np.array_equal
        raise ValueError(f"{name} is not symmetric")
    return m


def _factor_pd(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``m``, checked against the pivot floor.

    ``m`` must already be a float array that is exactly symmetric.  The
    strict upper triangle of the result is zero.
    """
    c, info = dpotrf(m, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"leading minor of order {info} is not positive definite", minor=int(info)
        )
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to potrf")
    d = c.diagonal()
    floor = PIVOT_RTOL * float(m.diagonal().max())
    d_min = float(d.min())
    # the factor's diagonal is >= 0, so the least pivot is the square of its least entry
    if d_min * d_min <= floor:
        pivots = d * d
        k = int(np.argmax(pivots <= floor))
        raise NotPositiveDefiniteError(
            f"pivot {k + 1} ({pivots[k]:.3e}) at or below floor {floor:.3e}", minor=k + 1
        )
    return c


def cholesky_pd(m: np.ndarray) -> PDFactor:
    """Cholesky-factorize a symmetric positive-definite matrix.

    Parameters
    ----------
    m : ndarray, shape (p, p)
        Symmetric matrix.

    Returns
    -------
    PDFactor

    Raises
    ------
    NotPositiveDefiniteError
        If the factorization breaks down or any pivot falls at or below
        ``PIVOT_RTOL * max(diag(m))``.
    """
    c = _factor_pd(require_symmetric(m))
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    return PDFactor(lower=c, logdet=logdet)


def invert_pd(m: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive-definite matrix via its Cholesky factor.

    Checks ``m`` as :func:`cholesky_pd` does, then solves against the
    identity with LAPACK ``potrs``.  The result is exactly symmetric
    (lower triangle mirrored).
    """
    c = _factor_pd(require_symmetric(m))
    inv, info = dpotrs(c, np.eye(c.shape[0]), lower=1, overwrite_b=1)
    if info != 0:
        raise ValueError(f"illegal argument {-info} passed to potrs")
    return mirror_lower(inv)


def partial_correlation(theta: np.ndarray) -> np.ndarray:
    """Partial correlation matrix of a positive-definite precision matrix.

    ``rho[i, j] = -theta[i, j] / sqrt(theta[i, i] * theta[j, j])`` off the
    diagonal, with unit diagonal.  Positive definiteness is not re-checked:
    callers pass sampler draws, which are PD by construction.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {theta.shape}")
    d = np.sqrt(theta.diagonal())
    rho = -theta / np.multiply.outer(d, d)
    rho.reshape(-1)[:: theta.shape[0] + 1] = 1.0
    return rho
