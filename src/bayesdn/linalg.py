"""Dense symmetric / positive-definite matrix primitives.

Every matrix handled by this package is a plain ``numpy.ndarray`` that is
*exactly* symmetric: built by mirroring one triangle, never by averaging
``(m + m.T) / 2`` after the fact.  The helpers here validate and produce
such arrays, so symmetry violations surface at the boundary instead of
deep inside a sampler sweep.

Positive definiteness is decided by the Cholesky factorization with a
scale-aware pivot floor: a matrix is accepted iff the factorization
succeeds and every pivot exceeds ``PIVOT_RTOL * max(diag)``, a rule
written once, for a stack, that checks a lone matrix as a stack of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = [
    "NotPositiveDefiniteError",
    "mirror_lower",
    "require_symmetric",
    "cholesky_pd",
    "invert_pd",
    "invert_pd_stack",
    "partial_correlation",
    "upper_indices",
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
    index : int or None
        Position of the failing matrix in its stack (:func:`invert_pd_stack`),
        when the error comes from this module's check.  A lone matrix
        (:func:`cholesky_pd`, :func:`invert_pd`) is a stack of one, so its
        index is 0.
    """

    def __init__(self, message: str, minor: int | None = None, index: int | None = None):
        super().__init__(message)
        self.minor = minor
        self.index = index


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
    m = _require_square(m)
    idx = np.arange(m.shape[0])
    out = np.where(idx[:, None] >= idx, m, m.T)
    out += 0.0  # -0.0 becomes 0.0, as in tril(m) + tril(m, -1).T
    return out


def _require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``m`` as a float ndarray; ``ValueError`` unless it is a square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {m.shape}")
    return m


def require_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is square and exactly symmetric.

    Returns ``m`` as a float ndarray.  Raises ``ValueError`` otherwise.
    """
    m = _require_square(m, name)
    if not (m == m.T).all():  # a NaN is unequal to itself, as in np.array_equal
        raise ValueError(f"{name} is not symmetric")
    return m


def _minor_error(info: int, index: int) -> Exception:
    """The error for a nonzero ``info`` of LAPACK ``potrf`` on item ``index`` of a stack."""
    if info > 0:
        return NotPositiveDefiniteError(
            f"leading minor of order {info} is not positive definite", int(info), index
        )
    return ValueError(f"illegal argument {-info} passed to potrf")


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
        ``PIVOT_RTOL * max(diag(m))``: the check of :func:`invert_pd_stack`
        on a stack of one.  The strict upper triangle of the factor is zero.
    """
    m = require_symmetric(m)
    c, info = dpotrf(m, 1, 1)  # lower, clean
    if info != 0:
        raise _minor_error(info, 0)
    _check_pivots(m[None], c[None])
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    return PDFactor(lower=c, logdet=logdet)


def invert_pd(m: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive-definite matrix via its Cholesky factor.

    Checks ``m`` as :func:`cholesky_pd` does, then solves against the
    identity with LAPACK ``potrs``: :func:`invert_pd_stack` on a stack of
    one.  The result is exactly symmetric (lower triangle mirrored).
    """
    m = _require_square(m)
    out = np.empty((1, *m.shape))
    invert_pd_stack(m[None], out)
    return out[0]


def invert_pd_stack(ms: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of each matrix of a stack ``ms`` (K, p, p) into ``out``.

    Each item is checked as :func:`cholesky_pd` checks a matrix, factored
    with LAPACK ``potrf`` and solved against the identity with ``potrs``,
    and the lower triangle of the solution is mirrored, so ``out[k]`` is
    ``invert_pd(ms[k])`` bit for bit whatever the stack.  The symmetry
    check, the pivot floors and the mirror are done once for the whole
    stack; only ``potrf`` and ``potrs`` run per item, in place on work
    arrays made once per call.  ``out`` may be ``ms`` itself.

    Raises ``ValueError`` if the stack is not symmetric, and otherwise the
    error of the first failing item, in stack order, with its ``index`` in
    the stack set.
    """
    p = ms.shape[1]
    if not (ms == ms.transpose(0, 2, 1)).all():  # a NaN is unequal to itself
        raise ValueError("matrix is not symmetric")
    identity, lower = _eye_and_tri(p)
    # each item of a C-order stack is symmetric, so its transpose is the
    # Fortran-order copy of the same matrix that LAPACK works on in place
    factors = ms.copy()
    solved = np.empty(ms.shape)
    solved[...] = identity
    for i, (c, x) in enumerate(zip(factors, solved)):
        _, info = dpotrf(c.T, 1, 0, 1)  # lower, clean, overwrite_a
        if info != 0:
            _check_pivots(ms[:i], factors[:i])
            raise _minor_error(info, i)
        _, info = dpotrs(c.T, x.T, 1, 1)  # lower, overwrite_b
        if info != 0:
            raise ValueError(f"illegal argument {-info} passed to potrs")
    _check_pivots(ms, factors)
    # x.T holds item i's solution: mirror its lower triangle, and turn
    # -0.0 into 0.0, as mirror_lower does
    np.add(np.where(lower, solved.transpose(0, 2, 1), solved), 0.0, out=out)


@functools.lru_cache(maxsize=8)
def _eye_and_tri(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The p x p identity and lower-triangle mask, read-only, made once per p."""
    identity, lower = np.eye(p), np.tri(p, dtype=bool)
    identity.flags.writeable = lower.flags.writeable = False
    return identity, lower


@functools.lru_cache(maxsize=8)
def upper_indices(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The strict upper triangle's ``np.triu_indices(p, 1)``, read-only, made once per p."""
    rows, cols = np.triu_indices(p, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _check_pivots(ms: np.ndarray, factors: np.ndarray) -> None:
    """Raise the pivot-floor error of the first item of a stack whose factor fails it."""
    d = factors.diagonal(0, 1, 2)
    d_min = d.min(axis=1)
    floors = PIVOT_RTOL * ms.diagonal(0, 1, 2).max(axis=1)
    # a factor's diagonal is >= 0, so its least pivot is the square of its least entry
    failing = d_min * d_min <= floors
    if failing.any():
        i = int(np.argmax(failing))
        pivots, floor = d[i] * d[i], float(floors[i])
        k = int(np.argmax(pivots <= floor))
        raise NotPositiveDefiniteError(
            f"pivot {k + 1} ({pivots[k]:.3e}) at or below floor {floor:.3e}", k + 1, i
        )


def partial_correlation(theta: np.ndarray) -> np.ndarray:
    """Partial correlations of a ``(..., p, p)`` stack of precision matrices.

    ``rho[..., i, j] = -theta[..., i, j] / sqrt(theta[..., i, i] * theta[..., j, j])``
    off the diagonal, with unit diagonal; item k of a stack's result is the
    result for item k, bit for bit.  Positive definiteness is not re-checked:
    callers pass sampler draws and Wishart scales, PD by construction.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim < 2 or theta.shape[-1] != theta.shape[-2]:
        raise ValueError(f"theta: expected square matrices, got shape {theta.shape}")
    d = np.sqrt(theta.diagonal(0, -2, -1))
    rho = -theta / (d[..., :, None] * d[..., None, :])
    i = np.arange(theta.shape[-1])
    rho[..., i, i] = 1.0
    return rho
