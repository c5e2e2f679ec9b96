"""Loss functions and classification scores for network recovery.

Undefined ratios (empty denominator classes) evaluate to ``NA``, a NaN
marker, rather than raising; downstream writers render it as "NA".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import upper_indices

__all__ = [
    "is_na",
    "LossReport",
    "Scores",
    "loss_report",
    "confusion",
    "classification_scores",
]

NA = float("nan")


def is_na(x: float) -> bool:
    return isinstance(x, float) and math.isnan(x)


class LossReport(NamedTuple):
    """Six losses comparing an estimated matrix against the truth."""

    l1: float
    l2: float
    el1: float
    el2: float
    maxel1: float
    minel1: float


@dataclass(frozen=True)
class ConfusionCounts:
    """Edge decisions over the strict upper triangle."""

    tp: int
    tn: int
    fp: int
    fn: int


class Scores(NamedTuple):
    sp: float
    se: float
    fnr: float
    f1: float
    mcc: float


def _check_dims(est: np.ndarray, truth: np.ndarray, stacked: bool = False) -> None:
    """``ValueError`` unless ``est`` is a square matrix, or a stack of them, shaped as ``truth``."""
    if est.shape[stacked:] != truth.shape or truth.ndim != 2 or truth.shape[0] != truth.shape[1]:
        raise ValueError(f"dimension mismatch: {est.shape} vs {truth.shape}")


def matrix_losses(est: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Max absolute column sum and Frobenius norm of the difference."""
    _check_dims(est, truth)
    diff = est - truth
    l1 = float(np.max(np.sum(np.abs(diff), axis=0)))
    l2 = float(np.linalg.norm(diff, "fro"))
    return l1, l2


def eigen_losses(est: np.ndarray, truth: np.ndarray) -> tuple[float, float, float, float]:
    """Eigenvalue losses, spectra paired after ascending sort.

    Returns ``(el1, el2, maxel1, minel1)`` where el1 is the mean absolute
    eigenvalue gap, el2 the mean squared gap, and the last two compare the
    extreme eigenvalues.
    """
    _check_dims(est, truth)
    p = est.shape[0]
    ge = np.linalg.eigvalsh(est)
    gt = np.linalg.eigvalsh(truth)
    el1 = float(np.sum(np.abs(ge - gt)) / p)
    el2 = float(np.sum((ge - gt) ** 2) / p)
    maxel1 = float(abs(ge[-1] - gt[-1]))
    minel1 = float(abs(ge[0] - gt[0]))
    return el1, el2, maxel1, minel1


def loss_report(est: np.ndarray, truth: np.ndarray) -> LossReport:
    l1, l2 = matrix_losses(est, truth)
    el1, el2, maxel1, minel1 = eigen_losses(est, truth)
    return LossReport(l1=l1, l2=l2, el1=el1, el2=el2, maxel1=maxel1, minel1=minel1)


def confusion(est: np.ndarray, truth: np.ndarray) -> ConfusionCounts | list[ConfusionCounts]:
    """Count edge decisions over i < j; diagonals never score.

    ``est`` is one ``(p, p)`` graph, or a ``(G, p, p)`` stack of them
    counted in one pass into a list of G counts (empty when G is 0).  Only
    each graph's true positives and edges, and the truth's edges, are
    counted; the other counts follow from them in integer arithmetic.
    """
    est = np.asarray(est, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    stacked = est.ndim == 3
    _check_dims(est, truth, stacked)
    iu = upper_indices(truth.shape[0])
    e = est[..., iu[0], iu[1]] if stacked else est[None, iu[0], iu[1]]
    t = truth[iu]
    tps = np.count_nonzero(e & t, axis=1).tolist()
    calls = np.count_nonzero(e, axis=1).tolist()
    edges, pairs = int(np.count_nonzero(t)), t.size
    out = [
        ConfusionCounts(tp=tp, tn=pairs - called - edges + tp, fp=called - tp, fn=edges - tp)
        for tp, called in zip(tps, calls)
    ]
    return out if stacked else out[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else NA


def classification_scores(c: ConfusionCounts) -> Scores:
    """Specificity, sensitivity, false-negative rate, F1, and MCC.

    Any score whose denominator class is empty comes back as ``NA``.
    """
    tp, tn, fp, fn = c.tp, c.tn, c.fp, c.fn
    if min(tp, tn, fp, fn) < 0:
        raise ValueError("confusion counts must be non-negative")
    sp = _ratio(tn, tn + fp)
    se = _ratio(tp, tp + fn)
    fnr = _ratio(fn, fn + tp)
    f1 = _ratio(tp, tp + 0.5 * (fp + fn))
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(den) if den > 0 else NA
    return Scores(sp=sp, se=se, fnr=fnr, f1=f1, mcc=mcc)
