import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdn.metrics import (
    ConfusionCounts,
    classification_scores,
    confusion,
    eigen_losses,
    is_na,
    loss_report,
    matrix_losses,
)

from helpers import charpoly_eigenvalues, random_symmetric


def brute_force_l1(est, truth):
    p = est.shape[0]
    best = 0.0
    for j in range(p):
        s = 0.0
        for i in range(p):
            s += abs(est[i, j] - truth[i, j])
        best = max(best, s)
    return best


class TestMatrixLosses:
    def test_equal_inputs(self):
        m = np.eye(3)
        assert matrix_losses(m, m) == (0.0, 0.0)

    def test_known_difference(self):
        est = np.array([[0.0, 1.0], [-1.0, 0.0]])
        l1, l2 = matrix_losses(est, np.zeros((2, 2)))
        assert l1 == 1.0
        assert l2 == pytest.approx(np.sqrt(2.0))

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            est = random_symmetric(6, rng)
            truth = random_symmetric(6, rng)
            l1, l2 = matrix_losses(est, truth)
            assert l1 == pytest.approx(brute_force_l1(est, truth), abs=1e-12)
            assert l2 ** 2 == pytest.approx(np.sum((est - truth) ** 2), rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            matrix_losses(np.eye(2), np.eye(3))


class TestEigenLosses:
    def test_equal_inputs(self):
        m = np.diag([1.0, 2.0])
        assert eigen_losses(m, m) == (0.0, 0.0, 0.0, 0.0)

    def test_scaled_identity(self):
        el1, el2, maxel1, minel1 = eigen_losses(2.0 * np.eye(2), np.eye(2))
        assert (el1, el2, maxel1, minel1) == (1.0, 1.0, 1.0, 1.0)

    def test_charpoly_oracle(self):
        rng = np.random.default_rng(1)
        est = random_symmetric(4, rng)
        truth = random_symmetric(4, rng)
        ge = charpoly_eigenvalues(est)
        gt = charpoly_eigenvalues(truth)
        el1, el2, maxel1, minel1 = eigen_losses(est, truth)
        assert el1 == pytest.approx(np.abs(ge - gt).sum() / 4, abs=1e-8)
        assert el2 == pytest.approx(((ge - gt) ** 2).sum() / 4, abs=1e-8)
        assert maxel1 == pytest.approx(abs(ge[-1] - gt[-1]), abs=1e-8)
        assert minel1 == pytest.approx(abs(ge[0] - gt[0]), abs=1e-8)


class TestConfusion:
    def test_complete_graph(self):
        adj = ~np.eye(4, dtype=bool)
        c = confusion(adj, adj)
        assert (c.tp, c.tn, c.fp, c.fn) == (6, 0, 0, 0)

    def test_empty_vs_complete(self):
        truth = ~np.eye(4, dtype=bool)
        c = confusion(np.zeros((4, 4), dtype=bool), truth)
        assert (c.tp, c.fn) == (0, 6)

    def test_counts_sum(self):
        rng = np.random.default_rng(2)
        est = rng.random((5, 5)) > 0.5
        truth = rng.random((5, 5)) > 0.5
        c = confusion(est, truth)
        assert c.tp + c.tn + c.fp + c.fn == 10

    def test_empty_stack_counts_nothing(self):
        truth = ~np.eye(4, dtype=bool)
        assert confusion(np.zeros((0, 4, 4), dtype=bool), truth) == []
        with pytest.raises(ValueError, match=r"dimension mismatch: \(0, 5, 5\) vs \(4, 4\)"):
            confusion(np.zeros((0, 5, 5), dtype=bool), truth)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        g=st.integers(1, 25),
        p=st.integers(2, 12),
        stacked=st.booleans(),
        density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(self, g, p, stacked, density, seed):
        rng = np.random.default_rng(seed)
        est = rng.random((g, p, p)) < density  # asymmetric, diagonals set at random
        est[:, np.arange(p), np.arange(p)] = rng.random((g, p)) < 0.5
        truth = rng.random((p, p)) < 0.4
        got = confusion(est, truth) if stacked else [confusion(est[0], truth)]
        assert got == [brute_force_confusion(e, truth) for e in (est if stacked else est[:1])]
        for c in got:
            counts = dataclasses.astuple(c)
            assert all(type(v) is int for v in counts)
            assert sum(counts) == p * (p - 1) // 2


def brute_force_confusion(est, truth):
    tp = tn = fp = fn = 0
    for i in range(truth.shape[0]):
        for j in range(i + 1, truth.shape[0]):
            e, t = bool(est[i, j]), bool(truth[i, j])
            tp += e and t
            tn += not e and not t
            fp += e and not t
            fn += t and not e
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


class TestScores:
    def test_perfect(self):
        s = classification_scores(ConfusionCounts(tp=2, tn=2, fp=0, fn=0))
        assert (s.mcc, s.f1, s.se, s.sp, s.fnr) == (1.0, 1.0, 1.0, 1.0, 0.0)

    def test_chance_level(self):
        s = classification_scores(ConfusionCounts(tp=1, tn=1, fp=1, fn=1))
        assert s.f1 == 0.5
        assert s.mcc == 0.0

    def test_all_positive_truth_gives_na_specificity(self):
        s = classification_scores(ConfusionCounts(tp=5, tn=0, fp=0, fn=1))
        assert is_na(s.sp)
        assert is_na(s.mcc)

    def test_mcc_range_and_fp_fn_swap(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 8, size=4))
            s = classification_scores(ConfusionCounts(tp, tn, fp, fn))
            swapped = classification_scores(ConfusionCounts(tp, tn, fn, fp))
            if is_na(s.mcc):
                assert is_na(swapped.mcc)
            else:
                assert -1.0 <= s.mcc <= 1.0
                assert s.mcc == swapped.mcc
            if not is_na(s.f1):
                assert 0.0 <= s.f1 <= 1.0

    def test_fnr_complements_sensitivity(self):
        s = classification_scores(ConfusionCounts(tp=3, tn=2, fp=1, fn=1))
        assert s.fnr == pytest.approx(1.0 - s.se)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            classification_scores(ConfusionCounts(tp=-1, tn=0, fp=0, fn=0))


class TestLossReport:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        m = random_symmetric(5, rng)
        rep = loss_report(m, m)
        assert all(v == 0.0 for v in rep._asdict().values())
        rep2 = loss_report(m + 0.1 * np.eye(5), m)
        assert rep2.l1 > 0 and rep2.l2 > 0
