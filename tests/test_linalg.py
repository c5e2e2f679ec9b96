import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdn.linalg import (
    PIVOT_RTOL,
    NotPositiveDefiniteError,
    cholesky_pd,
    invert_pd,
    invert_pd_stack,
    mirror_lower,
    partial_correlation,
    require_symmetric,
    upper_indices,
)

from helpers import random_pd, reference_inverse


class TestCholesky:
    def test_identity(self):
        fac = cholesky_pd(np.eye(3))
        np.testing.assert_array_equal(fac.lower, np.eye(3))
        assert fac.logdet == 0.0

    def test_known_factor(self):
        # [[4, 2], [2, 3]] factors as [[2, 0], [1, sqrt(2)]]
        m = np.array([[4.0, 2.0], [2.0, 3.0]])
        fac = cholesky_pd(m)
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(fac.lower, expected, atol=1e-14)
        np.testing.assert_allclose(fac.lower @ fac.lower.T, m, rtol=1e-10)

    def test_indefinite_raises_with_minor(self):
        # eigenvalues 3 and -1
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky_pd(m)
        assert exc.value.minor == 2

    def test_pivot_floor_is_scale_aware(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_pd(np.diag([1.0, 1e-20]))
        # same shape but uniformly tiny scale is fine
        cholesky_pd(np.diag([1e-20, 1e-20]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky_pd(np.array([[1.0, 0.1], [0.2, 1.0]]))


class TestInvert:
    def test_identity(self):
        np.testing.assert_array_equal(invert_pd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(invert_pd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_random_pd_residual(self):
        rng = np.random.default_rng(0)
        m = random_pd(5, rng)
        residual = np.abs(m @ invert_pd(m) - np.eye(5)).max()
        assert residual <= 1e-8

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        inv = invert_pd(random_pd(6, rng))
        np.testing.assert_array_equal(inv, inv.T)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(1, 12),
        jitter=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_reference_bitwise(self, p, jitter, seed):
        m = random_pd(p, np.random.default_rng(seed), jitter=jitter)
        inv = invert_pd(m)
        np.testing.assert_array_equal(inv, reference_inverse(m))
        np.testing.assert_array_equal(inv, inv.T)

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.integers(2, 12),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_failures_name_the_minor(self, p, data, seed):
        # decoupling row k - 1 makes its pivot exactly its diagonal entry:
        # negative breaks the factorization, tiny positive hits the floor
        k = data.draw(st.integers(1, p))
        m = random_pd(p, np.random.default_rng(seed))
        m[k - 1, :] = m[:, k - 1] = 0.0
        floor = PIVOT_RTOL * np.max(np.diag(m))
        for pivot in (-1.0, 1e-3 * floor):
            m[k - 1, k - 1] = pivot
            messages = []
            for fn in (invert_pd, cholesky_pd):
                with pytest.raises(NotPositiveDefiniteError) as exc:
                    fn(m)
                assert exc.value.minor == k and exc.value.index == 0
                messages.append(str(exc.value))
            # one pivot rule: both name the same minor and the same floor
            assert messages[0] == messages[1]


def random_pd_stack(k, p, seed):
    rng = np.random.default_rng(seed)
    jitters = rng.uniform(1e-3, 10.0, size=k)
    return np.stack([random_pd(p, rng, jitter=j) for j in jitters])


def decouple(m, row, pivot):
    """Zero row and column ``row`` of ``m`` and set its diagonal to ``pivot``."""
    m[row, :] = m[:, row] = 0.0
    m[row, row] = pivot


class TestInvertStack:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(1, 8), p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_invert_pd_bitwise(self, k, p, seed):
        ms = random_pd_stack(k, p, seed)
        out = np.full_like(ms, np.nan)
        invert_pd_stack(ms, out)
        for m, inv in zip(ms, out):
            np.testing.assert_array_equal(inv, invert_pd(m))
            np.testing.assert_array_equal(inv, reference_inverse(m))
        # in place, over the stack it inverts
        invert_pd_stack(ms, ms)
        np.testing.assert_array_equal(ms, out)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 8),
        p=st.integers(2, 12),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_first_failure_is_the_one_invert_pd_raises(self, k, p, data, seed):
        # item `first` fails, by a negative pivot (potrf breaks down) or by
        # a tiny one (the pivot floor); a later item may fail the other
        # way; the stack raises the first item's error, with its index
        ms = random_pd_stack(k, p, seed)
        first = data.draw(st.integers(0, k - 1))
        kinds = ("breakdown", "floor")
        kind = data.draw(st.sampled_from(kinds))
        later = data.draw(st.one_of(st.none(), st.integers(first + 1, k - 1))) if first < k - 1 else None
        for item, how in ((first, kind), (later, kinds[kind == "breakdown"])):
            if item is None:
                continue
            row = data.draw(st.integers(0, p - 1))
            floor = PIVOT_RTOL * np.max(np.diag(ms[item]))
            decouple(ms[item], row, -1.0 if how == "breakdown" else 1e-3 * floor)
        with pytest.raises(NotPositiveDefiniteError) as single:
            invert_pd(ms[first])
        with pytest.raises(NotPositiveDefiniteError) as stacked:
            invert_pd_stack(ms, np.empty_like(ms))
        assert stacked.value.index == first
        assert str(stacked.value) == str(single.value)
        assert stacked.value.minor == single.value.minor

    def test_asymmetric_stack_rejected(self):
        ms = np.stack([np.eye(3), np.eye(3)])
        ms[1, 0, 2] = 0.5
        with pytest.raises(ValueError, match="not symmetric"):
            invert_pd_stack(ms, np.empty_like(ms))


class TestPartialCorrelation:
    def test_identity(self):
        np.testing.assert_array_equal(partial_correlation(np.eye(3)), np.eye(3))

    def test_2x2(self):
        rho = partial_correlation(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert rho[0, 1] == pytest.approx(-0.5)
        assert rho[0, 0] == 1.0

    def test_ar1_entrywise_formula(self):
        theta = np.array([[0.7 ** abs(i - j) for j in range(3)] for i in range(3)])
        rho = partial_correlation(theta)
        for i in range(3):
            for j in range(3):
                if i != j:
                    expected = -theta[i, j] / np.sqrt(theta[i, i] * theta[j, j])
                    assert rho[i, j] == pytest.approx(expected, abs=1e-15)
        assert np.all(np.abs(rho[~np.eye(3, dtype=bool)]) < 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.integers(2, 7),
        jitter=st.floats(0.05, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invariant_under_diagonal_rescaling(self, p, jitter, seed):
        rng = np.random.default_rng(seed)
        theta = random_pd(p, rng, jitter=jitter)
        rho = partial_correlation(theta)
        np.testing.assert_array_equal(np.diag(rho), np.ones(p))
        np.testing.assert_array_equal(rho, rho.T)
        assert np.all(np.abs(rho[~np.eye(p, dtype=bool)]) < 1.0)
        d = np.diag(rng.uniform(0.5, 3.0, size=p))
        scaled = mirror_lower(d @ theta @ d)
        np.testing.assert_allclose(partial_correlation(scaled), rho, atol=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(1, 7), p=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_each_item_bitwise(self, k, p, seed):
        stack = random_pd_stack(k, p, seed)
        got = partial_correlation(stack)
        for item, rho in zip(stack, got):
            np.testing.assert_array_equal(rho, partial_correlation(item))

    def test_rejects_non_square(self):
        for shape in ((2, 3), (4, 2, 3), (3,)):
            with pytest.raises(ValueError, match="expected square matrices"):
                partial_correlation(np.zeros(shape))


class TestSymmetryHelpers:
    def test_mirror_lower_exact(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 5))
        m = mirror_lower(a)
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.tril(m), np.tril(a))

    def test_mirror_lower_adds_zero_like_tril_sum(self):
        # signed zeros come out as tril(a) + tril(a, -1).T leaves them
        a = np.array([[-0.0, 1.0, -0.0], [-0.0, 2.0, 3.0], [-1.0, -0.0, np.nan]])
        got = mirror_lower(a)
        expected = np.tril(a) + np.tril(a, -1).T
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
        np.testing.assert_array_equal(got, expected)

    def test_require_symmetric_rejects_rectangular(self):
        with pytest.raises(ValueError):
            require_symmetric(np.zeros((2, 3)))


class TestUpperIndices:
    @pytest.mark.parametrize("p", [0, 1, 2, 5, 30])
    def test_cached_read_only_triu_indices(self, p):
        rows, cols = upper_indices(p)
        for got, want in zip((rows, cols), np.triu_indices(p, k=1)):
            np.testing.assert_array_equal(got, want, strict=True)
        again = upper_indices(p)
        assert again[0] is rows and again[1] is cols
        for index in (rows, cols):
            with pytest.raises(ValueError, match="read-only"):
                index[...] = 0
