import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp2f1

from bayesdn.linalg import cholesky_pd, invert_pd, partial_correlation
from bayesdn.metrics import is_na
from bayesdn.wishart import (
    DEFAULT_GRID,
    WishartSpec,
    _hyp2f1_half_half,
    best_threshold,
    edge_rule_mean,
    edge_rule_ratio,
    posterior_partial_corr_mean,
    posterior_spec,
    threshold_sweep,
)

from helpers import bartlett_wishart, random_pd


def oracle_partials(spec, count, seed):
    """Partial correlation matrices of ``count`` Bartlett draws from ``spec``."""
    draws = bartlett_wishart(spec.dof, spec.scale, count, np.random.default_rng(seed))
    return partial_correlation(draws)


class TestSpec:
    def test_posterior_construction(self):
        rng = np.random.default_rng(0)
        scatter = random_pd(4, rng, jitter=8)
        spec = posterior_spec(scatter, n=100, eps=0.001)
        assert spec.dof == 103.0
        np.testing.assert_allclose(
            spec.scale, invert_pd(scatter + 0.001 * np.eye(4)), atol=1e-12
        )

    def test_dof_at_most_one_rejected(self):
        for dof in (1.0, 0.5, -3.0, float("nan")):
            with pytest.raises(ValueError):
                WishartSpec(dof=dof, scale=np.eye(3))
        # only the 2x2 marginals are used, so dof below the dimension is valid
        assert WishartSpec(dof=2.0, scale=np.eye(3)).dim == 3

    def test_scale_must_be_pd(self):
        with pytest.raises(Exception):
            WishartSpec(dof=5.0, scale=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSampling:
    """The Bartlett oracle itself, so that agreeing with it means something."""

    def test_draws_pd(self):
        draws = bartlett_wishart(3.0, np.eye(2), 50, np.random.default_rng(1))
        assert draws.shape == (50, 2, 2)
        for w in draws:
            cholesky_pd(np.tril(w) + np.tril(w, -1).T)

    def test_mean_matches_dof_times_scale(self):
        rng = np.random.default_rng(2)
        scale = random_pd(3, rng, jitter=4) / 4.0
        draws = bartlett_wishart(7.0, scale, 100_000, rng)
        mean = draws.mean(axis=0)
        rel = np.linalg.norm(mean - 7.0 * scale, "fro") / np.linalg.norm(7.0 * scale, "fro")
        assert rel < 0.01

    def test_posterior_mean_analytic(self):
        rng = np.random.default_rng(3)
        scatter = random_pd(3, rng, jitter=60) * 10
        spec = posterior_spec(scatter, n=100)
        draws = bartlett_wishart(spec.dof, spec.scale, 60_000, rng)
        expected = 103.0 * spec.scale
        rel = np.linalg.norm(draws.mean(axis=0) - expected, "fro") / np.linalg.norm(expected, "fro")
        assert rel < 0.02


def random_scale(p, split, jitter, seed):
    """A PD scale that is block diagonal up to a permutation, so some entries are 0."""
    rng = np.random.default_rng(seed)
    scale = np.zeros((p, p))
    scale[:split, :split] = random_pd(split, rng, jitter)
    scale[split:, split:] = random_pd(p - split, rng, jitter)
    perm = rng.permutation(p)
    return scale[np.ix_(perm, perm)]


class TestPartialCorrMean:
    def test_isotropic_off_diagonals_near_zero(self):
        spec = WishartSpec(dof=500.0, scale=np.eye(4) / 500.0)
        m = posterior_partial_corr_mean(spec)
        off = ~np.eye(4, dtype=bool)
        assert np.abs(m[off]).max() < 0.05
        assert np.all(np.diag(m) == 1.0)

    def test_self_consistency_across_counts(self):
        # the oracle's mean converges to the exact mean as draws are added
        rng = np.random.default_rng(7)
        scatter = random_pd(5, rng, jitter=40) * 20
        spec = posterior_spec(scatter, n=200)
        exact = posterior_partial_corr_mean(spec)
        small = np.abs(oracle_partials(spec, 1000, 8).mean(axis=0) - exact).max()
        large = np.abs(oracle_partials(spec, 10_000, 9).mean(axis=0) - exact).max()
        assert large < small < 0.02

    @pytest.mark.parametrize("case", ["p5-nu7", "p10-n100"])
    def test_matches_bartlett_oracle(self, case):
        rng = np.random.default_rng(11)
        if case == "p5-nu7":
            spec = WishartSpec(dof=7.0, scale=random_pd(5, rng, jitter=1.0) / 5.0)
        else:
            x = rng.standard_normal((100, 10)) @ random_pd(10, rng, jitter=2.0)
            spec = posterior_spec(x.T @ x, n=100)
        count = 40_000
        rho = oracle_partials(spec, count, 12)
        se = rho.std(axis=0, ddof=1) / np.sqrt(count)
        exact = posterior_partial_corr_mean(spec)
        off = ~np.eye(spec.dim, dtype=bool)
        assert np.all(np.abs(exact - rho.mean(axis=0))[off] <= 5.0 * se[off])
        # the entries are not all near 0, so the comparison has teeth
        assert np.abs(exact[off]).max() > 0.2

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(2, 6),
        split=st.integers(1, 5),
        jitter=st.floats(1e-3, 10.0),
        dof=st.floats(1.0, 500.0, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_mean_properties(self, p, split, jitter, dof, seed):
        scale = random_scale(p, min(split, p - 1), jitter, seed)
        m = posterior_partial_corr_mean(WishartSpec(dof=dof, scale=scale))
        d = np.sqrt(np.diag(scale))
        r = scale / np.outer(d, d)
        off = ~np.eye(p, dtype=bool)
        assert np.all(np.isfinite(m))
        np.testing.assert_array_equal(m, m.T)
        assert np.all(np.diag(m) == 1.0)
        assert np.all(np.sign(m[off]) == -np.sign(r[off]))
        assert np.all(np.abs(m[off]) <= np.abs(r[off]))
        assert np.all(m[off][scale[off] == 0.0] == 0.0)
        # the mean approaches -r at rate 1/dof
        for nu in (dof, 100.0 * dof):
            m_nu = posterior_partial_corr_mean(WishartSpec(dof=nu, scale=scale))
            assert np.all(np.abs(m_nu + r)[off] <= np.abs(r[off]) / nu + 1e-12)

    def test_series_matches_scipy_where_scipy_is_stable(self):
        z = np.linspace(0.0, 0.9, 91)
        for dof in (97.0, 98.0, 150.0, 400.0):
            c = dof / 2.0 + 1.0
            np.testing.assert_allclose(
                _hyp2f1_half_half(c, z), hyp2f1(0.5, 0.5, c, z), rtol=1e-14
            )

    def test_near_unit_correlation_at_large_dof(self):
        # scipy's hyp2f1 gives inf or nan here (c >= 100, z > 0.9)
        r = 0.999999
        scale = np.array([[1.0, r], [r, 1.0]])
        for dof in (300.0, 1503.0, 1e5):
            m = posterior_partial_corr_mean(WishartSpec(dof=dof, scale=scale))
            assert np.isfinite(m[0, 1]) and -r <= m[0, 1] < -r * (1.0 - 1.0 / dof)


class TestEdgeRules:
    def test_mean_rule_bounds(self):
        eh = np.array([[1.0, 0.35, -0.1], [0.35, 1.0, 0.2], [-0.1, 0.2, 1.0]])
        full = edge_rule_mean(eh, 0.0)
        assert full.sum() == 6  # complete graph, diagonal excluded
        assert edge_rule_mean(eh, 1.0).sum() == 0

    def test_mean_rule_comparison(self):
        eh = np.array([[1.0, 0.35, 0.1], [0.35, 1.0, 0.0], [0.1, 0.0, 1.0]])
        adj = edge_rule_mean(eh, 0.2)
        assert adj[0, 1] and not adj[0, 2]

    def test_mean_rule_sign_invariant(self):
        rng = np.random.default_rng(10)
        eh = random_pd(4, rng)
        eh = eh / np.abs(eh).max()
        np.testing.assert_array_equal(edge_rule_mean(eh, 0.3), edge_rule_mean(-eh, 0.3))

    def test_mean_rule_monotone_in_eta(self):
        rng = np.random.default_rng(11)
        eh = random_pd(5, rng)
        eh = eh / np.abs(eh).max()
        counts = [edge_rule_mean(eh, eta).sum() for eta in np.linspace(0, 1, 11)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_ratio_rule_cases(self):
        eg = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert edge_rule_ratio(eg, eg, 0.5).sum() == 2  # all ratios exactly 1
        zero = np.eye(2)
        assert edge_rule_ratio(zero, eg, 0.5).sum() == 0
        rho = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert edge_rule_ratio(rho, eg, 0.5)[0, 1]  # 0.6 > 0.5

    def test_rules_symmetric_zero_diag(self):
        rng = np.random.default_rng(12)
        eh = random_pd(4, rng)
        eh = eh / np.abs(eh).max()
        for adj in (edge_rule_mean(eh, 0.2), edge_rule_ratio(eh, eh + 0.5 * np.eye(4), 0.5)):
            np.testing.assert_array_equal(adj, adj.T)
            assert not adj.diagonal().any()

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            edge_rule_mean(np.eye(2), 1.5)


class TestSweep:
    def test_default_grid_has_21_points(self):
        assert DEFAULT_GRID.size == 21
        assert DEFAULT_GRID[0] == pytest.approx(0.2)
        assert DEFAULT_GRID[-1] == pytest.approx(0.6)
        assert np.allclose(np.diff(DEFAULT_GRID), 0.02)

    def test_perfect_estimator(self):
        truth = np.zeros((5, 5), dtype=bool)
        truth[0, 1] = truth[1, 0] = truth[2, 3] = truth[3, 2] = True
        report = threshold_sweep(truth, lambda eta: truth, DEFAULT_GRID)
        assert report.best_mcc == 1.0
        np.testing.assert_array_equal(report.sparsity_error, np.zeros(21))
        assert report.best_eta == pytest.approx(0.2)  # smallest eta wins ties

    def test_na_mcc_never_wins(self):
        truth = np.zeros((4, 4), dtype=bool)
        truth[0, 1] = truth[1, 0] = True
        partial = np.zeros((4, 4), dtype=bool)
        partial[0, 1] = partial[1, 0] = partial[2, 3] = partial[3, 2] = True

        def rule(eta):
            # defined (positive) MCC at low eta, NA (empty graph) above
            return partial if eta < 0.4 else np.zeros((4, 4), dtype=bool)

        report = threshold_sweep(truth, rule, np.array([0.3, 0.5]))
        assert report.best_eta == 0.3
        assert not is_na(report.best_mcc)

    def test_all_na_falls_back_to_first_eta(self):
        truth = np.zeros((4, 4), dtype=bool)
        truth[0, 1] = truth[1, 0] = True
        empty = np.zeros((4, 4), dtype=bool)
        report = threshold_sweep(truth, lambda eta: empty, np.array([0.3, 0.5]))
        assert report.best_eta == 0.3
        assert is_na(report.best_mcc)

    def test_best_threshold_skips_na_and_breaks_ties_low(self):
        grid = np.array([0.2, 0.3, 0.4, 0.5])
        assert best_threshold(grid, np.array([np.nan, 0.5, 0.7, 0.7])) == (0.4, 0.7)
        assert best_threshold(grid, np.array([-0.1, np.nan, -0.3, np.nan])) == (0.2, -0.1)
        eta, mcc = best_threshold(grid, np.full(4, np.nan))
        assert eta == 0.2 and np.isnan(mcc)

    def test_sparsity_error_counts_edges(self):
        truth = np.zeros((4, 4), dtype=bool)
        truth[0, 1] = truth[1, 0] = True
        est = np.zeros((4, 4), dtype=bool)
        report = threshold_sweep(truth, lambda eta: est, np.array([0.2]))
        assert report.sparsity_error[0] == 1.0

    def test_grid_validation(self):
        truth = np.zeros((3, 3), dtype=bool)
        with pytest.raises(ValueError):
            threshold_sweep(truth, lambda eta: truth, np.array([]))
        with pytest.raises(ValueError):
            threshold_sweep(truth, lambda eta: truth, np.array([0.3, 0.2]))
