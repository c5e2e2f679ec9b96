import tracemalloc

import numpy as np
import pytest

from bayesdn.linalg import cholesky_pd, invert_pd, partial_correlation
from bayesdn.metrics import is_na
from bayesdn.wishart import (
    DEFAULT_GRID,
    WishartSpec,
    best_threshold,
    edge_rule_mean,
    edge_rule_ratio,
    posterior_partial_corr_mean,
    posterior_spec,
    sample_wishart,
    threshold_sweep,
)

from helpers import random_pd


class TestSpec:
    def test_posterior_construction(self):
        rng = np.random.default_rng(0)
        scatter = random_pd(4, rng, jitter=8)
        spec = posterior_spec(scatter, n=100, eps=0.001)
        assert spec.dof == 103.0
        np.testing.assert_allclose(
            spec.scale, invert_pd(scatter + 0.001 * np.eye(4)), atol=1e-12
        )

    def test_dof_below_dim_rejected(self):
        with pytest.raises(ValueError):
            WishartSpec(dof=2.0, scale=np.eye(3))

    def test_scale_must_be_pd(self):
        with pytest.raises(Exception):
            WishartSpec(dof=5.0, scale=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSampling:
    def test_draws_pd(self):
        spec = WishartSpec(dof=3.0, scale=np.eye(2))
        draws = sample_wishart(spec, 50, np.random.default_rng(1))
        assert draws.shape == (50, 2, 2)
        for w in draws:
            cholesky_pd(np.tril(w) + np.tril(w, -1).T)

    def test_mean_matches_dof_times_scale(self):
        rng = np.random.default_rng(2)
        scale = random_pd(3, rng, jitter=4) / 4.0
        spec = WishartSpec(dof=7.0, scale=scale)
        draws = sample_wishart(spec, 100_000, rng)
        mean = draws.mean(axis=0)
        rel = np.linalg.norm(mean - 7.0 * scale, "fro") / np.linalg.norm(7.0 * scale, "fro")
        assert rel < 0.01

    def test_posterior_mean_analytic(self):
        rng = np.random.default_rng(3)
        scatter = random_pd(3, rng, jitter=60) * 10
        spec = posterior_spec(scatter, n=100)
        draws = sample_wishart(spec, 60_000, rng)
        expected = 103.0 * spec.scale
        rel = np.linalg.norm(draws.mean(axis=0) - expected, "fro") / np.linalg.norm(expected, "fro")
        assert rel < 0.02

    def test_monte_carlo_error_shrinks(self):
        rng = np.random.default_rng(4)
        spec = WishartSpec(dof=5.0, scale=np.eye(3))
        expected = 5.0 * np.eye(3)

        def err(count, seed):
            draws = sample_wishart(spec, count, np.random.default_rng(seed))
            return np.linalg.norm(draws.mean(axis=0) - expected, "fro")

        small = np.median([err(200, s) for s in range(5)])
        large = np.median([err(20_000, s) for s in range(5)])
        assert large < small

    def test_blocked_products_match_bartlett_formula_bitwise(self):
        # 70 draws span two full blocks and a partial one
        rng = np.random.default_rng(4)
        spec = WishartSpec(dof=9.0, scale=random_pd(5, rng, jitter=5) / 5.0)
        got = sample_wishart(spec, 70, np.random.default_rng(5))
        ref_rng = np.random.default_rng(5)
        p, count = 5, 70
        a = np.zeros((count, p, p))
        tril = np.tril_indices(p, k=-1)
        a[:, tril[0], tril[1]] = ref_rng.standard_normal((count, p * (p - 1) // 2))
        a[:, np.arange(p), np.arange(p)] = np.sqrt(
            ref_rng.chisquare(spec.dof - np.arange(p), size=(count, p))
        )
        la = cholesky_pd(spec.scale).lower @ a
        np.testing.assert_array_equal(got, la @ np.transpose(la, (0, 2, 1)))

    def test_peak_memory_below_two_and_a_half_stacks(self):
        spec = WishartSpec(dof=40.0, scale=np.eye(30))
        count = 300
        stack_bytes = count * 30 * 30 * 8
        tracemalloc.start()
        try:
            sample_wishart(spec, count, np.random.default_rng(6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * stack_bytes

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_wishart(WishartSpec(3.0, np.eye(2)), 0, np.random.default_rng(0))


class TestPartialCorrMean:
    def test_isotropic_off_diagonals_near_zero(self):
        spec = WishartSpec(dof=500.0, scale=np.eye(4) / 500.0)
        m = posterior_partial_corr_mean(spec, 4000, np.random.default_rng(5))
        off = ~np.eye(4, dtype=bool)
        assert np.abs(m[off]).max() < 0.05
        assert np.all(np.diag(m) == 1.0)

    def test_single_draw_equals_partial_correlation(self):
        spec = WishartSpec(dof=9.0, scale=np.eye(3))
        draw = sample_wishart(spec, 1, np.random.default_rng(6))[0]
        m = posterior_partial_corr_mean(spec, 1, np.random.default_rng(6))
        sym = np.tril(draw) + np.tril(draw, -1).T
        np.testing.assert_allclose(m, partial_correlation(sym), atol=1e-12)

    def test_self_consistency_across_counts(self):
        rng = np.random.default_rng(7)
        scatter = random_pd(5, rng, jitter=40) * 20
        spec = posterior_spec(scatter, n=200)
        m_small = posterior_partial_corr_mean(spec, 1000, np.random.default_rng(8))
        m_large = posterior_partial_corr_mean(spec, 10_000, np.random.default_rng(9))
        assert np.abs(m_small - m_large).max() < 0.02


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
