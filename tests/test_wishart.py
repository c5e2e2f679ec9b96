import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp2f1

from bayesdn.diffnet import DN_MODES, RATIO_FLOOR, dn_adjacency
from bayesdn.linalg import (
    NotPositiveDefiniteError,
    cholesky_pd,
    invert_pd,
    mirror_lower,
    partial_correlation,
)
from bayesdn.metrics import classification_scores, confusion, is_na
from bayesdn.wishart import (
    DEFAULT_GRID,
    EPSILON,
    PRIOR_DOF,
    _hyp2f1_half_half,
    _partial_corr_mean,
    best_threshold,
    posterior_partial_corr_mean,
    threshold_sweep,
)

from helpers import bartlett_wishart, random_pd


def oracle_partials(nu, psi, count, seed):
    """Partial correlation matrices of ``count`` Bartlett draws from W(nu, psi)."""
    draws = bartlett_wishart(nu, psi, count, np.random.default_rng(seed))
    return np.stack([partial_correlation(draw) for draw in draws])


def posterior_params(scatter, n, eps=EPSILON):
    """Degrees of freedom and scale of the conjugate Wishart posterior."""
    return PRIOR_DOF + n, invert_pd(scatter + eps * np.eye(scatter.shape[0]))


class TestSpec:
    def test_posterior_construction(self):
        rng = np.random.default_rng(0)
        scatter = random_pd(4, rng, jitter=8)
        for eps in (0.001, 1.0):
            expected = _partial_corr_mean(103.0, invert_pd(scatter + eps * np.eye(4)))
            np.testing.assert_array_equal(posterior_partial_corr_mean(scatter, 100, eps), expected)
        np.testing.assert_array_equal(
            posterior_partial_corr_mean(scatter, 100),
            posterior_partial_corr_mean(scatter, 100, 0.001),
        )

    def test_n_below_one_rejected(self):
        for n in (0, -3, float("nan")):
            with pytest.raises(ValueError, match="n must be >= 1"):
                posterior_partial_corr_mean(np.eye(3), n)
        # only the 2x2 marginals are used, so dof below the dimension is valid
        assert posterior_partial_corr_mean(np.eye(5), 1).shape == (5, 5)

    def test_regularized_scatter_must_be_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            posterior_partial_corr_mean(np.array([[1.0, 2.0], [2.0, 1.0]]), 5)
        with pytest.raises(ValueError, match="not symmetric"):
            posterior_partial_corr_mean(np.array([[2.0, 0.5], [0.4, 2.0]]), 5)


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
        nu, psi = posterior_params(scatter, 100)
        draws = bartlett_wishart(nu, psi, 60_000, rng)
        expected = 103.0 * psi
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


def fixed_series(c, z):
    """2F1(1/2, 1/2; c; z) as the first 30 terms of its power series, always all 30."""
    term = np.ones_like(z)
    total = np.ones_like(z)
    for k in range(30):
        term *= z * ((k + 0.5) ** 2 / ((c + k) * (k + 1)))
        total += term
    return total


class TestPartialCorrMean:
    def test_isotropic_off_diagonals_near_zero(self):
        m = _partial_corr_mean(500.0, np.eye(4) / 500.0)
        off = ~np.eye(4, dtype=bool)
        assert np.abs(m[off]).max() < 0.05
        assert np.all(np.diag(m) == 1.0)

    def test_self_consistency_across_counts(self):
        # the oracle's mean converges to the exact mean as draws are added
        rng = np.random.default_rng(7)
        scatter = random_pd(5, rng, jitter=40) * 20
        nu, psi = posterior_params(scatter, 200)
        exact = posterior_partial_corr_mean(scatter, 200)
        small = np.abs(oracle_partials(nu, psi, 1000, 8).mean(axis=0) - exact).max()
        large = np.abs(oracle_partials(nu, psi, 10_000, 9).mean(axis=0) - exact).max()
        assert large < small < 0.02

    @pytest.mark.parametrize("case", ["p5-nu7", "p10-n100"])
    def test_matches_bartlett_oracle(self, case):
        rng = np.random.default_rng(11)
        if case == "p5-nu7":
            nu, psi = 7.0, random_pd(5, rng, jitter=1.0) / 5.0
        else:
            x = rng.standard_normal((100, 10)) @ random_pd(10, rng, jitter=2.0)
            nu, psi = posterior_params(x.T @ x, 100)
        count = 40_000
        rho = oracle_partials(nu, psi, count, 12)
        se = rho.std(axis=0, ddof=1) / np.sqrt(count)
        exact = _partial_corr_mean(nu, psi)
        off = ~np.eye(psi.shape[0], dtype=bool)
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
        m = _partial_corr_mean(dof, scale)
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
            m_nu = _partial_corr_mean(nu, scale)
            assert np.all(np.abs(m_nu + r)[off] <= np.abs(r[off]) / nu + 1e-12)

    def test_series_matches_scipy_where_scipy_is_stable(self):
        z = np.linspace(0.0, 0.9, 91)
        for dof in (97.0, 98.0, 150.0, 400.0):
            c = dof / 2.0 + 1.0
            np.testing.assert_allclose(
                _hyp2f1_half_half(c, z), hyp2f1(0.5, 0.5, c, z), rtol=1e-14
            )

    @pytest.mark.parametrize("c", [50.0, 52.5, 102.5, 751.5, 1e5])
    @pytest.mark.parametrize(
        "z",
        [
            np.linspace(0.0, 1.0, 1001),
            np.array([1.0]),
            np.zeros(7),
            np.array([]),
            np.array([np.nan, 0.5]),
        ],
        ids=["linspace", "one", "zeros", "empty", "nan"],
    )
    def test_series_equals_the_fixed_sum(self, c, z):
        np.testing.assert_array_equal(_hyp2f1_half_half(c, z), fixed_series(c, z), strict=True)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        c=st.floats(50.0, 1e7),
        z=st.lists(st.floats(0.0, 1.0), max_size=40),
    )
    def test_series_equals_the_fixed_sum_anywhere(self, c, z):
        z = np.array(z, dtype=float)
        np.testing.assert_array_equal(_hyp2f1_half_half(c, z), fixed_series(c, z), strict=True)

    def test_near_unit_correlation_at_large_dof(self):
        # scipy's hyp2f1 gives inf or nan here (c >= 100, z > 0.9)
        r = 0.999999
        scale = np.array([[1.0, r], [r, 1.0]])
        for dof in (300.0, 1503.0, 1e5):
            m = _partial_corr_mean(dof, scale)
            assert np.isfinite(m[0, 1]) and -r <= m[0, 1] < -r * (1.0 - 1.0 / dof)


class TestEdgeRules:
    """The mean and ratio rules of ``dn_adjacency`` on Wishart-reference means.

    One sample's rule is the union of that sample with itself.
    """

    @staticmethod
    def one_sample(e, eta, ref=None):
        return dn_adjacency((e, e), eta, "union", None if ref is None else (ref, ref))

    @staticmethod
    def scaled_pd(p, seed):
        eh = random_pd(p, np.random.default_rng(seed))
        return eh / np.abs(eh).max()

    def test_mean_rule_bounds(self):
        eh = np.array([[1.0, 0.35, -0.1], [0.35, 1.0, 0.2], [-0.1, 0.2, 1.0]])
        full = self.one_sample(eh, 0.0)
        assert full.sum() == 6  # complete graph, diagonal excluded
        assert self.one_sample(eh, 1.0).sum() == 0

    def test_mean_rule_comparison(self):
        eh = np.array([[1.0, 0.35, 0.1], [0.35, 1.0, 0.0], [0.1, 0.0, 1.0]])
        adj = self.one_sample(eh, 0.2)
        assert adj[0, 1] and not adj[0, 2]

    def test_mean_rule_sign_invariant(self):
        eh = self.scaled_pd(4, 10)
        for mode in DN_MODES:
            np.testing.assert_array_equal(
                dn_adjacency((eh, 0.5 * eh), 0.3, mode), dn_adjacency((-eh, -0.5 * eh), 0.3, mode)
            )

    def test_mean_rule_monotone_in_eta(self):
        eh = self.scaled_pd(5, 11)
        counts = [self.one_sample(eh, eta).sum() for eta in np.linspace(0, 1, 11)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_ratio_rule_cases(self):
        eg = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert self.one_sample(eg, 0.5, eg).sum() == 2  # all ratios exactly 1
        zero = np.eye(2)
        assert self.one_sample(zero, 0.5, eg).sum() == 0
        rho = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert self.one_sample(rho, 0.5, eg)[0, 1]  # 0.6 > 0.5
        # a zero reference is floored, so any nonzero entry fires
        assert self.one_sample(rho, 1.0, zero)[0, 1]

    def test_ratio_rule_sign_invariant_and_monotone_in_eta(self):
        rho, eg = self.scaled_pd(4, 13), self.scaled_pd(4, 14)
        for mode in DN_MODES:
            np.testing.assert_array_equal(
                dn_adjacency((rho, 0.5 * rho), 0.3, mode, (eg, 0.8 * eg)),
                dn_adjacency((-rho, -0.5 * rho), 0.3, mode, (-eg, -0.8 * eg)),
            )
        counts = [self.one_sample(rho, eta, eg).sum() for eta in np.linspace(0, 1, 11)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_rules_symmetric_zero_diag(self):
        eh = self.scaled_pd(4, 12)
        for mode in DN_MODES:
            for ref in (None, (eh + 0.5 * np.eye(4), eh)):
                adj = dn_adjacency((eh, 0.5 * eh), 0.2, mode, ref)
                np.testing.assert_array_equal(adj, adj.T)
                assert not adj.diagonal().any()

    def test_eta_out_of_range(self):
        for mode in DN_MODES:
            for ref in (None, (np.eye(2), np.eye(2))):
                for eta in (1.5, -0.1, float("nan")):
                    with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\]"):
                        dn_adjacency((np.eye(2), np.eye(2)), eta, mode, ref)
                # a grid names its first bad value
                with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\], got 1.5"):
                    dn_adjacency((np.eye(2), np.eye(2)), np.array([0.2, 1.5, -1.0]), mode, ref)

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError):
            dn_adjacency((np.eye(2), np.eye(3)), 0.3)
        with pytest.raises(ValueError):
            dn_adjacency((np.eye(2), np.eye(2)), 0.3, "union", (np.eye(2), np.eye(3)))

    def test_bit_identical_to_the_separate_rules(self):
        # the two rules and their combinations as they were written before
        # dn_adjacency took both: per-sample rules, then the mode
        def mean_rule(eh, eta):
            adj = np.abs(eh) > eta
            np.fill_diagonal(adj, False)
            return adj

        def ratio_rule(rho, eg, eta):
            adj = np.abs(rho) / np.maximum(np.abs(eg), RATIO_FLOOR) > eta
            np.fill_diagonal(adj, False)
            return adj

        def mean_combined(eh1, eh2, eta, mode):
            if mode == "difference":
                return mean_rule(eh2 - eh1, eta)
            a1, a2 = mean_rule(eh1, eta), mean_rule(eh2, eta)
            return a1 ^ a2 if mode == "xor" else a1 | a2

        def ratio_combined(rho1, rho2, eg1, eg2, eta, mode):
            if mode == "difference":
                adj = np.abs(rho2 - rho1) / np.maximum(np.abs(eg2 - eg1), RATIO_FLOOR) > eta
                np.fill_diagonal(adj, False)
                return adj
            a1, a2 = ratio_rule(rho1, eg1, eta), ratio_rule(rho2, eg2, eta)
            return a1 ^ a2 if mode == "xor" else a1 | a2

        rng = np.random.default_rng(15)
        x1 = rng.standard_normal((60, 8)) @ random_pd(8, rng, jitter=1.0)
        x2 = rng.standard_normal((60, 8)) @ random_pd(8, rng, jitter=1.0)
        s1, s2 = mirror_lower(x1.T @ x1), mirror_lower(x2.T @ x2)
        eh1, eh2 = posterior_partial_corr_mean(s1, 60), posterior_partial_corr_mean(s2, 60)
        eg1, eg2 = posterior_partial_corr_mean(s1, 60, 1.0), posterior_partial_corr_mean(s2, 60, 1.0)
        # chain-like partials: the tight means moved off the wide ones
        rho1, rho2 = mirror_lower(0.9 * eh1 + 0.05), mirror_lower(1.1 * eh2 - 0.02)
        hits = {"mean": 0, "ratio": 0}
        for mode in DN_MODES:
            for eta in np.linspace(0.0, 1.0, 51):
                old = mean_combined(eh1, eh2, eta, mode)
                np.testing.assert_array_equal(dn_adjacency((eh1, eh2), eta, mode), old)
                hits["mean"] += int(old.any())
                old = ratio_combined(rho1, rho2, eg1, eg2, eta, mode)
                np.testing.assert_array_equal(dn_adjacency((rho1, rho2), eta, mode, (eg1, eg2)), old)
                hits["ratio"] += int(old.any())
        # both rules produce edges over much of the grid, so the match has teeth
        assert min(hits.values()) > 50


def stacked(rule, grid):
    """A per-threshold rule's graphs over ``grid``: one layer per grid point."""
    return np.stack([rule(float(eta)) for eta in grid])


class TestSweep:
    def test_default_grid_has_21_points(self):
        assert DEFAULT_GRID.size == 21
        assert DEFAULT_GRID[0] == pytest.approx(0.2)
        assert DEFAULT_GRID[-1] == pytest.approx(0.6)
        assert np.allclose(np.diff(DEFAULT_GRID), 0.02)

    def test_perfect_estimator(self):
        truth = np.zeros((5, 5), dtype=bool)
        truth[0, 1] = truth[1, 0] = truth[2, 3] = truth[3, 2] = True
        report = threshold_sweep(truth, stacked(lambda eta: truth, DEFAULT_GRID), DEFAULT_GRID)
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

        grid = np.array([0.3, 0.5])
        report = threshold_sweep(truth, stacked(rule, grid), grid)
        assert report.best_eta == 0.3
        assert not is_na(report.best_mcc)

    def test_all_na_falls_back_to_first_eta(self):
        truth = np.zeros((4, 4), dtype=bool)
        truth[0, 1] = truth[1, 0] = True
        empty = np.zeros((4, 4), dtype=bool)
        report = threshold_sweep(truth, np.stack([empty, empty]), np.array([0.3, 0.5]))
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
        report = threshold_sweep(truth, est[None], np.array([0.2]))
        assert report.sparsity_error[0] == 1.0

    def test_grid_validation(self):
        truth = np.zeros((3, 3), dtype=bool)
        with pytest.raises(ValueError, match="grid must be non-empty"):
            threshold_sweep(truth, np.zeros((0, 3, 3), dtype=bool), np.array([]))
        with pytest.raises(ValueError, match="grid must be strictly increasing"):
            threshold_sweep(truth, np.stack([truth, truth]), np.array([0.3, 0.2]))
        # one layer per grid point
        with pytest.raises(ValueError, match=r"graphs must be a \(2, 3, 3\) stack"):
            threshold_sweep(truth, truth, np.array([0.2, 0.3]))


def reference_sweep(truth, partials, mode, reference, grid):
    """The sweep one threshold at a time, as ``threshold_sweep`` ran before it took a stack."""
    true_edges = confusion(truth, truth).tp
    sparsity, mcc = [], []
    for eta in grid:
        c = confusion(dn_adjacency(partials, float(eta), mode, reference), truth)
        sparsity.append(abs((c.tp + c.fp) - true_edges))
        mcc.append(classification_scores(c).mcc)
    return np.array(sparsity, dtype=float), np.array(mcc), *best_threshold(grid, np.array(mcc))


@st.composite
def sweep_cases(draw):
    """Partials, references, truth and grid on a lattice of eighths and sixteenths.

    Scores of eighths (and many of their ratios) are exact sixteenths, so
    grid points often equal a score and the strict ``>`` decides them.
    """
    p = draw(st.integers(2, 12))
    m = p * (p - 1) // 2
    iu = np.triu_indices(p, k=1)

    def symmetric(values, diagonal):
        out = np.full((p, p), diagonal)
        out[iu] = values
        out.T[iu] = values
        return out

    eighths = st.lists(st.integers(-8, 8).map(lambda k: k / 8), min_size=m, max_size=m)
    partials = (symmetric(draw(eighths), 1.0), symmetric(draw(eighths), 1.0))
    reference = None
    if draw(st.booleans()):
        reference = (symmetric(draw(eighths), 1.0), symmetric(draw(eighths), 1.0))
    mode = draw(st.sampled_from(DN_MODES))
    truth = symmetric(draw(st.lists(st.booleans(), min_size=m, max_size=m)), False)
    lattice = draw(st.sets(st.integers(0, 16).map(lambda k: k / 16), max_size=17))
    floats = draw(st.sets(st.floats(0.0, 1.0), max_size=4))
    grid = np.array(sorted(lattice | floats or {0.5}))
    return partials, reference, mode, truth, grid


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sweep_cases())
def test_stacked_sweep_matches_the_per_threshold_loop(case):
    partials, reference, mode, truth, grid = case
    report = threshold_sweep(truth, dn_adjacency(partials, grid, mode, reference), grid)
    sparsity, mcc, best_eta, best_mcc = reference_sweep(truth, partials, mode, reference, grid)
    np.testing.assert_array_equal(report.grid, grid)
    np.testing.assert_array_equal(report.sparsity_error, sparsity)
    np.testing.assert_array_equal(np.isnan(report.mcc), np.isnan(mcc))
    np.testing.assert_array_equal(report.mcc, mcc)
    assert report.best_eta == best_eta
    assert report.best_mcc == best_mcc or (np.isnan(report.best_mcc) and np.isnan(best_mcc))
