import numpy as np
import pytest

from bayesdn.diffnet import dn_adjacency, estimate_bnet
from bayesdn.gibbs import ChainRequest, GibbsConfig, run_chains, spawn_seeds
from bayesdn.linalg import mirror_lower
from bayesdn.metrics import classification_scores, confusion
from bayesdn.structures import StructureSpec, make_structure, sample_gaussian
from bayesdn.wishart import posterior_partial_corr_mean

FAST = GibbsConfig(burn_in=150, retained=300)


def wishart_partials(x, eps=0.001):
    return posterior_partial_corr_mean(mirror_lower(x.T @ x), x.shape[0], eps)


class TestAdjacency:
    def test_identical_partials_empty_difference_and_xor(self):
        rng = np.random.default_rng(0)
        eh = np.eye(4) + 0.4 * (~np.eye(4, dtype=bool))
        for mode in ("difference", "xor"):
            adj = dn_adjacency((eh, eh.copy()), 0.1, mode=mode)
            assert not adj.any()

    def test_single_entry_difference(self):
        eh1 = np.eye(3)
        eh2 = np.eye(3)
        eh2[0, 1] = eh2[1, 0] = 0.5
        adj = dn_adjacency((eh1, eh2), 0.3, mode="difference")
        assert adj.sum() == 2 and adj[0, 1]

    def test_union_includes_both_components(self):
        eh1 = np.eye(3)
        eh1[0, 1] = eh1[1, 0] = 0.5
        eh2 = np.eye(3)
        eh2[1, 2] = eh2[2, 1] = 0.5
        adj = dn_adjacency((eh1, eh2), 0.3, mode="union")
        assert adj[0, 1] and adj[1, 2] and not adj[0, 2]

    def test_xor_drops_shared_edges(self):
        eh1 = np.eye(3)
        eh1[0, 1] = eh1[1, 0] = 0.5
        eh2 = eh1.copy()
        eh2[1, 2] = eh2[2, 1] = 0.5
        adj = dn_adjacency((eh1, eh2), 0.3, mode="xor")
        assert not adj[0, 1] and adj[1, 2]

    def test_difference_monotone_in_eta(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-0.8, 0.8, size=(5, 5))
        eh1 = mirror_lower(a)
        eh2 = mirror_lower(a + rng.uniform(-0.5, 0.5, size=(5, 5)))
        counts = [
            dn_adjacency((eh1, eh2), eta, mode="difference").sum()
            for eta in np.linspace(0.0, 1.0, 11)
        ]
        assert all(x >= y for x, y in zip(counts, counts[1:]))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            dn_adjacency((np.eye(2), np.eye(2)), 0.3, mode="intersection")

    def test_cluster_difference_mode_recovers_support(self):
        # component partial correlations differ in-block (-0.5 vs -0.9),
        # so the difference rule sees the true support directly
        pair = make_structure(StructureSpec("cluster", 10))
        x1 = sample_gaussian(pair.theta1, 200, seed=2)
        x2 = sample_gaussian(pair.theta2, 200, seed=3)
        eh1 = wishart_partials(x1)
        eh2 = wishart_partials(x2)
        adj = dn_adjacency((eh1, eh2), 0.3, mode="difference")
        mcc = classification_scores(confusion(adj, pair.true_adjacency)).mcc
        assert mcc > 0.5


class TestEstimate:
    def test_consecutive_seeds_share_no_chain(self):
        # with x1 = x2, seed s + 1 must not rerun one of seed s's chains
        pair = make_structure(StructureSpec("ar1", 6))
        x = sample_gaussian(pair.theta1, 60, seed=6)
        a = estimate_bnet(x, x, FAST, 9, eta=0.3)
        b = estimate_bnet(x, x, FAST, 10, eta=0.3)
        for ma in a.component_means:
            for mb in b.component_means:
                assert not np.array_equal(ma, mb)

    def test_components_follow_spawned_seeds(self):
        # the estimate runs its chains without the partial fold; the means
        # must still be those of a chain run with it, bit for bit
        pair = make_structure(StructureSpec("ar2", 6))
        x1 = sample_gaussian(pair.theta1, 60, seed=7)
        x2 = sample_gaussian(pair.theta2, 60, seed=8)
        dn = estimate_bnet(x1, x2, FAST, 0, eta=0.3)
        c1, c2 = spawn_seeds(0, 2)
        for x, mean, partial, c in zip((x1, x2), dn.component_means, dn.component_partials, (c1, c2)):
            scatter = mirror_lower(x.T @ x)
            chain = run_chains([ChainRequest(scatter, x.shape[0], FAST, c)])[0]
            np.testing.assert_array_equal(mean, chain.theta_mean)
            np.testing.assert_array_equal(partial, posterior_partial_corr_mean(scatter, x.shape[0]))

    def test_component_means_consistency(self):
        pair = make_structure(StructureSpec("ar1", 5))
        x1 = sample_gaussian(pair.theta1, 50, seed=9)
        x2 = sample_gaussian(pair.theta2, 50, seed=10)
        dn = estimate_bnet(x1, x2, FAST, 0, eta=0.3)
        np.testing.assert_array_equal(
            dn.delta_hat, dn.component_means[1] - dn.component_means[0]
        )
        assert dn.eta == 0.3

    def test_null_model_empty_adjacency(self):
        # both samples standard normal: no conditional structure to find
        for seed in (20, 21):
            x1 = sample_gaussian(np.eye(8), 200, seed=seed)
            x2 = sample_gaussian(np.eye(8), 200, seed=seed + 100)
            eh1 = wishart_partials(x1)
            eh2 = wishart_partials(x2)
            for mode in ("difference", "union"):
                assert not dn_adjacency((eh1, eh2), 0.3, mode=mode).any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            estimate_bnet(np.zeros((10, 3)), np.zeros((10, 4)), FAST, 0, eta=0.3)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            estimate_bnet(np.zeros((1, 3)), np.zeros((10, 3)), FAST, 0, eta=0.3)
