import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dpotrf, dtrtrs

import bayesdn.gibbs as gibbs
from bayesdn.gibbs import (
    STACK_MAX_CHAINS,
    STACK_MIN_CHAINS,
    ChainRequest,
    ChainStack,
    GibbsConfig,
    chain_batches,
    chain_draws,
    initial_state,
    run_batch,
    run_chains,
    update_column,
    update_hyperparameters,
)
from bayesdn.linalg import (
    NotPositiveDefiniteError,
    cholesky_pd,
    invert_pd_stack,
    mirror_lower,
    partial_correlation,
)
from bayesdn.structures import StructureSpec, raw_components, sample_gaussian

from helpers import (
    quad_posterior_mean_2x2,
    quad_posterior_mean_2x2_adaptive,
    reference_inverse,
    reference_update_column,
)


def ar1_scatter(p=10, n=200, seed=7):
    theta, _ = raw_components(StructureSpec("ar1", p))
    x = sample_gaussian(theta, n, seed=seed)
    return mirror_lower(x.T @ x), n


def lone(state, rng):
    """A stack of one over ``state``, reading ``rng``; ``state`` steps the stack's chain."""
    return ChainStack([state], [rng])


def sweep_draws(stack):
    """One sweep's normals and Schur gammas of a stack of one."""
    stack.draw()
    return stack.z[0], stack.gamma[0]


def column_draws(state, col, rng):
    """The draws of column ``col``, cut from one sweep's draws."""
    z, gamma = sweep_draws(lone(state, rng))
    return z[col], gamma[col]


class TestVariates:
    def test_gamma_moments(self):
        # n = 4, s_ii + lam_ii = 4: every Schur gamma is GA(3, rate 2)
        state = initial_state(3.0 * np.eye(100), 4, GibbsConfig(burn_in=1, retained=1))
        stack = lone(state, np.random.default_rng(0))
        draws = np.concatenate([sweep_draws(stack)[1].copy() for _ in range(2000)])
        assert draws.size == 200_000
        assert draws.mean() == pytest.approx(1.5, abs=0.01)
        assert draws.var() == pytest.approx(0.75, abs=0.02)

    def test_sweep_normals_skip_the_diagonal(self):
        # column col reads row col of the normals; its entry col is no draw
        state = initial_state(np.eye(6), 10, GibbsConfig(burn_in=1, retained=1))
        z, gamma = sweep_draws(lone(state, np.random.default_rng(2)))
        assert z.shape == (6, 6) and gamma.shape == (6,)
        assert np.all(np.diag(z) == 0.0)
        assert np.count_nonzero(z) == 30


class TestColumnUpdate:
    def frozen_state(self, s12=0.6, s22=1.0, tau=1.0, n=50):
        scatter = mirror_lower(np.array([[1.0, s12], [s12, s22]]))
        cfg = GibbsConfig(burn_in=1, retained=1, lambda_diag=1.0)
        state = initial_state(scatter, n, cfg)
        state.tau[0, 1] = state.tau[1, 0] = tau
        return state

    def test_conditional_gaussian_matches_scalar_formula(self):
        # p=2, Theta11=[1], s22=1, lambda=1, tau=1: C = 1/3, mean = -s12/3
        rng = np.random.default_rng(4)
        betas = []
        gammas = []
        for _ in range(20_000):
            state = self.frozen_state()
            update_column(state, 1, *column_draws(state, 1, rng))
            betas.append(state.theta[0, 1])
            gammas.append(state.theta[1, 1] - state.theta[0, 1] ** 2)
        betas = np.asarray(betas)
        gammas = np.asarray(gammas)
        assert betas.var() == pytest.approx(1.0 / 3.0, abs=0.01)
        assert betas.mean() == pytest.approx(-0.6 / 3.0, abs=0.01)
        # gamma ~ GA(n/2 + 1 = 26, rate (s22 + lambda)/2 = 1)
        assert gammas.mean() == pytest.approx(26.0, abs=0.15)
        assert gammas.var() == pytest.approx(26.0, rel=0.05)

    def test_gamma_rate_uses_s22_plus_penalty(self):
        # n=50, s22=1.2, lambda=1: Schur complement ~ GA(26, 1.1)
        rng = np.random.default_rng(14)
        gammas = []
        for _ in range(20_000):
            state = self.frozen_state(s22=1.2)
            update_column(state, 1, *column_draws(state, 1, rng))
            gammas.append(state.theta[1, 1] - state.theta[0, 1] ** 2)
        gammas = np.asarray(gammas)
        assert gammas.mean() == pytest.approx(26.0 / 1.1, abs=0.15)
        assert gammas.var() == pytest.approx(26.0 / 1.1 ** 2, rel=0.05)

    def test_only_requested_column_changes(self):
        scatter, n = ar1_scatter(p=6, n=50)
        state = initial_state(scatter, n, GibbsConfig(burn_in=1, retained=1))
        rng = np.random.default_rng(5)
        for _ in range(3):
            update_column(state, 2, *column_draws(state, 2, rng))
        before = state.theta.copy()
        update_column(state, 4, *column_draws(state, 4, rng))
        mask = np.ones((6, 6), dtype=bool)
        mask[4, :] = mask[:, 4] = False
        np.testing.assert_array_equal(state.theta[mask], before[mask])

    def test_pd_by_construction(self):
        scatter, n = ar1_scatter(p=5, n=80)
        state = initial_state(scatter, n, GibbsConfig(burn_in=1, retained=1))
        stack = lone(state, np.random.default_rng(6))
        for sweep in range(200):
            z, gamma = sweep_draws(stack)
            for col in range(5):
                update_column(state, col, z[col], gamma[col])
            update_hyperparameters(stack)
            cholesky_pd(state.theta)

    def test_column_out_of_range(self):
        scatter, n = ar1_scatter(p=4, n=50)
        state = initial_state(scatter, n, GibbsConfig(burn_in=1, retained=1))
        with pytest.raises(IndexError):
            update_column(state, 4, np.zeros(4), 1.0)


class TestCarriedInverse:
    def test_sigma_inverts_theta_after_every_column(self):
        # no resync here: the rank-one refreshes alone keep Sigma in step
        scatter, n = ar1_scatter(p=6, n=50)
        state = initial_state(scatter, n, GibbsConfig(burn_in=1, retained=1))
        stack = lone(state, np.random.default_rng(15))
        worst = 0.0
        for sweep in range(50):
            z, gamma = sweep_draws(stack)
            for col in range(6):
                update_column(state, col, z[col], gamma[col])
                worst = max(worst, np.abs(state.sigma @ state.theta - np.eye(6)).max())
                np.testing.assert_array_equal(state.sigma, state.sigma.T)
            update_hyperparameters(stack)
        assert worst <= 1e-12

    def test_matches_factorize_and_invert_reference(self):
        scatter, n = ar1_scatter(p=6, n=50)
        cfg = GibbsConfig(burn_in=0, retained=5)
        got = [theta.copy() for theta in chain_draws(scatter, n, cfg, seed=16)]
        state = initial_state(scatter, n, cfg)
        stack = lone(state, np.random.default_rng(16))
        for theta in got:
            z, gamma = sweep_draws(stack)
            for col in range(6):
                reference_update_column(state, col, z[col], gamma[col])
            update_hyperparameters(stack)
            np.testing.assert_allclose(theta, state.theta, rtol=1e-9)

    @pytest.mark.parametrize("sigma22", [0.0, -1.0, np.nan, np.inf])
    def test_lost_schur_complement_names_column(self, sigma22):
        scatter, n = ar1_scatter(p=4, n=50)
        state = initial_state(scatter, n, GibbsConfig(burn_in=1, retained=1))
        state.sigma[2, 2] = sigma22
        with pytest.raises(NotPositiveDefiniteError, match="excluding column 2 lost"):
            update_column(state, 2, *column_draws(state, 2, np.random.default_rng(0)))

    @pytest.mark.parametrize("other", [0, 3])
    def test_unit_pivot_does_not_hide_a_breakdown(self, other):
        # a negative tau makes C^{-1} indefinite in a row the decoupled
        # pivot of column 2 does not touch; the state must stay as it was
        scatter, n = ar1_scatter(p=4, n=50)
        state = initial_state(scatter, n, GibbsConfig(burn_in=1, retained=1))
        rng = np.random.default_rng(17)
        z, gamma = sweep_draws(lone(state, rng))
        for col in range(4):
            update_column(state, col, z[col], gamma[col])
        state.tau[other, 2] = state.tau[2, other] = -1e-3
        theta, sigma = state.theta.copy(), state.sigma.copy()
        with pytest.raises(NotPositiveDefiniteError, match="for column 2 broke down"):
            update_column(state, 2, *column_draws(state, 2, rng))
        np.testing.assert_array_equal(state.theta, theta)
        np.testing.assert_array_equal(state.sigma, sigma)

    @pytest.mark.parametrize("p,col", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_small_dimensions_match_reference(self, p, col):
        theta = 2.0 * np.eye(p) + 0.8 * (np.eye(p, k=1) + np.eye(p, k=-1))
        x = sample_gaussian(theta, 40, seed=7)
        scatter, n = mirror_lower(x.T @ x), 40
        cfg = GibbsConfig(burn_in=1, retained=1)
        state = initial_state(scatter, n, cfg)
        stack = lone(state, np.random.default_rng(18))
        for _ in range(3):
            z, gamma = sweep_draws(stack)
            for c in range(p):
                update_column(state, c, z[c], gamma[c])
            update_hyperparameters(stack)
        ref = initial_state(scatter, n, cfg)
        ref.theta, ref.tau, ref.lam = state.theta.copy(), state.tau.copy(), state.lam.copy()
        update_column(state, col, *column_draws(state, col, np.random.default_rng(19)))
        reference_update_column(ref, col, *column_draws(ref, col, np.random.default_rng(19)))
        np.testing.assert_allclose(state.theta, ref.theta, rtol=1e-12)
        np.testing.assert_allclose(state.sigma @ state.theta, np.eye(p), atol=1e-12)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("p", range(2, 13))
    def test_same_draws_match_reference(self, p, where):
        col = {"first": 0, "middle": p // 2, "last": p - 1}[where]
        theta = 2.0 * np.eye(p) + 0.8 * (np.eye(p, k=1) + np.eye(p, k=-1))
        x = sample_gaussian(theta, 40, seed=20 + p)
        scatter, n = mirror_lower(x.T @ x), 40
        cfg = GibbsConfig(burn_in=1, retained=1)
        state = initial_state(scatter, n, cfg)
        stack = lone(state, np.random.default_rng(21))
        for _ in range(2):
            z, gamma = sweep_draws(stack)
            for c in range(p):
                update_column(state, c, z[c], gamma[c])
            update_hyperparameters(stack)
        ref = initial_state(scatter, n, cfg)
        ref.theta, ref.tau, ref.lam = state.theta.copy(), state.tau.copy(), state.lam.copy()
        z, gamma = sweep_draws(stack)
        update_column(state, col, z[col], gamma[col])
        reference_update_column(ref, col, z[col], gamma[col])
        np.testing.assert_allclose(state.theta, ref.theta, rtol=1e-12)

    def test_resync_failure_names_sweep(self, monkeypatch):
        # break Theta after the last column of sweep 2: the per-sweep
        # re-derivation of Sigma must catch it and name the sweep
        scatter, n = ar1_scatter(p=4, n=50)
        calls = []

        def corrupting_update(state, col, z, gamma):
            update_column(state, col, z, gamma)
            calls.append(col)
            if len(calls) == 3 * 4:
                big = 10.0 * np.sqrt(state.theta[0, 0] * state.theta[1, 1])
                state.theta[0, 1] = state.theta[1, 0] = big
            return state

        monkeypatch.setattr(gibbs, "update_column", corrupting_update)
        draws = chain_draws(scatter, n, GibbsConfig(burn_in=0, retained=5), seed=1)
        next(draws), next(draws)  # sweeps 0 and 1 pass the check
        with pytest.raises(NotPositiveDefiniteError, match=r"^sweep 2: ") as err:
            next(draws)
        assert err.value.minor == 2


class TestHyperparameters:
    def test_lambda_mean_tracks_theta(self):
        # fixed theta12 = 0.5: lambda ~ GA(1.01, 0.500001), mean 2.02
        # theta stays put, so one state reads the draws of 30k fresh ones
        state = initial_state(np.eye(2), 10, GibbsConfig(burn_in=1, retained=1))
        state.theta[0, 1] = state.theta[1, 0] = 0.5
        stack = lone(state, np.random.default_rng(7))
        lams = []
        for _ in range(30_000):
            update_hyperparameters(stack)
            lams.append(state.lam[0, 1])
        assert np.mean(lams) == pytest.approx(1.01 / 0.500001, abs=0.02)

    def test_zero_theta_does_not_fault(self):
        scatter = np.eye(3)
        state = initial_state(scatter, 10, GibbsConfig(burn_in=1, retained=1))
        state.theta = np.eye(3)  # all off-diagonals exactly zero
        update_hyperparameters(lone(state, np.random.default_rng(8)))
        assert np.all(state.tau[~np.eye(3, dtype=bool)] > 0)

    def test_frozen_lambda_mode(self):
        scatter = np.eye(3)
        cfg = GibbsConfig(burn_in=1, retained=1, adapt_lambda=False, lambda_init=2.5)
        state = initial_state(scatter, 10, cfg)
        update_hyperparameters(lone(state, np.random.default_rng(9)))
        off = ~np.eye(3, dtype=bool)
        assert np.all(state.lam[off] == 2.5)

    def test_shrinkage_adaptivity(self):
        # larger |theta| attracts smaller penalties across a live chain
        scatter, n = ar1_scatter(p=6, n=150)
        cfg = GibbsConfig(burn_in=1, retained=1)
        state = initial_state(scatter, n, cfg)
        stack = lone(state, np.random.default_rng(10))
        thetas, lams = [], []
        iu = np.triu_indices(6, k=1)
        for sweep in range(300):
            z, gamma = sweep_draws(stack)
            for col in range(6):
                update_column(state, col, z[col], gamma[col])
            update_hyperparameters(stack)
            if sweep >= 50:
                thetas.append(np.abs(state.theta[iu]))
                lams.append(state.lam[iu])
        corr = np.corrcoef(np.concatenate(thetas), np.concatenate(lams))[0, 1]
        assert corr < 0.0


class TestChain:
    def test_default_config_total_sweeps(self):
        cfg = GibbsConfig()
        assert cfg.burn_in + cfg.retained == 15_000
        assert cfg.r == pytest.approx(1e-2)
        assert cfg.s == pytest.approx(1e-6)
        assert cfg.lambda_diag == 1.0

    def test_deterministic_given_seed(self):
        scatter, n = ar1_scatter(p=5, n=50)
        cfg = GibbsConfig(burn_in=30, retained=60)
        d1 = [theta.copy() for theta in chain_draws(scatter, n, cfg, seed=42)]
        d2 = [theta.copy() for theta in chain_draws(scatter, n, cfg, seed=42)]
        assert len(d1) == 60
        np.testing.assert_array_equal(np.stack(d1), np.stack(d2))

    def test_generator_order(self):
        # sweeps 0 and 1 rebuilt by hand from the chain's Generator: per
        # sweep, the (p, p) normals, then the p Schur gammas, then the
        # penalties and the latent scales of the upper triangle
        scatter, n = ar1_scatter(p=5, n=50)
        cfg = GibbsConfig(burn_in=0, retained=2)
        got = [theta.copy() for theta in chain_draws(scatter, n, cfg, seed=22)]
        state = initial_state(scatter, n, cfg)
        rng = np.random.default_rng(22)
        iu = np.triu_indices(5, k=1)
        for theta in got:
            z = rng.standard_normal((5, 5))
            gamma = rng.gamma(n / 2 + 1, 2.0 / (np.diag(scatter) + cfg.lambda_diag), size=5)
            for col in range(5):
                reference_update_column(state, col, z[col], gamma[col])
            np.testing.assert_allclose(theta, state.theta, rtol=1e-9)
            abs_theta = np.abs(state.theta[iu])
            lam = rng.gamma(1.0 + cfg.r, 1.0 / (abs_theta + cfg.s))
            delta = rng.wald(lam / np.maximum(abs_theta, cfg.theta_floor), lam**2)
            state.lam[iu] = state.lam.T[iu] = lam
            state.tau[iu] = state.tau.T[iu] = 1.0 / delta

    def test_sweep_gammas_are_generator_gamma_draws(self):
        # the draws scale standard gammas; Generator.gamma with an array
        # scale must read the same numbers and give the same bits
        scatter, n = ar1_scatter(p=7, n=50)
        state = initial_state(scatter, n, GibbsConfig(burn_in=1, retained=1))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z, gamma = sweep_draws(lone(state, rng))
            ref = np.random.default_rng(seed)
            ref_z = ref.standard_normal((7, 7))
            np.fill_diagonal(ref_z, 0.0)
            np.testing.assert_array_equal(z, ref_z)
            expected = ref.gamma(n / 2 + 1, 2.0 / (np.diag(scatter) + state.config.lambda_diag))
            np.testing.assert_array_equal(gamma, expected)
            assert rng.random() == ref.random()

    def test_penalties_are_generator_gamma_draws(self):
        scatter, n = ar1_scatter(p=7, n=50)
        cfg = GibbsConfig(burn_in=0, retained=3)
        for theta in chain_draws(scatter, n, cfg, seed=4):
            pass
        iu = np.triu_indices(7, k=1)
        abs_theta = np.abs(theta[iu])
        state = initial_state(scatter, n, cfg)
        state.theta = theta.copy()
        for seed in range(5):
            update_hyperparameters(lone(state, np.random.default_rng(seed)))
            expected = np.random.default_rng(seed).gamma(1.0 + cfg.r, 1.0 / (abs_theta + cfg.s))
            np.testing.assert_array_equal(state.lam[iu], expected)
            np.testing.assert_array_equal(state.lam.T[iu], expected)

    def test_retained_draws_pd(self):
        scatter, n = ar1_scatter(p=5, n=50)
        draws = chain_draws(scatter, n, GibbsConfig(burn_in=20, retained=50), seed=3)
        for k, theta in enumerate(draws):
            if k % 10 == 0:
                cholesky_pd(mirror_lower(theta))

    def test_posterior_mean_trivial(self):
        # the running means are bitwise the averages of the streamed draws
        scatter, n = ar1_scatter(p=4, n=50)
        cfg = GibbsConfig(burn_in=10, retained=5)
        stacked = np.stack([theta.copy() for theta in chain_draws(scatter, n, cfg, seed=1)])
        chain = run_chains([ChainRequest(scatter, n, cfg, seed=1)])[0]
        np.testing.assert_array_equal(chain.theta_mean, stacked.mean(axis=0))
        partials = np.stack([partial_correlation(theta) for theta in stacked])
        np.testing.assert_array_equal(chain.partial_mean, partials.mean(axis=0))

    def test_ar1_sign_recovery(self):
        theta, _ = raw_components(StructureSpec("ar1", 10))
        x = sample_gaussian(theta, 200, seed=11)
        cfg = GibbsConfig(burn_in=300, retained=600)
        pm = run_chains([ChainRequest(mirror_lower(x.T @ x), 200, cfg, seed=12)])[0].theta_mean
        np.testing.assert_array_equal(np.sign(np.diag(pm, 1)), np.sign(np.diag(theta, 1)))

    def test_p2_posterior_mean_matches_quadrature(self):
        # lighter version of the strict acceptance check
        theta = np.array([[2.0, 0.8], [0.8, 1.5]])
        x = sample_gaussian(theta, 30, seed=13)
        scatter = mirror_lower(x.T @ x)
        cfg = GibbsConfig(
            burn_in=2000, retained=12_000, adapt_lambda=False, lambda_init=1.0, lambda_diag=1.0,
        )
        pm = run_chains([ChainRequest(scatter, 30, cfg, seed=14)])[0].theta_mean
        got = np.array([pm[0, 0], pm[0, 1], pm[1, 1]])
        expected = quad_posterior_mean_2x2(scatter, 30, 1.0)
        np.testing.assert_allclose(got, expected, rtol=0.08)

    def test_adaptive_quadrature_reduces_to_laplace(self):
        # r, s -> inf with r/s = lam turns the marginal prior into Laplace(lam)
        theta = np.array([[2.0, 0.8], [0.8, 1.5]])
        x = sample_gaussian(theta, 30, seed=13)
        scatter = mirror_lower(x.T @ x)
        np.testing.assert_allclose(
            quad_posterior_mean_2x2_adaptive(scatter, 30, 1e4, 1e4),
            quad_posterior_mean_2x2(scatter, 30, 1.0),
            rtol=1e-3,
        )

    def test_p2_adaptive_posterior_mean_matches_quadrature(self):
        # the default hyperprior shrinks t12 far from its MLE (about -0.56
        # here, against a posterior mean of about -0.23), so this pins the
        # adaptive model itself, not just the data
        theta = np.linalg.inv(np.array([[1.0, 0.5], [0.5, 1.0]]))
        x = sample_gaussian(theta, 30, seed=13)
        scatter = mirror_lower(x.T @ x)
        cfg = GibbsConfig(burn_in=2000, retained=30_000)
        pm = run_chains([ChainRequest(scatter, 30, cfg, seed=14)])[0].theta_mean
        expected = quad_posterior_mean_2x2_adaptive(scatter, 30, cfg.r, cfg.s, cfg.lambda_diag)
        assert abs(30 * np.linalg.inv(scatter)[0, 1] - expected[1]) > 0.25
        np.testing.assert_allclose([pm[0, 0], pm[1, 1]], expected[[0, 2]], rtol=0.02)
        # the spike at t12 = 0 mixes slowly, so t12 gets an absolute tolerance
        assert pm[0, 1] == pytest.approx(expected[1], abs=0.03)

    def test_invalid_scatter(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]]) * -1
        with pytest.raises(ValueError):
            run_chains([ChainRequest(bad, 10, GibbsConfig(burn_in=1, retained=1), seed=0)])

    def test_non_finite_scatter_rejected(self):
        # eigvalsh of an inf scatter is nan, which the PSD bound does not catch
        scatter = np.eye(3)
        scatter[1, 1] = np.inf
        with pytest.raises(ValueError, match="scatter is not finite"):
            initial_state(scatter, 10, GibbsConfig(burn_in=1, retained=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GibbsConfig(burn_in=-1)
        with pytest.raises(ValueError):
            GibbsConfig(retained=0)
        with pytest.raises(ValueError):
            GibbsConfig(r=0.0)


def chain_requests(p, k, cfg):
    """``k`` chains at dimension ``p`` with unequal n, distinct seeds and labels."""
    theta = 2.0 * np.eye(p) + 0.6 * (np.eye(p, k=1) + np.eye(p, k=-1))
    requests = []
    for j in range(k):
        n = 20 + 9 * j
        x = sample_gaussian(theta, n, seed=40 + j)
        requests.append(
            ChainRequest(mirror_lower(x.T @ x), n, cfg, 70 + j, label=f"chain {j}")
        )
    return requests


def folded_draws(request):
    """The oracle: a chain's means folded by hand from ``chain_draws``."""
    cfg = request.config
    theta_sum = np.zeros((request.dim, request.dim))
    partial_sum = np.zeros_like(theta_sum)
    for theta in chain_draws(request.scatter, request.n, cfg, request.seed):
        theta_sum += theta
        partial_sum += partial_correlation(theta)
    return theta_sum / cfg.retained, partial_sum / cfg.retained


def each_alone(requests):
    """Every chain run alone, on the lone-chain kernel."""
    return [run_batch([request])[0] for request in requests]


STACK_CONFIGS = {
    "adaptive": GibbsConfig(burn_in=4, retained=12),
    "frozen_with_partials": GibbsConfig(
        burn_in=4, retained=12, adapt_lambda=False, lambda_init=0.5
    ),
}


class TestStackedRoute:
    @pytest.mark.parametrize("setting", sorted(STACK_CONFIGS))
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    @pytest.mark.parametrize("p", [2, 3, 10, 30])
    def test_stack_equals_chain_draws(self, p, k, setting):
        # a batch of one runs the lone-chain kernel, a taller one the
        # stacked kernel; both fold into the means of chain_draws
        requests = chain_requests(p, k, STACK_CONFIGS[setting])
        got = run_batch(requests)
        for request, summary in zip(requests, got):
            theta_mean, partial_mean = folded_draws(request)
            np.testing.assert_array_equal(summary.theta_mean, theta_mean)
            np.testing.assert_array_equal(summary.partial_mean, partial_mean)

    @pytest.mark.parametrize("p", [3, 10])
    def test_chain_alone_equals_chain_in_a_batch_of_7(self, p):
        # the lone-chain kernel against the stacked kernel, bit for bit
        requests = chain_requests(p, 7, GibbsConfig(burn_in=5, retained=15))
        batch = run_batch(requests)
        for j in (0, 3, 6):
            alone = run_batch([requests[j]])[0]
            np.testing.assert_array_equal(alone.theta_mean, batch[j].theta_mean)
            np.testing.assert_array_equal(alone.partial_mean, batch[j].partial_mean)

    @pytest.mark.parametrize("k", [1, 3, 7, 20])
    @pytest.mark.parametrize("p", [2, 3, 10, 30, 60])
    def test_stacked_matmul_equals_per_item_products(self, p, k):
        # the stack's matrix-vector and dot products, written into buffers,
        # must be the lone chain's per-chain `dot` (and `@`) bit for bit; a
        # numpy or BLAS release that changes this fails here
        rng = np.random.default_rng(p * 100 + k)
        sigma = rng.standard_normal((k, p, p))
        beta, w = rng.standard_normal((2, k, p))
        u, wb, bu = np.empty((k, p, 1)), np.empty((k, 1, 1)), np.empty((k, 1, 1))
        np.matmul(sigma, beta[:, :, None], out=u)
        np.matmul(w[:, None, :], beta[:, :, None], out=wb)
        np.matmul(beta[:, None, :], u, out=bu)
        for j in range(k):
            np.testing.assert_array_equal(u[j, :, 0], sigma[j].dot(beta[j]))
            np.testing.assert_array_equal(u[j, :, 0], sigma[j] @ beta[j])
            assert wb[j, 0, 0] == float(w[j].dot(beta[j])) == float(w[j] @ beta[j])
            assert bu[j, 0, 0] == float(beta[j].dot(sigma[j].dot(beta[j])))

    def test_size_rule(self):
        cfg = GibbsConfig(burn_in=1, retained=1)
        few = chain_requests(4, STACK_MIN_CHAINS - 1, cfg)
        assert chain_batches(few) == [[i] for i in range(len(few))]
        # no cut on p: a group of any p is stacked once it is tall enough
        for p in (4, 61, 100):
            assert chain_batches(chain_requests(p, STACK_MIN_CHAINS, cfg)) == [
                list(range(STACK_MIN_CHAINS))
            ]
        # a frozen-lambda chain of the same p cannot share the stack
        frozen = replace(cfg, adapt_lambda=False)
        mixed = chain_requests(4, STACK_MIN_CHAINS, cfg) + chain_requests(4, 1, frozen)
        assert chain_batches(mixed) == [list(range(STACK_MIN_CHAINS)), [STACK_MIN_CHAINS]]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "k",
        [STACK_MIN_CHAINS, 2 * STACK_MIN_CHAINS + 1, STACK_MAX_CHAINS + 1, 5 * STACK_MAX_CHAINS],
        ids=["min", "2min+1", "max+1", "5max"],
    )
    def test_size_rule_cuts_tall_groups_into_even_stacks(self, k, workers):
        # every stack holds STACK_MIN_CHAINS to STACK_MAX_CHAINS chains, the
        # sizes differ by at most one, and a group tall enough for it gives
        # every worker the same number of stacks
        requests = [ChainRequest(np.eye(3), 10, GibbsConfig(), j) for j in range(k)]
        batches = chain_batches(requests, workers)
        assert sorted(i for batch in batches for i in batch) == list(range(k))
        sizes = [len(batch) for batch in batches]
        assert STACK_MIN_CHAINS <= min(sizes) and max(sizes) <= STACK_MAX_CHAINS
        assert max(sizes) - min(sizes) <= 1
        if k >= workers * STACK_MIN_CHAINS:
            assert len(batches) % workers == 0
        else:
            assert len(batches) == max(1, k // STACK_MIN_CHAINS)

    def test_batches_come_largest_first(self):
        # the cost of a batch is chains x p^2 x sweeps; a pool hands out
        # the most expensive first so that its workers finish together
        cfg = GibbsConfig(burn_in=1, retained=1)
        requests = (
            chain_requests(3, STACK_MIN_CHAINS, cfg)
            + chain_requests(10, 1, cfg)
            + chain_requests(30, STACK_MIN_CHAINS, cfg)
            + chain_requests(30, 1, replace(cfg, retained=2))
        )
        m = STACK_MIN_CHAINS
        assert chain_batches(requests) == [
            list(range(m + 1, 2 * m + 1)), [2 * m + 1], [m], list(range(m))
        ]

    def test_two_workers_get_a_share_of_every_p(self):
        # chains of two sizes at 2 workers: each p is cut into two stacks,
        # and the pool hands out both large ones before the small ones
        cfg = GibbsConfig(burn_in=1, retained=1)
        m = STACK_MIN_CHAINS
        requests = chain_requests(30, 2 * m, cfg) + chain_requests(100, 2 * m, cfg)
        assert chain_batches(requests, workers=2) == [
            list(range(2 * m, 3 * m)),
            list(range(3 * m, 4 * m)),
            list(range(m)),
            list(range(m, 2 * m)),
        ]

    def test_default_route_gives_the_same_numbers(self):
        requests = chain_requests(5, STACK_MIN_CHAINS + 1, GibbsConfig(burn_in=3, retained=6))
        assert chain_batches(requests) == [list(range(STACK_MIN_CHAINS + 1))]
        by_rule = run_chains(requests)
        for a, b in zip(by_rule, each_alone(requests)):
            np.testing.assert_array_equal(a.theta_mean, b.theta_mean)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("blow_up", [1e180, 1e250])
    def test_failing_chain_of_a_stack_is_named(self, blow_up):
        # chain 1 of a stack of 3 overflows in its first sweep (here 1e180
        # trips the factor's check and 1e250 the Schur complement's); the
        # error names that chain and the sweep, as the lone-chain kernel does
        requests = chain_requests(6, 3, GibbsConfig(burn_in=2, retained=2))
        requests[1] = replace(requests[1], scatter=requests[1].scatter * blow_up)
        messages = []
        for run in (run_batch, each_alone):
            with pytest.raises(NotPositiveDefiniteError) as err:
                run(requests)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert re.fullmatch(
            r"chain 1: sweep 0: (conditional covariance for column \d broke down"
            r"|Theta block excluding column \d lost positive definiteness)",
            messages[0],
        )

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_two_failing_chains_name_the_first_failure_found(self):
        # chains run one after another name the first failing chain in
        # list order; the stack names the chain that fails first in
        # (sweep, column) order, which is one of the two
        requests = chain_requests(6, 3, GibbsConfig(burn_in=2, retained=2))
        for j, blow_up in ((1, 1e180), (2, 1e250)):
            requests[j] = replace(requests[j], scatter=requests[j].scatter * blow_up)
        alone = []
        for j in (1, 2):
            with pytest.raises(NotPositiveDefiniteError) as err:
                run_batch([requests[j]])
            alone.append(str(err.value))
        with pytest.raises(NotPositiveDefiniteError) as err:
            each_alone(requests)
        assert str(err.value) == alone[0]
        with pytest.raises(NotPositiveDefiniteError) as err:
            run_batch(requests)
        assert str(err.value) in alone

    def test_failing_draw_of_a_stack_is_named(self):
        # at s = 1e160 a penalty draw can underflow so far that lam**2 is 0,
        # which Generator.wald refuses; the stack names the first chain to
        # fail, and that chain alone fails at the same sweep with its own draws
        requests = chain_requests(5, 4, GibbsConfig(s=1e160, burn_in=3, retained=3))
        with pytest.raises(RuntimeError) as err:
            run_batch(requests)
        match = re.fullmatch(r"chain (\d): sweep (\d): scale <= 0", str(err.value))
        assert match, str(err.value)
        with pytest.raises(RuntimeError) as alone:
            run_batch([requests[int(match[1])]])
        assert str(alone.value) == str(err.value)
        assert not isinstance(err.value, NotPositiveDefiniteError)

    @pytest.mark.parametrize("kernel", ["alone", "stacked"])
    def test_failing_resync_names_chain_and_sweep(self, monkeypatch, kernel):
        # a sweep re-derives the Sigma of every chain of its batch in one
        # stacked inversion; break chain 1's Theta at sweep 2, alone or in a
        # stack of 3
        requests = chain_requests(4, 3, GibbsConfig(burn_in=2, retained=3))
        batch, position = (requests[1:2], 0) if kernel == "alone" else (requests, 1)
        calls = []

        def breaking_invert_pd_stack(thetas, out):
            calls.append(len(calls))
            if len(calls) == 3:
                thetas = thetas.copy()
                thetas[position] = -thetas[position]
            invert_pd_stack(thetas, out)

        monkeypatch.setattr(gibbs, "invert_pd_stack", breaking_invert_pd_stack)
        with pytest.raises(NotPositiveDefiniteError) as err:
            run_batch(batch)
        assert str(err.value) == (
            "chain 1: sweep 2: leading minor of order 1 is not positive definite"
        )
        assert err.value.minor == 1

    def test_bad_scatter_names_the_chain(self):
        requests = chain_requests(3, 3, GibbsConfig(burn_in=1, retained=1))
        requests[2] = replace(requests[2], scatter=-requests[2].scatter)
        for run in (run_batch, each_alone):
            with pytest.raises(ValueError, match="^chain 2: scatter is not positive semidefinite"):
                run(requests)


# The sweep's two column kernels and its resync as first written, each
# making its arrays as it goes: the pins below hold the lean kernels of
# ``gibbs`` to them bit for bit, Sigma included.


def reference_lone_column(state, col, z, gamma):
    """The lone-chain column update with a new array per step."""
    p = state.dim
    sigma = state.sigma
    scale = float(state.col_scale[col])
    sigma22 = float(sigma[col, col])
    if not (sigma22 > 0.0 and math.isfinite(sigma22)):
        raise NotPositiveDefiniteError(f"Theta block excluding column {col} lost positive definiteness")
    w = sigma[col] / math.sqrt(sigma22)
    c_inv = sigma * scale
    dger(-scale, w, w, 1, 1, c_inv.T, 0, 0, 1)
    c_inv[col] = 0.0
    c_inv[:, col] = 0.0
    c_diag = c_inv.reshape(-1)[:: p + 1]
    c_diag += 1.0 / state.tau[col]
    lower_c, info = dpotrf(c_inv.T, 1, 0, 1)
    if info != 0:
        raise NotPositiveDefiniteError(f"conditional covariance for column {col} broke down")
    y, _ = dtrtrs(lower_c, state.scatter_off[col], 1)
    np.subtract(z, y, out=y)
    beta, _ = dtrtrs(lower_c, y, 1, 1, 0, None, 1)
    u = sigma @ beta
    u -= float(w @ beta) * w
    theta = state.theta
    theta[:, col] = beta
    theta[col] = beta
    theta[col, col] = gamma + float(beta @ u)
    root = math.sqrt(gamma)
    v = u / root
    sigma_t = sigma.T
    dger(-1.0, w, w, 1, 1, sigma_t, 0, 0, 1)
    dger(1.0, v, v, 1, 1, sigma_t, 0, 0, 1)
    v /= -root
    sigma[:, col] = v
    sigma[col] = v
    sigma[col, col] = 1.0 / gamma


def reference_stacked_column(stack, col):
    """The stacked column update with its slices, reciprocals and products made per column."""
    k, p = stack.k, stack.p
    sigma, theta = stack.sigma, stack.theta
    c_inv = np.empty((k, p, p))
    w, y, v = np.empty((3, k, p))
    sigma22 = sigma[:, col, col]
    assert sigma22.min() > 0.0 and sigma22.max() < math.inf
    np.divide(sigma[:, col], np.sqrt(sigma22)[:, None], out=w)
    np.multiply(sigma, stack.col_scale[:, col, None, None], out=c_inv)
    for c, w_k, neg_scale in zip(c_inv, w, (-stack.col_scale[:, col]).tolist()):
        dger(neg_scale, w_k, w_k, 1, 1, c.T, 0, 0, 1)
    c_inv[:, col] = 0.0
    c_inv[:, :, col] = 0.0
    c_inv.reshape(k, -1)[:, :: p + 1] += 1.0 / stack.tau[:, col]
    y[...] = stack.scatter_off[:, col]
    lowers = []
    for c, y_k in zip(c_inv, y):
        lower_c, info = dpotrf(c.T, 1, 0, 1)
        assert info == 0
        dtrtrs(lower_c, y_k, 1, 0, 0, None, 1)
        lowers.append(lower_c)
    np.subtract(stack.z[:, col], y, out=y)
    for lower_c, y_k in zip(lowers, y):
        dtrtrs(lower_c, y_k, 1, 1, 0, None, 1)
    beta = y
    u = np.matmul(sigma, beta[:, :, None])
    u2 = u[:, :, 0]
    u2 -= np.matmul(w[:, None, :], beta[:, :, None])[:, 0] * w
    theta[:, :, col] = beta
    theta[:, col] = beta
    gamma = stack.gamma[:, col]
    theta[:, col, col] = gamma + np.matmul(beta[:, None, :], u)[:, 0, 0]
    root = np.sqrt(gamma)[:, None]
    np.divide(u2, root, out=v)
    for s_k, w_k, v_k in zip(sigma, w, v):
        dger(-1.0, w_k, w_k, 1, 1, s_k.T, 0, 0, 1)
        dger(1.0, v_k, v_k, 1, 1, s_k.T, 0, 0, 1)
    v /= -root
    sigma[:, :, col] = v
    sigma[:, col] = v
    sigma[:, col, col] = 1.0 / gamma


def reference_resync(stack):
    """Each chain's Sigma re-derived by its own checked inversion."""
    for k, theta in enumerate(stack.theta):
        stack.sigma[k] = reference_inverse(theta)


def reference_sweeps(requests):
    """Theta and Sigma after each sweep of the requested chains, from the reference kernels."""
    states = [initial_state(r.scatter, r.n, r.config) for r in requests]
    stack = ChainStack(states, [np.random.default_rng(r.seed) for r in requests])
    cfg = stack.config
    for _ in range(cfg.burn_in + cfg.retained):
        stack.draw()
        for col in range(stack.p):
            if stack.k == 1:
                reference_lone_column(states[0], col, stack.z[0, col], float(stack.gamma[0, col]))
            else:
                reference_stacked_column(stack, col)
        reference_resync(stack)
        update_hyperparameters(stack)
        yield stack.theta.copy(), stack.sigma.copy()


def pinned_requests(p, k, adapt):
    cfg = GibbsConfig(burn_in=0, retained=6, adapt_lambda=adapt, lambda_init=0.8)
    return chain_requests(p, k, cfg)


class TestPinnedSweep:
    """Whole runs of the sampler against the reference kernels, Theta and Sigma bit for bit."""

    def assert_pinned(self, requests):
        stack = gibbs._start(requests)
        got = (
            (stack.theta.copy(), stack.sigma.copy()) for _ in gibbs._sweeps(stack)
        )
        count = 0
        for (theta, sigma), (want_theta, want_sigma) in zip(got, reference_sweeps(requests)):
            np.testing.assert_array_equal(theta, want_theta)
            np.testing.assert_array_equal(sigma, want_sigma)
            count += 1
        assert count == requests[0].config.retained

    @pytest.mark.parametrize("adapt", [True, False])
    @pytest.mark.parametrize("p", [*range(2, 13), 60])
    def test_lone_chain(self, p, adapt):
        self.assert_pinned(pinned_requests(p, 1, adapt))

    @pytest.mark.parametrize("adapt", [True, False])
    @pytest.mark.parametrize("k", [2, 6, 40])
    @pytest.mark.parametrize("p", [10, 30])
    def test_stack(self, p, k, adapt):
        self.assert_pinned(pinned_requests(p, k, adapt))
