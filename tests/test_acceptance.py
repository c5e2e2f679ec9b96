"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The desk-scale benchmark backing criteria 5 and 6
(three structures at p=10, n=100, ten replications each) runs once as a
session fixture.  Criterion 5b has a fixture of its own, the cluster
structure alone at p=10, n=200: its L1 reference band was calibrated at
n=200, while the AR(2) band of 5a and the comparison of criterion 6 belong
to n=100.  At n=100 the exact adaptive posterior shrinks the cluster
model's 0.5 in-block entries to about 0.1 and its median L1 is about 1.5,
outside the band; at n=200 the median sits near the band's centre of 0.85.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist
from scipy.stats import invgauss, kstest

from bayesdn.diffnet import dn_adjacency
from bayesdn.gibbs import (
    ChainRequest,
    ChainStack,
    GibbsConfig,
    chain_draws,
    initial_state,
    run_chains,
    update_hyperparameters,
)
from bayesdn.harness import ExperimentConfig, emit_experiment, run_experiment
from bayesdn.ista import IstaConfig, dnet_gradient, ista_solve
from bayesdn.linalg import cholesky_pd, mirror_lower
from bayesdn.metrics import ConfusionCounts, classification_scores, confusion, eigen_losses, is_na, matrix_losses
from bayesdn.pipeline import boxs_m_test
from bayesdn.structures import StructureSpec, raw_components, sample_gaussian
from bayesdn.wishart import posterior_partial_corr_mean

from helpers import (
    charpoly_eigenvalues,
    dtrace_loss,
    l1_kkt_residual,
    quad_posterior_mean_2x2,
    random_pd,
    random_symmetric,
    symmetric_fd_gradient,
)

DESK_GIBBS = GibbsConfig(burn_in=1000, retained=2000)


def report(num, name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {name}: {detail}")
    return passed


# -------------------------------------------------------------------------
# criterion 1: p=2 posterior means vs deterministic quadrature
# -------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    theta = np.array([[2.0, 0.8], [0.8, 1.5]])
    x = sample_gaussian(theta, 30, seed=42)
    scatter = mirror_lower(x.T @ x)
    cfg = GibbsConfig(
        burn_in=5000, retained=50_000, adapt_lambda=False, lambda_init=1.0, lambda_diag=1.0,
    )
    pm = run_chains([ChainRequest(scatter, 30, cfg, seed=123)])[0].theta_mean
    got = np.array([pm[0, 0], pm[0, 1], pm[1, 1]])
    expected = quad_posterior_mean_2x2(scatter, 30, 1.0)
    rel = np.abs(got - expected) / np.abs(expected)
    elapsed = time.monotonic() - start
    ok = bool(np.all(rel <= 0.05) and elapsed < 120.0)
    assert report(
        1,
        "oracle equivalence",
        ok,
        f"rel err (t11, t12, t22) = {np.round(rel, 4)} (<= 0.05), {elapsed:.0f}s (< 120s)",
    )


# -------------------------------------------------------------------------
# criterion 2: PD preserved across 1000 sweeps at p=10
# -------------------------------------------------------------------------


def test_criterion_2_pd_invariance():
    theta, _ = raw_components(StructureSpec("ar1", 10))
    x = sample_gaussian(theta, 200, seed=7)
    cfg = GibbsConfig(burn_in=0, retained=1000)
    failures = draws = 0
    for draw in chain_draws(mirror_lower(x.T @ x), 200, cfg, seed=8):
        draws += 1
        try:
            cholesky_pd(draw)
        except Exception:
            failures += 1
    assert draws == 1000
    assert report(2, "PD invariance", failures == 0, f"{failures} failures in {draws} sweeps")


# -------------------------------------------------------------------------
# criterion 3: frozen-state conditional laws
# -------------------------------------------------------------------------


def test_criterion_3_conditional_laws():
    p, theta_val, calls = 5, 0.5, 10_000
    n_off = p * (p - 1) // 2  # pooled draws per call

    cfg = GibbsConfig(burn_in=1, retained=1)
    state = initial_state(np.eye(p), 20, cfg)
    off = ~np.eye(p, dtype=bool)
    state.theta[off] = theta_val
    iu = np.triu_indices(p, k=1)
    stack = ChainStack([state], [np.random.default_rng(0)])
    lam_draws = np.empty(calls * n_off)
    for k in range(calls):
        update_hyperparameters(stack)
        lam_draws[k * n_off : (k + 1) * n_off] = state.lam[iu]
        state.theta[off] = theta_val
    ks_lam = kstest(lam_draws, gamma_dist(a=1.01, scale=1.0 / (theta_val + 1e-6)).cdf).statistic

    lam_fixed = 2.0
    cfg2 = GibbsConfig(burn_in=1, retained=1, adapt_lambda=False, lambda_init=lam_fixed)
    state2 = initial_state(np.eye(p), 20, cfg2)
    state2.theta[off] = theta_val
    stack2 = ChainStack([state2], [np.random.default_rng(1)])
    inv_tau = np.empty(calls * n_off)
    for k in range(calls):
        update_hyperparameters(stack2)
        inv_tau[k * n_off : (k + 1) * n_off] = 1.0 / state2.tau[iu]
    mu = lam_fixed / theta_val          # 4.0
    shape = lam_fixed ** 2              # 4.0
    ks_tau = kstest(inv_tau, invgauss(mu / shape, scale=shape).cdf).statistic

    ok = ks_lam < 0.01 and ks_tau < 0.01
    assert report(
        3,
        "conditional laws",
        ok,
        f"KS(lambda | theta) = {ks_lam:.4f}, KS(1/tau | lambda) = {ks_tau:.4f} (< 0.01 at 1e5 draws)",
    )


# -------------------------------------------------------------------------
# criterion 4: best threshold sits in the expected region
# -------------------------------------------------------------------------


def test_criterion_4_threshold_region():
    cfg = ExperimentConfig(
        structures=("ar2",),
        dims=(10,),
        sample_sizes=(100,),
        replications=20,
        estimators=("bnet",),
        rules=("mean",),
        gibbs=DESK_GIBBS,
        master_seed=11,
    )
    study = run_experiment(cfg, study_only=True).studies[0]
    best = np.asarray(study.rules["mean"].per_rep_best_eta)
    hits = int(np.sum((best >= 0.2) & (best <= 0.4)))
    assert report(
        4,
        "threshold region",
        hits >= 16,
        f"best eta in [0.2, 0.4] for {hits}/20 replications (need >= 16)",
    )


# -------------------------------------------------------------------------
# criteria 5 and 6: desk-scale loss/score benchmark
# -------------------------------------------------------------------------


@pytest.fixture(scope="session")
def desk_benchmark():
    cfg = ExperimentConfig(
        structures=("ar2", "cluster", "circle"),
        dims=(10,),
        sample_sizes=(100,),
        replications=10,
        estimators=("bnet", "dnet"),
        gibbs=DESK_GIBBS,
        ista=IstaConfig(),
        eta=0.3,
        dn_mode="union",
        master_seed=2024,
    )
    start = time.monotonic()
    table = run_experiment(cfg, threads=2)
    return table, time.monotonic() - start


@pytest.fixture(scope="session")
def cluster_benchmark_n200():
    cfg = ExperimentConfig(
        structures=("cluster",),
        dims=(10,),
        sample_sizes=(200,),
        replications=10,
        estimators=("bnet",),
        gibbs=DESK_GIBBS,
        eta=0.3,
        dn_mode="union",
        master_seed=2024,
    )
    return run_experiment(cfg, threads=2)


def test_criterion_5a_ar2_l1_band(desk_benchmark):
    table, _ = desk_benchmark
    med = table.entries[("ar2", 10, "bnet", "l1")]["median"]
    ok = 1.13 - 0.35 <= med <= 1.13 + 0.35
    assert report(5, "AR(2) L1 band", ok, f"median {med:.3f} in [0.78, 1.48]")


def test_criterion_5b_cluster_l1_band(cluster_benchmark_n200):
    entry = cluster_benchmark_n200.entries[("cluster", 10, "bnet", "l1")]
    med = entry["median"]
    ok = 0.85 - 0.35 <= med <= 0.85 + 0.35
    assert report(
        5, "cluster L1 band", ok, f"median {med:.3f} at n={entry['n']} in [0.50, 1.20]"
    )


def test_criterion_5c_ar2_mcc_floor(desk_benchmark):
    table, _ = desk_benchmark
    med = table.entries[("ar2", 10, "bnet", "mcc")]["median"]
    assert report(5, "AR(2) MCC floor", med >= 0.55, f"median {med:.3f} >= 0.55")


def test_criterion_5d_circle_mcc_floor(desk_benchmark):
    table, _ = desk_benchmark
    med = table.entries[("circle", 10, "bnet", "mcc")]["median"]
    assert report(5, "circle MCC floor", med >= 0.70, f"median {med:.3f} >= 0.70")


def test_criterion_5e_runtime_budget(desk_benchmark):
    _, elapsed = desk_benchmark
    assert report(5, "runtime budget", elapsed < 1800.0, f"{elapsed:.0f}s < 1800s")


def test_criterion_6_bnet_beats_dnet(desk_benchmark):
    table, _ = desk_benchmark
    details = []
    ok = True
    for structure in ("ar2", "cluster"):
        b = table.entries[(structure, 10, "bnet", "mcc")]["median"]
        d = table.entries[(structure, 10, "dnet", "mcc")]["median"]
        ok = ok and not is_na(b) and (is_na(d) or b > d)
        details.append(f"{structure}: bnet {b:.3f} vs dnet {d:.3f}")
    assert report(6, "bnet beats dnet on MCC", ok, "; ".join(details))


# -------------------------------------------------------------------------
# criterion 7: solver correctness
# -------------------------------------------------------------------------


def test_criterion_7_ista_correctness():
    rng = np.random.default_rng(3)
    mono_ok = True
    kkt_worst = 0.0
    fd_worst = 0.0
    for p in (3, 4, 6):
        s1, s2 = random_pd(p, rng), random_pd(p, rng)
        res = ista_solve(s1, s2, 0.05, IstaConfig(tol=1e-12, max_iters=20_000))
        mono_ok = mono_ok and bool(np.all(np.diff(res.objective_history) <= 1e-12))
        kkt_worst = max(kkt_worst, l1_kkt_residual(res.delta, dnet_gradient(res.delta, s1, s2), 0.05))
        delta = random_symmetric(p, rng)
        fd = symmetric_fd_gradient(lambda d: dtrace_loss(d, s1, s2), delta)
        fd_worst = max(fd_worst, float(np.abs(fd - dnet_gradient(delta, s1, s2)).max()))
    ok = mono_ok and kkt_worst <= 1e-4 and fd_worst <= 1e-5
    assert report(
        7,
        "solver correctness",
        ok,
        f"monotone {mono_ok}, KKT {kkt_worst:.2e} (<= 1e-4), grad FD {fd_worst:.2e} (<= 1e-5)",
    )


# -------------------------------------------------------------------------
# criterion 8: metrics against brute-force oracles
# -------------------------------------------------------------------------


def _oracle_scores(tp, tn, fp, fn):
    sp = tn / (tn + fp) if tn + fp > 0 else float("nan")
    se = tp / (tp + fn) if tp + fn > 0 else float("nan")
    fnr = fn / (fn + tp) if fn + tp > 0 else float("nan")
    f1 = tp / (tp + 0.5 * (fp + fn)) if tp + 0.5 * (fp + fn) > 0 else float("nan")
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(den) if den > 0 else float("nan")
    return sp, se, fnr, f1, mcc


def test_criterion_8_metrics_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    na_checked = 0
    for case in range(100):
        p = int(rng.integers(3, 7))
        est = random_symmetric(p, rng)
        truth = random_symmetric(p, rng)

        l1, l2 = matrix_losses(est, truth)
        col_sums = [sum(abs(est[i, j] - truth[i, j]) for i in range(p)) for j in range(p)]
        worst = max(worst, abs(l1 - max(col_sums)))
        worst = max(worst, abs(l2 - math.sqrt(sum((est[i, j] - truth[i, j]) ** 2
                                                  for i in range(p) for j in range(p)))))

        ge, gt = charpoly_eigenvalues(est), charpoly_eigenvalues(truth)
        el1, el2, maxel1, minel1 = eigen_losses(est, truth)
        worst = max(worst, abs(el1 - np.abs(ge - gt).sum() / p))
        worst = max(worst, abs(el2 - ((ge - gt) ** 2).sum() / p))
        worst = max(worst, abs(maxel1 - abs(ge[-1] - gt[-1])))
        worst = max(worst, abs(minel1 - abs(ge[0] - gt[0])))

        # scores over random adjacencies, degenerate cases included
        density = rng.uniform(0.0, 1.0)
        adj_est = mirror_lower((rng.random((p, p)) < density).astype(float)) > 0
        adj_truth = mirror_lower((rng.random((p, p)) < rng.uniform(0, 1)).astype(float)) > 0
        np.fill_diagonal(adj_est, False)
        np.fill_diagonal(adj_truth, False)
        c = confusion(adj_est, adj_truth)
        got = classification_scores(c)
        expected = _oracle_scores(c.tp, c.tn, c.fp, c.fn)
        for g, e in zip(got, expected):
            if math.isnan(e):
                assert is_na(g)
                na_checked += 1
            else:
                assert g == e
    # explicit single-class case: truth all positive means sp undefined
    s = classification_scores(ConfusionCounts(tp=4, tn=0, fp=0, fn=2))
    assert is_na(s.sp) and na_checked > 0
    ok = worst <= 1e-8
    assert report(
        8, "metrics oracle", ok, f"100 instances, worst loss deviation {worst:.2e}, NA semantics held"
    )


# -------------------------------------------------------------------------
# criterion 9: null-model behavior
# -------------------------------------------------------------------------


def test_criterion_9_null_model():
    # the assertion runs against the benchmark DN rule (union of the two
    # per-sample mean rules); the difference rule's count is informational
    runs = 20
    empty_hits = {"union": 0, "difference": 0}
    for seed in range(runs):
        x1 = sample_gaussian(np.eye(10), 200, seed=1000 + seed)
        x2 = sample_gaussian(np.eye(10), 200, seed=2000 + seed)
        partials = tuple(posterior_partial_corr_mean(mirror_lower(x.T @ x), 200) for x in (x1, x2))
        for mode in empty_hits:
            if not dn_adjacency(partials, 0.3, mode=mode).any():
                empty_hits[mode] += 1

    box_hits = 0
    for seed in range(runs):
        rng = np.random.default_rng(5000 + seed)
        y1 = rng.standard_normal((200, 10))
        y2 = rng.standard_normal((200, 10))
        c1 = mirror_lower((y1 - y1.mean(0)).T @ (y1 - y1.mean(0)) / 199)
        c2 = mirror_lower((y2 - y2.mean(0)).T @ (y2 - y2.mean(0)) / 199)
        _, pval = boxs_m_test(c1, 200, c2, 200)
        box_hits += pval > 0.01

    ok = empty_hits["union"] >= 18 and box_hits >= 19
    assert report(
        9,
        "null-model sanity",
        ok,
        f"empty DN {empty_hits['union']}/20 (>= 18; difference rule {empty_hits['difference']}/20), "
        f"Box's M p > 0.01 {box_hits}/20 (>= 19)",
    )


# -------------------------------------------------------------------------
# criterion 10: byte-identical outputs regardless of thread count
# -------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    cfg = ExperimentConfig(
        structures=("ar2",),
        dims=(6,),
        sample_sizes=(40,),
        replications=2,
        gibbs=GibbsConfig(burn_in=40, retained=80),
        master_seed=99,
    )
    digests = []
    same_study = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        table = run_experiment(cfg, threads=threads)
        emit_experiment(table, cfg, str(out))
        # synthetic writes the study of its bnet chains, which must be sweep's
        from_synthetic = (out / "threshold_study.json").read_bytes()
        emit_experiment(run_experiment(cfg, threads=threads, study_only=True), cfg, str(out))
        same_study.append(from_synthetic == (out / "threshold_study.json").read_bytes())
        digests.append(
            {
                name: (out / name).read_bytes()
                for name in ("results.csv", "threshold_study.json", "manifest.json")
            }
        )
    ok = digests[0] == digests[1] and all(same_study)
    assert report(
        10,
        "determinism",
        ok,
        "synthetic + sweep outputs byte-identical at 1 and 2 workers; synthetic's study is sweep's",
    )
