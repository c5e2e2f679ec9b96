import logging
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dpotrf as factor

from bayesdn import ista
from bayesdn.ista import (
    IstaConfig,
    IstaResult,
    _cg_finish as cg_finish,
    _entry_violation,
    _exact_finish as exact_finish,
    _kkt_residual,
    _kkt_violation,
    _kkt_within,
    _support_operator as support_operator,
    bic_select,
    default_penalty_grid,
    dnet_gradient,
    estimate_dnet,
    ista_solve,
    solve_path,
    support_hessian,
)
from bayesdn.structures import StructureSpec, make_structure, sample_gaussian
from bayesdn.linalg import mirror_lower

from helpers import dtrace_loss, l1_kkt_residual, random_pd, random_symmetric, symmetric_fd_gradient


def brute_force_loss(delta, s1, s2):
    p = delta.shape[0]
    quad = 0.0
    for i in range(p):
        for j in range(p):
            for k in range(p):
                for l in range(p):
                    quad += delta[j, i] * s1[j, k] * delta[k, l] * s2[l, i]
    lin = 0.0
    for i in range(p):
        for j in range(p):
            lin += delta[i, j] * (s1[j, i] - s2[j, i])
    return 0.5 * quad - lin


def kkt_residual(delta, s1, s2, lam):
    return l1_kkt_residual(delta, dnet_gradient(delta, s1, s2), lam)


class TestLoss:
    """``IstaResult.loss`` is the solver's carried ``0.5 <D, G - C>``; these hold it to the loss."""

    def test_zero_delta(self):
        rng = np.random.default_rng(0)
        s1, s2 = random_pd(3, rng), random_pd(3, rng)
        res = ista_solve(s1, s2, 10.0 * np.abs(s1 - s2).max())
        assert not res.delta.any() and res.loss == 0.0

    def test_equal_samples_zero_is_stationary(self):
        rng = np.random.default_rng(1)
        s = random_pd(4, rng)
        np.testing.assert_array_equal(dnet_gradient(np.zeros((4, 4)), s, s), np.zeros((4, 4)))

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            s1, s2 = random_pd(4, rng), random_pd(4, rng)
            start = random_symmetric(4, rng)
            for cfg in (IstaConfig(max_iters=1), IstaConfig()):
                res = ista_solve(s1, s2, 0.05, cfg, start)
                # the triple loop also vouches for the trace formula used at p = 30
                want = brute_force_loss(res.delta, s1, s2)
                tol = 1e-12 * max(1, abs(want))
                assert res.loss == pytest.approx(want, abs=tol)
                assert dtrace_loss(res.delta, s1, s2) == pytest.approx(want, abs=tol)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            dnet_gradient(np.zeros((2, 2)), np.eye(3), np.eye(3))


class TestGradient:
    def test_zero_delta(self):
        rng = np.random.default_rng(3)
        s1, s2 = random_pd(4, rng), random_pd(4, rng)
        np.testing.assert_allclose(dnet_gradient(np.zeros((4, 4)), s1, s2), -(s1 - s2))

    def test_identity_samples(self):
        rng = np.random.default_rng(4)
        delta = random_symmetric(5, rng)
        np.testing.assert_allclose(dnet_gradient(delta, np.eye(5), np.eye(5)), delta, atol=1e-14)

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        s1, s2 = random_pd(4, rng), random_pd(4, rng)
        delta = random_symmetric(4, rng)
        fd = symmetric_fd_gradient(lambda d: dtrace_loss(d, s1, s2), delta)
        assert np.abs(fd - dnet_gradient(delta, s1, s2)).max() <= 1e-5


class TestSolver:
    def test_huge_lambda_gives_zero(self):
        rng = np.random.default_rng(6)
        s1, s2 = random_pd(4, rng), random_pd(4, rng)
        lam = 10.0 * np.abs(s1 - s2).max()
        res = ista_solve(s1, s2, lam)
        np.testing.assert_array_equal(res.delta, np.zeros((4, 4)))
        assert res.converged

    def test_objective_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            s1, s2 = random_pd(5, rng), random_pd(5, rng)
            res = ista_solve(s1, s2, 0.05)
            assert np.all(np.diff(res.objective_history) <= 1e-12)

    def test_kkt_at_convergence(self):
        rng = np.random.default_rng(8)
        for p in (3, 4, 6):
            s1, s2 = random_pd(p, rng), random_pd(p, rng)
            res = ista_solve(s1, s2, 0.05, IstaConfig(tol=1e-12, max_iters=20000))
            assert kkt_residual(res.delta, s1, s2, 0.05) <= 1e-4

    def test_solution_symmetric(self):
        rng = np.random.default_rng(9)
        s1, s2 = random_pd(4, rng), random_pd(4, rng)
        res = ista_solve(s1, s2, 0.02)
        assert np.abs(res.delta - res.delta.T).max() <= 1e-12

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            ista_solve(np.eye(2), np.eye(2), 0.0)

    def test_invalid_start(self):
        with pytest.raises(ValueError):
            ista_solve(np.eye(3), np.eye(3), 0.1, start=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ista_solve(np.eye(2), np.eye(2), 0.1, start=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stops_at_the_rounding_floor(self):
        # a tol below double precision is never met, but the solve ends
        # once a plain step no longer lowers the objective: for seed 15 the
        # last step is rejected, for seed 11 it does not move
        cfg = IstaConfig(tol=1e-300, max_iters=100_000)
        for seed in (15, 11):
            rng = np.random.default_rng(seed)
            s1, s2 = random_pd(5, rng), random_pd(5, rng)
            res = assert_pinned(s1, s2, 0.05, cfg)
            assert not res.converged and res.iterations < 10_000
            assert kkt_residual(res.delta, s1, s2, 0.05) <= 1e-10
            # restarted at that numerical fixed point, it stops at once
            again = assert_pinned(s1, s2, 0.05, cfg, start=res.delta)
            assert again.iterations <= 2

    def test_start_at_solution_takes_no_iteration(self):
        rng = np.random.default_rng(13)
        s1, s2 = random_pd(5, rng), random_pd(5, rng)
        res = assert_pinned(s1, s2, 0.05)
        again = assert_pinned(s1, s2, 0.05, start=res.delta)
        assert again.converged and again.iterations == 0
        np.testing.assert_array_equal(again.delta, res.delta)


def pair_covariances(kind, p):
    """Sample covariances of a structure pair at n = 200."""
    pair = make_structure(StructureSpec(kind, p, seed=1))
    x1 = sample_gaussian(pair.theta1, 200, seed=101)
    x2 = sample_gaussian(pair.theta2, 200, seed=201)
    return mirror_lower(x1.T @ x1 / 200), mirror_lower(x2.T @ x2 / 200)


def star_pair_covariances():
    """The p = 30 star pair at n = 200, where cold-started plain ISTA
    left 8 of the 20 default penalties at ``max_iters``."""
    return pair_covariances("star", 30)


class TestPath:
    def test_star_pair_converges_and_matches_cold_starts(self):
        s1, s2 = star_pair_covariances()
        path = solve_path(s1, s2, 200, 200)
        for lam, res in zip(path.lambdas, path.results):
            assert res.converged
            assert kkt_residual(res.delta, s1, s2, lam) <= IstaConfig().tol
        for k in (0, 7, 14):
            cold = ista_solve(s1, s2, float(path.lambdas[k]))
            assert path.results[k].objective == pytest.approx(cold.objective, rel=1e-8)

    def test_carried_product(self):
        # loss and gradient come from the carried S1 D S2; monotonicity
        # rests on the accept rule, not on the step size
        s1, s2 = star_pair_covariances()
        for res in solve_path(s1, s2, 200, 200).results:
            assert res.loss == pytest.approx(dtrace_loss(res.delta, s1, s2), rel=1e-12)
            assert np.all(np.diff(res.objective_history) <= 0)
            np.testing.assert_array_equal(res.delta, res.delta.T)

    def test_results_in_grid_order(self):
        rng = np.random.default_rng(14)
        s1, s2 = random_pd(4, rng), random_pd(4, rng)
        grid = (0.05, 0.5, 0.01, 0.2)
        path = solve_path(s1, s2, 30, 30, IstaConfig(penalty_grid=grid))
        for lam, res in zip(grid, path.results):
            cold = ista_solve(s1, s2, float(lam))
            assert res.objective == pytest.approx(cold.objective, rel=1e-8)

    def test_unconverged_penalties_are_logged(self, caplog):
        s1, s2 = star_pair_covariances()
        grid = (0.01, 0.02)
        with caplog.at_level(logging.WARNING, logger="bayesdn.ista"):
            path = solve_path(s1, s2, 200, 200, IstaConfig(max_iters=1, penalty_grid=grid))
        assert not any(res.converged for res in path.results)
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(messages) == 2
        for lam, res, msg in zip(grid[::-1], path.results[::-1], messages):
            kkt = kkt_residual(res.delta, s1, s2, float(lam))
            assert f"penalty {lam:.6g}" in msg
            assert "after 1 iterations" in msg
            assert f"KKT residual {kkt:.3g}" in msg


class TestSelection:
    def test_single_lambda(self):
        rng = np.random.default_rng(10)
        s1, s2 = random_pd(3, rng), random_pd(3, rng)
        res = ista_solve(s1, s2, 0.1)
        path = bic_select(np.array([0.1]), [res], 20, 20)
        assert path.selected == 0

    def test_dominance(self):
        rng = np.random.default_rng(11)
        s1, s2 = random_pd(3, rng), random_pd(3, rng)
        good = ista_solve(s1, s2, 0.3)
        # degrade: denser and lossier fake competitor
        worse = IstaResult(
            delta=np.ones((3, 3)),
            objective=good.objective + 5.0,
            loss=good.loss + 5.0,
            iterations=1,
            converged=True,
            objective_history=np.array([0.0]),
        )
        path = bic_select(np.array([0.1, 0.3]), [worse, good], 20, 20)
        assert path.selected == 1

    @pytest.mark.parametrize("grid", [(10.0, 5.0), (5.0, 10.0)], ids=["descending", "ascending"])
    def test_ties_go_to_the_larger_penalty_in_either_grid_order(self, grid):
        rng = np.random.default_rng(19)
        s1 = random_pd(3, rng)
        s2 = s1 + 0.1 * np.eye(3)
        path = solve_path(s1, s2, 20, 20, IstaConfig(penalty_grid=grid))
        # both penalties exceed max |S1 - S2|: both solutions are zero, BIC 0
        assert all(not res.delta.any() for res in path.results)
        np.testing.assert_array_equal(path.bics, [0.0, 0.0])
        assert path.lambdas[path.selected] == 10.0

    def test_selected_sparser_than_least_penalized(self):
        pair = make_structure(StructureSpec("ar1", 10))
        x1 = sample_gaussian(pair.theta1, 100, seed=0)
        x2 = sample_gaussian(pair.theta2, 100, seed=1)
        s1 = mirror_lower(x1.T @ x1 / 100)
        s2 = mirror_lower(x2.T @ x2 / 100)
        path = solve_path(s1, s2, 100, 100)
        nnz = [int(np.count_nonzero(r.delta)) for r in path.results]
        assert nnz[path.selected] < nnz[0]

    def test_grid_spans_declared_range(self):
        rng = np.random.default_rng(12)
        s1, s2 = random_pd(3, rng), random_pd(3, rng)
        grid = default_penalty_grid(s1, s2)
        scale = np.abs(s1 - s2).max()
        assert grid.size == 20
        assert grid[0] == pytest.approx(0.01 * scale)
        assert grid[-1] == pytest.approx(scale)


class TestEstimator:
    def test_end_to_end_shapes(self):
        pair = make_structure(StructureSpec("cluster", 8))
        x1 = sample_gaussian(pair.theta1, 80, seed=2)
        x2 = sample_gaussian(pair.theta2, 80, seed=3)
        delta, adj, path = estimate_dnet(x1, x2)
        assert delta.shape == (8, 8)
        assert adj.dtype == bool and not adj.diagonal().any()
        assert path.bics.size == path.lambdas.size
        assert path.bics[path.selected] == path.bics.min()


def reference_finish(s1, s2, lam, signs, support):
    """The exact finish written out: the support's Hessian entry by entry,
    scipy's checked Cholesky wrappers (LAPACK ``potrf``/``potrs``, lower
    triangle), and None on a failed factorization or a changed sign."""
    size = len(support)
    hess, rhs = np.empty((size, size)), np.empty(size)
    for a, (i, j) in enumerate(support):
        ha, wa = (0.5, 1.0) if i == j else (1.0, 2.0)
        rhs[a] = wa * ((s1[i, j] - s2[i, j]) - lam * signs[i, j])
        for b, (k, l) in enumerate(support):
            hb = 0.5 if k == l else 1.0
            quad = (s1[i, k] * s2[j, l] + s1[j, l] * s2[i, k]) + (
                s1[i, l] * s2[j, k] + s1[j, k] * s2[i, l]
            )
            hess[a, b] = quad * ha * hb
    try:
        chol = cholesky(hess, lower=True)
    except np.linalg.LinAlgError:
        return None
    d = cho_solve((chol, True), rhs)
    if any(np.sign(d[a]) != signs[i, j] for a, (i, j) in enumerate(support)):
        return None
    z = np.zeros_like(s1)
    for a, (i, j) in enumerate(support):
        z[i, j] = z[j, i] = d[a]
    return z


def reference_cg_finish(s1, s2, lam, signs, support, start, tol):
    """The conjugate-gradient finish written out: each product forms the
    symmetric D entry by entry and takes ``w_a * 0.5 (M_ij + M_ji)`` from
    ``M = S1 D S2``; Jacobi preconditioner, warm start from ``start``, stop
    at a support KKT violation of ``tol / 4``, and None after 100 products,
    on a curvature that is not positive and finite, or on a changed sign."""
    w = np.array([1.0 if i == j else 2.0 for i, j in support])

    def product(v):
        dmat = np.zeros_like(s1)
        for a, (i, j) in enumerate(support):
            dmat[i, j] = dmat[j, i] = v[a]
        m = s1 @ dmat @ s2
        return np.array([w[a] * (0.5 * (m[i, j] + m[j, i])) for a, (i, j) in enumerate(support)])

    diagonal, rhs = np.empty(len(support)), np.empty(len(support))
    for a, (i, j) in enumerate(support):
        cross = s1[i, i] * s2[j, j] + s1[j, j] * s2[i, i]
        diagonal[a] = (0.25 * w[a] * w[a]) * (cross + 2.0 * s1[i, j] * s2[i, j])
        rhs[a] = w[a] * ((s1[i, j] - s2[i, j]) - lam * signs[i, j])
    d = np.array([start[i, j] for i, j in support])
    r = rhs - product(d)
    z = r / diagonal
    direction, rz = z, float(np.dot(r, z))
    products = 1
    while max(abs(r[a] / w[a]) for a in range(len(support))) > 0.25 * tol:
        if products == 100:
            return None
        q = product(direction)
        products += 1
        curvature = float(np.dot(direction, q))
        if not (curvature > 0 and np.isfinite(curvature)):
            return None
        alpha = rz / curvature
        d = d + alpha * direction
        r = r - alpha * q
        z = r / diagonal
        rz_prev = rz
        rz = float(np.dot(r, z))
        direction = z + (rz / rz_prev) * direction
    if any(np.sign(d[a]) != signs[i, j] for a, (i, j) in enumerate(support)):
        return None
    out = np.zeros_like(s1)
    for a, (i, j) in enumerate(support):
        out[i, j] = out[j, i] = d[a]
    return out


def reference_ista_solve(s1, s2, lam, cfg=IstaConfig(), start=None):
    """The FISTA loop as first written, one new array per operation and a
    full KKT pass per accepted step, with the exact finish every 8
    iterations (by Cholesky on up to 64 support entries, by conjugate
    gradients above): the reference ``ista_solve`` must match bit for bit.

    ``objective_history`` never increases and holds the start's objective
    and one entry per counted iteration; an accepted finish lowers the
    entry of the iteration it follows, and ``iterations <= max_iters``."""

    def kkt(delta, grad):
        viol = np.where(delta != 0, np.abs(grad + lam * np.sign(delta)), np.abs(grad) - lam)
        return max(float(viol.max()), 0.0)

    p = s1.shape[0]

    step = 1.0 / float(np.linalg.eigvalsh(s1)[-1] * np.linalg.eigvalsh(s2)[-1])
    thr = lam * step
    c = s1 - s2
    x = np.zeros_like(s1) if start is None else start
    m = s1 @ x @ s2
    g = 0.5 * (m + m.T) - c
    abs_x = np.abs(x)
    history = [0.5 * float(np.vdot(x, g - c)) + lam * float(abs_x.sum())]
    converged = kkt(x, g) <= cfg.tol
    y, gy, momentum = x, g, 1.0
    signs, held, tried = np.sign(x), 1, set()
    it = 0
    while not converged and it < cfg.max_iters:
        it += 1
        w = y - step * gy
        z = w - np.minimum(np.maximum(w, -thr), thr)
        m = s1 @ z @ s2
        z_grad = 0.5 * (m + m.T) - c
        move = z - x
        abs_z = np.abs(z)
        change = 0.5 * float(np.vdot(move, z_grad + g)) + lam * float((abs_z - abs_x).sum())
        if change <= 0 and move.any():
            restart = float(np.vdot(y - z, move)) > 0
            x_prev, g_prev = x, g
            x, g, abs_x = z, z_grad, abs_z
            converged = kkt(x, g) <= cfg.tol
            if restart:
                y, gy, momentum = x, g, 1.0
            else:
                nxt = 0.5 * (1.0 + (1.0 + 4.0 * momentum * momentum) ** 0.5)
                beta = (momentum - 1.0) / nxt
                momentum = nxt
                y = x + beta * (x - x_prev)
                gy = g + beta * (g - g_prev)
            history.append(history[-1] + change)
        else:
            history.append(history[-1])
            if y is x:
                break
            y, gy, momentum = x, g, 1.0
        if converged or it % 8 != 0:
            continue
        # the exact finish: a sign pattern seen at 2 consecutive checks (the
        # start counting as one) with 1 to 64 entries on and above the
        # diagonal, or at 3 with more, tried once
        last, signs = signs, np.sign(x)
        held = held + 1 if np.array_equal(signs, last) else 1
        support = [(i, j) for i in range(p) for j in range(i, p) if x[i, j] != 0]
        key = signs.tobytes()
        dense = len(support) <= 64
        if support and held >= (2 if dense else 3) and key not in tried:
            tried.add(key)
            if dense:
                z = reference_finish(s1, s2, lam, signs, support)
            else:
                z = reference_cg_finish(s1, s2, lam, signs, support, x, cfg.tol)
            if z is not None:
                m = s1 @ z @ s2
                z_grad = 0.5 * (m + m.T) - c
                change = 0.5 * float(np.vdot(z - x, z_grad + g))
                change += lam * float((np.abs(z) - abs_x).sum())
                if change <= 0 and kkt(z, z_grad) <= cfg.tol:
                    x, g, abs_x, converged = z, z_grad, np.abs(z), True
                    history[-1] += change
    loss = 0.5 * float(np.vdot(x, g - c))
    return IstaResult(
        delta=x,
        objective=loss + lam * float(abs_x.sum()),
        loss=loss,
        iterations=it,
        converged=converged,
        objective_history=np.asarray(history),
    )


def bits(value):
    return struct.pack("<d", value)


def assert_same_result(got, want):
    assert got.delta.dtype == want.delta.dtype and got.delta.shape == want.delta.shape
    assert got.delta.tobytes() == want.delta.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert bits(got.objective) == bits(want.objective)
    assert bits(got.loss) == bits(want.loss)
    assert got.objective_history.tobytes() == want.objective_history.tobytes()


def assert_pinned(s1, s2, lam, cfg=IstaConfig(), start=None):
    """``ista_solve`` matches the reference loop and leaves ``start`` as it was."""
    before = None if start is None else start.copy()
    got = ista_solve(s1, s2, lam, cfg, start)
    if start is not None:
        assert start.tobytes() == before.tobytes()
    assert_same_result(got, reference_ista_solve(s1, s2, lam, cfg, start))
    return got


class TestPinnedLoop:
    @pytest.mark.parametrize("p", [2, 5, 10, 30])
    def test_random_pairs(self, p):
        rng = np.random.default_rng(100 + p)
        for _ in range(3):
            s1, s2 = random_pd(p, rng), random_pd(p, rng)
            scale = float(np.abs(s1 - s2).max())
            for frac in (0.01, 0.1, 0.5):
                assert_pinned(s1, s2, frac * scale)

    @pytest.mark.parametrize("kind,p", [("star", 10), ("ar2", 10), ("star", 30), ("ar2", 30)])
    def test_warm_started_paths(self, kind, p):
        s1, s2 = pair_covariances(kind, p)
        path = solve_path(s1, s2, 200, 200)
        start, done = None, []
        for k in np.argsort(-path.lambdas, kind="stable"):
            want = reference_ista_solve(s1, s2, float(path.lambdas[k]), start=start)
            assert_same_result(path.results[k], want)
            start = want.delta
        # each solve starts from the last delta and writes into none before it
        start = None
        for lam in sorted(path.lambdas, reverse=True)[:8]:
            res = assert_pinned(s1, s2, float(lam), start=start)
            done.append((res.delta, res.delta.tobytes()))
            start = res.delta
        for delta, saved in done:
            assert delta.tobytes() == saved

    def test_iteration_caps_and_tight_tol(self):
        s1, s2 = star_pair_covariances()
        for cfg in (IstaConfig(max_iters=1), IstaConfig(max_iters=3), IstaConfig(tol=1e-12)):
            for lam in (0.01, 0.05):
                res = assert_pinned(s1, s2, lam, cfg)
                assert res.iterations <= cfg.max_iters
        capped = assert_pinned(s1, s2, 0.01, IstaConfig(max_iters=3))
        assert assert_pinned(s1, s2, 0.01, IstaConfig(max_iters=3), start=capped.delta).iterations == 3

    def test_penalty_at_or_above_the_largest_difference(self):
        rng = np.random.default_rng(16)
        s1, s2 = random_pd(6, rng), random_pd(6, rng)
        scale = float(np.abs(s1 - s2).max())
        for lam in (scale, 2.0 * scale):
            res = assert_pinned(s1, s2, lam)
            assert res.iterations == 0 and not res.delta.any()
            start = random_symmetric(6, rng)
            assert assert_pinned(s1, s2, lam, start=start).converged


# entries that stress the sign and rounding of a violation
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1.0, -1.0,
                           1e300, -1e300, 1.7e308, -1.7e308])
entries = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
penalties = st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 1e300]),
                      st.floats(min_value=5e-324, max_value=1e300))


@st.composite
def screened(draw):
    p = draw(st.integers(1, 4))
    delta = np.array(draw(st.lists(entries, min_size=p * p, max_size=p * p))).reshape(p, p)
    grad = np.array(draw(st.lists(entries, min_size=p * p, max_size=p * p))).reshape(p, p)
    lam = draw(penalties)
    with np.errstate(over="ignore"):
        viol = _kkt_violation(delta, grad, lam)
    # the screened entry is sometimes the largest violation, and the
    # tolerance sometimes exactly the residual, where > and >= part ways
    if draw(st.booleans()):
        worst = int(viol.argmax())
    else:
        worst = draw(st.integers(0, p * p - 1))
    with np.errstate(over="ignore"):
        residual = _kkt_residual(delta, grad, lam)
    if residual > 0 and draw(st.booleans()):
        tol = residual
    else:
        tol = draw(st.floats(min_value=5e-324, max_value=1e300))
    return delta, grad, lam, tol, worst


class TestKktScreen:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(entries, entries), min_size=1, max_size=8), penalties)
    def test_entry_violation_is_the_vectorized_entry(self, pairs, lam):
        delta = np.array([d for d, _ in pairs])
        grad = np.array([g for _, g in pairs])
        with np.errstate(over="ignore"):  # huge entries overflow, alike in both
            viol = _kkt_violation(delta, grad, lam)
        for k, (d, g) in enumerate(pairs):
            assert bits(_entry_violation(d, g, lam)) == bits(float(viol[k]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(screened())
    def test_screen_decides_as_the_full_residual(self, case):
        delta, grad, lam, tol, worst = case
        with np.errstate(over="ignore"):
            converged, nxt = _kkt_within(delta, grad, lam, tol, worst)
            assert converged == (_kkt_residual(delta, grad, lam) <= tol)
        assert 0 <= nxt < delta.size


def kronecker_support_hessian(s1, s2, support):
    """``T' H T`` for ``H = 0.5 (S2 x S1 + S1 x S2)`` on column-stacked
    matrices, ``T`` mapping each entry of the support to its symmetric matrix."""
    p = s1.shape[0]
    t = np.zeros((p * p, len(support)))
    for a, (i, j) in enumerate(support):
        t[i + j * p, a] = t[j + i * p, a] = 1.0
    return t.T @ (0.5 * (np.kron(s2, s1) + np.kron(s1, s2))) @ t


@st.composite
def supports(draw, max_p=6):
    p = draw(st.integers(2, max_p))
    seed = draw(st.integers(0, 2**32 - 1))
    upper = [(i, j) for i in range(p) for j in range(i, p)]
    picked = draw(st.lists(st.sampled_from(upper), min_size=1, max_size=len(upper), unique=True))
    return p, seed, sorted(picked)


def plain_solve(monkeypatch, solve, *args):
    """``solve(*args)`` with both finishes declining every try: the plain FISTA loop."""
    with monkeypatch.context() as mp:
        mp.setattr(ista, "_exact_finish", lambda *_: None)
        mp.setattr(ista, "_cg_finish", lambda *_: None)
        return solve(*args)


def finished_results(monkeypatch, solve, *args):
    """``solve(*args)`` and the matrices its finishes returned, by finish:
    ``made["exact"]`` from the Cholesky finish, ``made["cg"]`` from the
    conjugate-gradient one."""
    made = {"exact": [], "cg": []}

    def spying(finish, kind):
        def spy(*finish_args):
            z = finish(*finish_args)
            if z is not None:
                made[kind].append(z)
            return z

        return spy

    with monkeypatch.context() as mp:
        mp.setattr(ista, "_exact_finish", spying(exact_finish, "exact"))
        mp.setattr(ista, "_cg_finish", spying(cg_finish, "cg"))
        return solve(*args), made


class TestExactFinish:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(supports())
    def test_support_hessian_is_the_kronecker_hessian(self, case):
        p, seed, support = case
        rng = np.random.default_rng(seed)
        s1, s2 = random_pd(p, rng), random_pd(p, rng)
        rows, cols = (np.array(idx) for idx in zip(*support))
        got = support_hessian(s1, s2, rows, cols)
        want = kronecker_support_hessian(s1, s2, support)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(got, got.T)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(supports(max_p=12))
    def test_support_product_is_the_support_hessian(self, case):
        p, seed, support = case
        rng = np.random.default_rng(seed)
        s1, s2 = random_pd(p, rng), random_pd(p, rng)
        rows, cols = (np.array(idx) for idx in zip(*support))
        hess = support_hessian(s1, s2, rows, cols)
        product, diagonal = support_operator(s1, s2, rows, cols)
        v = rng.standard_normal(len(support))
        scale = (np.abs(hess) @ np.abs(v)).max()
        np.testing.assert_allclose(product(v), hess @ v, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(diagonal, hess.diagonal(), rtol=1e-12)

    def check_finished(self, s1, s2, lam, got, plain, made):
        finished = any(got.delta is z for z in made)
        if finished:
            assert got.converged and plain.converged
            assert kkt_residual(got.delta, s1, s2, lam) <= IstaConfig().tol
            np.testing.assert_array_equal(got.delta != 0, plain.delta != 0)
            assert got.objective <= plain.objective
        return finished

    def test_random_pairs_finish_at_the_plain_loops_support(self, monkeypatch):
        rng = np.random.default_rng(17)
        count = 0
        for p in (3, 5, 8, 12):
            for _ in range(3):
                s1, s2 = random_pd(p, rng), random_pd(p, rng)
                scale = float(np.abs(s1 - s2).max())
                for frac in (0.05, 0.2, 0.5):
                    lam = frac * scale
                    got, made = finished_results(monkeypatch, ista_solve, s1, s2, lam)
                    plain = plain_solve(monkeypatch, ista_solve, s1, s2, lam)
                    both = made["exact"] + made["cg"]
                    count += self.check_finished(s1, s2, lam, got, plain, both)
        assert count >= 10

    @pytest.mark.parametrize("kind,p", [("circle", 10), ("star", 30), ("ar2", 30)])
    def test_fixture_paths_finish_at_the_plain_loops_support(self, monkeypatch, kind, p):
        s1, s2 = pair_covariances(kind, p)
        path, made = finished_results(monkeypatch, solve_path, s1, s2, 200, 200)
        plain = plain_solve(monkeypatch, solve_path, s1, s2, 200, 200)
        counts = {"exact": 0, "cg": 0}
        for lam, got, want in zip(path.lambdas, path.results, plain.results):
            for finish, zs in made.items():
                counts[finish] += self.check_finished(s1, s2, float(lam), got, want, zs)
        assert counts["exact"] + counts["cg"] >= 5
        # at p = 10 no support exceeds 55 entries, so only Cholesky finishes
        assert counts["cg"] >= (3 if p == 30 else 0)
        assert path.selected == plain.selected

    def test_declines_a_sign_its_solution_does_not_keep(self):
        rng = np.random.default_rng(18)
        s1, s2 = random_pd(4, rng), random_pd(4, rng)
        lam = 0.05 * float(np.abs(s1 - s2).max())
        res = ista_solve(s1, s2, lam, IstaConfig(tol=1e-10))
        signs = np.sign(res.delta)
        z = exact_finish(s1, s2, s1 - s2, lam, signs)
        np.testing.assert_allclose(z, res.delta, atol=1e-8)
        # forcing a wrong sign on one entry: the constrained stationary point
        # keeps the entry's true sign, so the finish declines
        i, j = np.argwhere(np.triu(signs) != 0)[0]
        signs[i, j] = signs[j, i] = -signs[i, j]
        assert exact_finish(s1, s2, s1 - s2, lam, signs) is None

    def test_cg_finish_is_the_exact_finish_and_declines_a_wrong_sign(self):
        rng = np.random.default_rng(18)
        s1, s2 = random_pd(4, rng), random_pd(4, rng)
        lam = 0.05 * float(np.abs(s1 - s2).max())
        res = ista_solve(s1, s2, lam, IstaConfig(tol=1e-10))
        signs = np.sign(res.delta)
        zero = np.zeros_like(s1)
        z = cg_finish(s1, s2, s1 - s2, lam, signs, zero, 1e-10)
        np.testing.assert_allclose(z, exact_finish(s1, s2, s1 - s2, lam, signs), atol=1e-9)
        i, j = np.argwhere(np.triu(signs) != 0)[0]
        signs[i, j] = signs[j, i] = -signs[i, j]
        assert cg_finish(s1, s2, s1 - s2, lam, signs, zero, 1e-10) is None

    def test_singular_pair_declines_cleanly(self, monkeypatch):
        # n = 3 < p = 6: every support the solve tries has a singular
        # Hessian, so each finish declines and the solve is the plain loop's
        pair = make_structure(StructureSpec("star", 6, seed=1))
        x1 = sample_gaussian(pair.theta1, 3, seed=101)
        x2 = sample_gaussian(pair.theta2, 3, seed=201)
        s1, s2 = mirror_lower(x1.T @ x1 / 3), mirror_lower(x2.T @ x2 / 3)
        lam = 0.3 * float(np.abs(s1 - s2).max())
        cfg = IstaConfig(max_iters=500)
        infos = []

        def spy(*args):
            chol, info = factor(*args)
            infos.append(info)
            return chol, info

        monkeypatch.setattr(ista, "dpotrf", spy)
        got = assert_pinned(s1, s2, lam, cfg)
        assert infos and all(info > 0 for info in infos)
        assert_same_result(got, plain_solve(monkeypatch, ista_solve, s1, s2, lam, cfg))

    @pytest.mark.filterwarnings("error")
    def test_singular_pair_above_the_cap_declines_cleanly(self, monkeypatch):
        # n = 3 < p = 12 at a small penalty: the supports the solve tries
        # exceed 64 entries and their Hessians are singular, so conjugate
        # gradients decline each one, with no warning, and the solve is the
        # plain loop's
        pair = make_structure(StructureSpec("star", 12, seed=1))
        x1 = sample_gaussian(pair.theta1, 3, seed=101)
        x2 = sample_gaussian(pair.theta2, 3, seed=201)
        s1, s2 = mirror_lower(x1.T @ x1 / 3), mirror_lower(x2.T @ x2 / 3)
        lam = 0.002 * float(np.abs(s1 - s2).max())
        cfg = IstaConfig(max_iters=500)
        tries = []

        def spy(*args):
            z = cg_finish(*args)
            tries.append((int(np.count_nonzero(np.triu(args[4]))), z))
            return z

        monkeypatch.setattr(ista, "_cg_finish", spy)
        got = assert_pinned(s1, s2, lam, cfg)
        assert tries and all(size > 64 and z is None for size, z in tries)
        assert_same_result(got, plain_solve(monkeypatch, ista_solve, s1, s2, lam, cfg))
