"""Frequentist comparator: L1-penalized D-trace difference estimation.

Minimizes ``0.5 * tr(D' S1 D S2) - tr(D (S1 - S2)) + lam * |D|_1`` over
symmetric matrices (the D-trace loss of Yuan et al. 2017, *Biometrika*
104(4)) on a grid of penalties, then picks the penalty by BIC.

:func:`solve_path` walks the grid from the largest penalty to the
smallest and starts each solve from the previous solution.
:func:`ista_solve` runs monotone FISTA (Beck & Teboulle 2009) with
adaptive restart (O'Donoghue & Candes 2015) at the fixed step
``1 / (eigmax(S1) * eigmax(S2))``: a step is accepted only if the
penalized objective does not rise, and the momentum restarts when a step
is rejected or points against the last accepted move.  The loss and the
gradient depend on ``D`` only through ``M = S1 D S2``, so an iteration
forms one such product; the gradient at the momentum point is the same
combination of the carried gradients as the point itself.  A solve has
converged when the L1 KKT residual of its accepted iterate, the largest
violation of the subgradient optimality conditions, is at most ``tol``.
Each accepted step first screens the one entry that was worst at the
last full KKT pass, and makes a full pass only when that entry is within
``tol``.  The screen and the in-place arithmetic of the iteration repeat
the operations of the plain loop on the same operands, so every result
is the same to the bit.

On each orthant the objective is a quadratic, so once the support and the
signs of the iterate are right its minimizer is one linear solve (the
lasso path is piecewise linear, Efron et al. 2004, *Ann. Stat.* 32(2)).
FISTA's tail to that point is slow on ill-conditioned pairs, so every
``FINISH_EVERY`` iterations a solve tries an exact finish (:func:`_finish`):
it solves the quadratic restricted to the iterate's support and signs, and
keeps the result only if it converges.  The finish forms the support, the
right-hand side, the sign check and the symmetric result once for either
solve: a support of at most ``FINISH_MAX_SUPPORT`` entries is solved with
one Cholesky factorization of its Hessian (:func:`support_hessian`); a
larger one by preconditioned conjugate gradients (Hestenes & Stiefel 1952,
*J. Res. NBS* 49(6)), whose product with the Hessian is one ``S1 D S2``
product, so no ``|A| x |A|`` array is formed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .config import bound, check_fields
from .linalg import mirror_lower, require_symmetric

log = logging.getLogger(__name__)

# The exact finish: every FINISH_EVERY iterations, a sign pattern that has
# held at consecutive checks is solved for exactly, each pattern at most
# once per solve.  A support of at most FINISH_MAX_SUPPORT nonzero entries
# on and above the diagonal is factorized once it held at two checks; the
# cap keeps the |A| x |A| system small next to the p x p iteration, and the
# memory of a path flat.  A larger support is solved by conjugate gradients
# once it held at CG_HOLD_CHECKS checks, within CG_MAX_PRODUCTS products
# with its Hessian, each the cost of one iteration; a pattern that held
# only twice there is still changing too often to repay the products.
FINISH_EVERY = 8
FINISH_MAX_SUPPORT = 64
CG_HOLD_CHECKS = 3
CG_MAX_PRODUCTS = 100

__all__ = [
    "IstaConfig",
    "ista_solve",
    "estimate_dnet",
]


@dataclass(frozen=True)
class IstaConfig:
    """Solver settings; ``penalty_grid=None`` defers to the data-driven default.

    ``tol`` bounds the L1 KKT residual at which a solve counts as
    converged, not the distance to the minimizer: on an ill-conditioned
    pair a FISTA iterate at residual 1e-6 can sit about 1e-3 relative from
    the minimizer in a loss.  A solve that the Cholesky finish ends lands
    on the minimizer over its support and signs to rounding; one that
    conjugate gradients end has a residual of at most ``tol / 4`` on its
    support; one whose sign pattern never settles, or whose finishes all
    decline, ends where FISTA stops.  ``max_iters`` caps the iterations of
    each penalty.
    """

    max_iters: int = bound(5000, ge=1)
    tol: float = bound(1e-6, gt=0)
    penalty_grid: tuple[float, ...] | None = bound(None, gt=0)

    def __post_init__(self):
        check_fields(self)
        if self.penalty_grid == ():
            raise ValueError("penalty_grid must be non-empty")


@dataclass(frozen=True)
class IstaResult:
    delta: np.ndarray
    objective: float
    loss: float
    iterations: int
    converged: bool
    # penalized objective at the start, then after every iteration and the
    # exact finish it may end with (the start's value plus the accepted
    # changes, so it never increases)
    objective_history: np.ndarray


@dataclass(frozen=True)
class SolutionPath:
    """Per-penalty solutions with their BIC scores and the selected index."""

    lambdas: np.ndarray
    results: list[IstaResult]
    bics: np.ndarray
    selected: int

    @property
    def selected_delta(self) -> np.ndarray:
        return self.results[self.selected].delta


def dnet_gradient(delta: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Gradient over symmetric matrices: ``0.5 (S1 D S2 + S2 D S1) - (S1 - S2)``."""
    if delta.shape != s1.shape or s1.shape != s2.shape:
        raise ValueError("dimension mismatch")
    m = s1 @ delta @ s2
    return 0.5 * (m + m.T) - (s1 - s2)


def _kkt_violation(delta, grad, lam):
    """Each entry's violation of ``0 in grad + lam * d|delta|_1``."""
    return np.where(delta != 0, np.abs(grad + lam * np.sign(delta)), np.abs(grad) - lam)


def _kkt_residual(delta, grad, lam):
    """Largest violation of ``0 in grad + lam * d|delta|_1``, entrywise."""
    return max(float(_kkt_violation(delta, grad, lam).max()), 0.0)


def _entry_violation(d: float, g: float, lam: float) -> float:
    """One entry of :func:`_kkt_violation`, in Python floats, bit for bit.

    ``lam * sign(d)`` is ``lam`` or ``-lam`` exactly, and adding ``-lam``
    is subtracting ``lam``, so these are the vectorized IEEE operations.
    """
    if d != 0:
        return abs(g + lam) if d > 0 else abs(g - lam)
    return abs(g) - lam


def _kkt_within(delta, grad, lam, tol, worst):
    """``_kkt_residual(delta, grad, lam) <= tol``, and the index to screen next.

    The flat entry ``worst`` is screened first: the residual is a maximum,
    so if that entry's violation exceeds ``tol`` the answer is no, and
    ``worst`` is kept.  Otherwise the full pass decides and returns the
    index of its largest violation.  ``tol`` is positive, so the residual's
    floor at 0 cannot change the answer.
    """
    if _entry_violation(delta.item(worst), grad.item(worst), lam) > tol:
        return False, worst
    viol = _kkt_violation(delta, grad, lam)
    worst = int(viol.argmax())
    return viol.item(worst) <= tol, worst


def support_hessian(
    s1: np.ndarray, s2: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Hessian of the D-trace loss in the entries ``(rows[a], cols[a])``, rows <= cols.

    Each coordinate sets the entries ``(i, j)`` and ``(j, i)`` of a
    symmetric matrix, so this is ``T' H T`` for ``H = 0.5 (S2 x S1 +
    S1 x S2)`` (Kronecker products on column-stacked matrices) and ``T``
    the map from the coordinates to the matrix.  Entry ``(a, b)`` for
    ``a = (i, j)``, ``b = (k, l)`` is ``h_a h_b (S1_ik S2_jl + S1_jl S2_ik +
    S1_il S2_jk + S1_jk S2_il)`` with ``h = 1/2`` on the diagonal and 1 off
    it; the result is exactly symmetric.
    """
    ii, jj = np.ix_(rows, rows), np.ix_(cols, cols)
    ij, ji = np.ix_(rows, cols), np.ix_(cols, rows)
    hess = (s1[ii] * s2[jj] + s1[jj] * s2[ii]) + (s1[ij] * s2[ji] + s1[ji] * s2[ij])
    half = np.where(rows == cols, 0.5, 1.0)
    hess *= half[:, None]
    hess *= half
    return hess


def _finish(s1, s2, c, lam, signs, start, tol):
    """The stationary point of the objective on the support of ``signs``
    with those signs, or None if the solve declines or a sign differs.

    On that support the objective is the quadratic ``0.5 d' H d - <w (c - lam
    s), d>`` in the entries ``d`` on and above the diagonal (``H`` from
    :func:`support_hessian`, ``w`` 1 on the diagonal and 2 off it, as an
    entry off it is counted twice), so its minimizer solves ``H d = w (c -
    lam s)``.  A support of at most ``FINISH_MAX_SUPPORT`` entries is solved
    by one Cholesky factorization of ``H``, which declines if ``H`` is not
    positive definite; a larger one by :func:`_cg_solve` from the values of
    ``start`` on the support.
    """
    rows, cols = np.nonzero(np.triu(signs))
    s = signs[rows, cols]
    w = np.where(rows == cols, 1.0, 2.0)
    rhs = w * (c[rows, cols] - lam * s)
    if rows.size <= FINISH_MAX_SUPPORT:
        chol, info = dpotrf(support_hessian(s1, s2, rows, cols), 1, 0)
        if info == 0:
            d, info = dpotrs(chol, rhs, 1)
        if info != 0:
            return None
    else:
        d = _cg_solve(s1, s2, rows, cols, w, rhs, start[rows, cols], tol)
    if d is None or not np.array_equal(np.sign(d), s):
        return None
    z = np.zeros_like(s1)
    z[rows, cols] = d
    z[cols, rows] = d
    return z


def _support_operator(s1, s2, rows, cols, w):
    """The Hessian of :func:`support_hessian` as a product, and its diagonal.

    ``product(v)`` is ``H v`` without forming ``H``: with ``D`` the
    symmetric matrix that holds ``v`` in the entries ``(rows[a], cols[a])``
    and ``(cols[a], rows[a])`` and ``M = S1 D S2``, ``(H v)_a = w_a * 0.5
    (M_ij + M_ji)``, ``w`` 1 on the diagonal and 2 off it; a product costs
    about one FISTA iteration.  The diagonal is ``(w_a / 2)^2 (S1_ii S2_jj +
    S1_jj S2_ii + 2 S1_ij S2_ij)``.
    """
    p = s1.shape[0]
    upper, lower = rows * p + cols, cols * p + rows
    d = np.zeros_like(s1)
    flat = d.reshape(-1)

    def product(v):
        flat[upper] = v
        flat[lower] = v
        m = s1 @ d @ s2
        return w * (0.5 * (m.take(upper) + m.take(lower)))

    d1, d2 = s1.diagonal(), s2.diagonal()
    cross = d1[rows] * d2[cols] + d1[cols] * d2[rows]
    diagonal = (0.25 * w * w) * (cross + 2.0 * s1.take(upper) * s2.take(upper))
    return product, diagonal


def _cg_solve(s1, s2, rows, cols, w, rhs, d, tol):
    """Solve ``H d = rhs`` on the support ``(rows, cols)`` by preconditioned
    conjugate gradients from ``d``, or return None.

    ``H`` is never formed (:func:`_support_operator`), and its diagonal is
    the preconditioner.  The residual divided by ``w`` is the support's KKT
    violation, so the solve stops once its largest entry is at most ``tol /
    4``.  It declines after ``CG_MAX_PRODUCTS`` products, or on a curvature
    that is not positive and finite (a singular Hessian).
    """
    product, diagonal = _support_operator(s1, s2, rows, cols, w)
    r = rhs - product(d)
    z = r / diagonal
    direction, rz = z, float(r @ z)
    products = 1
    while float(np.abs(r / w).max()) > 0.25 * tol:
        if products == CG_MAX_PRODUCTS:
            return None
        q = product(direction)
        products += 1
        curvature = float(direction @ q)
        if not 0 < curvature < np.inf:
            return None
        alpha = rz / curvature
        d = d + alpha * direction
        r = r - alpha * q
        z = r / diagonal
        rz, rz_prev = float(r @ z), rz
        direction = z + (rz / rz_prev) * direction
    return d


def ista_solve(
    s1: np.ndarray,
    s2: np.ndarray,
    lam: float,
    cfg: IstaConfig = IstaConfig(),
    start: np.ndarray | None = None,
) -> IstaResult:
    """Monotone FISTA with adaptive restart from ``start`` (default the origin).

    The step is ``1/L``; ``L = eigmax(S1) * eigmax(S2)`` bounds the
    gradient's Lipschitz constant.  A step is kept only if the penalized
    objective does not rise, so ``objective_history`` never increases.  A
    rejected step restarts the momentum, and so does an accepted one that
    moves against the momentum (the gradient test of O'Donoghue & Candes).
    A step that is rejected or does not move counts as a stall; a stall at
    a point without momentum cannot be improved on, so the solve stops
    there.  The solve converges once the L1 KKT residual of the accepted
    iterate is at most ``cfg.tol``; a result with ``converged=False``
    carries the last accepted iterate.

    After every ``FINISH_EVERY``-th iteration that leaves the solve
    unconverged, the exact finish (:func:`_finish`) is tried if the
    iterate's sign pattern has not been tried in this solve and was seen
    at consecutive such checks, the start counting as one: at two checks
    for 1 to ``FINISH_MAX_SUPPORT`` nonzero entries on and above the
    diagonal, which the finish solves by a Cholesky factorization, and at
    ``CG_HOLD_CHECKS`` for more, which it solves by conjugate gradients
    from the iterate.  Its result is accepted as the converged solution
    only if the solve succeeds (the factorization, or conjugate gradients
    within ``CG_MAX_PRODUCTS`` products at positive curvature), every sign
    matches, the full KKT residual is at most ``cfg.tol`` and the objective
    does not rise; otherwise the iteration goes on as before.  The finish
    counts as no iteration: an accepted one lowers the entry of the
    iteration it follows.  So ``objective_history`` holds the start's
    objective and one entry per counted iteration and never increases, and
    ``iterations <= cfg.max_iters``.

    The residual is checked by screening first: the violation of the entry
    that was largest at the last full pass, computed in Python floats by
    the same IEEE operations, rules out convergence when it exceeds
    ``cfg.tol``, and only otherwise is the full residual formed.  The steps
    are formed in work arrays, each operation on its usual operands, so the
    result is bit for bit that of one new array per operation.  ``start``
    is never written, nor is any array a result returns.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    s1 = require_symmetric(s1, "s1")
    s2 = require_symmetric(s2, "s2")
    if s1.shape != s2.shape:
        raise ValueError("dimension mismatch")
    if start is not None:
        start = require_symmetric(start, "start")
        if start.shape != s1.shape:
            raise ValueError("start must match the sample matrices")
    lipschitz = float(np.linalg.eigvalsh(s1)[-1] * np.linalg.eigvalsh(s2)[-1])
    if lipschitz <= 0:
        raise ValueError("sample matrices must have positive largest eigenvalues")
    step = 1.0 / lipschitz
    thr = lam * step
    c = s1 - s2
    # x is the accepted iterate, g its gradient sym(S1 x S2) - c; the loop
    # forms each trial point's gradient by dnet_gradient's operations, in
    # place.  The loss 0.5 tr(x S1 x S2) - tr(x c) is 0.5 <x, g - c>.
    x = np.zeros_like(s1) if start is None else start
    g = dnet_gradient(x, s1, s2)
    abs_x = np.abs(x)
    history = [0.5 * float(np.vdot(x, g - c)) + lam * float(abs_x.sum())]
    converged, worst = _kkt_within(x, g, lam, cfg.tol, 0)
    # y is the momentum point, gy its gradient; momentum is FISTA's t_k
    y, gy, momentum = x, g, 1.0
    # Work arrays, written in place.  Each trial point z is a new array, so
    # start, x, x_prev and a returned delta are never written; z_grad and
    # abs_z trade buffers with the accepted g and abs_x.
    w, clip, sz, m, move, tmp, y_buf, gy_buf, z_grad, abs_z = (
        np.empty_like(s1) for _ in range(10)
    )
    # the sign pattern at the last check of the exact finish, the number of
    # consecutive checks (the start counting as one) that saw it, and the
    # patterns already tried
    signs, held, tried = np.sign(x), 1, set()
    it = 0
    while not converged and it < cfg.max_iters:
        it += 1
        # z = w - clip(w, -thr, thr) for w = y - step * gy: exactly
        # sign(w) * max(|w| - thr, 0), the L1 prox step
        np.multiply(gy, step, out=w)
        np.subtract(y, w, out=w)
        np.maximum(w, -thr, out=clip)
        np.minimum(clip, thr, out=clip)
        z = w - clip
        np.matmul(s1, z, out=sz)
        np.matmul(sz, s2, out=m)
        np.add(m, m.T, out=z_grad)
        z_grad *= 0.5
        z_grad -= c
        np.subtract(z, x, out=move)
        np.abs(z, out=abs_z)
        # the objective's change, exact for a quadratic loss and summed
        # from small terms, so it keeps its sign near the optimum
        np.add(z_grad, g, out=tmp)
        change = 0.5 * float(np.vdot(move, tmp))
        np.subtract(abs_z, abs_x, out=tmp)
        change += lam * float(np.add.reduce(tmp, None))
        if change <= 0 and np.count_nonzero(move):
            np.subtract(y, z, out=tmp)
            restart = float(np.vdot(tmp, move)) > 0
            x_prev, g_prev = x, g
            x, g, abs_x, z_grad, abs_z = z, z_grad, abs_z, g, abs_x
            converged, worst = _kkt_within(x, g, lam, cfg.tol, worst)
            if restart:
                y, gy, momentum = x, g, 1.0
            else:
                nxt = 0.5 * (1.0 + (1.0 + 4.0 * momentum * momentum) ** 0.5)
                beta = (momentum - 1.0) / nxt
                momentum = nxt
                # y = x + beta * (x - x_prev), gy likewise from g and g_prev
                y = np.subtract(x, x_prev, out=y_buf)
                y *= beta
                np.add(x, y, out=y)
                gy = np.subtract(g, g_prev, out=gy_buf)
                gy *= beta
                np.add(g, gy, out=gy)
            history.append(history[-1] + change)
        else:
            history.append(history[-1])
            if y is x:
                break  # a plain step from x stalled: nothing left to gain
            y, gy, momentum = x, g, 1.0
        if converged or it % FINISH_EVERY:
            continue
        last, signs = signs, np.sign(x)
        held = held + 1 if np.array_equal(signs, last) else 1
        size = (np.count_nonzero(x) + np.count_nonzero(x.diagonal())) // 2
        dense = size <= FINISH_MAX_SUPPORT
        # held grows by one per check, so a pattern is looked up once per run
        if size == 0 or held != (2 if dense else CG_HOLD_CHECKS):
            continue
        key = signs.tobytes()
        if key in tried:
            continue
        tried.add(key)
        exact = _finish(s1, s2, c, lam, signs, x, cfg.tol)
        if exact is None:
            continue
        exact_grad = dnet_gradient(exact, s1, s2)
        abs_exact = np.abs(exact)
        change = 0.5 * float(np.vdot(exact - x, exact_grad + g))
        change += lam * float((abs_exact - abs_x).sum())
        if change <= 0 and _kkt_residual(exact, exact_grad, lam) <= cfg.tol:
            # the finish belongs to the iteration it follows
            x, g, abs_x, converged = exact, exact_grad, abs_exact, True
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


def default_penalty_grid(s1: np.ndarray, s2: np.ndarray, size: int = 20) -> np.ndarray:
    """20 log-spaced penalties spanning [0.01, 1] times max |S1 - S2|."""
    scale = float(np.max(np.abs(s1 - s2)))
    if scale <= 0:
        scale = 1.0
    return scale * np.logspace(-2, 0, size)


def solve_path(
    s1: np.ndarray, s2: np.ndarray, n1: int, n2: int, cfg: IstaConfig = IstaConfig()
) -> SolutionPath:
    """Solve over the penalty grid and select by BIC.

    The penalties are solved from the largest to the smallest, each
    starting from the solution of the one before; ``results`` keeps grid
    order.  Every penalty that ends unconverged is logged as a warning.
    """
    if cfg.penalty_grid is None:
        grid = default_penalty_grid(s1, s2)
    else:
        grid = np.asarray(cfg.penalty_grid, dtype=float)
    results = [None] * len(grid)
    start = None
    for k in np.argsort(-grid, kind="stable"):
        lam = float(grid[k])
        res = ista_solve(s1, s2, lam, cfg, start)
        if not res.converged:
            kkt = _kkt_residual(res.delta, dnet_gradient(res.delta, s1, s2), lam)
            log.warning(
                "ISTA penalty %.6g stopped unconverged after %d iterations "
                "(KKT residual %.3g > tol %.3g)",
                lam, res.iterations, kkt, cfg.tol,
            )
        results[k] = res
        start = res.delta
    return bic_select(grid, results, n1, n2)


def bic_select(
    lambdas: np.ndarray, results: list[IstaResult], n1: int, n2: int
) -> SolutionPath:
    """Score each solution by ``n L + log(n) df`` and pick the minimizer.

    ``n = n1 + n2``, ``df`` counts nonzero entries on and above the
    diagonal; ties go to the larger penalty, whatever the grid order.
    """
    if len(results) == 0:
        raise ValueError("empty solution path")
    lambdas = np.asarray(lambdas, dtype=float)
    n = n1 + n2
    bics = np.empty(len(results))
    for k, res in enumerate(results):
        df = int(np.count_nonzero(np.triu(res.delta)))
        bics[k] = n * res.loss + np.log(n) * df
    selected = min(range(len(results)), key=lambda k: (bics[k], -lambdas[k]))
    return SolutionPath(
        lambdas=lambdas,
        results=results,
        bics=bics,
        selected=selected,
    )


def estimate_dnet(
    x1: np.ndarray, x2: np.ndarray, cfg: IstaConfig = IstaConfig()
) -> tuple[np.ndarray, np.ndarray, SolutionPath]:
    """Fit the comparator from raw samples.

    Uses ``S_k = X_k' X_k / n_k`` and returns the selected difference
    estimate, its support as an adjacency matrix, and the full path.
    """
    if x1.shape[1] != x2.shape[1]:
        raise ValueError("samples must share the number of columns")
    s1 = mirror_lower(x1.T @ x1 / x1.shape[0])
    s2 = mirror_lower(x2.T @ x2 / x2.shape[0])
    path = solve_path(s1, s2, x1.shape[0], x2.shape[0], cfg)
    delta = path.selected_delta
    adjacency = np.abs(delta) > 0
    np.fill_diagonal(adjacency, False)
    return delta, adjacency, path
