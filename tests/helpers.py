"""Shared independent oracles for the test suite.

Everything here recomputes expected values by routes disjoint from the
library code under test: tensor quadrature for the 2x2 posterior,
characteristic-polynomial root finding for eigenvalues, plain loops for
matrix norms, the trace formula for the D-trace loss, scipy's checked
Cholesky wrappers for the inverse of a positive-definite matrix, a Gibbs
column update that factorizes and inverts the Theta block instead of
reading the sampler's carried inverse, and Bartlett draws for the exact
Wishart partial-correlation mean.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_solve, cholesky, solve_triangular


def random_symmetric(p, rng, scale=1.0):
    a = rng.standard_normal((p, p)) * scale
    return np.tril(a) + np.tril(a, -1).T


def dtrace_loss(delta, s1, s2):
    """The D-trace loss ``0.5 tr(D' S1 D S2) - tr(D (S1 - S2))`` by its trace formula."""
    return 0.5 * float(np.trace(delta.T @ s1 @ delta @ s2)) - float(np.trace(delta @ (s1 - s2)))


def symmetric_fd_gradient(loss, delta, h=1e-6):
    """Central differences over symmetric perturbations of ``delta``."""
    p = delta.shape[0]
    g = np.zeros_like(delta)
    for i in range(p):
        for j in range(i, p):
            e = np.zeros_like(delta)
            if i == j:
                e[i, i] = 1.0
                scale = 2.0 * h
            else:
                e[i, j] = e[j, i] = 1.0
                scale = 4.0 * h
            g[i, j] = (loss(delta + h * e) - loss(delta - h * e)) / scale
            g[j, i] = g[i, j]
    return g


def l1_kkt_residual(delta, grad, lam):
    """Max violation of the subgradient optimality conditions."""
    nz = delta != 0
    res = 0.0
    if nz.any():
        res = np.abs(grad[nz] + lam * np.sign(delta[nz])).max()
    if (~nz).any():
        res = max(res, max(0.0, (np.abs(grad[~nz]) - lam).max()))
    return res


def random_pd(p, rng, jitter=None):
    a = rng.standard_normal((p, p))
    m = a @ a.T + (jitter if jitter is not None else p) * np.eye(p)
    return np.tril(m) + np.tril(m, -1).T


def reference_inverse(m):
    """Inverse of a positive-definite matrix through scipy's checked wrappers.

    ``cholesky`` and ``cho_solve`` against the identity make the same
    LAPACK ``potrf``/``potrs`` calls as ``linalg.invert_pd``, so the two
    agree bit for bit; the lower triangle is mirrored as
    ``tril(x) + tril(x, -1).T``.
    """
    inv = cho_solve((cholesky(m, lower=True), True), np.eye(m.shape[0]))
    return np.tril(inv) + np.tril(inv, -1).T


def reference_update_column(state, col, z, gamma):
    """Gibbs column update computed from Theta alone.

    Factorizes Theta11, inverts it against the identity and factorizes
    C^{-1}.  ``z`` (length p; entry ``col`` is ignored) and ``gamma`` are
    the column's draws, as :meth:`bayesdn.gibbs.ChainStack.draw` hands them to
    ``update_column``, so with the same draws the two agree to rounding.
    Reads and writes ``state.theta`` only.
    """
    p = state.theta.shape[0]
    rest = np.r_[0:col, col + 1 : p]
    theta11 = state.theta[np.ix_(rest, rest)]
    s12 = state.scatter[rest, col]
    s22 = state.scatter[col, col]
    lam_ii = state.lam[col, col]
    inv11 = cho_solve((cholesky(theta11, lower=True), True), np.eye(p - 1))
    c_inv = (s22 + lam_ii) * inv11 + np.diag(1.0 / state.tau[rest, col])
    lower_c = cholesky(c_inv, lower=True)
    mean = -cho_solve((lower_c, True), s12)
    beta = mean + solve_triangular(lower_c.T, z[rest], lower=False)
    state.theta[rest, col] = beta
    state.theta[col, rest] = beta
    state.theta[col, col] = gamma + beta @ inv11 @ beta
    return state


def bartlett_wishart(dof, scale, count, rng):
    """``count`` draws of W_p(dof, scale) by the Bartlett decomposition.

    Each draw is L A A^T L^T, with L the lower Cholesky factor of ``scale``
    and A lower triangular: standard normals below the diagonal and
    sqrt(chi2(dof - i)) on it.  Needs dof > p - 1.  Returns an array of
    shape ``(count, p, p)``.
    """
    p = scale.shape[0]
    a = np.zeros((count, p, p))
    tril = np.tril_indices(p, k=-1)
    a[:, tril[0], tril[1]] = rng.standard_normal((count, p * (p - 1) // 2))
    idx = np.arange(p)
    a[:, idx, idx] = np.sqrt(rng.chisquare(dof - idx, size=(count, p)))
    la = cholesky(scale, lower=True) @ a
    return la @ np.transpose(la, (0, 2, 1))


def charpoly_eigenvalues(m):
    """Eigenvalues as roots of the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier recursion, which uses
    only matrix products and traces, keeping the oracle independent of
    any eigensolver.
    """
    m = np.asarray(m, dtype=float)
    p = m.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(m)
    for k in range(1, p + 1):
        mk = m @ mk + coeffs[-1] * np.eye(p)
        coeffs.append(-np.trace(m @ mk) / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def _diagonal_grid(scatter, n, lam_diag, n_ab, lo_scale, hi_scale):
    """Gauss-Legendre grid over (t11, t22) around the likelihood mode.

    Returns the meshed nodes and the weights times the t12-free factor
    (t11*t22)^(n/2) * exp(-0.5*(s11*t11 + s22*t22) - 0.5*lam_diag*(t11 + t22)),
    scaled so its largest value is one.
    """
    s11, s22 = scatter[0, 0], scatter[1, 1]
    mode = n * np.linalg.inv(scatter)
    a_lo, a_hi = mode[0, 0] * lo_scale, mode[0, 0] * hi_scale
    b_lo, b_hi = mode[1, 1] * lo_scale, mode[1, 1] * hi_scale

    xa, wa = leggauss(n_ab)
    a = 0.5 * (a_hi - a_lo) * xa + 0.5 * (a_hi + a_lo)
    wa = wa * 0.5 * (a_hi - a_lo)
    b = 0.5 * (b_hi - b_lo) * xa + 0.5 * (b_hi + b_lo)
    wb = wa.copy() * (b_hi - b_lo) / (a_hi - a_lo)

    A, B = np.meshgrid(a, b, indexing="ij")
    WA, WB = np.meshgrid(wa, wb, indexing="ij")
    log_base = (
        0.5 * n * (np.log(A) + np.log(B))
        - 0.5 * (s11 * A + s22 * B)
        - 0.5 * lam_diag * (A + B)
    )
    log_base -= log_base.max()
    return A, B, np.exp(log_base) * WA * WB


def quad_posterior_mean_2x2(scatter, n, lam, n_ab=200, n_u=160, lo_scale=0.02, hi_scale=6.0):
    """Posterior means of (t11, t12, t22) for the 2x2 single-penalty model.

    Integrates
        (t11*t22 - t12^2)^(n/2) * exp(-0.5*tr(S T))
        * exp(-lam*|t12|) * exp(-0.5*lam*(t11 + t22))
    over the positive-definite cone by Gauss-Legendre quadrature with the
    substitution t12 = sqrt(t11*t22)*u, u in (-1, 1), split at the |t12|
    kink.  Returns the three posterior means.
    """
    s12 = scatter[0, 1]
    A, B, base = _diagonal_grid(scatter, n, lam, n_ab, lo_scale, hi_scale)
    sqab = np.sqrt(A * B)
    base = base * sqab

    xu, wu = leggauss(n_u // 2)
    u = np.concatenate([0.5 * xu - 0.5, 0.5 * xu + 0.5])
    wuu = np.concatenate([0.5 * wu, 0.5 * wu])

    z = ma = mb = mc = 0.0
    for uk, wk in zip(u, wuu):
        lw = 0.5 * n * np.log1p(-uk * uk) - s12 * sqab * uk - lam * sqab * abs(uk)
        f = base * np.exp(lw) * wk
        z += f.sum()
        ma += (f * A).sum()
        mb += (f * B).sum()
        mc += (f * sqab * uk).sum()
    return np.array([ma / z, mc / z, mb / z])


def quad_posterior_mean_2x2_adaptive(scatter, n, r, s, lam_diag=1.0, n_ab=200, n_y=200,
                                     lo_scale=0.02, hi_scale=6.0):
    """Posterior means of (t11, t12, t22) for the 2x2 adaptive-penalty model.

    Integrating the gamma(r, s) hyperprior out of the Laplace prior leaves
    the marginal off-diagonal prior r * s**r / (2 * (s + |t12|)**(r + 1)),
    a spike of width s at zero and a tail that decays only like
    |t12|**-(r + 1).  The integrand is
        (t11*t22 - t12^2)^(n/2) * exp(-0.5*tr(S T))
        * (s + |t12|)^(-(r + 1)) * exp(-0.5*lam_diag*(t11 + t22))
    over the positive-definite cone.  t11 and t22 use the same
    Gauss-Legendre grid as ``quad_posterior_mean_2x2``; each sign of t12 uses
    y = log(1 + |t12|/s), a log-spaced grid in |t12| that resolves the
    spike and turns the prior into the smooth weight exp(-r*y) dy.
    """
    s12 = scatter[0, 1]
    A, B, base = _diagonal_grid(scatter, n, lam_diag, n_ab, lo_scale, hi_scale)

    # |t12| = s*expm1(y) for y in (0, log1p(sqrt(t11*t22)/s)), per (t11, t22)
    half = 0.5 * np.log1p(np.sqrt(A * B) / s)
    xy, wy = leggauss(n_y)
    z = ma = mb = mc = 0.0
    for yk, wk in zip(xy, wy):
        y = half * (yk + 1.0)
        t = s * np.expm1(y)
        lw = 0.5 * n * np.log1p(-t * t / (A * B)) - r * y
        for sign in (1.0, -1.0):
            f = base * np.exp(lw - sign * s12 * t) * (wk * half)
            z += f.sum()
            ma += (f * A).sum()
            mb += (f * B).sum()
            mc += sign * (f * t).sum()
    return np.array([ma / z, mc / z, mb / z])
