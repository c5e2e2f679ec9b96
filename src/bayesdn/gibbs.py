"""Block Gibbs sampler for the adaptive graphical-lasso precision posterior.

The target is the posterior of a Gaussian precision matrix Theta under a
Laplace prior on off-diagonal entries and an exponential prior on diagonal
entries, written in its scale-mixture form with latent variances tau[i, j]
and, in the adaptive variant, per-entry penalties lam[i, j] carrying gamma
hyperpriors.  One sweep updates every column of Theta as a block (a gamma
draw for the Schur complement plus a Gaussian draw for the off-diagonal
vector) and then refreshes the latent scales and penalties.

The column update keeps Theta positive definite by construction: writing
theta22 = gamma + beta' Theta11^{-1} beta with gamma > 0 forces a positive
Schur complement, so positive definiteness of the trailing block is
inherited sweep after sweep.

Following Wang (2012), the state also carries Sigma = Theta^{-1}.  A column
update reads Theta11^{-1} = Sigma11 - sigma12 sigma12' / sigma22 from it in
O(p^2), factors the conditional precision once (one Cholesky per column),
draws the off-diagonal column with two triangular solves against that
factor, and refreshes Sigma in place with two BLAS rank-one updates from
the same block-inverse identity.  It does so at full width: the updated
row and column are zeroed and given a unit pivot, which decouples them, so
every step is a whole-array operation or a slice view and no (p-1)x(p-1)
block is gathered.  Each sweep draws its p x p normals in one call and its
p Schur-complement gammas in another (:func:`sweep_draws`), then hands
each column its share.  A sweep is p Cholesky factorizations of order
p - 1, so it costs O(p^4) flops; carrying Sigma saves the inversion of
the block per column, a constant factor.
Once per sweep :func:`chain_draws` re-derives Sigma from Theta with a
checked Cholesky inversion, which bounds the rounding drift and re-checks
that the whole of Theta is positive definite.

At the sizes the package runs (p <= 100) a sweep is bound by per-call
overhead more than by flops, so it makes no call the arithmetic does not
need; its outputs are those of the plain formulas bit for bit.  Once per
chain the state derives the column scales s_ii + lam_ii and the scatter
with a zero diagonal, and tau carries a unit diagonal, so row ``col`` of
1/tau already holds the decoupled row's pivot.  Every gamma is drawn as
``standard_gamma(k, size=m) * scale``: numpy computes
``Generator.gamma(k, scale)`` with an array ``scale`` as
``scale * standard_gamma(k)`` entry by entry, so this reads the same
numbers and gives the same bits without the per-entry broadcast path.
The hyperparameter update reads and writes the two triangles through
flat ``take``/``put`` indices cached once per chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dpotrf, dtrtrs

from .config import bound, check_fields
from .linalg import NotPositiveDefiniteError, invert_pd, partial_correlation, require_symmetric

# The BLAS and LAPACK wrappers below are called with positional arguments:
# f2py parses keywords on every call, which costs about a tenth of a column
# update at p = 10.  The argument orders are
#   dger(alpha, x, y, incx, incy, a, overwrite_x, overwrite_y, overwrite_a)
#   dpotrf(a, lower, clean, overwrite_a)
#   dtrtrs(a, b, lower, trans, unitdiag, lda, overwrite_b)

__all__ = [
    "GibbsConfig",
    "SamplerState",
    "ChainSummary",
    "spawn_seeds",
    "initial_state",
    "sweep_draws",
    "update_column",
    "update_hyperparameters",
    "chain_draws",
    "run_chain",
]


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler settings.

    ``burn_in`` sweeps are discarded, then ``retained`` sweeps are kept.
    ``r`` and ``s`` are the shape and rate of the gamma hyperprior on the
    off-diagonal penalties; ``lambda_diag`` is the fixed diagonal penalty.
    ``adapt_lambda=False`` freezes every off-diagonal penalty at
    ``lambda_init`` (single-penalty model), which is what the quadrature
    cross-checks integrate against.
    """

    burn_in: int = bound(5000, ge=0)
    retained: int = bound(10000, ge=1)
    r: float = bound(1e-2, gt=0)
    s: float = bound(1e-6, gt=0)
    lambda_diag: float = bound(1.0, gt=0)
    seed: int = bound(0, ge=0)
    theta_floor: float = bound(1e-12, gt=0)
    adapt_lambda: bool = True
    lambda_init: float = bound(1.0, gt=0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class SamplerState:
    """Mutable state of one chain: current Theta, its inverse, latents, and the data.

    ``sigma`` is Theta^{-1}, kept in step by :func:`update_column`.  The
    latent scales ``tau`` live off the diagonal; its diagonal holds 1, the
    unit pivot of the row a column update decouples.  ``col_scale``
    (s_ii + lam_ii per column) and ``scatter_off`` (the scatter with a
    zero diagonal, whose row ``col`` is s12 with its decoupled entry
    zeroed) are derived from the data and the fixed diagonal penalty when
    the state is made, once per chain.
    """

    theta: np.ndarray
    sigma: np.ndarray
    tau: np.ndarray
    lam: np.ndarray
    scatter: np.ndarray
    n: int
    config: GibbsConfig
    col_scale: np.ndarray = field(init=False, repr=False)
    scatter_off: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.col_scale = np.diagonal(self.scatter) + np.diagonal(self.lam)
        self.scatter_off = self.scatter.copy()
        np.fill_diagonal(self.scatter_off, 0.0)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class ChainSummary:
    """Posterior means over the retained draws of one chain.

    ``theta_mean`` averages Theta and ``partial_mean`` averages the
    partial correlation matrix of each draw (unit diagonal), or is None
    when the chain was run without it.
    """

    theta_mean: np.ndarray
    partial_mean: np.ndarray | None
    config: GibbsConfig


def spawn_seeds(entropy: int, count: int, key: tuple[int, ...] = ()) -> list[int]:
    """Derive ``count`` independent 63-bit seeds from ``entropy`` and ``key``.

    ``SeedSequence(entropy, spawn_key=key)`` hashes its inputs, so
    neighbouring entropies or keys give unrelated streams, unlike
    ``seed + k`` arithmetic.  The derivation is a pure function of its
    arguments.
    """
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=key)
    return [int(x >> 1) for x in ss.generate_state(count, np.uint64)]


def initial_state(scatter: np.ndarray, n: int, config: GibbsConfig) -> SamplerState:
    """Diffuse start: Theta = I, unit latent scales, unit penalties."""
    scatter = require_symmetric(scatter, "scatter")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not np.all(np.isfinite(scatter)):
        raise ValueError("scatter is not finite; rescale the data so x.T @ x does not overflow")
    p = scatter.shape[0]
    eigmin = float(np.linalg.eigvalsh(scatter)[0])
    if eigmin < -1e-8 * max(1.0, float(np.max(np.abs(scatter)))):
        raise ValueError(f"scatter is not positive semidefinite (min eigenvalue {eigmin:.3e})")
    tau = np.ones((p, p))
    lam = np.full((p, p), config.lambda_init)
    np.fill_diagonal(lam, config.lambda_diag)
    return SamplerState(
        theta=np.eye(p),
        sigma=np.eye(p),
        tau=tau,
        lam=lam,
        scatter=scatter,
        n=int(n),
        config=config,
    )


_TINY = np.finfo(float).tiny


class _SweepWorkspace:
    """Per-chain cache of the flat triangle indices the hyperparameter update reads and writes."""

    def __init__(self, p: int):
        rows, cols = np.triu_indices(p, k=1)
        self.upper = rows * p + cols
        self.lower = cols * p + rows


def sweep_draws(state: SamplerState, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The normals and Schur-complement gammas of one sweep, in that order.

    Row ``col`` of the ``(p, p)`` normals feeds column ``col``; its entry
    ``col`` is zeroed, leaving the p - 1 standard normals of the Gaussian
    draw in place.  Entry ``col`` of the gammas is that column's
    GA(n/2 + 1, rate (s_ii + lam_ii)/2) Schur complement.  The rate does
    not depend on Theta or on the off-diagonal penalties, so all p can be
    drawn before the sweep starts, as scaled standard gammas (see the
    module docstring).
    """
    p = state.dim
    z = rng.standard_normal((p, p))
    z.reshape(-1)[:: p + 1] = 0.0
    gamma = rng.standard_gamma(state.n / 2.0 + 1.0, size=p)
    gamma *= 2.0 / state.col_scale
    return z, gamma


def update_column(state: SamplerState, col: int, z: np.ndarray, gamma: float) -> SamplerState:
    """Resample row/column ``col`` of Theta from its conditional.

    With the column permuted last, the conditional factorizes as
    gamma ~ GA(n/2 + 1, (s22 + lam_ii)/2) for the Schur complement and
    beta ~ N(-C s21, C) for the off-diagonal block, where
    C = ((s22 + lam_ii) * Theta11^{-1} + Dtau^{-1})^{-1}.  ``z`` (length
    p, zero at ``col``) and ``gamma`` are this column's draws from
    :func:`sweep_draws`.  Theta11^{-1} is read from the carried Sigma, and
    Sigma is refreshed to the new Theta^{-1}.  The state is modified in
    place and returned; if a check raises, Theta and Sigma are untouched.

    Every array stays p x p: row and column ``col`` of C^{-1} are zeroed
    and given a unit pivot, so that row decouples and the factor and the
    solves need no gather of the (p-1)x(p-1) block.  The decoupled entry
    of beta comes out exactly zero.  beta is L^{-T}(z - L^{-1} s21), with
    L the Cholesky factor of C^{-1}: two triangular solves.  C^{-1} is a
    scaled copy of Sigma less one rank-one term, and Sigma is refreshed in
    place by the rank-one updates -w w' and +v v' (BLAS ``dger``); a unit
    coefficient on a vector with itself keeps Sigma exactly symmetric.
    """
    p = state.dim
    if not 0 <= col < p:
        raise IndexError(f"column {col} out of range for dimension {p}")
    sigma = state.sigma
    scale = float(state.col_scale[col])

    sigma22 = float(sigma[col, col])
    if not (sigma22 > 0.0 and math.isfinite(sigma22)):
        raise NotPositiveDefiniteError(
            f"Theta block excluding column {col} lost positive definiteness"
        )
    # Sigma, the scatter and tau are exactly symmetric, so their
    # contiguous rows stand in for the columns
    w = sigma[col] / math.sqrt(sigma22)

    # C^{-1} mixes the data scale with 1/tau entries that grow without
    # bound as an entry is shrunk to zero, so it is factored raw: the sum
    # of a PSD matrix and a positive diagonal cannot fail to be PD.  It is
    # built on a new array, so Sigma is untouched if the factor fails, and
    # LAPACK reads one triangle of it in Fortran order.
    c_inv = sigma * scale
    dger(-scale, w, w, 1, 1, c_inv.T, 0, 0, 1)
    c_inv[col] = 0.0
    c_inv[:, col] = 0.0
    c_diag = c_inv.reshape(-1)[:: p + 1]
    c_diag += 1.0 / state.tau[col]  # tau's unit diagonal is the pivot of the zeroed row
    lower_c, info = dpotrf(c_inv.T, 1, 0, 1)
    if info != 0:
        raise NotPositiveDefiniteError(
            f"conditional covariance for column {col} broke down"
        )
    y, _ = dtrtrs(lower_c, state.scatter_off[col], 1)  # solves on a copy of the row
    np.subtract(z, y, out=y)
    beta, _ = dtrtrs(lower_c, y, 1, 1, 0, None, 1)

    # u = Theta11^{-1} beta = Sigma beta - w (w' beta); beta[col] is zero
    u = sigma @ beta
    u -= float(w @ beta) * w
    theta = state.theta
    theta[:, col] = beta
    theta[col] = beta
    theta[col, col] = gamma + float(beta @ u)

    # block inverse of the new Theta: its Schur complement is gamma
    root = math.sqrt(gamma)
    v = u / root
    sigma_t = dger(-1.0, w, w, 1, 1, sigma.T, 0, 0, 1)
    sigma = state.sigma = dger(1.0, v, v, 1, 1, sigma_t, 0, 0, 1).T
    v /= -root
    sigma[:, col] = v
    sigma[col] = v
    sigma[col, col] = 1.0 / gamma
    return state


def update_hyperparameters(
    state: SamplerState,
    rng: np.random.Generator,
    _work: _SweepWorkspace | None = None,
) -> SamplerState:
    """Refresh the latent scales and (if adapting) the per-entry penalties.

    For each i < j, draws lam[i, j] ~ GA(1 + r, |theta[i, j]| + s) when
    ``adapt_lambda`` is on, then tau[i, j] = 1/delta with
    delta ~ InverseGaussian(lam[i, j]/|theta[i, j]|, lam[i, j]**2).
    |theta[i, j]| is floored at ``theta_floor`` so an exact zero cannot
    fault; the floor only caps the already-divergent mean.
    """
    cfg = state.config
    work = _work if _work is not None else _SweepWorkspace(state.dim)
    upper, lower = work.upper, work.lower
    abs_theta = np.abs(state.theta.take(upper))

    if cfg.adapt_lambda:
        # the same draws as rng.gamma(1 + r, 1 / (|theta| + s)); see the module docstring
        lam_off = rng.standard_gamma(1.0 + cfg.r, size=abs_theta.size)
        lam_off *= 1.0 / (abs_theta + cfg.s)
        state.lam.put(upper, lam_off)
        state.lam.put(lower, lam_off)
    else:
        lam_off = state.lam.take(upper)

    floored = np.maximum(abs_theta, cfg.theta_floor)
    mu = lam_off / floored
    delta = rng.wald(mu, lam_off**2)
    # the transformation method can underflow to 0 at extreme mu; keep tau finite
    np.maximum(delta, _TINY, out=delta)
    tau_off = 1.0 / delta
    state.tau.put(upper, tau_off)
    state.tau.put(lower, tau_off)
    return state


def chain_draws(scatter: np.ndarray, n: int, config: GibbsConfig) -> Iterator[np.ndarray]:
    """Run ``burn_in + retained`` full sweeps, yielding Theta after each retained one.

    A full sweep takes its draws from :func:`sweep_draws`, updates every
    column in order 0..p-1, re-derives Sigma from Theta (checking that
    Theta is positive definite) and then updates the hyperparameters, so
    the Generator is read for normals, gammas, then hyperparameters.  The
    yielded array is the live state, overwritten by the next sweep, so
    copy it to keep it.  Deterministic given ``config.seed``.
    """
    state = initial_state(scatter, n, config)
    rng = np.random.default_rng(config.seed)
    work = _SweepWorkspace(state.dim)
    for sweep in range(config.burn_in + config.retained):
        try:
            z, gamma = sweep_draws(state, rng)
            for col, (z_col, gamma_col) in enumerate(zip(z, gamma.tolist())):
                update_column(state, col, z_col, gamma_col)
            state.sigma = invert_pd(state.theta)
            update_hyperparameters(state, rng, _work=work)
        except NotPositiveDefiniteError as err:
            raise NotPositiveDefiniteError(
                f"sweep {sweep}: {err}", minor=err.minor
            ) from err
        if sweep >= config.burn_in:
            yield state.theta


def run_chain(
    scatter: np.ndarray, n: int, config: GibbsConfig, partials: bool = True
) -> ChainSummary:
    """Run one chain and average Theta over the retained draws.

    With ``partials`` the partial correlations of each draw are averaged
    too; without, ``partial_mean`` is None and the chain is the same.
    """
    theta_sum = np.zeros_like(scatter, dtype=float)
    partial_sum = np.zeros_like(scatter, dtype=float) if partials else None
    for theta in chain_draws(scatter, n, config):
        theta_sum += theta
        if partials:
            partial_sum += partial_correlation(theta)
    theta_sum /= config.retained
    if partials:
        partial_sum /= config.retained
    return ChainSummary(theta_mean=theta_sum, partial_mean=partial_sum, config=config)
