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

:func:`run_chains` is the one entry point that runs chains to their
posterior means; :func:`run_chain` and ``diffnet.estimate_bnet`` call it.
It has two routes to the same numbers.  The per-chain route steps one
chain at a time through :func:`chain_draws`.  The stacked route steps K
chains of one p together: the elementwise work of a column update, the
draws' scaling and the hyperparameter update run on ``(K, p, p)`` and
``(K, m)`` arrays, while ``dger``, ``dpotrf``, ``dtrtrs``, the Generator
calls and the checked resync stay per chain, in place on each chain's
slice of the stack.  The matrix-vector product and the two dot products
of a column update are ``np.matmul`` on stacks with trailing unit axes,
which numpy hands to the same BLAS ``gemv`` and ``ddot`` calls as the
per-chain ``@``; every other operation is the per-chain one entry by
entry.  Each chain reads its own Generator in the per-chain order
(normals, Schur gammas, penalty gammas, Wald draws), so every chain's
draws, and every output, equal those of the per-chain route bit for bit
(tests pin this, and that a chain's numbers do not depend on the stack
it runs in).  The stack saves per-call overhead only when it is tall
enough: the size rule (:func:`chain_batches`) stacks a run's chains of
one p and one config (seeds aside) when there are at least
``STACK_MIN_CHAINS`` of them, in stacks of at most ``STACK_MAX_CHAINS``.
The rule is applied to a run's whole list of chains; where a group is
tall enough it cuts it into a multiple of the number of worker processes,
so each worker gets a share of every p, and since both routes give the
same bits it changes only the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

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
    "ChainRequest",
    "spawn_seeds",
    "initial_state",
    "sweep_draws",
    "update_column",
    "update_hyperparameters",
    "chain_draws",
    "chain_batches",
    "run_chains",
    "run_chain",
]

# The size rule of run_chains (see chain_batches), read off the table of
# ``tools/sweep_timing.py --chains`` in the README: a stack of 2 loses at
# every p up to 100 and one of 4 gains at every p; past 40 chains no p
# gains more, and 240 chains of p = 100 lose (their arrays leave the cache).
STACK_MIN_CHAINS = 4
STACK_MAX_CHAINS = 40


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


@dataclass(frozen=True)
class ChainRequest:
    """One chain for :func:`run_chains`: its data, its settings (seed included) and its label.

    With ``partials`` the chain also averages the partial correlations of
    its draws (see :func:`run_chain`).  ``label`` names the chain in
    error messages; the harness passes its structure, p, replication and
    sample.
    """

    scatter: np.ndarray
    n: int
    config: GibbsConfig
    partials: bool = True
    label: str = ""

    @property
    def dim(self) -> int:
        return self.scatter.shape[0]


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


def _named(err: Exception, label: str) -> Exception:
    """``err`` with ``label`` in front of its message, of the same type."""
    if not label:
        return err
    if isinstance(err, NotPositiveDefiniteError):
        return NotPositiveDefiniteError(f"{label}: {err}", minor=err.minor)
    return type(err)(f"{label}: {err}")


def _chain_summary(request: ChainRequest) -> ChainSummary:
    """The per-chain route: fold the draws of :func:`chain_draws` into means."""
    cfg = request.config
    theta_sum = np.zeros_like(request.scatter, dtype=float)
    partial_sum = np.zeros_like(request.scatter, dtype=float) if request.partials else None
    try:
        for theta in chain_draws(request.scatter, request.n, cfg):
            theta_sum += theta
            if request.partials:
                partial_sum += partial_correlation(theta)
    except (NotPositiveDefiniteError, ValueError) as err:
        raise _named(err, request.label) from err
    theta_sum /= cfg.retained
    if request.partials:
        partial_sum /= cfg.retained
    return ChainSummary(theta_mean=theta_sum, partial_mean=partial_sum, config=cfg)


class _ChainFailure(Exception):
    """Chain ``chain`` of a stack failed a check with ``error``."""

    def __init__(self, chain: int, error: NotPositiveDefiniteError):
        super().__init__(chain, error)
        self.chain, self.error = chain, error


class _Stack:
    """K chains of one p and one config, seeds aside, stepped together.

    The arrays hold the chains' states along a leading axis.  Every chain's
    slice is C-contiguous, so its transpose is the Fortran-order view that
    ``dger`` and ``dpotrf`` update in place, and its rows of the (K, p)
    work arrays are the contiguous vectors ``dtrtrs`` solves in place, as
    on the per-chain route.  The per-chain views are made once per stack.
    """

    def __init__(self, requests: Sequence[ChainRequest]):
        states = []
        for req in requests:
            try:
                states.append(initial_state(req.scatter, req.n, req.config))
            except ValueError as err:
                raise _named(err, req.label) from err
        self.labels = [req.label for req in requests]
        self.config = requests[0].config
        self.rngs = [np.random.default_rng(req.config.seed) for req in requests]
        self.gamma_shapes = [s.n / 2.0 + 1.0 for s in states]
        k, p = len(states), states[0].dim
        self.k, self.p = k, p
        self.theta = np.stack([s.theta for s in states])
        self.sigma = np.stack([s.sigma for s in states])
        self.tau = np.stack([s.tau for s in states])
        self.lam = np.stack([s.lam for s in states])
        self.scatter_off = np.stack([s.scatter_off for s in states])
        self.col_scale = np.stack([s.col_scale for s in states])
        self.neg_scales = (-self.col_scale).T.tolist()  # [col][chain], Python floats
        self.c_inv = np.empty((k, p, p))
        self.z = np.empty((k, p, p))
        self.gamma = np.empty((k, p))
        self.w, self.y, self.v = np.empty((3, k, p))
        self.c_t = [m.T for m in self.c_inv]
        self.sigma_t = [m.T for m in self.sigma]
        self.w_rows, self.y_rows, self.v_rows = list(self.w), list(self.y), list(self.v)
        diagonal = slice(None, None, p + 1)
        self.theta_diag = self.theta.reshape(k, -1)[:, diagonal]
        self.sigma_diag = self.sigma.reshape(k, -1)[:, diagonal]
        self.c_diag = self.c_inv.reshape(k, -1)[:, diagonal]
        self.z_diag = self.z.reshape(k, -1)[:, diagonal]
        work = _SweepWorkspace(p)
        self.upper, self.lower = work.upper, work.lower

    def draw(self) -> None:
        """Each chain's normals and Schur gammas of one sweep, as :func:`sweep_draws`."""
        z, gamma = self.z, self.gamma
        for rng, z_k, gamma_k, shape in zip(self.rngs, z, gamma, self.gamma_shapes):
            rng.standard_normal(out=z_k)
            rng.standard_gamma(shape, out=gamma_k)
        self.z_diag[...] = 0.0
        gamma *= 2.0 / self.col_scale

    def update_column(self, col: int) -> None:
        """:func:`update_column` for every chain; see there for the algebra."""
        sigma, theta, c_inv, w, y, v = self.sigma, self.theta, self.c_inv, self.w, self.y, self.v
        sigma22 = sigma[:, col, col]
        if not (sigma22.min() > 0.0 and sigma22.max() < math.inf):
            bad = next(k for k, s in enumerate(sigma22.tolist()) if not 0.0 < s < math.inf)
            raise _ChainFailure(bad, NotPositiveDefiniteError(
                f"Theta block excluding column {col} lost positive definiteness"
            ))
        np.divide(sigma[:, col], np.sqrt(sigma22)[:, None], out=w)

        np.multiply(sigma, self.col_scale[:, col, None, None], out=c_inv)
        for c_t, w_k, neg_scale in zip(self.c_t, self.w_rows, self.neg_scales[col]):
            dger(neg_scale, w_k, w_k, 1, 1, c_t, 0, 0, 1)
        c_inv[:, col] = 0.0
        c_inv[:, :, col] = 0.0
        self.c_diag += 1.0 / self.tau[:, col]
        y[...] = self.scatter_off[:, col]
        lowers = []
        for k, (c_t, y_k) in enumerate(zip(self.c_t, self.y_rows)):
            lower_c, info = dpotrf(c_t, 1, 0, 1)
            if info != 0:
                raise _ChainFailure(k, NotPositiveDefiniteError(
                    f"conditional covariance for column {col} broke down"
                ))
            dtrtrs(lower_c, y_k, 1, 0, 0, None, 1)
            lowers.append(lower_c)
        np.subtract(self.z[:, col], y, out=y)
        for lower_c, y_k in zip(lowers, self.y_rows):
            dtrtrs(lower_c, y_k, 1, 1, 0, None, 1)
        beta = y

        u = np.matmul(sigma, beta[:, :, None])
        u2 = u[:, :, 0]
        u2 -= np.matmul(w[:, None, :], beta[:, :, None])[:, 0] * w
        theta[:, :, col] = beta
        theta[:, col] = beta
        gamma = self.gamma[:, col]
        self.theta_diag[:, col] = gamma + np.matmul(beta[:, None, :], u)[:, 0, 0]

        root = np.sqrt(gamma)[:, None]
        np.divide(u2, root, out=v)
        for sigma_t, w_k, v_k in zip(self.sigma_t, self.w_rows, self.v_rows):
            dger(-1.0, w_k, w_k, 1, 1, sigma_t, 0, 0, 1)
            dger(1.0, v_k, v_k, 1, 1, sigma_t, 0, 0, 1)
        v /= -root
        sigma[:, :, col] = v
        sigma[:, col] = v
        self.sigma_diag[:, col] = 1.0 / gamma

    def resync(self) -> None:
        """Re-derive each chain's Sigma from its Theta with the checked inversion."""
        for k, theta in enumerate(self.theta):
            try:
                self.sigma[k] = invert_pd(theta)
            except NotPositiveDefiniteError as err:
                raise _ChainFailure(k, err) from err

    def update_hyperparameters(self) -> None:
        """:func:`update_hyperparameters` for every chain, each reading its own Generator."""
        cfg, k = self.config, self.k
        upper, lower = self.upper, self.lower
        flat_lam = self.lam.reshape(k, -1)
        flat_tau = self.tau.reshape(k, -1)
        abs_theta = np.abs(self.theta.reshape(k, -1)[:, upper])
        if cfg.adapt_lambda:
            lam_off = np.empty(abs_theta.shape)
            for rng, lam_k in zip(self.rngs, lam_off):
                rng.standard_gamma(1.0 + cfg.r, out=lam_k)
            lam_off *= 1.0 / (abs_theta + cfg.s)
            flat_lam[:, upper] = lam_off
            flat_lam[:, lower] = lam_off
        else:
            lam_off = flat_lam[:, upper]
        floored = np.maximum(abs_theta, cfg.theta_floor)
        mu = lam_off / floored
        shape = lam_off**2
        delta = np.empty_like(mu)
        for rng, delta_k, mu_k, shape_k in zip(self.rngs, delta, mu, shape):
            delta_k[...] = rng.wald(mu_k, shape_k)
        np.maximum(delta, _TINY, out=delta)
        tau_off = 1.0 / delta
        flat_tau[:, upper] = tau_off
        flat_tau[:, lower] = tau_off


def _stack_summaries(requests: Sequence[ChainRequest]) -> list[ChainSummary]:
    """The stacked route: run chains of one p and one config (seeds aside) together."""
    stack = _Stack(requests)
    cfg, partials = stack.config, requests[0].partials
    theta_sum = np.zeros_like(stack.theta)
    partial_sum = np.zeros_like(stack.theta) if partials else None
    for sweep in range(cfg.burn_in + cfg.retained):
        try:
            stack.draw()
            for col in range(stack.p):
                stack.update_column(col)
            stack.resync()
            stack.update_hyperparameters()
        except _ChainFailure as failure:
            err = failure.error
            named = NotPositiveDefiniteError(f"sweep {sweep}: {err}", minor=err.minor)
            raise _named(named, stack.labels[failure.chain]) from err
        if sweep >= cfg.burn_in:
            theta_sum += stack.theta
            if partials:
                for acc, theta in zip(partial_sum, stack.theta):
                    acc += partial_correlation(theta)
    theta_sum /= cfg.retained
    if partials:
        partial_sum /= cfg.retained
    return [
        ChainSummary(
            theta_mean=theta_sum[k].copy(),
            partial_mean=partial_sum[k].copy() if partials else None,
            config=req.config,
        )
        for k, req in enumerate(requests)
    ]


def _groups(requests: Sequence[ChainRequest]) -> list[list[int]]:
    """The indices of requests that may share a stack.

    They share p, the config (seeds aside) and ``partials``.
    """
    groups: dict[tuple, list[int]] = {}
    for i, req in enumerate(requests):
        key = (req.dim, replace(req.config, seed=0), req.partials)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def chain_batches(requests: Sequence[ChainRequest], workers: int = 1) -> list[list[int]]:
    """The size rule: cut ``requests`` into batches of indices, each run as one unit.

    A group of chains that may share a stack is stacked when it holds at
    least ``STACK_MIN_CHAINS`` chains.  It is cut into stacks of
    ``STACK_MIN_CHAINS`` to ``STACK_MAX_CHAINS`` chains whose sizes differ
    by at most one; where the group is tall enough, the number of stacks
    is a multiple of ``workers``, so every worker of a pool gets its
    share.  Every other chain is a batch of its own.  The batches come
    largest first (chains x p^2 x sweeps), so a pool that hands them out
    one at a time keeps its workers busy to the end.
    """
    batches = []
    for members in _groups(requests):
        k = len(members)
        if k < STACK_MIN_CHAINS:
            batches.extend([i] for i in members)
            continue
        count = -(-k // STACK_MAX_CHAINS)
        count = min(-(-count // workers) * workers, k // STACK_MIN_CHAINS)
        batches.extend(part.tolist() for part in np.array_split(members, count))

    def cost(batch: list[int]) -> int:
        req = requests[batch[0]]
        return len(batch) * req.dim**2 * (req.config.burn_in + req.config.retained)

    return sorted(batches, key=cost, reverse=True)


def run_chains(
    requests: Sequence[ChainRequest], stacked: bool | None = None
) -> list[ChainSummary]:
    """Run every requested chain to its posterior means, in request order.

    By default the size rule (:func:`chain_batches`) picks each chain's
    route; ``stacked=True`` runs every group that may share a stack as one
    stack, whatever its size, and ``stacked=False`` runs every chain
    alone through :func:`chain_draws`.  Both routes give the same numbers
    bit for bit.  An error names the failing chain's label and, past the
    start, the sweep.  When more than one chain fails, it names the first
    failure found: a stack finds its failures in (sweep, column) order and
    the batches run one after another, so which chain is named can depend
    on how the chains were batched.
    """
    requests = list(requests)
    if stacked is None:
        batches = chain_batches(requests)
    else:
        batches = _groups(requests) if stacked else [[i] for i in range(len(requests))]
    out: list[ChainSummary | None] = [None] * len(requests)
    for batch in batches:
        members = [requests[i] for i in batch]
        if stacked or len(batch) > 1:
            summaries = _stack_summaries(members)
        else:
            summaries = [_chain_summary(members[0])]
        for i, summary in zip(batch, summaries):
            out[i] = summary
    return out


def run_chain(
    scatter: np.ndarray, n: int, config: GibbsConfig, partials: bool = True
) -> ChainSummary:
    """Run one chain and average Theta over the retained draws.

    With ``partials`` the partial correlations of each draw are averaged
    too; without, ``partial_mean`` is None and the chain is the same.
    """
    return run_chains([ChainRequest(scatter, n, config, partials)])[0]
