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
p Schur-complement gammas in another (:meth:`ChainStack.draw`), then hands
each column its share.  A sweep is p Cholesky factorizations of order
p - 1, so it costs O(p^4) flops; carrying Sigma saves the inversion of
the block per column, a constant factor.  Once per sweep the state
re-derives Sigma from Theta with a checked Cholesky inversion, which
bounds the rounding drift and re-checks that the whole of Theta is
positive definite.

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
flat ``take``/``put`` indices cached once per state.

What a sweep makes, and how often:

- once per stack (:class:`ChainStack`): the stacked arrays and each
  chain's views of them, the flat triangle indices, the work array each
  state builds and factors C^{-1} in, and, for K > 1, the stacked
  kernel's per-column slice views and the ``out=`` buffers of its three
  ``matmul`` calls;
- once per sweep: each chain's normals and Schur gammas, and, for K > 1,
  1/tau, sqrt(gamma) and 1/gamma (tau and gamma do not change within a
  sweep); after the columns, one stacked checked inversion
  (:func:`~bayesdn.linalg.invert_pd_stack`: one symmetry check, one
  diagonal maximum and one mirror for the whole stack, ``dpotrf`` and
  ``dpotrs`` per chain) and the hyperparameter update;
- per column: for a lone chain, the vectors w, y (beta is solved in
  place in it), u, (w'beta) w and v, and 1/tau of the column's row,
  which :func:`update_column` takes on each call because callers may
  write ``state.tau`` between calls; for a stack, only the list of the
  chains' factors.

There is one sweep driver, over a :class:`ChainStack`: K chains of one p
and one config, each with its own seed, whose arrays lie along a leading
axis, a lone chain being a stack of one.  The draws, the checked resync,
the hyperparameter update, the sweep loop, the fold into posterior means
(one ``partial_correlation`` call per retained draw, on the whole stack)
and the naming of a failing chain exist once, for any K.  Only the column
update has two kernels, chosen by the height of the stack.  A lone chain
runs :func:`update_column` on its chain's views.  A taller stack runs one
kernel for all its chains: the elementwise work on ``(K, p, p)`` and
``(K, p)`` arrays, the matrix-vector product and the two dot products as
``np.matmul`` on stacks with trailing unit axes (which numpy hands to the
same BLAS ``gemv`` and ``ddot`` calls as the lone kernel's ``dot``), and
``dger``, ``dpotrf`` and ``dtrtrs`` per chain, in place on each chain's
slice.  Each chain reads its own Generator in the per-chain order
(normals, Schur gammas, penalty gammas, Wald draws), so a chain's draws,
and every output, do not depend on the stack it runs in (tests pin this
bit for bit).  A stack saves per-call overhead only when it is tall
enough: the size rule (:func:`chain_batches`) stacks a run's chains of
one p and one config when there are at least ``STACK_MIN_CHAINS`` of
them, in stacks of at most ``STACK_MAX_CHAINS``, and runs every other
chain alone.  :func:`run_chains` runs each batch through
:func:`run_batch`; since both kernels give the same bits, the batching
changes only the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dpotrf, dtrtrs

from .config import bound, check_fields
from .linalg import (
    NotPositiveDefiniteError,
    invert_pd_stack,
    partial_correlation,
    require_symmetric,
    upper_indices,
)

# The BLAS and LAPACK wrappers below are called with positional arguments:
# f2py parses keywords on every call, which costs about a tenth of a column
# update at p = 10.  The argument orders are
#   dger(alpha, x, y, incx, incy, a, overwrite_x, overwrite_y, overwrite_a)
#   dpotrf(a, lower, clean, overwrite_a)
#   dtrtrs(a, b, lower, trans, unitdiag, lda, overwrite_b)

__all__ = [
    "GibbsConfig",
    "ChainRequest",
    "spawn_seeds",
    "update_column",
    "update_hyperparameters",
    "chain_draws",
    "run_batch",
    "run_chains",
]

# The size rule of run_chains (see chain_batches), read off the table of
# ``tools/sweep_timing.py --chains`` in the README: a stack of 2 loses at
# every p up to 100 and one of 4 gains at every p; past 40 chains no p
# gains more, and 240 chains of p = 100 lose (their arrays leave the cache).
STACK_MIN_CHAINS = 4
STACK_MAX_CHAINS = 40


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler settings; a chain's seed travels beside them (:class:`ChainRequest`).

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
    theta_floor: float = bound(1e-12, gt=0)
    adapt_lambda: bool = True
    lambda_init: float = bound(1.0, gt=0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class SamplerState:
    """Mutable state of one chain: current Theta, its inverse, latents, and the data.

    ``sigma`` is Theta^{-1}, refreshed in place by :func:`update_column`,
    so it must stay C-contiguous.  The latent scales ``tau`` live off the
    diagonal; its diagonal holds 1, the unit pivot of the row a column
    update decouples.  ``col_scale`` (s_ii + lam_ii per column) and
    ``scatter_off`` (the scatter with a zero diagonal, whose row ``col`` is
    s12 with its decoupled entry zeroed) are derived from the data and the
    fixed diagonal penalty when the state is made, once per chain, and so
    is ``c_inv``, the work array the column update builds and factors the
    conditional precision in.  In a :class:`ChainStack` the arrays are
    views of the stack's.
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
    c_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.col_scale = np.diagonal(self.scatter) + np.diagonal(self.lam)
        self.scatter_off = self.scatter.copy()
        np.fill_diagonal(self.scatter_off, 0.0)
        self.c_inv = np.empty_like(self.scatter)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class ChainSummary:
    """Posterior means over the retained draws of one chain.

    ``theta_mean`` averages Theta and ``partial_mean`` averages the
    partial correlation matrix of each draw (unit diagonal).
    """

    theta_mean: np.ndarray
    partial_mean: np.ndarray


@dataclass(frozen=True)
class ChainRequest:
    """One chain for :func:`run_chains`: its data, its settings, its seed and its label.

    ``label`` names the chain in error messages; the harness passes its
    structure, p, replication and sample.
    """

    scatter: np.ndarray
    n: int
    config: GibbsConfig
    seed: int
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
# the arrays of a chain that a ChainStack holds along its leading axis
_STACKED = ("theta", "sigma", "tau", "lam", "scatter_off", "col_scale", "c_inv")


class _ChainFailure(Exception):
    """Chain ``chain`` of a stack failed with ``error``."""

    def __init__(self, chain: int, error: Exception):
        super().__init__(chain, error)
        self.chain, self.error = chain, error


class ChainStack:
    """K chains of one p and one config, any seeds, stepped together; a lone chain is K = 1.

    ``states`` are the chains' starting states (see :func:`initial_state`),
    ``rngs`` their Generators and ``labels`` how errors name them.  The
    stack copies each state's arrays along a leading axis and makes the
    state's arrays views of its slice, so :func:`update_column` on a state
    steps that chain in the stack.  Every slice is C-contiguous, so its
    transpose is the Fortran-order view that ``dger`` and ``dpotrf``
    update in place, and its rows of the (K, p) work arrays are the
    contiguous vectors ``dtrtrs`` solves in place.  The per-chain views,
    the flat triangle indices and, for K > 1, the stacked kernel's
    per-column views and work arrays are made once per stack.
    """

    def __init__(
        self,
        states: Sequence[SamplerState],
        rngs: Sequence[np.random.Generator],
        labels: Sequence[str] = (),
    ):
        k, p = len(states), states[0].dim
        self.k, self.p = k, p
        self.states = list(states)
        self.rngs = list(rngs)
        self.labels = list(labels) or [""] * k
        self.config = states[0].config
        self.gamma_shapes = [s.n / 2.0 + 1.0 for s in states]
        for name in _STACKED:
            stack = np.stack([getattr(s, name) for s in states])
            setattr(self, name, stack)
            for s, view in zip(states, stack):
                setattr(s, name, view)
        self.z = np.empty((k, p, p))
        self.gamma = np.empty((k, p))
        diagonal = slice(None, None, p + 1)
        self.z_diag = self.z.reshape(k, -1)[:, diagonal]
        rows, cols = upper_indices(p)
        offsets = np.arange(k)[:, None] * (p * p)
        self.upper = offsets + (rows * p + cols)
        self.lower = offsets + (cols * p + rows)
        if k > 1:
            self._stacked_views()

    def _stacked_views(self) -> None:
        """The work arrays of the stacked kernel and their views, per chain and per column."""
        k, p = self.k, self.p
        self.inv_tau = np.empty((k, p, p))
        self.root, self.neg_root, self.inv_gamma = np.empty((3, k, p))
        self.w, self.y, self.v, self.wb_w = np.empty((4, k, p))
        self.u = np.empty((k, p, 1))
        self.wb, self.bu = np.empty((2, k, 1, 1))
        self.sigma22_root = np.empty((k, 1))
        self.c_t = [m.T for m in self.c_inv]
        self.sigma_t = [m.T for m in self.sigma]
        self.w_rows, self.y_rows, self.v_rows = list(self.w), list(self.y), list(self.v)
        neg_scales = (-self.col_scale).T.tolist()  # [col][chain], Python floats
        # the operands of the three matrix products, as stacks with unit axes
        self.w_left, self.y_left = self.w[:, None, :], self.y[:, None, :]
        self.y_right = self.y[:, :, None]
        self.u_flat, self.wb_flat, self.bu_flat = self.u[:, :, 0], self.wb[:, 0], self.bu[:, 0, 0]
        self.sigma22_root_flat = self.sigma22_root[:, 0]
        diagonal = slice(None, None, p + 1)
        theta_diag = self.theta.reshape(k, -1)[:, diagonal]
        sigma_diag = self.sigma.reshape(k, -1)[:, diagonal]
        self.c_diag = self.c_inv.reshape(k, -1)[:, diagonal]
        self.columns = [
            _ColumnViews(
                sigma_row=self.sigma[:, col],
                sigma_col=self.sigma[:, :, col],
                sigma_diag=sigma_diag[:, col],
                scale=self.col_scale[:, col, None, None],
                neg_scales=neg_scales[col],
                c_row=self.c_inv[:, col],
                c_col=self.c_inv[:, :, col],
                inv_tau=self.inv_tau[:, col],
                scatter_row=self.scatter_off[:, col],
                z_row=self.z[:, col],
                theta_row=self.theta[:, col],
                theta_col=self.theta[:, :, col],
                theta_diag=theta_diag[:, col],
                gamma=self.gamma[:, col],
                root=self.root[:, col, None],
                neg_root=self.neg_root[:, col, None],
                inv_gamma=self.inv_gamma[:, col],
            )
            for col in range(p)
        ]

    def draw(self) -> None:
        """Each chain's normals and Schur-complement gammas of one sweep, in that order.

        Row ``col`` of a chain's ``(p, p)`` normals in ``z`` feeds column
        ``col``; its entry ``col`` is zeroed, leaving the p - 1 standard
        normals of the Gaussian draw in place.  Entry ``col`` of a chain's
        ``gamma`` is that column's GA(n/2 + 1, rate (s_ii + lam_ii)/2)
        Schur complement.  The rate does not depend on Theta or on the
        off-diagonal penalties, so all p can be drawn before the sweep
        starts, as scaled standard gammas (see the module docstring).
        """
        z, gamma = self.z, self.gamma
        for rng, z_k, gamma_k, shape in zip(self.rngs, z, gamma, self.gamma_shapes):
            rng.standard_normal(out=z_k)
            rng.standard_gamma(shape, out=gamma_k)
        self.z_diag[...] = 0.0
        gamma *= 2.0 / self.col_scale

    def resync(self) -> None:
        """Re-derive each chain's Sigma from its Theta with one stacked checked inversion."""
        try:
            invert_pd_stack(self.theta, self.sigma)
        except NotPositiveDefiniteError as err:
            raise _ChainFailure(err.index, err) from err


@dataclass(frozen=True)
class _ColumnViews:
    """The slices of a stack's arrays that the stacked kernel reads and writes at one column."""

    sigma_row: np.ndarray
    sigma_col: np.ndarray
    sigma_diag: np.ndarray
    scale: np.ndarray
    neg_scales: list
    c_row: np.ndarray
    c_col: np.ndarray
    inv_tau: np.ndarray
    scatter_row: np.ndarray
    z_row: np.ndarray
    theta_row: np.ndarray
    theta_col: np.ndarray
    theta_diag: np.ndarray
    gamma: np.ndarray
    root: np.ndarray
    neg_root: np.ndarray
    inv_gamma: np.ndarray


def update_column(state: SamplerState, col: int, z: np.ndarray, gamma: float) -> SamplerState:
    """Resample row/column ``col`` of Theta from its conditional: the lone-chain kernel.

    With the column permuted last, the conditional factorizes as
    gamma ~ GA(n/2 + 1, (s22 + lam_ii)/2) for the Schur complement and
    beta ~ N(-C s21, C) for the off-diagonal block, where
    C = ((s22 + lam_ii) * Theta11^{-1} + Dtau^{-1})^{-1}.  ``z`` (length
    p, zero at ``col``) and ``gamma`` are this column's draws from
    :meth:`ChainStack.draw`.  Theta11^{-1} is read from the carried Sigma,
    and Sigma is refreshed in place to the new Theta^{-1}.  The state is
    modified in place and returned; if a check raises, Theta and Sigma are
    untouched.

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
    # built in the state's work array, so Sigma is untouched if the factor
    # fails, and LAPACK reads one triangle of it in Fortran order.
    c_inv = state.c_inv
    np.multiply(sigma, scale, out=c_inv)
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

    # u = Theta11^{-1} beta = Sigma beta - w (w' beta); beta[col] is zero.
    # ``dot`` makes the BLAS gemv and ddot calls of ``@`` with less dispatch.
    u = sigma.dot(beta)
    u -= float(w.dot(beta)) * w
    theta = state.theta
    theta[:, col] = beta
    theta[col] = beta
    theta[col, col] = gamma + float(beta.dot(u))

    # block inverse of the new Theta: its Schur complement is gamma
    root = math.sqrt(gamma)
    v = u / root
    sigma_t = sigma.T
    dger(-1.0, w, w, 1, 1, sigma_t, 0, 0, 1)
    dger(1.0, v, v, 1, 1, sigma_t, 0, 0, 1)
    v /= -root
    sigma[:, col] = v
    sigma[col] = v
    sigma[col, col] = 1.0 / gamma
    return state


def _update_stacked_column(stack: ChainStack, col: int) -> None:
    """:func:`update_column` for every chain of a stack at once; see there for the algebra."""
    at = stack.columns[col]
    sigma22 = at.sigma_diag
    if not (sigma22.min() > 0.0 and sigma22.max() < math.inf):
        bad = next(k for k, s in enumerate(sigma22.tolist()) if not 0.0 < s < math.inf)
        raise _ChainFailure(bad, NotPositiveDefiniteError(
            f"Theta block excluding column {col} lost positive definiteness"
        ))
    w, y, v = stack.w, stack.y, stack.v
    np.sqrt(sigma22, out=stack.sigma22_root_flat)
    np.divide(at.sigma_row, stack.sigma22_root, out=w)

    np.multiply(stack.sigma, at.scale, out=stack.c_inv)
    for c_t, w_k, neg_scale in zip(stack.c_t, stack.w_rows, at.neg_scales):
        dger(neg_scale, w_k, w_k, 1, 1, c_t, 0, 0, 1)
    at.c_row.fill(0.0)
    at.c_col.fill(0.0)
    stack.c_diag += at.inv_tau
    np.copyto(y, at.scatter_row)
    lowers = []
    for k, (c_t, y_k) in enumerate(zip(stack.c_t, stack.y_rows)):
        lower_c, info = dpotrf(c_t, 1, 0, 1)
        if info != 0:
            raise _ChainFailure(k, NotPositiveDefiniteError(
                f"conditional covariance for column {col} broke down"
            ))
        dtrtrs(lower_c, y_k, 1, 0, 0, None, 1)
        lowers.append(lower_c)
    np.subtract(at.z_row, y, out=y)
    for lower_c, y_k in zip(lowers, stack.y_rows):
        dtrtrs(lower_c, y_k, 1, 1, 0, None, 1)
    beta = y

    np.matmul(stack.sigma, stack.y_right, out=stack.u)
    u = stack.u_flat
    np.matmul(stack.w_left, stack.y_right, out=stack.wb)
    np.multiply(stack.wb_flat, w, out=stack.wb_w)
    u -= stack.wb_w
    np.copyto(at.theta_col, beta)
    np.copyto(at.theta_row, beta)
    np.matmul(stack.y_left, stack.u, out=stack.bu)
    np.add(at.gamma, stack.bu_flat, out=at.theta_diag)

    np.divide(u, at.root, out=v)
    for sigma_t, w_k, v_k in zip(stack.sigma_t, stack.w_rows, stack.v_rows):
        dger(-1.0, w_k, w_k, 1, 1, sigma_t, 0, 0, 1)
        dger(1.0, v_k, v_k, 1, 1, sigma_t, 0, 0, 1)
    v /= at.neg_root
    np.copyto(at.sigma_col, v)
    np.copyto(at.sigma_row, v)
    np.copyto(at.sigma_diag, at.inv_gamma)


def _columns_alone(stack: ChainStack) -> None:
    """One sweep's column updates of a lone chain, through :func:`update_column`."""
    state = stack.states[0]
    for col, (z_col, gamma_col) in enumerate(zip(stack.z[0], stack.gamma[0].tolist())):
        update_column(state, col, z_col, gamma_col)


def _columns_stacked(stack: ChainStack) -> None:
    """One sweep's column updates of every chain of a stack, one column at a time.

    1/tau, sqrt(gamma) and 1/gamma do not change within a sweep, so they
    are taken once per sweep for every column.
    """
    np.divide(1.0, stack.tau, out=stack.inv_tau)
    np.sqrt(stack.gamma, out=stack.root)
    np.negative(stack.root, out=stack.neg_root)
    np.divide(1.0, stack.gamma, out=stack.inv_gamma)
    for col in range(stack.p):
        _update_stacked_column(stack, col)


def update_hyperparameters(stack: ChainStack) -> ChainStack:
    """Refresh every chain's latent scales and (if adapting) per-entry penalties.

    For each i < j, draws lam[i, j] ~ GA(1 + r, |theta[i, j]| + s) when
    ``adapt_lambda`` is on, then tau[i, j] = 1/delta with
    delta ~ InverseGaussian(lam[i, j]/|theta[i, j]|, lam[i, j]**2), each
    chain from its own Generator.  |theta[i, j]| is floored at
    ``theta_floor`` so an exact zero cannot fault; the floor only caps the
    already-divergent mean.

    A large enough ``r`` (against ``s``) or a fixed ``lambda_init`` can
    overflow the inverse-Gaussian draw, which numpy returns as inf or NaN
    without an error; the update then raises an ``OverflowError`` that
    names the field, for the first such chain.  An overflow of lam**2
    alone is harmless: the draw is then its mean.
    """
    cfg = stack.config
    upper, lower = stack.upper, stack.lower
    abs_theta = np.abs(stack.theta.take(upper))

    with np.errstate(over="ignore"):  # a draw that overflows is raised below
        if cfg.adapt_lambda:
            # the same draws as rng.gamma(1 + r, 1 / (|theta| + s)); see the module docstring
            lam_off = np.empty(abs_theta.shape)
            for rng, lam_k in zip(stack.rngs, lam_off):
                rng.standard_gamma(1.0 + cfg.r, out=lam_k)
            lam_off *= 1.0 / (abs_theta + cfg.s)
            stack.lam.put(upper, lam_off)
            stack.lam.put(lower, lam_off)
        else:
            lam_off = stack.lam.take(upper)

        floored = np.maximum(abs_theta, cfg.theta_floor)
        mu = lam_off / floored
        shape = lam_off**2
    delta = np.empty_like(mu)
    for k, (rng, delta_k, mu_k, shape_k) in enumerate(zip(stack.rngs, delta, mu, shape)):
        try:  # the shape lam**2 can underflow to 0, which wald refuses
            delta_k[...] = rng.wald(mu_k, shape_k)
        except ValueError as err:
            raise _ChainFailure(k, err) from err
    if not delta.max() < math.inf:  # inf or NaN
        first = int(np.argmin(np.isfinite(delta).all(axis=1)))
        raise _ChainFailure(first, OverflowError(_overflow_message(cfg)))
    # the transformation method can underflow to 0 at extreme mu; keep tau finite
    np.maximum(delta, _TINY, out=delta)
    tau_off = 1.0 / delta
    stack.tau.put(upper, tau_off)
    stack.tau.put(lower, tau_off)
    return stack


def _overflow_message(cfg: GibbsConfig) -> str:
    """Why a latent-scale draw overflowed, naming the field to change."""
    if cfg.adapt_lambda:
        cause = f"gibbs.r = {cfg.r:g} (gibbs.s = {cfg.s:g}); lower gibbs.r or raise gibbs.s"
    else:
        cause = f"gibbs.lambda_init = {cfg.lambda_init:g}; lower gibbs.lambda_init"
    return f"penalty overflow: the latent-scale draw is not finite at {cause}"


def _named(label: str, message: str) -> str:
    """An error message that names its chain, when the chain has a label."""
    return f"{label}: {message}" if label else message


def _start(requests: Sequence[ChainRequest]) -> ChainStack:
    """The stack of the requested chains at their diffuse starts."""
    states = []
    for req in requests:
        try:
            states.append(initial_state(req.scatter, req.n, req.config))
        except ValueError as err:
            raise ValueError(_named(req.label, str(err))) from err
    rngs = [np.random.default_rng(req.seed) for req in requests]
    return ChainStack(states, rngs, [req.label for req in requests])


def _sweeps(stack: ChainStack) -> Iterator[None]:
    """The sweep loop: run ``burn_in + retained`` sweeps, yielding after each retained one.

    A sweep takes every chain's draws, updates every column in order
    0..p-1 (the lone-chain kernel for a stack of one, the stacked kernel
    otherwise), re-derives Sigma from Theta (checking that Theta is
    positive definite) and then updates the hyperparameters, so each
    Generator is read for normals, gammas, then hyperparameters.  Any error
    a chain raises names the chain's label and the sweep: a lost positive
    definiteness as a ``NotPositiveDefiniteError``, anything else as a
    ``RuntimeError``.
    """
    cfg = stack.config
    columns = _columns_alone if stack.k == 1 else _columns_stacked
    for sweep in range(cfg.burn_in + cfg.retained):
        try:
            stack.draw()
            columns(stack)
            stack.resync()
            update_hyperparameters(stack)
        except Exception as err:
            # a stack's failures carry their chain's index; a lone chain is chain 0
            if isinstance(err, _ChainFailure):
                label, err = stack.labels[err.chain], err.error
            else:
                label = stack.labels[0] if stack.k == 1 else ""
            message = _named(label, f"sweep {sweep}: {err}")
            if isinstance(err, NotPositiveDefiniteError):
                raise NotPositiveDefiniteError(message, minor=err.minor) from err
            raise RuntimeError(message) from err
        if sweep >= cfg.burn_in:
            yield


def chain_draws(
    scatter: np.ndarray, n: int, config: GibbsConfig, seed: int = 0
) -> Iterator[np.ndarray]:
    """Run ``burn_in + retained`` full sweeps of one chain, yielding Theta after each retained one.

    The chain is a stack of one through the sweep loop, so a sweep reads
    the Generator for normals, gammas, then hyperparameters.  The yielded
    array is the live state, overwritten by the next sweep, so copy it to
    keep it.  Deterministic given ``seed``.
    """
    stack = _start([ChainRequest(scatter, n, config, seed)])
    theta = stack.states[0].theta
    for _ in _sweeps(stack):
        yield theta


def chain_batches(requests: Sequence[ChainRequest], workers: int = 1) -> list[list[int]]:
    """The size rule: cut ``requests`` into batches of indices, each run as one unit.

    Chains may share a stack when they share p and the config; seeds may
    differ.  Such a group is stacked when it holds at least
    ``STACK_MIN_CHAINS`` chains.  It is cut into stacks of
    ``STACK_MIN_CHAINS`` to ``STACK_MAX_CHAINS`` chains whose sizes differ
    by at most one; where the group is tall enough, the number of stacks
    is a multiple of ``workers``, so every worker of a pool gets its
    share.  Every other chain is a batch of its own.  The batches come
    largest first (chains x p^2 x sweeps), so a pool that hands them out
    one at a time keeps its workers busy to the end.
    """
    groups: dict[tuple, list[int]] = {}
    for i, req in enumerate(requests):
        key = (req.dim, req.config)
        groups.setdefault(key, []).append(i)
    batches = []
    for members in groups.values():
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


def run_batch(requests: Sequence[ChainRequest]) -> list[ChainSummary]:
    """Run chains of one p and one config, any seeds, as one stack to their posterior means.

    Each retained draw adds the stack's Theta, and its partial correlations
    from one ``linalg.partial_correlation`` call on the whole stack, to two
    stacked sums; either column kernel gives each chain's means the same bits.
    """
    stack = _start(requests)
    theta_sum, partial_sum = np.zeros((2, *stack.theta.shape))
    for _ in _sweeps(stack):
        theta_sum += stack.theta
        partial_sum += partial_correlation(stack.theta)
    retained = stack.config.retained
    return [
        ChainSummary(theta_mean=theta / retained, partial_mean=partial / retained)
        for theta, partial in zip(theta_sum, partial_sum)
    ]


def run_chains(
    requests: Sequence[ChainRequest],
    mapper: Callable = map,
    workers: int = 1,
) -> list[ChainSummary]:
    """Run every requested chain to its posterior means, in request order.

    The size rule (:func:`chain_batches`, for ``workers`` workers) cuts
    the requests into batches, and ``mapper(run_batch, batches)`` runs
    them: the builtin ``map`` in this process, or a pool's.  Every chain
    gives the same numbers bit for bit whatever its batch.  An error names
    the failing chain's label and, past the start, the sweep.  When more
    than one chain fails, it names the first failure found: a stack finds
    its failures in (sweep, column) order and the batches run one after
    another, so which chain is named can depend on how the chains were
    batched.
    """
    requests = list(requests)
    batches = chain_batches(requests, workers)
    parts = mapper(run_batch, [[requests[i] for i in batch] for batch in batches])
    out: list[ChainSummary | None] = [None] * len(requests)
    for batch, part in zip(batches, parts):
        for i, summary in zip(batch, part):
            out[i] = summary
    return out

