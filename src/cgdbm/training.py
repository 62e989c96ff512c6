"""Training loop for the centered Gaussian-binary DBM.

Per batch: a damped mean-field pass infers hidden probabilities for the
data term, persistent Gibbs chains supply the model term, parameters move
by momentum SGD with linearly annealed learning rate and momentum, and the
centering offsets follow moving averages of the batch activities with a
compensating bias shift that leaves the represented distribution over the
hidden layers unchanged.

Every random number of a run comes from one generator seeded with the
`seed` argument of `train`; the configuration holds no seed.  The
random numbers of the chains depend on nothing a sweep computes, so a
worker thread draws the next batch's block of them (`GibbsNoise`) while
the main thread sweeps the chains through the current block.  The two
halves of a batch do not depend on each other either: the data term
draws no random numbers, so for large models the same worker also runs
it beside the chains, and then the main thread applies the update.
Every draw comes from the one generator in the order a one-thread loop
takes them.

`train` is a generator over one `TrainState`, which holds everything one
epoch hands to the next.  It yields that same object before the first
epoch and after each finished one, and updates its arrays in place; no
worker thread is alive at a yield.  A caller that keeps a state past the
next step copies it.

Conventions fixed here:
  - the sigma gradient acts on the standard deviations, with its own
    (smaller) learning rate and a hard per-update clip;
  - the hidden-1 model statistics come from the chains' last binary
    sample of each batch, after which the chain state is smoothed to the
    conditional probabilities before the next batch;
  - validation is an internal split of the dataset and stops training when
    its one-pass reconstruction error stalls for `patience` epochs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DomainError, NumericError, ShapeError
from .model import (
    SIGMA2_FLOOR,
    ModelParams,
    Offsets,
    check_dims,
    cond_hidden1,
    cond_hidden2,
    cond_visible,
    sigmoid,
)


# The data phase runs on the worker thread, after the draw of the next
# batch's noise, when a batch's pass through the couplings,
# batch_size * M * (L + N), has at least this many multiply-adds.  The
# overlap pays only while BLAS, which releases the interpreter lock,
# dominates both threads: at 256/900/100 (32M) it cut the wall time by a
# quarter.  At 100/64/16 (742k) most of the time is numpy call overhead,
# and with the data phase on the worker a desk training took 6% longer
# on a 2-vCPU host.
OVERLAP_MIN_MULTIPLY_ADDS = 4_000_000

SIGMA_LR_FACTOR = 0.1   # sigma moves at this fraction of the main rate
SIGMA_STEP_CLIP = 0.05  # hard bound on each sigma update


@dataclass(frozen=True)
class TrainConfig:
    learning_rate_start: float = 0.03
    learning_rate_end: float = 0.001
    momentum_start: float = 0.9
    momentum_end: float = 0.0
    batch_size: int = 100
    offset_rate: float = 0.001        # moving-average rate for the offsets
    epochs_max: int = 100
    mean_field_max_iters: int = 30
    mean_field_tol: float = 1e-4
    gibbs_steps_per_batch: int = 5
    val_fraction: float = 0.1
    patience: int = 10

    def validate(self) -> "TrainConfig":
        if self.learning_rate_start <= 0 or self.learning_rate_end < 0:
            raise ConfigError("learning rates must be positive")
        if not (0.0 <= self.momentum_start <= 1.0 and 0.0 <= self.momentum_end <= 1.0):
            raise ConfigError("momentum must lie in [0, 1]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not (0.0 < self.offset_rate <= 1.0):
            raise ConfigError("offset_rate must lie in (0, 1]")
        if self.epochs_max < 0:
            raise ConfigError("epochs_max must be nonnegative")
        if self.mean_field_max_iters < 1 or self.mean_field_tol <= 0:
            raise ConfigError("mean-field settings must be positive")
        if self.gibbs_steps_per_batch < 1:
            raise ConfigError("gibbs_steps_per_batch must be at least 1")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ConfigError("val_fraction must lie in [0, 1)")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        return self


@dataclass(frozen=True)
class MeanFieldState:
    """Fixed-point estimate of the hidden probabilities for a data batch."""

    y: np.ndarray            # (B, M) probabilities
    z: np.ndarray            # (B, N) probabilities
    iterations_used: int
    converged: bool


@dataclass
class PersistentChains:
    """State of the free-running model chains, one row per chain.

    y holds binary samples right after a Gibbs sweep; between batches the
    training loop replaces it with conditional probabilities, so treat it
    as real-valued in [0, 1].
    """

    x: np.ndarray  # (B, L)
    y: np.ndarray  # (B, M)
    z: np.ndarray  # (B, N)


@dataclass(frozen=True)
class GradientStats:
    """One block per parameter group: the batch means of the per-state
    gradients of -E, or the momentum velocities that follow them.
    dsigma is taken with respect to the standard deviations s_i, not the
    variances."""

    dW: np.ndarray
    dU: np.ndarray
    db_y: np.ndarray
    db_z: np.ndarray
    dsigma: np.ndarray

    @classmethod
    def zeros(cls, dims: tuple[int, int, int]) -> "GradientStats":
        L, M, N = dims
        return cls(dW=np.zeros((L, M)), dU=np.zeros((M, N)),
                   db_y=np.zeros(M), db_z=np.zeros(N), dsigma=np.zeros(L))

    def subtract(self, other: "GradientStats") -> "GradientStats":
        """Subtract other block by block, in place; returns self."""
        for f in fields(self):
            mine = getattr(self, f.name)
            np.subtract(mine, getattr(other, f.name), out=mine)
        return self


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of the training log; train_log.csv has these fields as
    its columns, in this order."""

    epoch: int
    reconstruction_error: float
    learning_rate: float
    momentum: float
    grad_norm_W: float
    grad_norm_U: float
    mean_sigma: float


@dataclass
class TrainState:
    """Everything one epoch of `train` hands to the next."""

    params: ModelParams
    offsets: Offsets
    velocity: GradientStats
    chains: PersistentChains
    rng: np.random.Generator
    log: list[EpochRecord]
    best_val: float = np.inf
    stall: int = 0            # epochs since the last new best_val


def initialize(dims: tuple[int, int, int], data_mean,
               rng: np.random.Generator) -> tuple[ModelParams, Offsets]:
    """Fresh model: uniform fan-scaled couplings, variances near 0.5,
    biases near -4 so hidden units start sparse, offsets at the matching
    means (data mean for x, sigmoid of the bias for y and z)."""
    L, M, N = dims
    data_mean = np.asarray(data_mean, dtype=np.float64)
    if data_mean.shape != (L,):
        raise ShapeError(f"data_mean has shape {data_mean.shape}, expected ({L},)")
    r_w = np.sqrt(6.0 / (L + M))
    r_u = np.sqrt(6.0 / (M + N))
    W = rng.uniform(-r_w, r_w, size=(L, M))
    U = rng.uniform(-r_u, r_u, size=(M, N))
    sigma2 = np.maximum(rng.normal(0.5, 0.1, size=L), SIGMA2_FLOOR)
    b_y = rng.normal(-4.0, 0.1, size=M)
    b_z = rng.normal(-4.0, 0.1, size=N)
    p = ModelParams(W=W, U=U, b_y=b_y, b_z=b_z, sigma2=sigma2)
    c = Offsets(c_x=data_mean.copy(), c_y=sigmoid(b_y), c_z=sigmoid(b_z))
    return p, c


def anneal(cfg: TrainConfig, epoch: int) -> tuple[float, float]:
    """Linear schedules over epochs_max epochs; epoch counts from 0."""
    if cfg.epochs_max <= 1:
        return cfg.learning_rate_start, cfg.momentum_start
    f = epoch / (cfg.epochs_max - 1)
    f = min(max(f, 0.0), 1.0)
    # Convex-combination form keeps the endpoints exact.
    lr = (1.0 - f) * cfg.learning_rate_start + f * cfg.learning_rate_end
    mom = (1.0 - f) * cfg.momentum_start + f * cfg.momentum_end
    return lr, mom


def mean_field_data(x_batch, p: ModelParams, c: Offsets,
                    cfg: TrainConfig) -> MeanFieldState:
    """Alternating mean-field updates of the hidden probabilities with the
    visible layer clamped to the batch rows.

    z starts at its offset (no top-down input on the first sweep).  If the
    residual ever grows, later sweeps are damped 50/50 with the previous
    iterate to break oscillations.
    """
    L, M, N = check_dims(p, c)
    x = np.atleast_2d(np.asarray(x_batch, dtype=np.float64))
    if x.shape[1] != L:
        raise ShapeError(f"batch width {x.shape[1]} does not match L={L}")
    bottom_up = ((x - c.c_x) / p.sigma2) @ p.W + p.b_y
    z = np.broadcast_to(c.c_z, (x.shape[0], N)).copy()
    y = None
    residual = np.inf
    prev_residual = np.inf
    damped = False
    iterations = 0
    for iterations in range(1, cfg.mean_field_max_iters + 1):
        y_new = sigmoid(bottom_up + (z - c.c_z) @ p.U.T)
        if damped:
            y_new = 0.5 * (y_new + y)
        z_new = sigmoid((y_new - c.c_y) @ p.U + p.b_z)
        if damped:
            z_new = 0.5 * (z_new + z)
        if y is None:
            residual = np.inf
        else:
            residual = max(float(np.abs(y_new - y).max(initial=0.0)),
                           float(np.abs(z_new - z).max(initial=0.0)))
        y, z = y_new, z_new
        if residual <= cfg.mean_field_tol:
            break
        if residual > prev_residual:
            damped = True
        prev_residual = residual
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
        raise NumericError(f"mean field produced non-finite values at sweep {iterations}")
    return MeanFieldState(y=y, z=z, iterations_used=iterations,
                          converged=residual <= cfg.mean_field_tol)


@dataclass(frozen=True)
class GibbsNoise:
    """The random numbers of `sweeps` Gibbs sweeps of n chains, indexed
    by sweep: z uniforms (sweeps, n, N), x standard normals (sweeps, n, L)
    and y uniforms (sweeps, n, M)."""

    z: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @classmethod
    def empty(cls, sweeps: int, n: int, dims: tuple[int, int, int]) -> "GibbsNoise":
        L, M, N = dims
        return cls(z=np.empty((sweeps, n, N)), x=np.empty((sweeps, n, L)),
                   y=np.empty((sweeps, n, M)))

    def fill(self, rng: np.random.Generator) -> "GibbsNoise":
        """Draw the block from rng sweep by sweep, z then x then y, as
        one sweep at a time would; returns self."""
        for z, x, y in zip(self.z, self.x, self.y):
            rng.random(out=z)
            rng.standard_normal(out=x)
            rng.random(out=y)
        return self


def gibbs_model_step(chains: PersistentChains, p: ModelParams, c: Offsets,
                     noise: GibbsNoise, sweep: int = 0) -> PersistentChains:
    """One Gibbs sweep of every chain, in place: top layer from y,
    visibles from y, then y from the fresh x and z, with the random
    numbers of `noise` at index `sweep`.  Each conditional is written
    into the chain array its sample replaces.  Returns chains."""
    z_prob = cond_hidden2(chains.y, p, c, out=chains.z)
    np.less(noise.z[sweep], z_prob, out=chains.z)
    means, variances = cond_visible(chains.y, p, c, out=chains.x)
    means += noise.x[sweep] * np.sqrt(variances)
    y_prob = cond_hidden1(chains.x, chains.z, p, c, out=chains.y)
    np.less(noise.y[sweep], y_prob, out=chains.y)
    return chains


def batch_gradient_stats(x, y, z, p: ModelParams, c: Offsets,
                         out: GradientStats | None = None) -> GradientStats:
    """Batch means of the -E gradients; accepts probabilities or samples.
    The blocks are written into `out` if given."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if out is None:
        out = GradientStats.zeros(p.dims)
    B = x.shape[0]
    t = x - c.c_x
    yc = y - c.c_y
    zc = z - c.c_z
    tw = t / p.sigma2
    np.divide(np.matmul(tw.T, yc, out=out.dW), B, out=out.dW)
    np.divide(np.matmul(yc.T, zc, out=out.dU), B, out=out.dU)
    m = yc @ p.W.T
    ((t * t - 2.0 * t * m) / p.sigma2**1.5).mean(axis=0, out=out.dsigma)
    yc.mean(axis=0, out=out.db_y)
    zc.mean(axis=0, out=out.db_z)
    return out


def apply_updates(p: ModelParams, velocity: GradientStats,
                  grad: GradientStats, lr: float, momentum: float) -> None:
    """Momentum SGD step on the data-minus-model gradient `grad`, in place
    on p and velocity; grad is used as scratch and holds nothing
    afterwards.

    Sigma steps use lr * SIGMA_LR_FACTOR and are clipped elementwise; the
    velocity itself is clipped so it cannot wind up past the bound.
    """
    for v, g, w in ((velocity.dW, grad.dW, p.W), (velocity.dU, grad.dU, p.U),
                    (velocity.db_y, grad.db_y, p.b_y),
                    (velocity.db_z, grad.db_z, p.b_z)):
        v *= momentum
        g *= lr
        v += g
        w += v
    vs, sigma = velocity.dsigma, grad.dsigma
    vs *= momentum
    sigma *= lr * SIGMA_LR_FACTOR
    vs += sigma
    np.clip(vs, -SIGMA_STEP_CLIP, SIGMA_STEP_CLIP, out=vs)
    np.sqrt(p.sigma2, out=sigma)
    sigma += vs
    np.maximum(sigma, np.sqrt(SIGMA2_FLOOR), out=sigma)
    np.maximum(np.multiply(sigma, sigma, out=p.sigma2), SIGMA2_FLOOR,
               out=p.sigma2)
    for name, arr in (("W", p.W), ("U", p.U), ("b_y", p.b_y),
                      ("b_z", p.b_z), ("sigma2", p.sigma2)):
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values in {name} after update")


def check_unit_interval(x: np.ndarray, what: str) -> None:
    """Raise DomainError unless every entry of x lies in [0, 1]."""
    # NaN fails both comparisons
    if not (x.min(initial=0.0) >= 0.0 and x.max(initial=0.0) <= 1.0):
        raise DomainError(f"{what} must lie in [0, 1]")


def update_offsets(c: Offsets, batch_mean_y, batch_mean_z, batch_mean_x,
                   p: ModelParams, nu: float,
                   out: Offsets | None = None) -> tuple[Offsets, np.ndarray, np.ndarray]:
    """Move every offset a step nu toward its batch mean and return the
    moved offsets (written into `out` if given, which may be c) and the
    bias corrections that keep the distribution over (y, z) identical.

    Moving c_y by d changes the y-linear part of the hidden free energy by
    (W^T diag(1/sigma2) W) d and the z-linear part by U^T d; moving c_z by
    e changes the y-linear part by U e.  The corrections cancel those terms
    exactly.  Moving c_x only relocates the visible Gaussian and needs no
    correction.
    """
    L, M, N = check_dims(p, c)
    my = np.asarray(batch_mean_y, dtype=np.float64)
    mz = np.asarray(batch_mean_z, dtype=np.float64)
    mx = np.asarray(batch_mean_x, dtype=np.float64)
    if my.shape != (M,) or mz.shape != (N,) or mx.shape != (L,):
        raise ShapeError("batch mean shapes do not match the model dims")
    check_unit_interval(my, "hidden batch means")
    check_unit_interval(mz, "hidden batch means")
    d_y = nu * (my - c.c_y)
    d_z = nu * (mz - c.c_z)
    d_x = nu * (mx - c.c_x)
    db_y = p.W.T @ ((p.W @ d_y) / p.sigma2) + p.U @ d_z
    db_z = p.U.T @ d_y
    if out is None:
        out = Offsets(c_x=c.c_x + d_x, c_y=c.c_y + d_y, c_z=c.c_z + d_z)
    else:
        np.add(c.c_x, d_x, out=out.c_x)
        np.add(c.c_y, d_y, out=out.c_y)
        np.add(c.c_z, d_z, out=out.c_z)
    return out, db_y, db_z


def reconstruction_error(p: ModelParams, c: Offsets, data) -> float:
    """Mean squared reconstruction distance after one bottom-up/top-down
    pass: y from the data with the top layer at rest, then the visible
    conditional mean from y."""
    L, M, N = check_dims(p, c)
    x = np.atleast_2d(np.asarray(data, dtype=np.float64))
    z_rest = np.broadcast_to(c.c_z, (x.shape[0], N))
    y = cond_hidden1(x, z_rest, p, c)
    xhat, _ = cond_visible(y, p, c)
    with np.errstate(over="ignore"):
        # Overflow to inf is fine here; callers treat non-finite as divergence.
        return float(np.mean(np.sum((x - xhat) ** 2, axis=1)))


def _data_phase(batch, p: ModelParams, c: Offsets, cfg: TrainConfig,
                out: GradientStats):
    """The data half of one batch: mean-field inference and the data
    statistics (into out).  It draws no random numbers, so it can run on
    another thread beside the chains.  Returns the batch means of y, z
    and x."""
    mf = mean_field_data(batch, p, c, cfg)
    batch_gradient_stats(batch, mf.y, mf.z, p, c, out=out)
    return mf.y.mean(axis=0), mf.z.mean(axis=0), batch.mean(axis=0)


def train(dataset, dims: tuple[int, int, int], cfg: TrainConfig,
          seed: int) -> Iterator[TrainState]:
    """Run the full training schedule on the dataset rows, yielding the
    one TrainState before the first epoch and after each finished epoch.

    A validation slice (cfg.val_fraction of the rows, chosen by an rng
    seeded from `seed`, which drives every draw of the run) is held out
    for the stopping rule; training stops after `patience` epochs without
    a new best validation reconstruction error, so then state.stall >=
    cfg.patience.  Raises NumericError if parameters leave the finite
    range; the state of the preceding yield was the last finite one.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    data = np.atleast_2d(np.asarray(dataset, dtype=np.float64))
    L, M, N = dims
    if data.shape[1] != L:
        raise ShapeError(f"dataset width {data.shape[1]} does not match L={L}")
    n = data.shape[0]
    if n < 2:
        raise ShapeError("need at least two rows to train")

    perm = rng.permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    # each batch is gathered from data through tr_rows: no copy of the
    # training split
    if 0 < n_val < n:
        val = data[perm[:n_val]]
        tr_rows = perm[n_val:]
    else:
        val = data
        tr_rows = np.arange(n)

    p, c = initialize(dims, data.mean(axis=0), rng)
    n_chains = cfg.batch_size
    state = TrainState(
        params=p, offsets=c, velocity=GradientStats.zeros(dims),
        chains=PersistentChains(
            x=np.broadcast_to(c.c_x, (n_chains, L)).copy(),
            y=np.broadcast_to(c.c_y, (n_chains, M)).copy(),
            z=np.broadcast_to(c.c_z, (n_chains, N)).copy()),
        rng=rng, log=[])
    yield state

    # scratch for one batch; nothing here outlives an epoch
    data_stats = GradientStats.zeros(dims)
    model_stats = GradientStats.zeros(dims)
    overlap = cfg.batch_size * M * (L + N) >= OVERLAP_MIN_MULTIPLY_ADDS
    steps = cfg.gibbs_steps_per_batch
    noise = GibbsNoise.empty(steps, n_chains, dims)
    spare = GibbsNoise.empty(steps, n_chains, dims)
    n_batches = -(-tr_rows.shape[0] // cfg.batch_size)
    # imported here: it costs the other stages' processes 0.6 MB
    from concurrent.futures import ThreadPoolExecutor
    for epoch in range(cfg.epochs_max):
        p, c, chains, rng = state.params, state.offsets, state.chains, state.rng
        lr, momentum = anneal(cfg, epoch)
        chains.y[...] = c.c_y
        order = tr_rows[rng.permutation(tr_rows.shape[0])]
        noise.fill(rng)
        gw_norms = []
        gu_norms = []
        try:
            with ThreadPoolExecutor(max_workers=1) as worker:
                for k in range(n_batches):
                    start = k * cfg.batch_size
                    batch = data[order[start:start + cfg.batch_size]]
                    # While the next block is drawn, only the worker
                    # touches rng and spare.
                    drawn = (worker.submit(spare.fill, rng)
                             if k + 1 < n_batches else None)
                    if overlap:
                        data_phase = worker.submit(_data_phase, batch, p, c,
                                                   cfg, data_stats)
                    for sweep in range(steps):
                        gibbs_model_step(chains, p, c, noise, sweep)
                    batch_gradient_stats(chains.x, chains.y, chains.z, p, c,
                                         out=model_stats)
                    mean_y, mean_z, mean_x = (
                        data_phase.result() if overlap
                        else _data_phase(batch, p, c, cfg, data_stats))
                    if drawn is not None:
                        drawn.result()
                    noise, spare = spare, noise
                    grad = data_stats.subtract(model_stats)
                    gw_norms.append(float(np.linalg.norm(grad.dW)))
                    gu_norms.append(float(np.linalg.norm(grad.dU)))
                    apply_updates(p, state.velocity, grad, lr, momentum)
                    _, db_y, db_z = update_offsets(c, mean_y, mean_z, mean_x,
                                                   p, cfg.offset_rate, out=c)
                    np.add(p.b_y, db_y, out=p.b_y)
                    np.add(p.b_z, db_z, out=p.b_z)
                    # Smooth the persistent hidden-1 state to its conditional
                    # probabilities before the next batch.
                    cond_hidden1(chains.x, chains.z, p, c, out=chains.y)
            err = reconstruction_error(p, c, val)
            if not np.isfinite(err):
                raise NumericError("validation reconstruction error is not finite")
        except NumericError as exc:
            raise NumericError(
                f"training diverged in epoch {epoch}: {exc}") from exc

        state.log.append(EpochRecord(
            epoch=epoch, reconstruction_error=err, learning_rate=lr,
            momentum=momentum, grad_norm_W=float(np.mean(gw_norms)),
            grad_norm_U=float(np.mean(gu_norms)),
            mean_sigma=float(np.mean(np.sqrt(p.sigma2)))))
        if err < state.best_val - 1e-12:
            state.best_val = err
            state.stall = 0
        else:
            state.stall += 1
        yield state
        if state.stall >= cfg.patience:
            return
