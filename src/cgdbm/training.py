"""Training loop for the centered Gaussian-binary DBM.

Per batch: a damped mean-field pass infers hidden probabilities for the
data term, persistent Gibbs chains supply the model term, parameters move
by momentum SGD with linearly annealed learning rate and momentum, and the
centering offsets follow moving averages of the batch activities with a
compensating bias shift that leaves the represented distribution over the
hidden layers unchanged.

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

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
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


@dataclass(frozen=True)
class TrainConfig:
    learning_rate_start: float = 0.03
    learning_rate_end: float = 0.001
    momentum_start: float = 0.9
    momentum_end: float = 0.0
    sigma_lr_factor: float = 0.1      # sigma moves at this fraction of the main rate
    batch_size: int = 100
    offset_rate: float = 0.001        # moving-average rate for the offsets
    epochs_max: int = 100
    mean_field_max_iters: int = 30
    mean_field_tol: float = 1e-4
    gibbs_steps_per_batch: int = 5
    seed: int = 0
    val_fraction: float = 0.1
    patience: int = 10
    sigma_step_clip: float = 0.05     # hard bound on each sigma update

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
        if self.sigma_lr_factor <= 0 or self.sigma_step_clip <= 0:
            raise ConfigError("sigma settings must be positive")
        return self


@dataclass(frozen=True)
class MeanFieldState:
    """Fixed-point estimate of the hidden probabilities for a data batch."""

    y: np.ndarray            # (B, M) probabilities
    z: np.ndarray            # (B, N) probabilities
    iterations_used: int
    residual: float          # max abs change of the final sweep
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
    """Batch means of the per-state gradients of -E, one block per
    parameter group.  dsigma is taken with respect to the standard
    deviations s_i, not the variances."""

    dW: np.ndarray
    dU: np.ndarray
    db_y: np.ndarray
    db_z: np.ndarray
    dsigma: np.ndarray


@dataclass
class OptimizerState:
    """Momentum velocities, one per parameter group."""

    vW: np.ndarray
    vU: np.ndarray
    vb_y: np.ndarray
    vb_z: np.ndarray
    vsigma: np.ndarray

    @classmethod
    def zeros(cls, dims: tuple[int, int, int]) -> "OptimizerState":
        L, M, N = dims
        return cls(vW=np.zeros((L, M)), vU=np.zeros((M, N)),
                   vb_y=np.zeros(M), vb_z=np.zeros(N), vsigma=np.zeros(L))


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    recon_error: float
    lr: float
    momentum: float
    grad_norm_W: float
    grad_norm_U: float
    mean_sigma: float


class TrainingDiverged(NumericError):
    """Raised when parameters stop being finite; carries the last state
    that was still finite so callers can checkpoint it."""

    def __init__(self, message, params, offsets, log):
        super().__init__(message)
        self.params = params
        self.offsets = offsets
        self.log = log


def initialize(dims: tuple[int, int, int], data_mean, cfg: TrainConfig,
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
        if damped and y is not None:
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
                          residual=float(residual if np.isfinite(residual) else 0.0),
                          converged=residual <= cfg.mean_field_tol)


def gibbs_model_step(chains: PersistentChains, p: ModelParams, c: Offsets,
                     rng: np.random.Generator) -> PersistentChains:
    """One Gibbs sweep of every chain: top layer from y, visibles from y,
    then y from the fresh x and z.  Draw order is fixed (z, x, y) with all
    chains advanced together, so a given rng state yields one result."""
    z_prob = cond_hidden2(chains.y, p, c)
    z = (rng.random(z_prob.shape) < z_prob).astype(np.float64)
    means, variances = cond_visible(chains.y, p, c)
    x = means + rng.standard_normal(means.shape) * np.sqrt(variances)
    y_prob = cond_hidden1(x, z, p, c)
    y = (rng.random(y_prob.shape) < y_prob).astype(np.float64)
    return PersistentChains(x=x, y=y, z=z)


def batch_gradient_stats(x, y, z, p: ModelParams, c: Offsets) -> GradientStats:
    """Batch means of the -E gradients; accepts probabilities or samples."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    B = x.shape[0]
    t = x - c.c_x
    yc = y - c.c_y
    zc = z - c.c_z
    tw = t / p.sigma2
    dW = tw.T @ yc / B
    dU = yc.T @ zc / B
    m = yc @ p.W.T
    dsigma = ((t * t - 2.0 * t * m) / p.sigma2**1.5).mean(axis=0)
    return GradientStats(dW=dW, dU=dU, db_y=yc.mean(axis=0), db_z=zc.mean(axis=0),
                         dsigma=dsigma)


def apply_updates(p: ModelParams, opt: OptimizerState, data_stats: GradientStats,
                  model_stats: GradientStats, lr: float, momentum: float,
                  cfg: TrainConfig) -> tuple[ModelParams, OptimizerState]:
    """Momentum SGD step on the data-minus-model gradient estimate.

    Sigma steps use lr * sigma_lr_factor and are clipped elementwise; the
    velocity itself is clipped so it cannot wind up past the bound.
    """
    vW = momentum * opt.vW + lr * (data_stats.dW - model_stats.dW)
    vU = momentum * opt.vU + lr * (data_stats.dU - model_stats.dU)
    vb_y = momentum * opt.vb_y + lr * (data_stats.db_y - model_stats.db_y)
    vb_z = momentum * opt.vb_z + lr * (data_stats.db_z - model_stats.db_z)
    vs = momentum * opt.vsigma + (lr * cfg.sigma_lr_factor) * (
        data_stats.dsigma - model_stats.dsigma)
    vs = np.clip(vs, -cfg.sigma_step_clip, cfg.sigma_step_clip)
    sigma = np.maximum(np.sqrt(p.sigma2) + vs, np.sqrt(SIGMA2_FLOOR))
    new = ModelParams(W=p.W + vW, U=p.U + vU, b_y=p.b_y + vb_y,
                      b_z=p.b_z + vb_z, sigma2=sigma * sigma)
    for name, arr in (("W", new.W), ("U", new.U), ("b_y", new.b_y),
                      ("b_z", new.b_z), ("sigma2", new.sigma2)):
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values in {name} after update")
    return new, OptimizerState(vW=vW, vU=vU, vb_y=vb_y, vb_z=vb_z, vsigma=vs)


def update_offsets(c: Offsets, batch_mean_y, batch_mean_z, batch_mean_x,
                   p: ModelParams, nu: float) -> tuple[Offsets, np.ndarray, np.ndarray]:
    """Move every offset a step nu toward its batch mean and return the
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
    if my.min(initial=0.0) < 0.0 or my.max(initial=0.0) > 1.0 \
            or mz.min(initial=0.0) < 0.0 or mz.max(initial=0.0) > 1.0:
        raise ValueError("hidden batch means must lie in [0, 1]")
    d_y = nu * (my - c.c_y)
    d_z = nu * (mz - c.c_z)
    d_x = nu * (mx - c.c_x)
    db_y = p.W.T @ ((p.W @ d_y) / p.sigma2) + p.U @ d_z
    db_z = p.U.T @ d_y
    new_c = Offsets(c_x=c.c_x + d_x, c_y=c.c_y + d_y, c_z=c.c_z + d_z)
    return new_c, db_y, db_z


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


@dataclass
class TrainResult:
    params: ModelParams
    offsets: Offsets
    log: list[EpochRecord] = field(default_factory=list)
    stopped_early: bool = False


def train(dataset, dims: tuple[int, int, int], cfg: TrainConfig,
          progress=None) -> TrainResult:
    """Run the full training schedule on the dataset rows.

    A validation slice (cfg.val_fraction of the rows, chosen by an rng
    seeded from cfg.seed, which drives every draw of the run) is held out for the stopping rule; training stops after `patience`
    epochs without a new best validation reconstruction error.  Raises
    TrainingDiverged, carrying the last finite state, if parameters leave
    the finite range.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    data = np.atleast_2d(np.asarray(dataset, dtype=np.float64))
    L, M, N = dims
    if data.shape[1] != L:
        raise ShapeError(f"dataset width {data.shape[1]} does not match L={L}")
    n = data.shape[0]
    if n < 2:
        raise ShapeError("need at least two rows to train")

    perm = rng.permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    if 0 < n_val < n:
        val = data[perm[:n_val]]
        tr = data[perm[n_val:]]
    else:
        val = data
        tr = data

    p, c = initialize(dims, data.mean(axis=0), cfg, rng)
    if cfg.epochs_max == 0:
        return TrainResult(params=p, offsets=c, log=[])

    opt = OptimizerState.zeros(dims)
    n_chains = cfg.batch_size
    chains = PersistentChains(
        x=np.broadcast_to(c.c_x, (n_chains, L)).copy(),
        y=np.broadcast_to(c.c_y, (n_chains, M)).copy(),
        z=np.broadcast_to(c.c_z, (n_chains, N)).copy(),
    )

    log: list[EpochRecord] = []
    best_val = np.inf
    stall = 0
    stopped_early = False
    last_good = (p, c)

    for epoch in range(cfg.epochs_max):
        lr, momentum = anneal(cfg, epoch)
        chains.y = np.broadcast_to(c.c_y, (n_chains, M)).copy()
        order = rng.permutation(tr.shape[0])
        gw_norms = []
        gu_norms = []
        try:
            for start in range(0, tr.shape[0], cfg.batch_size):
                batch = tr[order[start:start + cfg.batch_size]]
                mf = mean_field_data(batch, p, c, cfg)
                data_stats = batch_gradient_stats(batch, mf.y, mf.z, p, c)
                for _ in range(cfg.gibbs_steps_per_batch):
                    chains = gibbs_model_step(chains, p, c, rng)
                model_stats = batch_gradient_stats(chains.x, chains.y, chains.z, p, c)
                p, opt = apply_updates(p, opt, data_stats, model_stats,
                                       lr, momentum, cfg)
                c, db_y, db_z = update_offsets(c, mf.y.mean(axis=0),
                                               mf.z.mean(axis=0),
                                               batch.mean(axis=0),
                                               p, cfg.offset_rate)
                p = replace(p, b_y=p.b_y + db_y, b_z=p.b_z + db_z)
                # Smooth the persistent hidden-1 state to its conditional
                # probabilities before the next batch.
                chains.y = cond_hidden1(chains.x, chains.z, p, c)
                gw_norms.append(float(np.linalg.norm(data_stats.dW - model_stats.dW)))
                gu_norms.append(float(np.linalg.norm(data_stats.dU - model_stats.dU)))
            err = reconstruction_error(p, c, val)
            if not np.isfinite(err):
                raise NumericError("validation reconstruction error is not finite")
        except NumericError as exc:
            raise TrainingDiverged(
                f"training diverged in epoch {epoch}: {exc}",
                params=last_good[0], offsets=last_good[1], log=log) from exc

        last_good = (p, c)
        rec = EpochRecord(epoch=epoch, recon_error=err, lr=lr, momentum=momentum,
                          grad_norm_W=float(np.mean(gw_norms)) if gw_norms else 0.0,
                          grad_norm_U=float(np.mean(gu_norms)) if gu_norms else 0.0,
                          mean_sigma=float(np.mean(np.sqrt(p.sigma2))))
        log.append(rec)
        if progress is not None:
            progress(rec, p, c, log)

        if err < best_val - 1e-12:
            best_val = err
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                stopped_early = True
                break

    return TrainResult(params=p, offsets=c, log=log, stopped_early=stopped_early)
