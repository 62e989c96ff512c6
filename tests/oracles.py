"""Independent oracles used to gate the library.

Everything in this file recomputes quantities from the energy definition
alone (finite differences, explicit enumeration, numerical quadrature),
deliberately not sharing code paths with the package internals beyond the
row-batched `energy` function itself, which `raw_energy` checks.  The SOM
reference is the exception: it is a plain per-frame loop compared bit for
bit, so it shares the lattice distance and the quantization error with
`train_som`.  The training reference is another: the plain allocating,
single-threaded batch loop and its helpers, compared bit for bit with
`train`, which runs the data term on a worker thread and updates its
arrays in place.  It shares what that change left alone (initialization,
schedules, mean-field inference and the record types).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from cgdbm.analysis import (AnalysisConfig, circular_distance,
                            quantization_error)
from cgdbm.errors import NumericError, ShapeError
from cgdbm.model import SIGMA2_FLOOR, ModelParams, Offsets, check_dims, energy, sigmoid
from cgdbm.training import (EpochRecord, GradientStats, PersistentChains,
                            TrainConfig, TrainState, anneal, initialize,
                            mean_field_data)


def raw_energy(x, y, z, W, U, b_y, b_z, sigma2, c_x, c_y, c_z) -> float:
    """Energy written out with explicit loops, straight from the formula."""
    L, M = W.shape
    N = U.shape[1]
    e = 0.0
    for i in range(L):
        e += (x[i] - c_x[i]) ** 2 / (2.0 * sigma2[i])
        for j in range(M):
            e -= (x[i] - c_x[i]) * W[i, j] * (y[j] - c_y[j]) / sigma2[i]
    for j in range(M):
        e -= b_y[j] * (y[j] - c_y[j])
        for k in range(N):
            e -= (y[j] - c_y[j]) * U[j, k] * (z[k] - c_z[k])
    for k in range(N):
        e -= b_z[k] * (z[k] - c_z[k])
    return e


def fd_gradients(x, y, z, p: ModelParams, c: Offsets, h: float = 1e-5):
    """Central finite differences of the mean of -E over the state rows
    (x[r], y[r], z[r]) for every parameter group.

    The sigma block differentiates with respect to the standard
    deviations: sigma2 is rebuilt as (sigma +- h)^2 for each probe.
    """
    def e_of(params: ModelParams) -> float:
        return float(np.mean(energy(x, y, z, params, c)))

    L, M = p.W.shape
    N = p.U.shape[1]

    dW = np.zeros((L, M))
    for i in range(L):
        for j in range(M):
            Wp, Wm = p.W.copy(), p.W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            dW[i, j] = -(e_of(replace(p, W=Wp)) - e_of(replace(p, W=Wm))) / (2 * h)

    dU = np.zeros((M, N))
    for j in range(M):
        for k in range(N):
            Up, Um = p.U.copy(), p.U.copy()
            Up[j, k] += h
            Um[j, k] -= h
            dU[j, k] = -(e_of(replace(p, U=Up)) - e_of(replace(p, U=Um))) / (2 * h)

    db_y = np.zeros(M)
    for j in range(M):
        bp, bm = p.b_y.copy(), p.b_y.copy()
        bp[j] += h
        bm[j] -= h
        db_y[j] = -(e_of(replace(p, b_y=bp)) - e_of(replace(p, b_y=bm))) / (2 * h)

    db_z = np.zeros(N)
    for k in range(N):
        bp, bm = p.b_z.copy(), p.b_z.copy()
        bp[k] += h
        bm[k] -= h
        db_z[k] = -(e_of(replace(p, b_z=bp)) - e_of(replace(p, b_z=bm))) / (2 * h)

    sigma = np.sqrt(p.sigma2)
    dsigma = np.zeros(L)
    for i in range(L):
        sp, sm = sigma.copy(), sigma.copy()
        sp[i] += h
        sm[i] -= h
        dsigma[i] = -(e_of(replace(p, sigma2=sp**2))
                      - e_of(replace(p, sigma2=sm**2))) / (2 * h)

    return dW, dU, db_y, db_z, dsigma


def enum_cond_hidden1(j: int, x, z, p: ModelParams, c: Offsets) -> float:
    """P(y_j = 1 | x, z) from energy ratios of the two completions."""
    M = p.W.shape[1]
    y1 = np.zeros(M)
    y0 = np.zeros(M)
    y1[j] = 1.0
    e1, e0 = energy([x, x], [y1, y0], [z, z], p, c)
    # Only the j-th unit differs, so all other terms cancel in the ratio.
    return 1.0 / (1.0 + math.exp(e1 - e0))


def enum_cond_hidden2(k: int, y, p: ModelParams, c: Offsets) -> float:
    """P(z_k = 1 | y) from energy ratios, marginal over nothing else."""
    N = p.U.shape[1]
    L = p.W.shape[0]
    x = c.c_x.copy()
    z1 = np.zeros(N)
    z0 = np.zeros(N)
    z1[k] = 1.0
    e1, e0 = energy([x, x], [y, y], [z1, z0], p, c)
    return 1.0 / (1.0 + math.exp(e1 - e0))


def quad_hidden_marginal(p: ModelParams, c: Offsets, span: float = 12.0,
                         n_grid: int = 4001) -> np.ndarray:
    """P(y, z) for an L=1 model by trapezoidal integration over x on a
    wide grid, then enumeration of the binary layers.  Returns a
    (2^M, 2^N) table in the same index order as the package enumeration
    (unit 0 = least significant bit)."""
    L, M = p.W.shape
    N = p.U.shape[1]
    assert L == 1, "grid oracle only supports one visible unit"
    sigma = float(np.sqrt(p.sigma2[0]))
    # Cover every conditional mean the binary states can produce.
    means = [float(c.c_x[0] + p.W[0] @ (np.array(y) - c.c_y))
             for y in itertools.product([0.0, 1.0], repeat=M)]
    lo = min(means) - span * sigma
    hi = max(means) + span * sigma
    xs = np.linspace(lo, hi, n_grid)
    table = np.zeros((2**M, 2**N))
    for iy in range(2**M):
        y = np.array([(iy >> j) & 1 for j in range(M)], dtype=float)
        for iz in range(2**N):
            z = np.array([(iz >> k) & 1 for k in range(N)], dtype=float)
            vals = np.exp(-energy(xs[:, None], np.tile(y, (n_grid, 1)),
                                  np.tile(z, (n_grid, 1)), p, c))
            table[iy, iz] = np.trapezoid(vals, xs)
    return table / table.sum()


def total_variation(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(a).ravel() - np.asarray(b).ravel()).sum())


def random_model(rng: np.random.Generator, L: int, M: int, N: int,
                 scale: float = 0.7) -> tuple[ModelParams, Offsets]:
    """Small random model with offsets strictly inside (0, 1)."""
    p = ModelParams(
        W=scale * rng.standard_normal((L, M)),
        U=scale * rng.standard_normal((M, N)),
        b_y=scale * rng.standard_normal(M),
        b_z=scale * rng.standard_normal(N),
        sigma2=rng.uniform(0.3, 1.5, size=L),
    )
    c = Offsets(
        c_x=rng.standard_normal(L),
        c_y=rng.uniform(0.05, 0.95, size=M),
        c_z=rng.uniform(0.05, 0.95, size=N),
    )
    return p, c


def random_state(rng: np.random.Generator, L: int, M: int,
                 N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One joint state (x, y, z): real x, binary y and z."""
    return (rng.standard_normal(L) * 2.0,
            (rng.random(M) < 0.5).astype(float),
            (rng.random(N) < 0.5).astype(float))


def som_reference(frames: np.ndarray, cfg: AnalysisConfig, seed: int):
    """Online Kohonen training with the straightforward per-frame step
    (fresh arrays for every distance and update).  Returns the nodes and
    the per-epoch quantization error; `train_som` must match both bit for
    bit, so its in-place arithmetic may reorder nothing."""
    f = np.asarray(frames, dtype=np.float64)
    rng = np.random.default_rng(seed)
    nodes = f[rng.choice(f.shape[0], size=cfg.som_nodes, replace=False)].copy()
    lattice = np.arange(cfg.som_nodes)
    d = circular_distance(lattice[:, None], lattice[None, :], cfg.som_nodes)
    qe = np.empty(cfg.som_epochs)
    for epoch in range(cfg.som_epochs):
        if cfg.som_epochs == 1:
            frac = 0.0
        else:
            frac = epoch / (cfg.som_epochs - 1)
        lr = (1.0 - frac) * cfg.som_lr_start + frac * cfg.som_lr_end
        radius = ((1.0 - frac) * cfg.som_radius_start
                  + frac * cfg.som_radius_end)
        step = lr * np.exp(-(d * d) / (2.0 * radius * radius))
        order = rng.permutation(f.shape[0])
        for i in order:
            v = f[i]
            d2 = np.sum((nodes - v) ** 2, axis=1)
            bmu = int(np.argmin(d2))  # argmin takes the lowest index on ties
            nodes += step[bmu][:, None] * (v - nodes)
        qe[epoch] = quantization_error(nodes, f)
    return nodes, qe


# --- training reference -------------------------------------------------------

def _cond_visible(y, p: ModelParams, c: Offsets):
    y = np.asarray(y, dtype=np.float64)
    means = (y - c.c_y) @ p.W.T + c.c_x
    return means, p.sigma2.copy()


def _cond_hidden1(x, z, p: ModelParams, c: Offsets):
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    pre = ((x - c.c_x) / p.sigma2) @ p.W + (z - c.c_z) @ p.U.T + p.b_y
    return sigmoid(pre)


def _cond_hidden2(y, p: ModelParams, c: Offsets):
    y = np.asarray(y, dtype=np.float64)
    return sigmoid((y - c.c_y) @ p.U + p.b_z)


def gibbs_reference(chains: PersistentChains, p: ModelParams, c: Offsets,
                    rng: np.random.Generator) -> PersistentChains:
    """One Gibbs sweep into fresh arrays, draw order z, x, y."""
    z_prob = _cond_hidden2(chains.y, p, c)
    z = (rng.random(z_prob.shape) < z_prob).astype(np.float64)
    means, variances = _cond_visible(chains.y, p, c)
    x = means + rng.standard_normal(means.shape) * np.sqrt(variances)
    y_prob = _cond_hidden1(x, z, p, c)
    y = (rng.random(y_prob.shape) < y_prob).astype(np.float64)
    return PersistentChains(x=x, y=y, z=z)


def session_reference(p: ModelParams, c: Offsets, p_init, n_chains: int,
                      n_iterations: int, record_every: int,
                      seed: int) -> np.ndarray:
    """Frames of a free-running session built from `gibbs_reference`."""
    L, M, N = p.dims
    rng = np.random.default_rng(seed)
    y0 = (rng.random((n_chains, M)) < p_init).astype(np.float64)
    chains = PersistentChains(x=np.broadcast_to(c.c_x, (n_chains, L)).copy(),
                              y=y0,
                              z=np.broadcast_to(c.c_z, (n_chains, N)).copy())
    frames = []
    for sweep in range(1, n_iterations + 1):
        chains = gibbs_reference(chains, p, c, rng)
        if sweep % record_every == 0:
            frames.append(_cond_hidden1(chains.x, chains.z, p, c))
    return np.vstack(frames)


def _batch_gradient_stats(x, y, z, p: ModelParams, c: Offsets) -> GradientStats:
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


def _apply_updates(p: ModelParams, velocity: GradientStats,
                   data_stats: GradientStats, model_stats: GradientStats,
                   lr: float, momentum: float,
                   cfg: TrainConfig) -> tuple[ModelParams, GradientStats]:
    vW = momentum * velocity.dW + lr * (data_stats.dW - model_stats.dW)
    vU = momentum * velocity.dU + lr * (data_stats.dU - model_stats.dU)
    vb_y = momentum * velocity.db_y + lr * (data_stats.db_y - model_stats.db_y)
    vb_z = momentum * velocity.db_z + lr * (data_stats.db_z - model_stats.db_z)
    vs = momentum * velocity.dsigma + (lr * cfg.sigma_lr_factor) * (
        data_stats.dsigma - model_stats.dsigma)
    vs = np.clip(vs, -cfg.sigma_step_clip, cfg.sigma_step_clip)
    sigma = np.maximum(np.sqrt(p.sigma2) + vs, np.sqrt(SIGMA2_FLOOR))
    new = ModelParams(W=p.W + vW, U=p.U + vU, b_y=p.b_y + vb_y,
                      b_z=p.b_z + vb_z, sigma2=sigma * sigma)
    for name, arr in (("W", new.W), ("U", new.U), ("b_y", new.b_y),
                      ("b_z", new.b_z), ("sigma2", new.sigma2)):
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values in {name} after update")
    return new, GradientStats(dW=vW, dU=vU, db_y=vb_y, db_z=vb_z, dsigma=vs)


def _update_offsets(c: Offsets, batch_mean_y, batch_mean_z, batch_mean_x,
                    p: ModelParams, nu: float):
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


def _reconstruction_error(p: ModelParams, c: Offsets, data) -> float:
    L, M, N = check_dims(p, c)
    x = np.atleast_2d(np.asarray(data, dtype=np.float64))
    z_rest = np.broadcast_to(c.c_z, (x.shape[0], N))
    y = _cond_hidden1(x, z_rest, p, c)
    xhat, _ = _cond_visible(y, p, c)
    with np.errstate(over="ignore"):
        return float(np.mean(np.sum((x - xhat) ** 2, axis=1)))


def train_reference(dataset, dims: tuple[int, int, int], cfg: TrainConfig,
                    seed: int):
    """`train` as one allocating, single-threaded loop: every batch
    builds new parameter, offset and chain objects.  Yields a new
    TrainState wherever `train` yields its one state."""
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
    if 0 < n_val < n:
        val = data[perm[:n_val]]
        tr = data[perm[n_val:]]
    else:
        val = data
        tr = data

    p, c = initialize(dims, data.mean(axis=0), rng)

    velocity = GradientStats.zeros(dims)
    n_chains = cfg.batch_size
    chains = PersistentChains(
        x=np.broadcast_to(c.c_x, (n_chains, L)).copy(),
        y=np.broadcast_to(c.c_y, (n_chains, M)).copy(),
        z=np.broadcast_to(c.c_z, (n_chains, N)).copy(),
    )

    log: list[EpochRecord] = []
    best_val = np.inf
    stall = 0

    def state():
        return TrainState(params=p, offsets=c, velocity=velocity,
                          chains=chains, rng=rng, log=log,
                          best_val=best_val, stall=stall)

    yield state()

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
                data_stats = _batch_gradient_stats(batch, mf.y, mf.z, p, c)
                for _ in range(cfg.gibbs_steps_per_batch):
                    chains = gibbs_reference(chains, p, c, rng)
                model_stats = _batch_gradient_stats(chains.x, chains.y, chains.z, p, c)
                p, velocity = _apply_updates(p, velocity, data_stats,
                                             model_stats, lr, momentum, cfg)
                c, db_y, db_z = _update_offsets(c, mf.y.mean(axis=0),
                                                mf.z.mean(axis=0),
                                                batch.mean(axis=0),
                                                p, cfg.offset_rate)
                p = replace(p, b_y=p.b_y + db_y, b_z=p.b_z + db_z)
                # Smooth the persistent hidden-1 state to its conditional
                # probabilities before the next batch.
                chains.y = _cond_hidden1(chains.x, chains.z, p, c)
                gw_norms.append(float(np.linalg.norm(data_stats.dW - model_stats.dW)))
                gu_norms.append(float(np.linalg.norm(data_stats.dU - model_stats.dU)))
            err = _reconstruction_error(p, c, val)
            if not np.isfinite(err):
                raise NumericError("validation reconstruction error is not finite")
        except NumericError as exc:
            raise NumericError(
                f"training diverged in epoch {epoch}: {exc}") from exc

        rec = EpochRecord(epoch=epoch, reconstruction_error=err,
                          learning_rate=lr, momentum=momentum,
                          grad_norm_W=float(np.mean(gw_norms)) if gw_norms else 0.0,
                          grad_norm_U=float(np.mean(gu_norms)) if gu_norms else 0.0,
                          mean_sigma=float(np.mean(np.sqrt(p.sigma2))))
        log.append(rec)

        if err < best_val - 1e-12:
            best_val = err
            stall = 0
        else:
            stall += 1
        yield state()
        if stall >= cfg.patience:
            break
