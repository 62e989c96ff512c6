"""Independent oracles used to gate the library.

Everything in this file recomputes quantities from the energy definition
alone (finite differences, explicit enumeration, numerical quadrature),
deliberately not sharing code paths with the package internals beyond the
scalar `energy` function itself.  The SOM reference is the exception: it
is a plain per-frame loop compared bit for bit, so it shares the lattice
distance and the quantization error with `train_som`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from cgdbm.analysis import SomConfig, circular_distance, quantization_error
from cgdbm.model import FullState, ModelParams, Offsets, energy


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


def fd_gradients(s: FullState, p: ModelParams, c: Offsets, h: float = 1e-5):
    """Central finite differences of -E for every parameter group.

    The sigma block differentiates with respect to the standard
    deviations: sigma2 is rebuilt as (sigma +- h)^2 for each probe.
    """
    def e_of(params: ModelParams) -> float:
        return energy(s, params, c)

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
    e1 = energy(FullState(x=x, y=y1, z=z), p, c)
    e0 = energy(FullState(x=x, y=y0, z=z), p, c)
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
    e1 = energy(FullState(x=x, y=y, z=z1), p, c)
    e0 = energy(FullState(x=x, y=y, z=z0), p, c)
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
            vals = np.array([math.exp(-energy(FullState(x=np.array([xv]), y=y, z=z), p, c))
                             for xv in xs])
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


def random_state(rng: np.random.Generator, L: int, M: int, N: int) -> FullState:
    return FullState(
        x=rng.standard_normal(L) * 2.0,
        y=(rng.random(M) < 0.5).astype(float),
        z=(rng.random(N) < 0.5).astype(float),
    )


def som_reference(frames: np.ndarray, cfg: SomConfig):
    """Online Kohonen training with the straightforward per-frame step
    (fresh arrays for every distance and update).  Returns the nodes and
    the per-epoch quantization error; `train_som` must match both bit for
    bit, so its in-place arithmetic may reorder nothing."""
    f = np.asarray(frames, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    nodes = f[rng.choice(f.shape[0], size=cfg.n_nodes, replace=False)].copy()
    lattice = np.arange(cfg.n_nodes)
    d = circular_distance(lattice[:, None], lattice[None, :], cfg.n_nodes)
    qe = np.empty(cfg.n_epochs)
    for epoch in range(cfg.n_epochs):
        if cfg.n_epochs == 1:
            frac = 0.0
        else:
            frac = epoch / (cfg.n_epochs - 1)
        lr = (1.0 - frac) * cfg.lr_start + frac * cfg.lr_end
        radius = (1.0 - frac) * cfg.radius_start + frac * cfg.radius_end
        step = lr * np.exp(-(d * d) / (2.0 * radius * radius))
        order = rng.permutation(f.shape[0])
        for i in order:
            v = f[i]
            d2 = np.sum((nodes - v) ** 2, axis=1)
            bmu = int(np.argmin(d2))  # argmin takes the lowest index on ties
            nodes += step[bmu][:, None] * (v - nodes)
        qe[epoch] = quantization_error(nodes, f)
    return nodes, qe
