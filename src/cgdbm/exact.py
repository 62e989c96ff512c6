"""Exact quantities on small models: integrating out the Gaussian layer,
enumerating the binary layers, and the centered-to-uncentered
reparameterization.

Everything here scales as 2^(M+N) and refuses to run past 20 binary units;
it exists to gate the stochastic code, not to be fast.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .errors import DomainError, ShapeError
from .model import ModelParams, Offsets, check_dims

# Enumeration refuses above this many binary units (2^20 states).
MAX_ENUM_UNITS = 20


def all_binary_states(n: int) -> np.ndarray:
    """All binary vectors of length n as a (2^n, n) float array.

    Row index i encodes the state with bit j equal to (i >> j) & 1, so
    unit 0 is the least significant bit.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > MAX_ENUM_UNITS:
        raise DomainError(f"refusing to enumerate 2^{n} states (limit 2^{MAX_ENUM_UNITS})")
    idx = np.arange(2**n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)


def hidden_free_energy_table(p: ModelParams, c: Offsets) -> np.ndarray:
    """Free energy F(y, z) of every hidden configuration with the
    visible layer integrated out, exp(-F(y, z)) = integral over x of
    exp(-E), as a (2^M, 2^N) table:

    F = -1/2 m^T m / sigma2 - b_y.(y-cy) - b_z.(z-cz)
        - (y-cy)^T U (z-cz) - 1/2 sum_i log(2 pi sigma2_i)
    with m = W (y - cy).

    Row/column indices follow the bit order of all_binary_states.
    """
    L, M, N = check_dims(p, c)
    if M + N > MAX_ENUM_UNITS:
        raise DomainError(f"M + N = {M + N} exceeds enumeration limit {MAX_ENUM_UNITS}")
    ys = all_binary_states(M) - c.c_y          # (2^M, M)
    zs = all_binary_states(N) - c.c_z          # (2^N, N)
    m = ys @ p.W.T                             # (2^M, L)
    quad = 0.5 * np.einsum("sl,sl->s", m / p.sigma2, m)
    by = ys @ p.b_y
    bz = zs @ p.b_z
    cross = ys @ p.U @ zs.T                    # (2^M, 2^N)
    log_norm = 0.5 * np.sum(np.log(2.0 * np.pi * p.sigma2))
    return -(quad + by)[:, None] - bz[None, :] - cross - log_norm


def brute_force_hidden_marginal(p: ModelParams, c: Offsets) -> np.ndarray:
    """Exact joint marginal P(y, z) as a (2^M, 2^N) table summing to 1."""
    f = hidden_free_energy_table(p, c)
    g = -f
    g -= g.max()
    table = np.exp(g)
    return table / table.sum()


def log_partition(p: ModelParams, c: Offsets) -> float:
    """log Z of the full joint, by enumerating the binary layers."""
    return float(logsumexp(-hidden_free_energy_table(p, c)))


def log_likelihood(x_rows, p: ModelParams, c: Offsets) -> float:
    """Mean log P(x) over the rows of x_rows, computed by enumeration.

    P(x) = sum_{y,z} exp(-E(x, y, z)) / Z.
    """
    L, M, N = check_dims(p, c)
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=np.float64))
    if x_rows.shape[1] != L:
        raise ShapeError(f"x rows have width {x_rows.shape[1]}, expected {L}")
    ys = all_binary_states(M) - c.c_y
    zs = all_binary_states(N) - c.c_z
    by = ys @ p.b_y                            # (2^M,)
    bz = zs @ p.b_z                            # (2^N,)
    cross = ys @ p.U @ zs.T                    # (2^M, 2^N)
    hidden_part = (by[:, None] + bz[None, :] + cross).ravel()

    t = x_rows - c.c_x
    tw = t / p.sigma2
    quad = 0.5 * np.einsum("rl,rl->r", tw, t)  # (R,)
    proj = tw @ p.W @ ys.T                     # (R, 2^M)
    neg_e = (proj[:, :, None] + hidden_part.reshape(ys.shape[0], zs.shape[0])[None, :, :]
             - quad[:, None, None])
    per_row = logsumexp(neg_e.reshape(x_rows.shape[0], -1), axis=1)
    return float(np.mean(per_row) - log_partition(p, c))


def to_uncentered(p: ModelParams, c: Offsets) -> tuple[ModelParams, Offsets]:
    """Fold the hidden offsets into biases and the visible mean, returning
    an equivalent model with c_y = c_z = 0.

    The energy difference between the input model and the output model is
    the same for every joint state, so all conditionals and marginals are
    preserved.  The visible quadratic term cannot absorb the offset shift
    into binary biases, so the output keeps a (shifted) visible mean.
    """
    L, M, N = check_dims(p, c)
    inv = 1.0 / p.sigma2
    wc = p.W @ c.c_y
    b_y = p.b_y - p.U @ c.c_z - p.W.T @ (inv * wc)
    b_z = p.b_z - p.U.T @ c.c_y
    c_x = c.c_x - wc
    p_out = ModelParams(W=p.W.copy(), U=p.U.copy(), b_y=b_y, b_z=b_z,
                        sigma2=p.sigma2.copy())
    c_out = Offsets(c_x=c_x, c_y=np.zeros(M), c_z=np.zeros(N))
    return p_out, c_out
