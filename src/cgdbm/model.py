"""Centered Gaussian-binary deep Boltzmann machine: energy, conditionals, gradients.

Three layers: a real-valued visible layer x with per-unit Gaussian noise,
a binary hidden layer y, and a binary hidden layer z on top of y.  Every
unit carries a centering offset, and all couplings and biases act on the
offset-subtracted activations:

    E(x, y, z) =   sum_i (x_i - cx_i)^2 / (2 s_i^2)
                 - sum_ij (x_i - cx_i) W_ij (y_j - cy_j) / s_i^2
                 - b_y . (y - cy) - b_z . (z - cz)
                 - (y - cy)^T U (z - cz)

with s_i^2 the visible variances.  P(x, y, z) is exp(-E) normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError

# Lower bound applied to the visible variances wherever they are set.
SIGMA2_FLOOR = 1e-4


def sigmoid(x):
    """Logistic function, elementwise: scipy's ``expit``.

    scipy is imported on the first call rather than with this module, so
    a process that never samples a unit does not pay for loading it.
    Training is chaotic at the scale of one ulp, so a hand-written numpy
    logistic, which differs from ``expit`` in the last bits, would change
    every trained model.
    """
    from scipy.special import expit

    return expit(x)


def _as_float_array(a, name: str, ndim: int) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-d, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class ModelParams:
    """Couplings, biases and visible variances.  Arrays are not copied;
    treat an instance as immutable and build a new one to update."""

    W: np.ndarray       # (L, M) visible to hidden-1 coupling
    U: np.ndarray       # (M, N) hidden-1 to hidden-2 coupling
    b_y: np.ndarray     # (M,)
    b_z: np.ndarray     # (N,)
    sigma2: np.ndarray  # (L,) per-visible-unit variance

    def __post_init__(self):
        object.__setattr__(self, "W", _as_float_array(self.W, "W", 2))
        object.__setattr__(self, "U", _as_float_array(self.U, "U", 2))
        object.__setattr__(self, "b_y", _as_float_array(self.b_y, "b_y", 1))
        object.__setattr__(self, "b_z", _as_float_array(self.b_z, "b_z", 1))
        object.__setattr__(self, "sigma2", _as_float_array(self.sigma2, "sigma2", 1))
        L, M = self.W.shape
        M2, N = self.U.shape
        if M2 != M:
            raise ShapeError(f"W is {self.W.shape} but U is {self.U.shape}; "
                             f"hidden-1 sizes disagree ({M} vs {M2})")
        if self.b_y.shape != (M,):
            raise ShapeError(f"b_y has shape {self.b_y.shape}, expected ({M},)")
        if self.b_z.shape != (N,):
            raise ShapeError(f"b_z has shape {self.b_z.shape}, expected ({N},)")
        if self.sigma2.shape != (L,):
            raise ShapeError(f"sigma2 has shape {self.sigma2.shape}, expected ({L},)")
        if np.any(self.sigma2 <= 0.0):
            raise DomainError("sigma2 entries must be positive")
        # Tiny positive variances are floored, not rejected.
        object.__setattr__(self, "sigma2", np.maximum(self.sigma2, SIGMA2_FLOOR))

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.W.shape[0], self.W.shape[1], self.U.shape[1])


@dataclass(frozen=True)
class Offsets:
    """Centering offsets.  c_x is real-valued; c_y and c_z live in [0, 1]
    (moving averages of unit probabilities, or exactly 0 for the
    uncentered parameterization)."""

    c_x: np.ndarray  # (L,)
    c_y: np.ndarray  # (M,)
    c_z: np.ndarray  # (N,)

    def __post_init__(self):
        object.__setattr__(self, "c_x", _as_float_array(self.c_x, "c_x", 1))
        object.__setattr__(self, "c_y", _as_float_array(self.c_y, "c_y", 1))
        object.__setattr__(self, "c_z", _as_float_array(self.c_z, "c_z", 1))
        for name in ("c_x", "c_y", "c_z"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"{name} must be finite")
        for name in ("c_y", "c_z"):
            v = getattr(self, name)
            if v.size and (v.min() < 0.0 or v.max() > 1.0):
                raise DomainError(f"{name} entries must lie in [0, 1]")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.c_x.shape[0], self.c_y.shape[0], self.c_z.shape[0])


@dataclass(frozen=True)
class FullState:
    """One joint configuration: real x, binary y and z."""

    x: np.ndarray  # (L,)
    y: np.ndarray  # (M,) entries in {0, 1}
    z: np.ndarray  # (N,) entries in {0, 1}

    def __post_init__(self):
        object.__setattr__(self, "x", _as_float_array(self.x, "x", 1))
        object.__setattr__(self, "y", _as_float_array(self.y, "y", 1))
        object.__setattr__(self, "z", _as_float_array(self.z, "z", 1))
        if not np.all(np.isfinite(self.x)):
            raise DomainError("x must be finite")
        for name in ("y", "z"):
            v = getattr(self, name)
            if not np.all((v == 0.0) | (v == 1.0)):
                raise DomainError(f"{name} entries must be 0 or 1")


@dataclass(frozen=True)
class EnergyGradient:
    """Partial derivatives of -E at a single state, one block per
    parameter group.  dsigma is taken with respect to the standard
    deviations s_i, not the variances."""

    dW: np.ndarray      # (L, M)
    dU: np.ndarray      # (M, N)
    db_y: np.ndarray    # (M,)
    db_z: np.ndarray    # (N,)
    dsigma: np.ndarray  # (L,)


def check_dims(p: ModelParams, c: Offsets) -> tuple[int, int, int]:
    """Validate that parameters and offsets describe the same model."""
    if p.dims != c.dims:
        raise ShapeError(f"parameter dims {p.dims} != offset dims {c.dims}")
    return p.dims


def energy(s: FullState, p: ModelParams, c: Offsets) -> float:
    """Energy of one joint state.  Lower energy means higher probability."""
    L, M, N = check_dims(p, c)
    if s.x.shape != (L,) or s.y.shape != (M,) or s.z.shape != (N,):
        raise ShapeError(f"state shapes {(s.x.shape, s.y.shape, s.z.shape)} "
                         f"do not match dims {(L, M, N)}")
    t = s.x - c.c_x
    yc = s.y - c.c_y
    zc = s.z - c.c_z
    inv = 1.0 / p.sigma2
    quad = 0.5 * np.dot(t * inv, t)
    coupling = np.dot(t * inv, p.W @ yc)
    e = quad - coupling - np.dot(p.b_y, yc) - np.dot(p.b_z, zc) - yc @ p.U @ zc
    if not np.isfinite(e):
        raise NumericError(f"energy evaluated to a non-finite value ({e})")
    return float(e)


def unnormalized_log_prob(s: FullState, p: ModelParams, c: Offsets) -> float:
    """log of the unnormalized probability, i.e. -energy."""
    return -energy(s, p, c)


def cond_visible(y, p: ModelParams, c: Offsets):
    """Gaussian conditional of the visible layer given hidden-1.

    Accepts a single y vector or a batch (rows).  Returns (means,
    variances); the variances are the model's sigma2 regardless of y.
    """
    y = np.asarray(y, dtype=np.float64)
    means = (y - c.c_y) @ p.W.T + c.c_x
    return means, p.sigma2.copy()


def cond_hidden1(x, z, p: ModelParams, c: Offsets):
    """P(y_j = 1 | x, z).  The bottom-up drive is variance-scaled: the
    x term enters as (x - c_x) / sigma2, which is what the energy's
    coupling term implies.  Accepts vectors or batches."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    pre = ((x - c.c_x) / p.sigma2) @ p.W + (z - c.c_z) @ p.U.T + p.b_y
    return sigmoid(pre)


def cond_hidden2(y, p: ModelParams, c: Offsets):
    """P(z_k = 1 | y).  Accepts a vector or a batch."""
    y = np.asarray(y, dtype=np.float64)
    return sigmoid((y - c.c_y) @ p.U + p.b_z)


def energy_gradients(s: FullState, p: ModelParams, c: Offsets) -> EnergyGradient:
    """Per-state gradients of -E with respect to every parameter group."""
    check_dims(p, c)
    t = s.x - c.c_x
    yc = s.y - c.c_y
    zc = s.z - c.c_z
    inv = 1.0 / p.sigma2
    dW = np.outer(t * inv, yc)
    dU = np.outer(yc, zc)
    m = p.W @ yc
    sigma = np.sqrt(p.sigma2)
    dsigma = (t * t - 2.0 * t * m) / sigma**3
    return EnergyGradient(dW=dW, dU=dU, db_y=yc.copy(), db_z=zc.copy(),
                          dsigma=dsigma)
