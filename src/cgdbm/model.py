"""Centered Gaussian-binary deep Boltzmann machine: energy and conditionals.

Three layers: a real-valued visible layer x with per-unit Gaussian noise,
a binary hidden layer y, and a binary hidden layer z on top of y.  Every
unit carries a centering offset, and all couplings and biases act on the
offset-subtracted activations:

    E(x, y, z) =   sum_i (x_i - cx_i)^2 / (2 s_i^2)
                 - sum_ij (x_i - cx_i) W_ij (y_j - cy_j) / s_i^2
                 - b_y . (y - cy) - b_z . (z - cz)
                 - (y - cy)^T U (z - cz)

with s_i^2 the visible variances.  P(x, y, z) is exp(-E) normalized.
The gradients of -E that training follows are batch statistics, computed
in `cgdbm.training.batch_gradient_stats`.
"""

from __future__ import annotations

import _imp
import importlib
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError

# Lower bound applied to the visible variances wherever they are set.
SIGMA2_FLOOR = 1e-4


_expit = None


def _expit_extension_spec():
    """Spec of scipy's compiled ``special/_special_ufuncs`` module, found
    without importing scipy, or None if there is no such file."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    return importlib.machinery.PathFinder.find_spec(
        "_special_ufuncs",
        [os.path.join(d, "special") for d in scipy.submodule_search_locations])


def _load_expit():
    spec = _expit_extension_spec()
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except (ImportError, OSError):
            pass
        else:
            if hasattr(module, "expit"):
                return module.expit
    from scipy.special import expit
    return expit


def load_stdtrit():
    """scipy's ``stdtrit`` ufunc, the quantile of Student's t, loaded
    without running the ``scipy.special`` package init.

    ``stdtrit`` lives in the compiled ``scipy.special._ufuncs``, which
    imports sibling modules of its package, so unlike ``expit`` it cannot
    be loaded under a name of its own.  An unexecuted ``scipy.special``
    module stands in as its parent for that one import, under the import
    lock so that another thread's import of a module not yet loaded waits
    until it is gone.  The submodules stay in ``sys.modules``, where a
    later ``import scipy.special`` finds them, so both routes give the
    same ufunc object.  This saves about 0.25 s in every ``analyze``
    process.  If ``scipy.special`` is already imported, or the direct
    load raises ``ImportError`` or ``AttributeError``, the function comes
    from ``scipy.special``.
    """
    _imp.acquire_lock()
    try:
        if "scipy.special" not in sys.modules:
            try:
                return _ufuncs_without_package_init().stdtrit
            except (ImportError, AttributeError):
                pass
    finally:
        _imp.release_lock()
    from scipy.special import stdtrit
    return stdtrit


def _ufuncs_without_package_init():
    """``scipy.special._ufuncs``, imported below a stand-in parent."""
    spec = importlib.util.find_spec("scipy.special")
    sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        del sys.modules["scipy.special"]


def sigmoid(x, out=None):
    """Logistic function, elementwise: scipy's ``expit``, written into
    `out` if given.

    ``expit`` is loaded on the first call rather than with this module,
    and from the compiled module that defines it, ``_special_ufuncs``,
    not through ``scipy.special``: the package's init pulls in numpy's
    testing and f2py modules and costs about 0.3 s in every process that
    samples a unit, against 2 ms for the extension alone.  The extension
    is loaded under its own name and not entered in ``sys.modules``, so a
    later ``import scipy.special`` runs as it would without it.  If scipy
    has no such file, or loading it raises ``ImportError`` or ``OSError``,
    or it has no ``expit``, the function comes from ``scipy.special``.
    Training is chaotic at the scale of one ulp, so a hand-written numpy
    logistic, which differs from ``expit`` in the last bits, would change
    every trained model.
    """
    global _expit
    if _expit is None:
        _expit = _load_expit()
    return _expit(x, out=out)


def _as_float_array(a, name: str, ndim: int) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-d, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class ModelParams:
    """Couplings, biases and visible variances.  Arrays are not copied.
    Treat an instance as immutable; only `training.train` updates the
    arrays of its own instance in place, and hands out copies."""

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


def check_dims(p: ModelParams, c: Offsets) -> tuple[int, int, int]:
    """Validate that parameters and offsets describe the same model."""
    if p.dims != c.dims:
        raise ShapeError(f"parameter dims {p.dims} != offset dims {c.dims}")
    return p.dims


def energy(x, y, z, p: ModelParams, c: Offsets) -> np.ndarray:
    """Energy of each joint state (x[r], y[r], z[r]), one value per row.
    Lower energy means higher probability."""
    L, M, N = check_dims(p, c)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if (x.shape[1:] != (L,) or y.shape[1:] != (M,) or z.shape[1:] != (N,)
            or not x.shape[0] == y.shape[0] == z.shape[0]):
        raise ShapeError(f"state shapes {(x.shape, y.shape, z.shape)} "
                         f"do not match dims {(L, M, N)}")
    t = x - c.c_x
    yc = y - c.c_y
    zc = z - c.c_z
    tw = t / p.sigma2
    quad = 0.5 * np.sum(tw * t, axis=1)
    coupling = np.sum(tw * (yc @ p.W.T), axis=1)
    e = quad - coupling - yc @ p.b_y - zc @ p.b_z - np.sum((yc @ p.U) * zc, axis=1)
    if not np.all(np.isfinite(e)):
        raise NumericError(f"energy evaluated to a non-finite value ({e})")
    return e


def cond_visible(y, p: ModelParams, c: Offsets, out=None):
    """Gaussian conditional of the visible layer given hidden-1.

    Accepts a single y vector or a batch (rows).  Returns (means,
    variances); the means are written into `out` if given, and the
    variances are the model's own sigma2 array, not a copy, whatever y
    is.
    """
    y = np.asarray(y, dtype=np.float64)
    means = np.matmul(y - c.c_y, p.W.T, out=out)
    means += c.c_x
    return means, p.sigma2


def cond_hidden1(x, z, p: ModelParams, c: Offsets, out=None):
    """P(y_j = 1 | x, z).  The bottom-up drive is variance-scaled: the
    x term enters as (x - c_x) / sigma2, which is what the energy's
    coupling term implies.  Accepts vectors or batches; the result is
    written into `out` if given."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    xs = x - c.c_x
    xs /= p.sigma2
    pre = np.matmul(xs, p.W, out=out)
    pre += (z - c.c_z) @ p.U.T
    pre += p.b_y
    return sigmoid(pre, out=pre)


def cond_hidden2(y, p: ModelParams, c: Offsets, out=None):
    """P(z_k = 1 | y).  Accepts a vector or a batch; the result is
    written into `out` if given."""
    y = np.asarray(y, dtype=np.float64)
    pre = np.matmul(y - c.c_y, p.U, out=out)
    pre += p.b_z
    return sigmoid(pre, out=pre)
