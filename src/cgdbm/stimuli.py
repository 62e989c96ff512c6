"""Patch extraction, PCA whitening, and grating stimuli.

The pipeline trains on whitened patch vectors: random square patches are
cut from grayscale images, reduced to the top principal components, and
variance-normalized there.  Gratings are generated in pixel space at
unit amplitude; the analysis scales them to the natural patches and
pushes them through the same whitening transform before they reach the
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, FormatError, ShapeError
from .io import format_float, load_matrix, read_pgm, save_matrix


def load_grayscale_images(directory) -> list[np.ndarray]:
    """All .pgm and .cgmat images in a directory, sorted by filename.
    PGM pixel values are scaled to [0, 1]; .cgmat matrices are taken
    as-is."""
    d = Path(directory)
    if not d.is_dir():
        raise FileNotFoundError(f"image directory {d} does not exist")
    images = []
    for path in sorted(d.iterdir()):
        if path.suffix == ".pgm":
            images.append(read_pgm(path))
        elif path.suffix == ".cgmat":
            arr, _ = load_matrix(path)
            images.append(arr)
    if not images:
        raise FileNotFoundError(f"no .pgm or .cgmat images in {d}")
    return images


def extract_patches(images, side: int, n_patches: int, train_fraction: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Cut n_patches random side x side patches and split them into train
    and test rows (flattened row-major), train_fraction of them for
    training.

    Each patch picks an image uniformly among those large enough, then a
    uniform top-left corner.  Images smaller than the patch are skipped.
    """
    usable = [np.asarray(img, dtype=np.float64) for img in images
              if img.shape[0] >= side and img.shape[1] >= side]
    if not usable:
        raise DomainError(f"no image is at least {side}x{side}")
    out = np.empty((n_patches, side * side))
    idx = rng.integers(0, len(usable), size=n_patches)
    for i in range(n_patches):
        img = usable[idx[i]]
        r = rng.integers(0, img.shape[0] - side + 1)
        c = rng.integers(0, img.shape[1] - side + 1)
        out[i] = img[r:r + side, c:c + side].ravel()
    n_train = int(round(train_fraction * n_patches))
    n_train = min(max(n_train, 1), n_patches - 1)
    return out[:n_train], out[n_train:]


@dataclass(frozen=True)
class Whitener:
    """Top-k PCA whitening transform fitted on training patches."""

    mean: np.ndarray     # (D,)
    eigvals: np.ndarray  # (k,) descending, floored
    basis: np.ndarray    # (D, k) orthonormal columns

    def __post_init__(self):
        if self.basis.shape != (self.mean.shape[0], self.eigvals.shape[0]):
            raise ShapeError("whitener fields have inconsistent shapes")

    @property
    def k(self) -> int:
        return self.eigvals.shape[0]


def fit_whitener(train_rows, k: int) -> Whitener:
    """Fit mean and top-k eigenvectors of the sample covariance
    (normalized by n-1).  Eigenvalues are floored at 1e-8 times the
    largest before any inversion; if fewer than k components survive the
    floor the data does not support the requested dimension."""
    x = np.atleast_2d(np.asarray(train_rows, dtype=np.float64))
    n, d = x.shape
    if n < 2:
        raise DomainError("need at least two rows to fit a whitener")
    if not (1 <= k <= d):
        raise DomainError(f"k={k} must lie in [1, {d}]")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / (n - 1)
    vals, vecs = np.linalg.eigh(cov)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    floor = 1e-8 * max(vals[0], 0.0)
    rank = int(np.sum(vals > floor))
    if rank < k:
        raise DomainError(f"requested k={k} components but the data supports "
                          f"only rank {rank}")
    return Whitener(mean=mean, eigvals=np.maximum(vals[:k], floor).copy(),
                    basis=np.ascontiguousarray(vecs[:, :k]))


def whiten(w: Whitener, rows) -> np.ndarray:
    """Project rows onto the retained components and normalize variance."""
    x = np.asarray(rows, dtype=np.float64)
    return (x - w.mean) @ (w.basis / np.sqrt(w.eigvals))


# --- gratings ---------------------------------------------------------------

def default_frequencies(patch_side: int, count: int = 6) -> np.ndarray:
    """Log-spaced spatial frequencies from one cycle per patch up to a
    quarter of the patch side."""
    if patch_side < 4:
        raise ConfigError("patch_side too small for the default frequencies")
    return np.geomspace(1.0, patch_side / 4.0, count)


def generate_gratings(patch_side: int, orientations_deg, frequencies,
                      phases) -> np.ndarray:
    """Unit-amplitude full-field cosine gratings as flattened patches,
    grouped by orientation: an (orientations, frequencies * phases,
    patch_side**2) array.

    patch(r, c) = cos(2 pi f (c cos t + r sin t) / side + phase) with t
    the orientation in radians.  Within a group rows are ordered by
    frequency, then phase.
    """
    rr, cc = np.meshgrid(np.arange(patch_side), np.arange(patch_side),
                         indexing="ij")
    patches = []
    for theta in orientations_deg:
        t = math.radians(theta)
        proj = cc * math.cos(t) + rr * math.sin(t)
        for f in frequencies:
            for phi in phases:
                g = np.cos(2.0 * np.pi * f * proj / patch_side + phi)
                patches.append(g.ravel())
    return np.array(patches).reshape(len(orientations_deg), -1,
                                     patch_side * patch_side)


def mean_centered_norm(patches) -> float:
    """Mean Euclidean norm of the rows after subtracting the mean row."""
    x = np.atleast_2d(np.asarray(patches, dtype=np.float64))
    xc = x - x.mean(axis=0)
    return float(np.mean(np.linalg.norm(xc, axis=1)))


def save_whitener(path, w: Whitener, patch_side: int,
                  mean_patch_norm: float) -> None:
    """Persist a whitener as one flat row (mean, eigvals, basis), with
    the patch side it was fitted on and the mean centered patch norm."""
    flat = np.concatenate([w.mean, w.eigvals, w.basis.ravel()])
    meta = {"patch_side": str(patch_side),
            "mean_patch_norm": format_float(mean_patch_norm),
            "format": "whitener", "d": str(w.mean.shape[0]), "k": str(w.k)}
    save_matrix(path, flat[None, :], meta=meta)


def load_whitener(path) -> tuple[Whitener, dict]:
    """The whitener and its header.  The header's patch_side squares to
    the patch dimension d and its mean_patch_norm is finite and
    positive, so both can be read with int() and float()."""
    flat, meta = load_matrix(path)
    if meta.get("format") != "whitener":
        raise FormatError(f"{path}: not a whitener container")
    try:
        d, k = int(meta["d"]), int(meta["k"])
    except (KeyError, ValueError):
        raise FormatError(f"{path}: missing whitener dimensions") from None
    if flat.shape != (1, d + k + d * k):
        raise FormatError(f"{path}: whitener payload does not match d={d} "
                          f"k={k}")
    try:
        patch_side = int(meta["patch_side"])
        mean_patch_norm = float(meta["mean_patch_norm"])
    except (KeyError, ValueError):
        raise FormatError(f"{path}: missing patch_side or "
                          f"mean_patch_norm") from None
    if patch_side * patch_side != d:
        raise FormatError(f"{path}: patch_side={patch_side} does not square "
                          f"to d={d}")
    if not (math.isfinite(mean_patch_norm) and mean_patch_norm > 0.0):
        raise FormatError(f"{path}: mean_patch_norm={mean_patch_norm} is not "
                          f"finite and positive")
    row = flat[0]
    w = Whitener(mean=row[:d], eigvals=row[d:d + k],
                 basis=row[d + k:].reshape(d, k))
    return w, meta
