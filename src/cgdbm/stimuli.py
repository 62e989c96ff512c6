"""Patch extraction, PCA whitening, and grating stimuli.

The pipeline trains on whitened patch vectors: random square patches are
cut from grayscale images, reduced to the top principal components, and
variance-normalized there.  The patches are held once: the caller
centers the training rows in place, and the whitener is fitted, the
training rows whitened and their mean norm taken from that one buffer.
The whitened rows are made block by block, as `RowBlocks` that
`save_matrix` writes as they come, so no whole whitened split is held.
Gratings are generated in pixel space at unit amplitude; the analysis
scales them to the natural patches and pushes them through the same
whitening transform before they reach the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError, FormatError, ShapeError
from .io import (BLOCK_ROWS, RowBlocks, format_float, load_matrix, read_pgm,
                 save_matrix)


def load_grayscale_images(directory) -> list[np.ndarray]:
    """All .pgm images in a directory (P2 or P5, 8- or 16-bit), sorted
    by filename, with pixel values scaled to [0, 1].  Files of any other
    suffix are skipped."""
    d = Path(directory)
    if not d.is_dir():
        raise FileNotFoundError(f"image directory {d} does not exist")
    images = [read_pgm(path) for path in sorted(d.iterdir())
              if path.suffix == ".pgm"]
    if not images:
        raise FileNotFoundError(f"no .pgm images in {d}")
    return images


def extract_patches(images, side: int, n_patches: int, train_fraction: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Cut n_patches random side x side patches and split them into train
    and test rows (flattened row-major), train_fraction of them for
    training.

    Each patch picks an image uniformly among those large enough, then a
    uniform top-left corner.  Images smaller than the patch are skipped.

    Draw order on rng: the image indices of all patches as one vector,
    then one bounded draw per corner coordinate, row then column, patch
    by patch.  A coordinate with a single possible value (an image side
    equal to the patch side) draws nothing, and neither do the indices
    when only one image is usable.
    """
    usable = [np.asarray(img, dtype=np.float64) for img in images
              if img.shape[0] >= side and img.shape[1] >= side]
    if not usable:
        raise DomainError(f"no image is at least {side}x{side}")
    idx = rng.integers(0, len(usable), size=n_patches)
    shapes = np.array([img.shape for img in usable])
    # one broadcast draw makes the same bounded draws, in the same order,
    # as one scalar rng.integers call per coordinate
    corners = rng.integers(0, (shapes[idx] - side + 1).ravel()).reshape(-1, 2)
    out = np.empty((n_patches, side, side))
    # an image's patches are copied a few at a time, so that no copy
    # beside the buffer holds more than BLOCK_ROWS rows of side pixels
    step = max(BLOCK_ROWS // side, 1)
    for j, img in enumerate(usable):
        windows = sliding_window_view(img, (side, side))
        sel = np.flatnonzero(idx == j)
        for a in range(0, len(sel), step):
            part = sel[a:a + step]
            rows, cols = corners[part].T
            out[part] = windows[rows, cols]
    out = out.reshape(n_patches, side * side)
    n_train = n_train_rows(n_patches, train_fraction)
    return out[:n_train], out[n_train:]


def n_train_rows(n_patches: int, train_fraction: float) -> int:
    """How many of n_patches rows extract_patches gives to training:
    train_fraction of them, rounded, leaving at least one on each side."""
    n_train = int(round(train_fraction * n_patches))
    return min(max(n_train, 1), n_patches - 1)


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

    @property
    def projection(self) -> np.ndarray:
        """(D, k) map from centered rows to whitened rows."""
        return self.basis / np.sqrt(self.eigvals)


def fit_whitener(centered, mean, k: int) -> Whitener:
    """Fit the top-k eigenvectors of the sample covariance (normalized by
    n-1) of training rows already centered on `mean`, their column mean.
    The rows are only read, so a caller can whiten them afterwards as
    `centered @ w.projection`.  Eigenvalues are floored at 1e-8 times the
    largest before any inversion; if fewer than k components survive the
    floor the data does not support the requested dimension."""
    x = np.atleast_2d(np.asarray(centered, dtype=np.float64))
    n, d = x.shape
    if n < 2:
        raise DomainError("need at least two rows to fit a whitener")
    if not (1 <= k <= d):
        raise DomainError(f"k={k} must lie in [1, {d}]")
    cov = x.T @ x / (n - 1)
    vals, vecs = np.linalg.eigh(cov)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    floor = 1e-8 * max(vals[0], 0.0)
    rank = int(np.sum(vals > floor))
    if rank < k:
        raise DomainError(f"requested k={k} components but the data supports "
                          f"only rank {rank}")
    return Whitener(mean=np.asarray(mean, dtype=np.float64),
                    eigvals=np.maximum(vals[:k], floor).copy(),
                    basis=np.ascontiguousarray(vecs[:, :k]))


def whiten(w: Whitener, rows) -> np.ndarray:
    """Project rows onto the retained components and normalize variance."""
    x = np.asarray(rows, dtype=np.float64)
    return (x - w.mean) @ w.projection


def project_in_blocks(w: Whitener, centered: np.ndarray) -> RowBlocks:
    """The whitened rows `centered @ w.projection` of rows already
    centered on w.mean, made block by block when save_matrix asks for
    them.  Each block is one product over its rows, with the bits of the
    one-shot product (see io.BLOCK_ROWS)."""
    projection = w.projection
    return RowBlocks((centered.shape[0], w.k),
                     lambda s: centered[s] @ projection)


def whiten_in_blocks(w: Whitener, rows: np.ndarray) -> RowBlocks:
    """whiten(w, rows), one block of rows at a time, so only a block is
    ever centered in a copy."""
    return RowBlocks((rows.shape[0], w.k), lambda s: whiten(w, rows[s]))


def mean_norm_in_place(centered: np.ndarray) -> float:
    """Mean Euclidean norm of the rows of a float64 array, which it
    squares in place, so it is the array's last use: np.linalg.norm's
    own row sum, without its two row-sized temporaries."""
    np.multiply(centered, centered, out=centered)
    return float(np.mean(np.sqrt(np.add.reduce(centered, axis=1))))


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


def save_whitener(path, w: Whitener, patch_side: int,
                  mean_patch_norm: float) -> None:
    """Persist a whitener as one flat row (mean, eigvals, basis), with
    the patch side it was fitted on and the mean centered patch norm."""
    flat = np.concatenate([w.mean, w.eigvals, w.basis.ravel()])
    meta = {"patch_side": str(patch_side),
            "mean_patch_norm": format_float(mean_patch_norm),
            "kind": "whitener", "d": str(w.mean.shape[0]), "k": str(w.k)}
    save_matrix(path, flat[None, :], meta=meta)


def load_whitener(path) -> tuple[Whitener, dict]:
    """The whitener and its header.  The header's patch_side squares to
    the patch dimension d and its mean_patch_norm is finite and
    positive, so both can be read with int() and float()."""
    flat, meta = load_matrix(path, kind="whitener")
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
