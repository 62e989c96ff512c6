"""Deterministic image montages, written as 8-bit PGM grids.  No drawing
libraries, so reruns are byte-identical."""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .io import write_pgm

PAD = 1         # gap between tiles and around the grid, in pixels
GAP_GRAY = 0.5  # gray level of the gaps


def normalize_tile(img: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0, 1]; constant tiles become flat 0.5."""
    a = np.asarray(img, dtype=np.float64)
    lo, hi = float(a.min()), float(a.max())
    if hi <= lo:
        return np.full_like(a, 0.5)
    return (a - lo) / (hi - lo)


def montage(tiles, cols: int) -> np.ndarray:
    """Lay equal-sized 2-d tiles, min-max normalized, on a grid, row-major,
    with a uniform gap between them.  Missing cells stay gap-colored."""
    tiles = [np.asarray(t, dtype=np.float64) for t in tiles]
    if not tiles:
        raise ShapeError("montage needs at least one tile")
    h, w = tiles[0].shape
    if any(t.shape != (h, w) for t in tiles):
        raise ShapeError("all tiles must share one shape")
    if cols < 1:
        raise ShapeError("cols must be positive")
    rows = -(-len(tiles) // cols)
    out = np.full((rows * h + (rows + 1) * PAD,
                   cols * w + (cols + 1) * PAD), GAP_GRAY)
    for i, t in enumerate(tiles):
        r, c = divmod(i, cols)
        y = PAD + r * (h + PAD)
        x = PAD + c * (w + PAD)
        out[y:y + h, x:x + w] = normalize_tile(t)
    return out


def save_montage_pgm(path, tiles, cols: int) -> None:
    write_pgm(path, montage(tiles, cols))
