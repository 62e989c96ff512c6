"""Deterministic image montages: PGM grids and SVG pages with embedded
PNGs.  No drawing libraries; PNG files are assembled directly so reruns
are byte-identical."""

from __future__ import annotations

import base64
import struct
import zlib

import numpy as np

from .errors import ShapeError
from .io import open_atomic, write_pgm

PAD = 1         # gap between tiles and around the grid, in pixels
GAP_GRAY = 0.5  # gray level of the gaps
SVG_SCALE = 8   # screen pixels per montage pixel in the SVG pages


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


# --- minimal PNG writer -----------------------------------------------------

def _chunk(tag: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + tag + data
            + struct.pack(">I", zlib.crc32(tag + data)))


def png_gray_bytes(img) -> bytes:
    """8-bit grayscale PNG from values in [0, 1]."""
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError("image must be 2-d")
    u8 = np.rint(np.clip(a, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = u8.shape
    raw = b"".join(b"\x00" + u8[r].tobytes() for r in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(raw, 9)) + _chunk(b"IEND", b""))


# --- SVG montage ------------------------------------------------------------

def save_svg_montage(path, tiles, cols: int, labels=None,
                     title: str = "") -> None:
    """One SVG page: the montage as an embedded pixel-exact PNG, an
    optional title, and optional per-tile labels beneath each tile."""
    grid = montage(tiles, cols)
    if labels is not None and len(labels) != len(tiles):
        raise ShapeError("one label per tile required")
    png = base64.b64encode(png_gray_bytes(grid)).decode("ascii")
    gh, gw = grid.shape
    tw = np.shape(tiles[0])[1]
    top = 24 if title else 0
    label_h = 14 if labels is not None else 0
    width = gw * SVG_SCALE
    height = gh * SVG_SCALE + top + label_h * (-(-len(tiles) // cols))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        lines.append(f'<text x="4" y="16" font-family="monospace" '
                     f'font-size="13">{title}</text>')
    lines.append(
        f'<image x="0" y="{top}" width="{width}" height="{gh * SVG_SCALE}" '
        f'style="image-rendering:pixelated" '
        f'xlink:href="data:image/png;base64,{png}" '
        f'xmlns:xlink="http://www.w3.org/1999/xlink"/>')
    if labels is not None:
        # labels sit below the image, one text line per tile row
        for i, text in enumerate(labels):
            r, c = divmod(i, cols)
            x = (PAD + c * (tw + PAD) + tw / 2) * SVG_SCALE
            y = top + gh * SVG_SCALE + 11 + r * label_h
            lines.append(f'<text x="{x:.1f}" y="{y}" font-family="monospace" '
                         f'font-size="10" text-anchor="middle">{text}</text>')
    lines.append("</svg>")
    with open_atomic(path) as fh:
        fh.write("\n".join(lines) + "\n")
