"""Montage geometry and PNG/SVG output determinism."""

import zlib

import numpy as np
import pytest

from cgdbm.errors import ShapeError
from cgdbm.io import read_pgm
from cgdbm.viz import (montage, normalize_tile, png_gray_bytes,
                       save_montage_pgm, save_svg_montage)


def test_normalize_tile():
    t = normalize_tile(np.array([[1.0, 3.0], [2.0, 1.0]]))
    assert t.min() == 0.0 and t.max() == 1.0
    np.testing.assert_array_equal(normalize_tile(np.full((3, 3), 7.0)), 0.5)


def test_montage_geometry():
    tiles = [np.zeros((4, 5)) for _ in range(7)]
    grid = montage(tiles, cols=3)
    # 3 rows of tiles (7 tiles in 3 cols), 1px separators all around
    assert grid.shape == (3 * 4 + 4, 3 * 5 + 4)
    # empty cell in the last row keeps the gap color
    assert grid[11, 11] == 0.5


def test_montage_tile_placement():
    # tiles spanning [0, 1]: min-max normalization leaves them as they are
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    grid = montage([a, 1.0 - a], cols=2)
    np.testing.assert_array_equal(grid[1:3, 1:3], a)
    np.testing.assert_array_equal(grid[1:3, 4:6], 1.0 - a)


def test_montage_validation():
    with pytest.raises(ShapeError):
        montage([], cols=2)
    with pytest.raises(ShapeError):
        montage([np.zeros((2, 2)), np.zeros((3, 2))], cols=2)


def test_montage_pgm_round_trip(tmp_path, rng):
    tiles = [rng.uniform(size=(6, 6)) for _ in range(4)]
    path = tmp_path / "grid.pgm"
    save_montage_pgm(path, tiles, cols=2)
    img = read_pgm(path)
    assert img.shape == (15, 15)


def test_png_bytes_valid_and_deterministic(rng):
    img = rng.uniform(size=(9, 13))
    data1 = png_gray_bytes(img)
    data2 = png_gray_bytes(img)
    assert data1 == data2
    assert data1.startswith(b"\x89PNG\r\n\x1a\n")
    assert data1.endswith(b"IEND" + zlib.crc32(b"IEND").to_bytes(4, "big"))
    # decode the IDAT back and compare pixels
    idat_start = data1.index(b"IDAT") + 4
    idat_len = int.from_bytes(data1[idat_start - 8:idat_start - 4], "big")
    raw = zlib.decompress(data1[idat_start:idat_start + idat_len])
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(9, 14)[:, 1:]
    np.testing.assert_array_equal(
        rows, np.rint(np.clip(img, 0, 1) * 255).astype(np.uint8))


def test_svg_montage_written(tmp_path, rng):
    tiles = [rng.uniform(size=(5, 5)) for _ in range(6)]
    path = tmp_path / "m.svg"
    save_svg_montage(path, tiles, cols=3, labels=[f"u{i}" for i in range(6)],
                     title="filters")
    text = path.read_text()
    assert text.startswith("<svg ")
    assert "data:image/png;base64," in text
    assert ">u5<" in text and ">filters<" in text
    save_svg_montage(tmp_path / "m2.svg", tiles, cols=3,
                     labels=[f"u{i}" for i in range(6)], title="filters")
    assert (tmp_path / "m2.svg").read_text() == text
    with pytest.raises(ShapeError):
        save_svg_montage(tmp_path / "bad.svg", tiles, cols=3, labels=["x"])
