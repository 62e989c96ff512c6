"""Montage geometry and PGM output."""

import numpy as np
import pytest

from cgdbm.errors import ShapeError
from cgdbm.io import read_pgm
from cgdbm.viz import montage, normalize_tile, save_montage_pgm


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
