"""Whitening and grating stimuli checks against small closed-form cases."""

import numpy as np
import pytest

from cgdbm.analysis import dewhiten_direction
from cgdbm.config import DataConfig
from cgdbm.errors import ConfigError, DomainError, FormatError
from cgdbm.io import load_matrix, save_matrix, write_pgm
from cgdbm.stimuli import (Whitener, default_frequencies, extract_patches,
                           fit_whitener, generate_gratings,
                           load_grayscale_images, load_whitener,
                           save_whitener, whiten)
from cgdbm.synth import dead_leaves_image, make_corpus

# the grating grid the analyze stage uses at its default counts
ORIENTATIONS = np.arange(8) * 22.5
PHASES = np.arange(4) * (np.pi / 2)


def grating_grid(side):
    return generate_gratings(side, ORIENTATIONS, default_frequencies(side),
                             PHASES)


# --- patches ----------------------------------------------------------------

def test_load_images_sorted_and_mixed(tmp_path, rng):
    write_pgm(tmp_path / "b.pgm", np.zeros((4, 4)))
    save_matrix(tmp_path / "a.cgmat", np.ones((5, 5)))
    write_pgm(tmp_path / "c.pgm", np.full((4, 4), 0.5))
    imgs = load_grayscale_images(tmp_path)
    assert len(imgs) == 3
    assert imgs[0].shape == (5, 5) and imgs[0][0, 0] == 1.0  # a.cgmat first
    assert imgs[1][0, 0] == 0.0
    (tmp_path / "noise.txt").write_text("ignored")
    assert len(load_grayscale_images(tmp_path)) == 3


def test_load_images_empty_dir_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_grayscale_images(tmp_path)


def test_extract_patches_shapes_and_content(rng):
    # single constant-gradient image: every patch is a shifted copy
    img = np.arange(100, dtype=float).reshape(10, 10)
    train, test = extract_patches([img], 3, 50, 0.8, rng)
    assert train.shape == (40, 9)
    assert test.shape == (10, 9)
    # each row must be an actual 3x3 window of img
    for row in train[:5]:
        patch = row.reshape(3, 3)
        top_left = patch[0, 0]
        r, c = divmod(int(top_left), 10)
        np.testing.assert_array_equal(patch, img[r:r + 3, c:c + 3])


def test_extract_patches_skips_small_images(rng):
    small = np.zeros((2, 2))
    big = np.ones((8, 8))
    train, test = extract_patches([small, big], 4, 10, 0.5, rng)
    assert np.all(train == 1.0) and np.all(test == 1.0)
    with pytest.raises(DomainError):
        extract_patches([small], 4, 10, 0.5, rng)


def test_patch_config_validation():
    with pytest.raises(ConfigError, match="patch_side must be at least 2"):
        DataConfig(patch_side=1).validate()
    with pytest.raises(ConfigError, match="n_patches must be at least 2"):
        DataConfig(n_patches=1).validate()
    with pytest.raises(ConfigError, match=r"train_fraction must lie in \(0, 1\)"):
        DataConfig(train_fraction=1.0).validate()
    with pytest.raises(ConfigError, match=r"pca_k must lie in \[1, patch_side\^2\]"):
        DataConfig(patch_side=3, pca_k=10).validate()
    assert DataConfig().validate() == DataConfig()


# --- whitening --------------------------------------------------------------

def test_whitener_known_diagonal_covariance(rng):
    # independent columns with variances 9, 4, 1: eigvecs are axes
    n = 40000
    x = rng.normal(size=(n, 3)) * np.array([3.0, 2.0, 1.0])
    w = fit_whitener(x, 3)
    assert np.all(np.diff(w.eigvals) <= 0)
    np.testing.assert_allclose(w.eigvals, [9.0, 4.0, 1.0], rtol=0.05)
    # each basis column is an axis up to sign
    for j in range(3):
        assert np.max(np.abs(w.basis[:, j])) > 0.99


def test_whitened_covariance_is_identity(rng):
    d, k, n = 12, 5, 3000
    mix = rng.normal(size=(d, d))
    x = rng.normal(size=(n, d)) @ mix + rng.normal(size=d)
    w = fit_whitener(x, k)
    v = whiten(w, x)
    cov = np.cov(v, rowvar=False, ddof=1)
    np.testing.assert_allclose(cov, np.eye(k), atol=1e-6)
    assert np.max(np.abs(v.mean(axis=0))) < 1e-10


def test_dewhiten_then_whiten_is_identity(rng):
    d, k = 9, 4
    x = rng.normal(size=(500, d)) @ rng.normal(size=(d, d))
    w = fit_whitener(x, k)
    v = rng.normal(size=(20, k))
    np.testing.assert_allclose(whiten(w, dewhiten_direction(w, v) + w.mean), v,
                               atol=1e-10)


def test_whiten_dewhiten_is_rank_k_projection(rng):
    d, k = 10, 6
    x = rng.normal(size=(800, d)) @ rng.normal(size=(d, d))
    w = fit_whitener(x, k)
    y = rng.normal(size=(30, d))
    recon = dewhiten_direction(w, whiten(w, y)) + w.mean
    # oracle: explicit projector onto the basis columns, around the mean
    proj = w.basis @ w.basis.T
    expected = (y - w.mean) @ proj + w.mean
    np.testing.assert_allclose(recon, expected, atol=1e-8)
    # idempotent
    np.testing.assert_allclose(dewhiten_direction(w, whiten(w, recon)) + w.mean,
                               recon, atol=1e-8)


def test_fit_whitener_rank_deficient_raises(rng):
    # rank 2 data in 5 dims cannot support k=4
    base = rng.normal(size=(2, 5))
    x = rng.normal(size=(100, 2)) @ base
    with pytest.raises(DomainError):
        fit_whitener(x, 4)
    w = fit_whitener(x, 2)
    assert w.k == 2


def test_fit_whitener_input_validation(rng):
    with pytest.raises(DomainError):
        fit_whitener(rng.normal(size=(1, 4)), 2)
    with pytest.raises(DomainError):
        fit_whitener(rng.normal(size=(10, 4)), 5)


# --- gratings ---------------------------------------------------------------

def test_grating_grid_size_and_order():
    g = grating_grid(12)
    assert g.shape == (8, 6 * 4, 144)
    # within an orientation group: frequency, then phase
    freqs = default_frequencies(12)
    for k in (0, 1):
        alone = generate_gratings(12, [ORIENTATIONS[k]], [freqs[1]],
                                  [PHASES[3]])
        np.testing.assert_array_equal(g[k, 1 * 4 + 3], alone[0, 0])


def test_grating_zero_orientation_rows_constant():
    # orientation 0: intensity varies along columns only
    g = generate_gratings(8, orientations_deg=[0.0], frequencies=[2.0],
                          phases=[0.3])
    patch = g[0, 0].reshape(8, 8)
    for r in range(1, 8):
        np.testing.assert_allclose(patch[r], patch[0], atol=1e-12)
    np.testing.assert_allclose(
        patch[0], np.cos(2 * np.pi * 2.0 * np.arange(8) / 8 + 0.3),
        atol=1e-12)


def test_grating_90_degrees_columns_constant():
    g = generate_gratings(8, orientations_deg=[90.0], frequencies=[1.0],
                          phases=[0.0])
    patch = g[0, 0].reshape(8, 8)
    for c in range(1, 8):
        np.testing.assert_allclose(patch[:, c], patch[:, 0], atol=1e-12)


def test_default_grids():
    # the analyze stage's frequency grid at its default count
    f = default_frequencies(12)
    assert f[0] == pytest.approx(1.0)
    assert f[-1] == pytest.approx(3.0)
    assert len(f) == 6


def test_group_by_orientation():
    # group k holds exactly the gratings of orientation k
    g = grating_grid(8)
    for k, theta in enumerate(ORIENTATIONS):
        alone = generate_gratings(8, [theta], default_frequencies(8), PHASES)
        np.testing.assert_array_equal(g[k], alone[0])


# --- whitener files ---------------------------------------------------------

def test_whitener_round_trip(tmp_path, rng):
    w = fit_whitener(rng.normal(size=(200, 16)), 5)
    save_whitener(tmp_path / "w.cgmat", w, 4, 2.5)
    got, meta = load_whitener(tmp_path / "w.cgmat")
    for field in ("mean", "eigvals", "basis"):
        np.testing.assert_array_equal(getattr(got, field), getattr(w, field))
    assert meta == {"patch_side": "4", "mean_patch_norm": "2.5",
                    "format": "whitener", "d": "16", "k": "5"}


@pytest.mark.parametrize("key,value", [
    ("patch_side", None), ("patch_side", "5"), ("patch_side", "four"),
    ("mean_patch_norm", None), ("mean_patch_norm", "0"),
    ("mean_patch_norm", "nan"), ("mean_patch_norm", "-inf"),
])
def test_whitener_header_must_scale_and_shape_gratings(tmp_path, rng, key,
                                                       value):
    path = tmp_path / "w.cgmat"
    save_whitener(path, fit_whitener(rng.normal(size=(200, 16)), 5), 4, 2.5)
    flat, meta = load_matrix(path)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    save_matrix(path, flat, meta=meta)
    with pytest.raises(FormatError, match=key):
        load_whitener(path)


# --- synthetic corpus -------------------------------------------------------

def test_dead_leaves_range_and_determinism():
    img1 = dead_leaves_image(32, np.random.default_rng(7))
    img2 = dead_leaves_image(32, np.random.default_rng(7))
    np.testing.assert_array_equal(img1, img2)
    assert img1.shape == (32, 32)
    assert img1.min() >= 0.0 and img1.max() <= 1.0
    # occlusion scenes are piecewise constant: many exact repeats
    assert len(np.unique(img1)) < 300


def test_make_corpus_deterministic_and_distinct():
    imgs = make_corpus(4, 24, seed=3)
    again = make_corpus(4, 24, seed=3)
    assert len(imgs) == 4
    for a, b in zip(imgs, again):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(imgs[0], imgs[1])


def test_corpus_has_oriented_structure(rng):
    # whitening a dead-leaves patch set must succeed at moderate k and
    # concentrate variance in the leading components
    imgs = make_corpus(6, 48, seed=11)
    train, _ = extract_patches(imgs, 8, 2000, 0.9, rng)
    w = fit_whitener(train, 30)
    assert w.eigvals[0] > 10 * w.eigvals[29]
