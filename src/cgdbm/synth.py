"""Synthetic grayscale corpus with oriented structure.

Occlusion scenes built from anisotropic ellipses laid down back to front.
The resulting images are piecewise constant with long straight-ish edges
at all orientations, which is enough oriented second-order structure for
the pipeline's whitening and training stages to latch onto.  Meant for
self-contained runs and tests; real natural images drop in via the same
loader.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError
from .io import write_pgm


def dead_leaves_image(side: int, rng: np.random.Generator,
                      n_shapes: int = 60) -> np.ndarray:
    """One occlusion scene, values in [0, 1].

    Shapes are ellipses with log-uniform radii, uniform orientation and
    uniform gray level, painted in order so later shapes occlude earlier
    ones.  Every pixel gets covered: the canvas starts at a uniform
    mid-gray drawn per image.
    """
    if side < 4:
        raise ConfigError("side must be at least 4")
    if n_shapes < 1:
        raise ConfigError("n_shapes must be positive")
    img = np.full((side, side), rng.uniform(0.3, 0.7))
    rr, cc = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    for _ in range(n_shapes):
        cy, cx = rng.uniform(-0.1 * side, 1.1 * side, size=2)
        # log-uniform major radius, aspect ratio up to 1:6
        a = np.exp(rng.uniform(np.log(0.04 * side), np.log(0.5 * side)))
        b = a * rng.uniform(1.0 / 6.0, 1.0)
        theta = rng.uniform(0.0, np.pi)
        gray = rng.uniform(0.0, 1.0)
        ct, st = np.cos(theta), np.sin(theta)
        u = (cc - cx) * ct + (rr - cy) * st
        v = -(cc - cx) * st + (rr - cy) * ct
        img[(u / a) ** 2 + (v / b) ** 2 <= 1.0] = gray
    return img


def make_corpus(n_images: int, side: int, seed: int,
                n_shapes: int = 60) -> list[np.ndarray]:
    """Deterministic list of dead-leaves images."""
    if n_images < 1:
        raise ConfigError("n_images must be positive")
    rng = np.random.default_rng(seed)
    return [dead_leaves_image(side, rng, n_shapes) for _ in range(n_images)]


def write_corpus(directory, n_images: int, side: int, seed: int,
                 n_shapes: int = 60) -> None:
    """Write `make_corpus`'s scenes into directory as 16-bit scene_NNN.pgm."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(make_corpus(n_images, side, seed, n_shapes)):
        write_pgm(directory / f"scene_{i:03d}.pgm", img, maxval=65535)
