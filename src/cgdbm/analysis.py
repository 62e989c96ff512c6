"""Orientation maps, correlation statistics, SOM, and filter summaries.

Everything here consumes first-hidden-layer probability vectors: clamped
responses to grating groups become orientation maps, free-running frames
are correlated against those maps with a t-test significance threshold,
and a small circular self-organizing map clusters the frames.  analyze()
runs the whole analysis of one run and returns its results without
writing anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .io import format_float
from .model import ModelParams, Offsets, load_stdtrit
from .sampling import random_control_frames
from .stimuli import Whitener, default_frequencies, generate_gratings, whiten
from .training import TrainConfig, mean_field_data


# --- orientation maps -------------------------------------------------------

@dataclass(frozen=True)
class OrientationMapSet:
    """One mean clamped-response row per grating orientation."""

    orientations: np.ndarray  # (K,) degrees, ascending
    maps: np.ndarray          # (K, M), entries in [0, 1]

    def __post_init__(self):
        orientations = np.asarray(self.orientations, dtype=np.float64)
        maps = np.asarray(self.maps, dtype=np.float64)
        if maps.ndim != 2 or orientations.shape != (maps.shape[0],):
            raise ShapeError("need one map row per orientation")
        if np.any(np.diff(orientations) <= 0):
            raise DomainError("orientations must be strictly ascending")
        if np.any(maps < 0.0) or np.any(maps > 1.0):
            raise DomainError("map entries must lie in [0, 1]")
        object.__setattr__(self, "orientations", orientations)
        object.__setattr__(self, "maps", maps)

    @property
    def width(self) -> int:
        return self.maps.shape[1]


def orientation_maps(params: ModelParams, offsets: Offsets, grating_groups,
                     orientations, whitener: Whitener,
                     mf_cfg: TrainConfig) -> OrientationMapSet:
    """Average clamped first-layer response per orientation group.

    grating_groups holds one pixel-space stimulus matrix per orientation;
    each is whitened, then inferred by mean field under mf_cfg.
    """
    if len(grating_groups) != len(orientations):
        raise ShapeError("one grating group per orientation required")
    rows = []
    for group in grating_groups:
        g = np.atleast_2d(np.asarray(group, dtype=np.float64))
        if g.shape[0] == 0:
            raise DomainError("empty orientation group")
        mf = mean_field_data(whiten(whitener, g), params, offsets, mf_cfg)
        rows.append(mf.y.mean(axis=0))
    return OrientationMapSet(orientations=np.asarray(orientations, float),
                             maps=np.array(rows))


# --- correlation statistics -------------------------------------------------

def significance_threshold(n: int, alpha: float) -> float:
    """Critical |r| for a two-tailed zero-correlation t-test with n
    samples: t has n-2 degrees of freedom and the threshold is
    t / sqrt(t^2 + n - 2)."""
    if n < 4:
        raise DomainError("need n >= 4 samples")
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    t = float(load_stdtrit()(n - 2, 1.0 - alpha / 2.0))
    return t / np.sqrt(t * t + n - 2)


def _row_correlations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson r between every row of a and every row of b; rows with
    zero variance yield r = 0 against everything."""
    ac = a - a.mean(axis=1, keepdims=True)
    bc = b - b.mean(axis=1, keepdims=True)
    an = np.linalg.norm(ac, axis=1)
    bn = np.linalg.norm(bc, axis=1)
    # centering a constant row leaves rounding residue, not exact zeros
    an[np.ptp(a, axis=1) == 0.0] = 0.0
    bn[np.ptp(b, axis=1) == 0.0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (ac @ bc.T) / np.outer(an, bn)
    r[~np.isfinite(r)] = 0.0
    return np.clip(r, -1.0, 1.0)


@dataclass(frozen=True)
class CorrelationReport:
    r: np.ndarray                      # (F, K)
    threshold: float
    significant: np.ndarray            # (F,) bool
    significant_fraction: float
    preference: np.ndarray             # (F,) argmax row of r, -1 if not significant
    preference_hist: np.ndarray        # (K,) relative occurrences
    max_r_per_orientation: np.ndarray  # (K,) NaN where no significant frame

    def __post_init__(self):
        if np.any(self.r < -1.0) or np.any(self.r > 1.0):
            raise DomainError("correlations must lie in [-1, 1]")
        if not (0.0 <= self.significant_fraction <= 1.0):
            raise DomainError("significant_fraction must lie in [0, 1]")


def correlate(frames, map_set: OrientationMapSet,
              threshold: float) -> CorrelationReport:
    """Correlate every frame against every orientation map.

    A frame is significant when its largest |r| over orientations reaches
    the threshold; its preference is the orientation with the largest
    signed r.  The preference histogram is scaled so the first bin (the
    horizontal orientation) equals 1; if that bin is empty the largest
    bin is used as the unit instead, and with no significant frames at
    all the histogram is all zeros.  Constant frames correlate with
    nothing (r = 0) and are never significant.
    """
    f = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if f.shape[1] != map_set.width:
        raise ShapeError(f"frame width {f.shape[1]} does not match map "
                         f"width {map_set.width}")
    r = _row_correlations(f, map_set.maps)
    significant = np.max(np.abs(r), axis=1) >= threshold
    significant &= np.ptp(f, axis=1) > 0.0  # constant frames never qualify
    preference = np.where(significant, np.argmax(r, axis=1), -1)
    k = map_set.maps.shape[0]
    counts = np.bincount(preference[significant], minlength=k).astype(float)
    if counts[0] > 0:
        hist = counts / counts[0]
    elif counts.max() > 0:
        hist = counts / counts.max()
    else:
        hist = counts
    max_r = np.full(k, np.nan)
    if np.any(significant):
        max_r = np.max(r[significant], axis=0)
    return CorrelationReport(
        r=r, threshold=float(threshold), significant=significant,
        significant_fraction=float(np.mean(significant)),
        preference=preference, preference_hist=hist,
        max_r_per_orientation=max_r)


# --- self-organizing map ----------------------------------------------------

@dataclass(frozen=True)
class AnalysisConfig:
    alpha: float = 0.01
    threshold_n: int = 200
    som_nodes: int = 40
    som_epochs: int = 20
    som_lr_start: float = 0.5
    som_radius_start: float = 10.0
    orientation_count: int = 8

    def validate(self) -> "AnalysisConfig":
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError("alpha must lie in (0, 1)")
        if self.threshold_n < 4:
            raise ConfigError("threshold_n must be at least 4")
        if self.orientation_count < 2 or self.orientation_count % 2 != 0:
            raise ConfigError("orientation_count must be even and >= 2")
        if self.som_nodes < 2:
            raise ConfigError("need at least 2 nodes")
        if self.som_epochs < 1:
            raise ConfigError("need at least 1 epoch")
        if self.som_lr_start <= 0:
            raise ConfigError("learning rates must be positive")
        if self.som_radius_start <= 0:
            raise ConfigError("radii must be positive")
        return self

    def orientations(self) -> np.ndarray:
        return np.arange(self.orientation_count) * (180.0 / self.orientation_count)


@dataclass(frozen=True)
class SomModel:
    """Nodes on a circular 1-D lattice, in lattice order."""

    nodes: np.ndarray                       # (n_nodes, M)
    qe_history: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def circular_distance(i, j, n: int):
    """Shortest lattice distance on a ring of n positions."""
    d = np.abs(np.asarray(i) - np.asarray(j))
    return np.minimum(d, n - d)


def quantization_error(nodes: np.ndarray, frames: np.ndarray) -> float:
    """Mean Euclidean distance from each frame to its best-matching node."""
    d2 = (np.sum(frames**2, axis=1)[:, None] - 2.0 * frames @ nodes.T
          + np.sum(nodes**2, axis=1)[None, :])
    return float(np.mean(np.sqrt(np.maximum(d2.min(axis=1), 0.0))))


def _empty_cache_aligned(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialized float64 array that starts on a 64-byte boundary.
    malloc only promises 16 bytes, so where a small array starts depends
    on every allocation before it, and the SOM's per-frame ufuncs run up
    to 18% slower on some offsets (the values are the same on all)."""
    n = shape[0] * shape[1]
    buf = np.empty(n + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + n].reshape(shape)


SOM_LR_END = 0.01      # the SOM's learning rate in its last epoch
SOM_RADIUS_END = 1.0   # and its neighborhood radius


def train_som(frames, cfg: AnalysisConfig, seed: int) -> SomModel:
    """Classic online Kohonen training on a circular lattice, with the
    som_* settings of cfg and an rng seeded from `seed`.

    Nodes start as a random distinct sample of the frames.  Each epoch
    shuffles the frames and, per frame, pulls every node toward it with
    a Gaussian neighborhood over circular lattice distance around the
    best-matching unit.  Learning rate and radius decay linearly per
    epoch, to SOM_LR_END and SOM_RADIUS_END.  Quantization error is
    measured after each epoch.
    """
    cfg.validate()
    f = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if f.shape[0] < cfg.som_nodes:
        raise DomainError(f"need at least {cfg.som_nodes} frames, "
                          f"got {f.shape[0]}")
    rng = np.random.default_rng(seed)
    nodes = _empty_cache_aligned((cfg.som_nodes, f.shape[1]))
    nodes[...] = f[rng.choice(f.shape[0], size=cfg.som_nodes, replace=False)]
    lattice = np.arange(cfg.som_nodes)
    d = circular_distance(lattice[:, None], lattice[None, :], cfg.som_nodes)
    qe = np.empty(cfg.som_epochs)
    # per-frame scratch, reused so the inner loop allocates nothing
    diff = _empty_cache_aligned(nodes.shape)
    work = _empty_cache_aligned(nodes.shape)
    d2 = np.empty(cfg.som_nodes)
    for epoch in range(cfg.som_epochs):
        if cfg.som_epochs == 1:
            frac = 0.0
        else:
            frac = epoch / (cfg.som_epochs - 1)
        lr = (1.0 - frac) * cfg.som_lr_start + frac * SOM_LR_END
        radius = ((1.0 - frac) * cfg.som_radius_start
                  + frac * SOM_RADIUS_END)
        # step[b]: learning rate times the neighborhood around node b, one
        # row per node, repeated across the frame width so that scaling
        # the (n_nodes, M) update is one contiguous multiply
        step = np.repeat(lr * np.exp(-(d * d) / (2.0 * radius * radius))
                         [:, :, None], f.shape[1], axis=2)
        order = rng.permutation(f.shape[0])
        for i in order:
            # nodes += s * (v - nodes), computed as nodes -= s * diff with
            # diff = nodes - v: negation is exact, so the bits are the same
            np.subtract(nodes, f[i], out=diff)
            np.square(diff, out=work)
            np.add.reduce(work, axis=1, out=d2)  # the sum np.sum would do
            b = d2.argmin()  # lowest index on ties
            np.multiply(step[b], diff, out=work)
            nodes -= work
        qe[epoch] = quantization_error(nodes, f)
    return SomModel(nodes=nodes, qe_history=qe)


def correlate_som(som: SomModel, map_set: OrientationMapSet,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per node: index of the best-correlated orientation map and the r
    value there.  Constant nodes get r = 0 everywhere."""
    if som.nodes.shape[1] != map_set.width:
        raise ShapeError("node width does not match map width")
    r = _row_correlations(som.nodes, map_set.maps)
    best = np.argmax(r, axis=1)
    return best, r[np.arange(som.n_nodes), best]


# --- filter summaries -------------------------------------------------------

def top_active_filters(values, k: int = 25) -> np.ndarray:
    """Indices of the k largest entries, descending; ties broken by
    ascending index."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if not (1 <= k <= v.size):
        raise DomainError(f"k={k} must lie in [1, {v.size}]")
    order = np.lexsort((np.arange(v.size), -v))  # primary -v, then index
    return order[:k]


def second_layer_rf(params: ModelParams, back: np.ndarray, unit_k: int,
                    top: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """Composite pixel-space receptive field of one second-layer unit.

    Takes the `top` first-layer filters with the largest absolute
    coupling to the unit (descending, ties by ascending index) and back-
    projects their coupling-weighted sum through `back`, the whitener's
    `dewhitening_matrix`.  Filters are directions, so the projection
    omits the mean shift: a negated coupling column exactly negates the
    image.
    """
    if not (0 <= unit_k < params.U.shape[1]):
        raise DomainError(f"unit index {unit_k} out of range")
    col = params.U[:, unit_k]
    idx = top_active_filters(np.abs(col), k=min(top, col.size))
    image = (params.W[:, idx] @ col[idx]) @ back
    return image, idx


def dewhitening_matrix(w: Whitener) -> np.ndarray:
    """(k, D) matrix that back-projects whitened direction vectors
    (filters, not data points) to pixel space, as rows @ matrix: the
    linear part of dewhitening, with no mean shift."""
    return (w.basis * np.sqrt(w.eigvals)).T


def first_layer_filters(params: ModelParams, back: np.ndarray) -> np.ndarray:
    """All first-layer filters as pixel-space rows, one per hidden unit;
    `back` is the whitener's `dewhitening_matrix`."""
    return params.W.T @ back


def orientation_selectivity(map_set: OrientationMapSet) -> np.ndarray:
    """Per-unit orientation selectivity index.

    Each unit's tuning curve is its column of the orientation maps; the
    index is (best - orthogonal) / (best + orthogonal), where orthogonal
    is the response 90 degrees from the best orientation.  Requires an
    even number of orientations evenly covering 180 degrees.  Flat
    tuning gives 0; a unit responding only at one orientation gives 1.
    """
    k = map_set.maps.shape[0]
    if k % 2 != 0:
        raise DomainError("need an even number of orientations")
    best = np.argmax(map_set.maps, axis=0)
    orth = (best + k // 2) % k
    cols = np.arange(map_set.width)
    r_max = map_set.maps[best, cols]
    r_orth = map_set.maps[orth, cols]
    denom = r_max + r_orth
    out = np.zeros(map_set.width)
    nz = denom > 0
    out[nz] = (r_max[nz] - r_orth[nz]) / denom[nz]
    return out


# --- the analysis of one run ------------------------------------------------

GRATING_PHASES = 4  # phases at each grating frequency, evenly spaced


@dataclass(frozen=True)
class AnalysisResult:
    """What analyze() finds in one run; summary holds the lines of the
    run's summary.txt."""

    maps: OrientationMapSet
    spontaneous: CorrelationReport
    som_best: np.ndarray         # (n_nodes,) best-correlated map per node
    som_best_r: np.ndarray       # (n_nodes,) r at that map
    osi: np.ndarray              # (M,) orientation selectivity per unit
    filters: np.ndarray          # (M, side, side) first-layer filters
    rf_second_layer: np.ndarray  # (N, side, side) second-layer fields
    top_active: np.ndarray       # the most active hidden-1 units, descending
    summary: list[str]           # "key = value" lines


def analyze(params: ModelParams, offsets: Offsets, whitener: Whitener,
            patch_side: int, mean_patch_norm: float, frames, p_init,
            cfg: AnalysisConfig, mf_cfg: TrainConfig, som_seed: int,
            control_seed: int) -> AnalysisResult:
    """Orientation maps from gratings, correlations of the spontaneous
    frames and of matched Bernoulli control frames against them, a SOM
    of the frames, per-unit selectivity, and the figure tiles.

    The gratings are scaled so their mean row norm equals
    mean_patch_norm, the mean centered norm of the training patches.
    p_init is the initial probability vector of the session that
    recorded the frames; the control frames, as many as the frames, are
    drawn at p_init.  control_seed seeds the control frames and som_seed
    the SOM.
    """
    _, M, N = params.dims
    orientations = cfg.orientations()
    phases = np.arange(GRATING_PHASES) * (2.0 * np.pi / GRATING_PHASES)
    unit = generate_gratings(patch_side, orientations,
                             default_frequencies(patch_side), phases)
    amplitude = mean_patch_norm / float(np.mean(np.linalg.norm(unit, axis=-1)))
    map_set = orientation_maps(params, offsets, amplitude * unit,
                               orientations, whitener, mf_cfg)

    threshold = significance_threshold(cfg.threshold_n, cfg.alpha)
    threshold_at_m = significance_threshold(M, cfg.alpha) if M >= 4 \
        else float("nan")
    rep = correlate(frames, map_set, threshold)
    control = random_control_frames(p_init, frames.shape[0],
                                    np.random.default_rng(control_seed))
    ctrl_rep = correlate(control, map_set, threshold)

    som = train_som(frames, cfg, som_seed)
    som_best, som_best_r = correlate_som(som, map_set)
    osi = orientation_selectivity(map_set)

    back = dewhitening_matrix(whitener)
    filters = first_layer_filters(params, back)
    rf = np.array([second_layer_rf(params, back, k)[0] for k in range(N)])
    if ctrl_rep.significant_fraction > 0:
        ratio = rep.significant_fraction / ctrl_rep.significant_fraction
    else:
        # no significant control frame: inf if any spontaneous frame is
        # significant, and 0/0 = nan (no evidence either way) if none is
        ratio = float("inf") if rep.significant_fraction > 0 else float("nan")
    max_r = (float(np.nanmax(rep.max_r_per_orientation))
             if np.any(rep.significant) else float("nan"))
    summary = [
        f"frames = {frames.shape[0]}",
        f"frame_width = {M}",
        f"alpha = {format_float(cfg.alpha)}",
        f"threshold_n = {cfg.threshold_n}",
        f"threshold = {format_float(threshold)}",
        f"threshold_at_M = {format_float(threshold_at_m)}",
        f"significant_fraction = {format_float(rep.significant_fraction)}",
        f"control_frames = {control.shape[0]}",
        "control_significant_fraction = "
        + format_float(ctrl_rep.significant_fraction),
        f"significant_ratio = {format_float(ratio)}",
        f"max_significant_correlation = {format_float(max_r)}",
        f"osi_fraction_ge_0.3 = {format_float(float(np.mean(osi >= 0.3)))}",
        f"som_nodes = {som.n_nodes}",
        f"som_max_r = {format_float(float(np.max(som_best_r)))}",
        "som_nodes_above_threshold = "
        + str(int(np.sum(np.abs(som_best_r) >= threshold))),
    ]
    return AnalysisResult(
        maps=map_set, spontaneous=rep, som_best=som_best,
        som_best_r=som_best_r, osi=osi,
        filters=filters.reshape(M, patch_side, patch_side),
        rf_second_layer=rf.reshape(N, patch_side, patch_side),
        top_active=top_active_filters(frames.mean(axis=0), k=min(25, M)),
        summary=summary)
