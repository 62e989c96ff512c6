"""Correlation statistics, SOM behavior, and filter-summary checks."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdbm.analysis import (AnalysisConfig, OrientationMapSet,
                            SomModel, analyze, circular_distance,
                            correlate, correlate_som, dewhitening_matrix,
                            first_layer_filters, orientation_maps,
                            orientation_selectivity, quantization_error,
                            second_layer_rf, significance_threshold,
                            top_active_filters, train_som)
from cgdbm.errors import DomainError, ShapeError
from cgdbm.model import ModelParams, Offsets
from cgdbm.stimuli import Whitener, generate_gratings
from cgdbm.training import TrainConfig

from oracles import fit_centered, random_model, som_reference


def make_maps(rng, k=8, width=200):
    maps = rng.uniform(0.05, 0.95, size=(k, width))
    return OrientationMapSet(orientations=np.arange(k) * 22.5, maps=maps)


def pearson_r(frame, map_row) -> float:
    """correlate()'s r between one frame and a one-map set."""
    ms = OrientationMapSet(orientations=np.array([0.0]),
                           maps=np.atleast_2d(map_row))
    return float(correlate(frame, ms, 1.0).r[0, 0])


# --- Pearson r ----------------------------------------------------------------

def test_pearson_frozen_value():
    # r is invariant to scaling the map into [0, 1]: [1, 2, 4] / 4
    r = pearson_r([1, 2, 3], [0.25, 0.5, 1.0])
    assert r == pytest.approx(9.0 / math.sqrt(84.0), abs=1e-12)
    assert r == pytest.approx(0.981981, abs=1e-6)


def test_pearson_perfect_and_inverse():
    a = np.array([0.1, 0.5, 0.2, 0.9])
    assert pearson_r(a, a) == pytest.approx(1.0, abs=1e-12)
    assert pearson_r(-a + 3.0, a) == pytest.approx(-1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.1, 50.0), st.floats(-10, 10))
def test_pearson_affine_invariance(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=10)
    b = rng.uniform(size=10)
    r = pearson_r(a, b)
    assert pearson_r(alpha * a + beta, b) == pytest.approx(r, abs=1e-12)
    assert pearson_r(-alpha * a + beta, b) == pytest.approx(-r, abs=1e-12)
    assert pearson_r(b, a) == pytest.approx(r, abs=1e-12)


# --- significance threshold ---------------------------------------------------

def test_threshold_matches_published_value():
    assert significance_threshold(200, 0.01) == pytest.approx(0.182, abs=1e-3)


def test_threshold_limits_and_monotonicity():
    assert significance_threshold(50, 0.999999) < 1e-3
    ns = [4, 8, 16, 50, 200, 1000, 5000]
    vals = [significance_threshold(n, 0.01) for n in ns]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        significance_threshold(3, 0.01)
    with pytest.raises(DomainError):
        significance_threshold(100, 0.0)


def test_threshold_is_exact_test_calibration(rng):
    # at the threshold, |r| of white noise should exceed it alpha of the time
    n, alpha, trials = 30, 0.05, 4000
    thr = significance_threshold(n, alpha)
    a = rng.normal(size=(trials, n))
    b = rng.uniform(size=(trials, n))  # maps live in [0, 1]
    hits = 0
    for i in range(trials):
        hits += abs(pearson_r(a[i], b[i])) >= thr
    rate = hits / trials
    sigma = math.sqrt(alpha * (1 - alpha) / trials)
    assert abs(rate - alpha) < 4 * sigma


def test_threshold_matches_t_quantile_exactly():
    from scipy import stats
    for n in (4, 5, 7, 10, 30, 64, 200, 1000, 20000):
        for alpha in (1e-6, 1e-3, 0.01, 0.05, 0.5, 0.9):
            t = float(stats.t.ppf(1.0 - alpha / 2.0, n - 2))
            want = t / np.sqrt(t * t + n - 2)
            assert significance_threshold(n, alpha) == want


THRESHOLD_GRID = [(n, alpha) for n in (4, 5, 30, 64, 200, 900, 20000)
                  for alpha in (1e-6, 0.01, 0.05, 0.5)]

THRESHOLD_PROBE = """
import sys
{prelude}
from cgdbm.analysis import significance_threshold
from cgdbm.model import load_stdtrit
print(*[significance_threshold(n, a).hex() for n, a in {grid}])
print('scipy.special' in sys.modules)
loaded = load_stdtrit()
import scipy.special
print(loaded is scipy.special.stdtrit)
"""


def run_threshold_probe(prelude: str) -> list[str]:
    """significance_threshold over THRESHOLD_GRID in a fresh interpreter
    after `prelude`: the values as float.hex, whether scipy.special was
    imported, and whether load_stdtrit gave scipy.special's stdtrit."""
    from scipy.special import stdtrit
    proc = subprocess.run(
        [sys.executable, "-c",
         THRESHOLD_PROBE.format(prelude=prelude, grid=THRESHOLD_GRID)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    values, special, same = proc.stdout.strip().split("\n")
    want = []
    for n, alpha in THRESHOLD_GRID:
        t = float(stdtrit(n - 2, 1.0 - alpha / 2.0))
        want.append((t / np.sqrt(t * t + n - 2)).hex())
    assert values.split() == want
    return [special, same]


def test_threshold_skips_scipy_special_init():
    # a fresh process loads stdtrit from scipy.special._ufuncs without
    # the package init; the bits are scipy.special.stdtrit's, and a later
    # import of the package hands out the very same ufunc
    assert run_threshold_probe("") == ["False", "True"]


_ORIG = "import importlib, importlib.util; orig = {}\n"


@pytest.mark.parametrize("prelude", [
    pytest.param("import scipy.special", id="already_imported"),
    pytest.param(_ORIG.format("importlib.util.find_spec") +
                 "importlib.util.find_spec = lambda name, package=None: "
                 "None if name == 'scipy.special' else orig(name, package)",
                 id="no_spec"),
    pytest.param(_ORIG.format("importlib.import_module") +
                 "def fail(name, package=None):\n"
                 "    if name == 'scipy.special._ufuncs':\n"
                 "        raise ImportError('undefined symbol')\n"
                 "    return orig(name, package)\n"
                 "importlib.import_module = fail",
                 id="import_error"),
    pytest.param(_ORIG.format("importlib.import_module") +
                 "importlib.import_module = lambda name, package=None: "
                 "sys if name == 'scipy.special._ufuncs' "
                 "else orig(name, package)",
                 id="no_stdtrit"),
])
def test_threshold_fallback_gives_same_bits(prelude):
    # when scipy.special is already imported, or the direct load finds no
    # package, fails to import or has no stdtrit, stdtrit comes from
    # scipy.special, with the same bits
    assert run_threshold_probe(prelude) == ["True", "True"]


# --- correlate ----------------------------------------------------------------

def test_correlate_frames_equal_maps(rng):
    ms = make_maps(rng)
    rep = correlate(ms.maps, ms, significance_threshold(200, 0.01))
    assert rep.significant_fraction == 1.0
    np.testing.assert_array_equal(rep.preference, np.arange(8))
    np.testing.assert_allclose(np.diag(rep.r), 1.0, atol=1e-12)
    np.testing.assert_allclose(rep.max_r_per_orientation, 1.0, atol=1e-12)
    assert rep.preference_hist[0] == 1.0


def test_correlate_null_rate_single_map(rng):
    # one map: family size 1, so the false-positive rate is alpha itself
    width, alpha, n_frames = 200, 0.01, 20000
    ms = OrientationMapSet(orientations=np.array([0.0]),
                           maps=rng.uniform(size=(1, width)))
    frames = (rng.uniform(size=(n_frames, width)) < 0.5).astype(float)
    rep = correlate(frames, ms, significance_threshold(width, alpha))
    sigma = math.sqrt(alpha * (1 - alpha) / n_frames)
    assert abs(rep.significant_fraction - alpha) <= 3 * sigma


def test_correlate_constant_frame_never_significant(rng):
    ms = make_maps(rng)
    frames = np.vstack([np.full(200, 0.3), rng.uniform(size=200)])
    rep = correlate(frames, ms, 0.0)
    assert np.all(rep.r[0] == 0.0)
    assert not rep.significant[0]
    assert rep.significant[1]  # threshold 0 catches any finite r
    assert rep.preference[0] == -1


def test_correlate_width_mismatch(rng):
    ms = make_maps(rng)
    with pytest.raises(ShapeError):
        correlate(np.zeros((3, 17)), ms, 0.5)


def test_correlate_hist_fallback_when_horizontal_empty(rng):
    ms = make_maps(rng, k=4)
    # frames correlated only with map 2
    frames = np.tile(ms.maps[2], (6, 1)) + rng.normal(scale=1e-3,
                                                      size=(6, 200))
    rep = correlate(frames, ms, 0.9)
    assert rep.preference_hist[2] == 1.0
    assert rep.preference_hist[0] == 0.0


def test_correlate_no_significant_frames(rng):
    ms = make_maps(rng)
    rep = correlate(rng.uniform(size=(5, 200)), ms, 1.1)
    assert rep.significant_fraction == 0.0
    assert np.all(rep.preference_hist == 0.0)
    assert np.all(np.isnan(rep.max_r_per_orientation))


def test_correlate_max_r_over_significant_only(rng):
    ms = make_maps(rng, k=2)
    strong = ms.maps[0] + rng.normal(scale=1e-3, size=200)
    weak = rng.uniform(size=200)
    rep = correlate(np.vstack([strong, weak]), ms, 0.9)
    assert rep.significant[0] and not rep.significant[1]
    # column maxima come from the significant frame alone
    np.testing.assert_allclose(rep.max_r_per_orientation, rep.r[0],
                               atol=1e-12)


# --- orientation maps ---------------------------------------------------------

def identity_whitener(d):
    """Whitens every d-wide row to itself."""
    return Whitener(mean=np.zeros(d), eigvals=np.ones(d), basis=np.eye(d))


def test_orientation_maps_zero_model_is_half():
    L, M, N = 4, 3, 2
    p = ModelParams(W=np.zeros((L, M)), U=np.zeros((M, N)),
                    b_y=np.zeros(M), b_z=np.zeros(N), sigma2=np.ones(L))
    c = Offsets(c_x=np.zeros(L), c_y=np.full(M, 0.5), c_z=np.full(N, 0.5))
    groups = [np.random.default_rng(i).normal(size=(5, L)) for i in range(8)]
    ms = orientation_maps(p, c, groups, np.arange(8) * 22.5,
                          identity_whitener(L), TrainConfig())
    np.testing.assert_allclose(ms.maps, 0.5, atol=1e-12)


def test_orientation_maps_permutation_invariant(rng):
    p, c = random_model(rng, 5, 4, 2)
    group = rng.normal(size=(7, 5))
    w = identity_whitener(5)
    ms1 = orientation_maps(p, c, [group], [0.0], w, TrainConfig())
    ms2 = orientation_maps(p, c, [group[::-1]], [0.0], w, TrainConfig())
    np.testing.assert_allclose(ms1.maps, ms2.maps, atol=1e-14)


def test_orientation_maps_tuned_unit_peaks_at_matching_angle(rng):
    # construct a model whose single hidden unit's filter IS a grating
    side = 8
    orientations = np.arange(8) * 22.5
    groups = generate_gratings(side, orientations, [2.0], [0.0])
    target = groups[2, 0]  # orientation index 2 (45 degrees)
    x = rng.normal(size=(500, side * side))
    w = fit_centered(x, side * side)
    filt = (np.asarray(w.basis) / np.sqrt(w.eigvals)).T @ target  # whiten direction
    W = 3.0 * (filt / np.linalg.norm(filt))[:, None]
    p = ModelParams(W=W, U=np.zeros((1, 1)), b_y=np.zeros(1),
                    b_z=np.zeros(1), sigma2=np.ones(side * side))
    c = Offsets(c_x=np.zeros(side * side), c_y=np.full(1, 0.5),
                c_z=np.full(1, 0.5))
    ms = orientation_maps(p, c, groups, orientations, w, TrainConfig())
    assert np.argmax(ms.maps[:, 0]) == 2


def test_orientation_maps_validation(rng):
    p, c = random_model(rng, 3, 2, 2)
    w = identity_whitener(3)
    with pytest.raises(ShapeError):
        orientation_maps(p, c, [np.zeros((2, 3))], [0.0, 90.0], w,
                         TrainConfig())
    with pytest.raises(DomainError):
        orientation_maps(p, c, [np.zeros((0, 3))], [0.0], w, TrainConfig())


def test_map_set_validation():
    with pytest.raises(DomainError):
        OrientationMapSet(orientations=np.array([0.0, 22.5]),
                          maps=np.array([[0.5, 1.2], [0.1, 0.2]]))
    with pytest.raises(DomainError):
        OrientationMapSet(orientations=np.array([22.5, 0.0]),
                          maps=np.full((2, 2), 0.5))


# --- SOM ----------------------------------------------------------------------

def test_circular_distance():
    assert circular_distance(0, 39, 40) == 1
    assert circular_distance(0, 20, 40) == 20
    np.testing.assert_array_equal(
        circular_distance(np.arange(4), 0, 4), [0, 1, 2, 1])


def test_som_single_attractor(rng):
    v = rng.uniform(size=12)
    frames = np.tile(v, (50, 1))
    som = train_som(frames, AnalysisConfig(som_nodes=5, som_epochs=10),
                    seed=1)
    np.testing.assert_allclose(som.nodes, np.tile(v, (5, 1)), atol=1e-6)


def test_som_ring_topology_and_qe(rng):
    # points on a circle embedded in 12 dims
    angles = rng.uniform(0, 2 * np.pi, size=600)
    ring = np.zeros((600, 12))
    ring[:, 0] = np.cos(angles)
    ring[:, 1] = np.sin(angles)
    # gentle ordering phase: big-radius high-lr starts contract the ring
    # toward its centroid early on, which bumps the error before descent
    cfg = AnalysisConfig(som_epochs=20, som_radius_start=4.0,
                         som_lr_start=0.25)
    som = train_som(ring, cfg, seed=4)
    node_angle = np.arctan2(som.nodes[:, 1], som.nodes[:, 0])
    steps = np.diff(np.concatenate([node_angle, node_angle[:1]]))
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    # one full monotone wind around the ring
    assert np.all(steps > 0) or np.all(steps < 0)
    assert abs(np.sum(steps)) == pytest.approx(2 * np.pi, abs=1e-9)
    # quantization error decreases in at least 90% of epoch pairs
    dec = np.sum(np.diff(som.qe_history) < 0)
    assert dec / (cfg.som_epochs - 1) >= 0.9
    assert som.qe_history[-1] < som.qe_history[0]


def test_som_requires_enough_frames(rng):
    with pytest.raises(DomainError):
        train_som(rng.uniform(size=(10, 4)), AnalysisConfig(som_nodes=40),
                  seed=0)


def test_som_deterministic(rng):
    frames = rng.uniform(size=(60, 9))
    cfg = AnalysisConfig(som_nodes=8, som_epochs=5)
    a = train_som(frames, cfg, seed=12)
    b = train_som(frames, cfg, seed=12)
    np.testing.assert_array_equal(a.nodes, b.nodes)
    np.testing.assert_array_equal(a.qe_history, b.qe_history)


def test_som_nodes_start_on_a_cache_line(rng):
    # the per-frame loop's speed depends on where its arrays start
    for width in (9, 64):
        som = train_som(rng.uniform(size=(60, width)),
                        AnalysisConfig(som_nodes=8, som_epochs=1), seed=3)
        assert som.nodes.ctypes.data % 64 == 0


def _ring(n, seed):
    angles = np.random.default_rng(seed).uniform(0, 2 * np.pi, size=n)
    ring = np.zeros((n, 12))
    ring[:, 0] = np.cos(angles)
    ring[:, 1] = np.sin(angles)
    return ring


def _tied(seed):
    # two distinct rows, many copies each: 6 initial nodes drawn from them
    # hold duplicates, so BMU candidates at exactly equal distance occur
    rows = np.random.default_rng(seed).uniform(size=(2, 9))
    return np.tile(rows, (40, 1))


def _binary(seed):
    # 0/1 frames sit at many near-equal distances from the nodes, so the
    # rounding of each distance decides some BMUs
    return np.random.default_rng(seed).integers(0, 2, size=(300, 9)) * 1.0


@pytest.mark.parametrize("frames, cfg, seed", [
    (_ring(600, 909), AnalysisConfig(som_epochs=20, som_radius_start=4.0,
                                     som_lr_start=0.25), 4),
    (np.random.default_rng(3).uniform(size=(300, 9)),
     AnalysisConfig(som_nodes=8, som_epochs=1), 5),
    (_tied(7), AnalysisConfig(som_nodes=6, som_epochs=4,
                              som_radius_start=2.0), 8),
    (_binary(1), AnalysisConfig(som_nodes=8, som_epochs=3), 1),
    (np.random.default_rng(11).uniform(size=(2000, 64)),
     AnalysisConfig(som_epochs=3), 2),
], ids=["a09a_ring", "one_epoch", "bmu_ties", "binary", "desk_width"])
def test_som_matches_reference_loop_exactly(frames, cfg, seed):
    som = train_som(frames, cfg, seed)
    nodes, qe = som_reference(frames, cfg, seed)
    assert np.array_equal(som.nodes, nodes)
    assert np.array_equal(som.qe_history, qe)


def test_quantization_error_matches_loop(rng):
    nodes = rng.uniform(size=(6, 7))
    frames = rng.uniform(size=(15, 7))
    want = np.mean([min(np.linalg.norm(f - n) for n in nodes)
                    for f in frames])
    assert quantization_error(nodes, frames) == pytest.approx(want, abs=1e-12)


def test_correlate_som_seeded_with_maps(rng):
    ms = make_maps(rng)
    som_nodes = ms.maps[np.arange(40) % 8]
    som = SomModel(nodes=som_nodes)
    best, best_r = correlate_som(som, ms)
    np.testing.assert_array_equal(best, np.arange(40) % 8)
    np.testing.assert_allclose(best_r, 1.0, atol=1e-12)


def test_correlate_som_random_nodes_rarely_significant(rng):
    ms = make_maps(rng, width=200)
    som = SomModel(nodes=rng.uniform(size=(40, 200)))
    _, best_r = correlate_som(som, ms)
    thr = significance_threshold(200, 0.01)
    # max over 8 maps inflates the rate; still far below half
    assert np.mean(np.abs(best_r) >= thr) < 0.5


# --- filter summaries ----------------------------------------------------------

def test_top_active_filters_basics():
    one_hot = np.zeros(10)
    one_hot[7] = 1.0
    np.testing.assert_array_equal(top_active_filters(one_hot, 1), [7])
    v = np.array([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(top_active_filters(v, 3), [0, 2, 1])
    np.testing.assert_array_equal(top_active_filters(np.zeros(6), 4),
                                  [0, 1, 2, 3])
    with pytest.raises(DomainError):
        top_active_filters(v, 4)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_top_active_filters_is_sorting_permutation(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=12)
    idx = top_active_filters(v, 12)
    assert sorted(idx) == list(range(12))
    assert np.all(np.diff(v[idx]) <= 0)


def test_second_layer_rf_one_hot_and_linearity(rng):
    L, M, N = 6, 5, 3
    p, c = random_model(rng, L, M, N)
    x = rng.normal(size=(300, 9))
    w = fit_centered(x, L)
    U = np.zeros((M, N))
    U[2, 1] = -1.5
    p1 = ModelParams(W=p.W, U=U, b_y=p.b_y, b_z=p.b_z, sigma2=p.sigma2)
    back = dewhitening_matrix(w)
    img, idx = second_layer_rf(p1, back, 1, top=6)
    assert idx[0] == 2
    np.testing.assert_allclose(
        img, -1.5 * p.W[:, 2] @ back, atol=1e-12)
    # negating the coupling column negates the image
    p2 = ModelParams(W=p.W, U=-U, b_y=p.b_y, b_z=p.b_z, sigma2=p.sigma2)
    img2, _ = second_layer_rf(p2, back, 1, top=6)
    np.testing.assert_allclose(img2, -img, atol=1e-12)


def test_second_layer_rf_matches_bruteforce(rng):
    L, M, N = 8, 10, 4
    p, c = random_model(rng, L, M, N)
    x = rng.normal(size=(300, 16))
    w = fit_centered(x, L)
    back = dewhitening_matrix(w)
    img, idx = second_layer_rf(p, back, 2, top=6)
    assert len(idx) == 6
    # descending coupling magnitude
    mags = np.abs(p.U[idx, 2])
    assert np.all(np.diff(mags) <= 0)
    acc = np.zeros(L)
    for j in idx:
        acc += p.U[j, 2] * p.W[:, j]
    np.testing.assert_allclose(img, acc @ back, atol=1e-12)
    with pytest.raises(DomainError):
        second_layer_rf(p, back, N)


def test_first_layer_filters_shape(rng):
    p, c = random_model(rng, 4, 6, 2)
    x = rng.normal(size=(200, 9))
    w = fit_centered(x, 4)
    back = dewhitening_matrix(w)
    filters = first_layer_filters(p, back)
    assert filters.shape == (6, 9)
    np.testing.assert_allclose(filters[3], p.W[:, 3] @ back, atol=1e-14)


# --- orientation selectivity ----------------------------------------------------

def test_osi_flat_and_peaked():
    flat = OrientationMapSet(orientations=np.arange(8) * 22.5,
                             maps=np.full((8, 3), 0.4))
    np.testing.assert_allclose(orientation_selectivity(flat), 0.0, atol=1e-12)
    maps = np.full((8, 1), 1e-12)
    maps[3, 0] = 0.9
    peaked = OrientationMapSet(orientations=np.arange(8) * 22.5, maps=maps)
    assert orientation_selectivity(peaked)[0] == pytest.approx(1.0, abs=1e-9)


def test_osi_range_and_orthogonal_bin(rng):
    ms = make_maps(rng, k=8, width=30)
    osi = orientation_selectivity(ms)
    assert np.all(osi >= 0.0) and np.all(osi <= 1.0)
    # manual check for one unit
    col = ms.maps[:, 5]
    b = int(np.argmax(col))
    want = (col[b] - col[(b + 4) % 8]) / (col[b] + col[(b + 4) % 8])
    assert osi[5] == pytest.approx(want, abs=1e-12)
    with pytest.raises(DomainError):
        orientation_selectivity(OrientationMapSet(
            orientations=np.array([0.0, 60.0, 120.0]),
            maps=np.full((3, 2), 0.5)))


# --- the analysis of one run -----------------------------------------------

def test_analyze_ratio_is_nan_when_no_frame_is_significant(rng):
    # constant frames never qualify, and an all-zero p_init draws all-zero
    # (constant) controls: 0/0 is no evidence, not an infinite ratio
    side, L, M, N = 4, 6, 5, 2
    p, c = random_model(rng, L, M, N)
    w = fit_centered(rng.normal(size=(300, side * side)), L)
    res = analyze(p, c, w, side, 1.0, np.full((10, M), 0.3), np.zeros(M),
                  AnalysisConfig(som_nodes=4, som_epochs=2), TrainConfig(),
                  som_seed=1, control_seed=2)
    summary = dict(line.split(" = ") for line in res.summary)
    assert summary["significant_fraction"] == "0"
    assert summary["control_significant_fraction"] == "0"
    assert summary["significant_ratio"] == "nan"
