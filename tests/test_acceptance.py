"""Acceptance suite: every release gate in one file, one test per gate.

Each check prints a [aNN] PASS line with the measured margin; assertion
messages carry the same numbers on failure.  a08/a09b share a desk-scale
pipeline fixture (scripts/run_desk_pipeline.py on three seeds at once) and
together take a few minutes; everything else finishes in seconds.
"""

import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cgdbm.analysis import (
    AnalysisConfig,
    OrientationMapSet,
    correlate,
    dewhiten_direction,
    significance_threshold,
    train_som,
)
from cgdbm.cli import main as cli_main
from cgdbm.exact import brute_force_hidden_marginal, to_uncentered
from cgdbm.model import cond_hidden1, cond_hidden2, energy
from cgdbm.sampling import random_control_frames
from cgdbm.stimuli import fit_whitener, whiten
from cgdbm.synth import write_corpus
from cgdbm.training import (
    GibbsNoise,
    PersistentChains,
    batch_gradient_stats,
    gibbs_model_step,
    update_offsets,
)
from oracles import (
    enum_cond_hidden1,
    enum_cond_hidden2,
    fd_gradients,
    random_model,
    total_variation,
)
from tiny import TINY_CFG

REPO = Path(__file__).resolve().parents[1]
DESK_SEEDS = (0, 1, 2)


def cli_env(**extra: str) -> dict[str, str]:
    """The environment of a `python -m cgdbm.cli` child: this checkout's
    src first on PYTHONPATH, plus `extra`."""
    src = str(REPO / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def ok(tag: str, detail: str) -> None:
    print(f"[{tag}] PASS {detail}")


def random_state(rng, dims, c):
    """One joint state as three one-row arrays (x, y, z)."""
    L, M, N = dims
    return ((c.c_x + 1.5 * rng.standard_normal(L))[None, :],
            (rng.random((1, M)) < 0.5).astype(float),
            (rng.random((1, N)) < 0.5).astype(float))


def test_a01_gradients_match_finite_differences():
    # the gradient statistics training uses, at a batch of one state
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        p, c = random_model(rng, 3, 4, 2)
        x, y, z = random_state(rng, (3, 4, 2), c)
        an = batch_gradient_stats(x, y, z, p, c)
        fd = fd_gradients(x, y, z, p, c)
        for a, f in zip((an.dW, an.dU, an.db_y, an.db_z, an.dsigma), fd):
            rel = np.abs(f - a) / np.maximum(1.0, np.abs(a))
            worst = max(worst, float(rel.max()))
    elapsed = time.time() - t0
    assert worst <= 1e-5, f"worst relative gradient error {worst:.3e} > 1e-5"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"
    ok("a01", f"100 random 3-4-2 models, worst rel err {worst:.2e} "
              f"(limit 1e-05) in {elapsed:.1f}s (limit 60s)")


def test_a02_conditionals_match_enumeration():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        p, c = random_model(rng, 2, 3, 2)
        x = c.c_x + 1.5 * rng.standard_normal(2)
        y = (rng.random(3) < 0.5).astype(float)
        z = (rng.random(2) < 0.5).astype(float)
        got_y = cond_hidden1(x, z, p, c)
        for j in range(3):
            worst = max(worst, abs(got_y[j] - enum_cond_hidden1(j, x, z, p, c)))
        got_z = cond_hidden2(y, p, c)
        for k in range(2):
            worst = max(worst, abs(got_z[k] - enum_cond_hidden2(k, y, p, c)))
    assert worst <= 1e-12, f"worst conditional error {worst:.3e} > 1e-12"
    ok("a02", f"50 random 2-3-2 models, worst abs err {worst:.2e} (limit 1e-12)")


def test_a03_gibbs_frequencies_match_enumerated_marginal():
    rng = np.random.default_rng(303)
    t0 = time.time()
    n_chains, burn, retain = 500, 200, 2000  # 500 x 2000 = 1e6 kept sweeps
    worst_tv = 0.0
    for _ in range(2):
        p, c = random_model(rng, 2, 3, 2, scale=0.6)
        table = brute_force_hidden_marginal(p, c)
        chains = PersistentChains(
            x=np.tile(c.c_x, (n_chains, 1)),
            y=(rng.random((n_chains, 3)) < 0.5).astype(float),
            z=(rng.random((n_chains, 2)) < 0.5).astype(float),
        )
        counts = np.zeros_like(table)
        pow_y = 2 ** np.arange(3)
        pow_z = 2 ** np.arange(2)
        noise = GibbsNoise.empty(1, n_chains, (2, 3, 2))
        for s in range(burn + retain):
            chains = gibbs_model_step(chains, p, c, noise.fill(rng))
            if s >= burn:
                iy = (chains.y @ pow_y).astype(int)
                iz = (chains.z @ pow_z).astype(int)
                np.add.at(counts, (iy, iz), 1.0)
        assert counts.sum() == n_chains * retain == 10**6
        worst_tv = max(worst_tv, total_variation(counts / counts.sum(), table))
    elapsed = time.time() - t0
    assert worst_tv <= 0.02, f"total variation {worst_tv:.4f} > 0.02"
    assert elapsed < 300.0, f"took {elapsed:.1f}s, limit 300s"
    ok("a03", f"2 models x 1e6 retained sweeps, worst TV {worst_tv:.4f} "
              f"(limit 0.02) in {elapsed:.1f}s (limit 300s)")


def test_a04a_uncentering_shifts_energy_uniformly():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(5):
        p, c = random_model(rng, 3, 4, 2)
        p2, c2 = to_uncentered(p, c)
        # the 200 states as rows of one batch
        x, y, z = (np.vstack(rows) for rows in zip(
            *(random_state(rng, (3, 4, 2), c) for _ in range(200))))
        diffs = energy(x, y, z, p, c) - energy(x, y, z, p2, c2)
        worst = max(worst, float(diffs.max() - diffs.min()))
    assert worst <= 1e-9, f"energy-difference spread {worst:.3e} > 1e-9"
    ok("a04a", f"5 models x 200 states, worst spread {worst:.2e} (limit 1e-09)")


def test_a04b_offset_moves_preserve_hidden_marginal():
    rng = np.random.default_rng(405)
    worst = 0.0
    for _ in range(20):
        p, c = random_model(rng, 2, 3, 2)
        before = brute_force_hidden_marginal(p, c)
        c2, db_y, db_z = update_offsets(
            c, rng.uniform(0, 1, 3), rng.uniform(0, 1, 2),
            3.0 * rng.standard_normal(2), p, nu=rng.uniform(0.1, 1.0))
        p2 = replace(p, b_y=p.b_y + db_y, b_z=p.b_z + db_z)
        after = brute_force_hidden_marginal(p2, c2)
        worst = max(worst, float(np.abs(after - before).max()))
    assert worst <= 1e-10, f"marginal shift {worst:.3e} > 1e-10"
    ok("a04b", f"20 random offset moves, worst marginal shift {worst:.2e} "
               f"(limit 1e-10)")


def test_a05_whitening_identities():
    rng = np.random.default_rng(505)
    mix = rng.standard_normal((36, 36))
    data = rng.standard_normal((400, 36)) @ mix + rng.standard_normal(36)
    w = fit_whitener(data, k=12)
    cov = np.cov(whiten(w, data), rowvar=False, ddof=1)
    cov_err = float(np.abs(cov - np.eye(12)).max())
    assert cov_err <= 1e-6, f"whitened covariance off identity by {cov_err:.3e}"
    fresh = rng.standard_normal((50, 36)) @ mix + rng.standard_normal(36)
    got = dewhiten_direction(w, whiten(w, fresh)) + w.mean
    want = (fresh - w.mean) @ (w.basis @ w.basis.T) + w.mean
    proj_err = float(np.abs(got - want).max())
    assert proj_err <= 1e-8, f"round trip off the projection by {proj_err:.3e}"
    ok("a05", f"cov err {cov_err:.2e} (limit 1e-06), "
              f"projection err {proj_err:.2e} (limit 1e-08)")


def test_a06_significance_threshold_reference_value():
    th = significance_threshold(200, 0.01)
    assert abs(th - 0.182) <= 1e-3, f"threshold(200, 0.01) = {th:.6f}"
    ok("a06", f"threshold(200, 0.01) = {th:.4f} (target 0.182 +- 0.001)")


def test_a07_control_frames_match_alpha():
    rng = np.random.default_rng(707)
    n, width, alpha = 20000, 200, 0.01
    frames = random_control_frames(np.full(width, 0.5), n, rng)
    maps = OrientationMapSet(orientations=np.array([0.0]),
                             maps=rng.uniform(size=(1, width)))
    rep = correlate(frames, maps, significance_threshold(width, alpha))
    sd = math.sqrt(alpha * (1 - alpha) / n)
    err = abs(rep.significant_fraction - alpha)
    assert err <= 3 * sd, (
        f"control significant fraction {rep.significant_fraction:.5f} is "
        f"{err / sd:.1f} binomial sigma from alpha={alpha}")
    ok("a07", f"control fraction {rep.significant_fraction:.5f} vs alpha "
              f"{alpha} at n={n}: {err / sd:.2f} sigma (limit 3)")


def parse_summary(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text().strip().split("\n"):
        key, _, value = line.partition(" = ")
        out[key] = float(value)
    return out


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """Full pipeline for three seeds, run side by side by the desk runner."""
    root = tmp_path_factory.mktemp("desk")
    text = (REPO / "configs" / "desk.cfg").read_text()
    cfg_path = root / "desk.cfg"
    cfg_path.write_text(re.sub(r"(?m)^image_dir = .*$",
                               f"image_dir = {root / 'corpus'}", text))
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_desk_pipeline.py"),
         "--config", str(cfg_path), "--out", str(root),
         "--seeds", *map(str, DESK_SEEDS)],
        env=cli_env(), capture_output=True, text=True)
    print(proc.stdout, end="")
    assert proc.returncode == 0, proc.stderr  # names the seed and the stage
    return {seed: parse_summary(root / f"seed_{seed}" / "summary.txt")
            for seed in DESK_SEEDS}, time.time() - t0


@pytest.mark.slow
def test_a08_desk_scale_pipeline(desk_runs):
    summaries, elapsed = desk_runs
    details, passing = [], 0
    for seed, s in summaries.items():
        osi = s["osi_fraction_ge_0.3"]
        ratio = s["significant_ratio"]
        corr = s["max_significant_correlation"]
        good = osi >= 0.40 and ratio >= 3.0 and corr >= 0.3
        passing += good
        details.append(f"seed {seed}: osi {osi:.2f} ratio {ratio:.2f} "
                       f"corr {corr:.2f} -> {'pass' if good else 'fail'}")
    joined = "; ".join(details)
    assert elapsed <= 1800.0, f"pipeline took {elapsed / 60:.1f} min, limit 30"
    assert passing >= 2, (
        f"only {passing}/3 seeds meet osi>=0.40, ratio>=3, corr>=0.3 "
        f"(need >=2): {joined}")
    ok("a08", f"{joined}; {passing}/3 seeds pass (need >=2) "
              f"in {elapsed / 60:.1f} min (limit 30)")


def test_a09a_som_ring_topology_and_quantization():
    rng = np.random.default_rng(909)
    angles = rng.uniform(0, 2 * np.pi, size=600)
    ring = np.zeros((600, 12))
    ring[:, 0] = np.cos(angles)
    ring[:, 1] = np.sin(angles)
    som = train_som(ring, AnalysisConfig(som_epochs=20, som_radius_start=4.0,
                                         som_lr_start=0.25), seed=4)
    node_angle = np.arctan2(som.nodes[:, 1], som.nodes[:, 0])
    steps = np.diff(np.concatenate([node_angle, node_angle[:1]]))
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    monotone = bool(np.all(steps > 0) or np.all(steps < 0))
    winding = float(abs(steps.sum()))
    dec = int(np.sum(np.diff(som.qe_history) < 0))
    pairs = len(som.qe_history) - 1
    assert monotone and abs(winding - 2 * np.pi) <= 1e-9, (
        f"node order not a single monotone wind (winding {winding:.3f})")
    assert dec / pairs >= 0.9, f"error fell in only {dec}/{pairs} epoch pairs"
    ok("a09a", f"monotone ring order, winding 2*pi, error fell in "
               f"{dec}/{pairs} epoch pairs (need >=90%)")


@pytest.mark.slow
def test_a09b_som_node_matches_orientation_map(desk_runs):
    summaries, _ = desk_runs
    counts = {seed: int(s["som_nodes_above_threshold"])
              for seed, s in summaries.items()}
    best = max(counts.values())
    assert best >= 1, f"no node above threshold on any seed: {counts}"
    ok("a09b", f"nodes above threshold per seed {counts} (need >=1 on some seed)")


def test_a10_bit_identical_reruns(tmp_path):
    write_corpus(tmp_path / "corpus", 4, 24, seed=5)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_CFG.format(corpus=tmp_path / "corpus"))
    out = tmp_path / "artifacts"

    def run_all():
        base = ["--config", str(cfg_path), "--out-dir", str(out)]
        for step in ("prepare", "train", "sample", "analyze"):
            assert cli_main([step, *base]) == 0, step
        assert cli_main(["report", "--out-dir", str(out)]) == 0

    run_all()
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
    run_all()
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
    assert first.keys() == second.keys()
    changed = [name for name in first if first[name] != second[name]]
    assert not changed, f"artifacts changed across rerun: {changed}"
    ok("a10", f"{len(first)} artifacts byte-identical across a full rerun")


def test_a10b_artifacts_independent_of_blas_threads(tmp_path):
    # The tiny a10 run at desk dims: at its own 20/12/4 dims OpenBLAS
    # never starts a second thread, so it could not tell the difference.
    write_corpus(tmp_path / "corpus", 4, 64, seed=5)
    text = TINY_CFG.format(corpus=tmp_path / "corpus")
    for old, new in (("patch_side = 6", "patch_side = 12"),
                     ("n_patches = 800", "n_patches = 2000"),
                     ("pca_k = 20", "pca_k = 100"),
                     ("L = 20\nM = 12\nN = 4", "L = 100\nM = 64\nN = 16"),
                     ("batch_size = 60", "batch_size = 100"),
                     ("threshold_n = 12", "threshold_n = 64")):
        assert old in text
        text = text.replace(old, new)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)

    def run_all(threads: str) -> dict[str, bytes]:
        out = tmp_path / f"threads_{threads}"
        env = cli_env(OPENBLAS_NUM_THREADS=threads)
        for step in ("prepare", "train", "sample", "analyze"):
            subprocess.run([sys.executable, "-m", "cgdbm.cli", step,
                            "--config", str(cfg_path), "--out-dir", str(out)],
                           env=env, check=True, capture_output=True)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    one, two = run_all("1"), run_all("2")
    assert one.keys() == two.keys()
    changed = [name for name in one if one[name] != two[name]]
    assert not changed, f"artifacts differ between 1 and 2 BLAS threads: {changed}"
    ok("a10b", f"{len(one)} artifacts byte-identical under 1 and 2 BLAS threads")
