"""End-to-end subcommand tests on a tiny synthetic run."""

import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cgdbm.analysis import analyze, top_active_filters
from cgdbm.cli import main
from cgdbm.config import load_config, stage_seed
from cgdbm.io import load_matrix, load_model, save_matrix, save_model
from cgdbm.sampling import average_initial_probability, run_spontaneous_session
from cgdbm.stimuli import (extract_patches, load_grayscale_images,
                           load_whitener)
from cgdbm.synth import write_corpus
from cgdbm.training import train
from oracles import prepare_reference
from tiny import TINY_CFG


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A completed tiny pipeline run: prepare, train, sample, analyze."""
    root = tmp_path_factory.mktemp("run")
    corpus = root / "corpus"
    write_corpus(corpus, 4, 24, seed=5)
    cfg_path = root / "run.cfg"
    cfg_path.write_text(TINY_CFG.format(corpus=corpus))
    out = root / "artifacts"
    base = ["--config", str(cfg_path), "--out-dir", str(out)]
    assert main(["prepare", *base]) == 0
    assert main(["train", *base]) == 0
    assert main(["sample", *base]) == 0
    assert main(["analyze", *base]) == 0
    assert main(["report", "--out-dir", str(out)]) == 0
    return root, cfg_path, out


def test_prepare_outputs(run_dir):
    root, cfg, out = run_dir
    train, meta = load_matrix(out / "train_white.cgmat")
    test, _ = load_matrix(out / "test_white.cgmat")
    assert train.shape == (720, 20)
    assert test.shape == (80, 20)
    assert meta["kind"] == "whitened_train"
    # whitened training data has identity covariance
    cov = np.cov(train, rowvar=False, ddof=1)
    np.testing.assert_allclose(cov, np.eye(20), atol=1e-6)


def test_prepare_matches_three_copy_composition(run_dir):
    # prepare centers the training rows once, in place; the composition
    # that centered three copies of them is the reference, bit for bit.
    # It is recomputed here, not pinned by a digest: eigh's bits depend
    # on the LAPACK kernels the CPU selects
    root, cfg_path, out = run_dir
    cfg = load_config(cfg_path)
    rng = np.random.default_rng(stage_seed(cfg.seed, "prepare"))
    train_px, test_px = extract_patches(
        load_grayscale_images(root / "corpus"), cfg.data.patch_side,
        cfg.data.n_patches, cfg.data.train_fraction, rng)
    fitted, train_white, test_white, norm = prepare_reference(
        train_px, test_px, cfg.data.pca_k)
    w, meta = load_whitener(out / "whitener.cgmat")
    for got, want in zip((w.mean, w.eigvals, w.basis), fitted):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(load_matrix(out / "train_white.cgmat")[0],
                                  train_white)
    np.testing.assert_array_equal(load_matrix(out / "test_white.cgmat")[0],
                                  test_white)
    assert float(meta["mean_patch_norm"]) == norm


def test_prepare_holds_one_copy_of_the_patches(tmp_path):
    # 4000 patches of 16x16 (8.2 MB) dominate the traced memory; a small
    # pca_k keeps the whitened rows and LAPACK's untraced workspace small
    n, d, k = 4000, 256, 8
    corpus = tmp_path / "corpus"
    write_corpus(corpus, 16, 48, seed=6)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG.format(corpus=corpus)
                   .replace("patch_side = 6", "patch_side = 16")
                   .replace("n_patches = 800", f"n_patches = {n}")
                   .replace("pca_k = 20", f"pca_k = {k}")
                   .replace("L = 20", f"L = {k}"))
    tracemalloc.start()
    try:
        rc = main(["prepare", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    # the patch buffer and the whitened rows.  Measured: 1.15x, with the
    # d x d covariance products most of the rest; centering the training
    # rows in three copies made it 2.01x
    held = 8 * n * (d + k)
    assert peak <= 1.3 * held, \
        f"traced peak {peak / held:.2f} x {held / 1e6:.1f} MB"


def test_prepare_never_holds_a_whitened_split(tmp_path):
    # pca_k close to the patch width, so the whitened rows (18 MB) are
    # nearly the size of the patch buffer (20.5 MB): they are made and
    # written block by block, never whole
    n, side, k = 40000, 8, 56
    corpus = tmp_path / "corpus"
    write_corpus(corpus, 16, 48, seed=6)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG.format(corpus=corpus)
                   .replace("patch_side = 6", f"patch_side = {side}")
                   .replace("n_patches = 800", f"n_patches = {n}")
                   .replace("pca_k = 20", f"pca_k = {k}")
                   .replace("L = 20", f"L = {k}"))
    tracemalloc.start()
    try:
        rc = main(["prepare", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    # measured: 1.13x, the largest block and its centered copy most of
    # the rest; holding both whitened splits made it 2.00x
    held = 8 * n * side * side
    assert peak <= 1.2 * held, \
        f"traced peak {peak / held:.2f} x {held / 1e6:.1f} MB"


def test_train_outputs(run_dir):
    root, cfg, out = run_dir
    params, offsets = load_model(out / "model.cgdbm")
    assert params.dims == (20, 12, 4)
    assert (out / "checkpoint.cgdbm").is_file()
    log = (out / "train_log.csv").read_text().strip().split("\n")
    assert log[0].startswith("epoch,reconstruction_error")
    assert len(log) == 3  # header + 2 epochs


def test_sample_outputs(run_dir):
    root, cfg, out = run_dir
    frames, meta = load_matrix(out / "frames.cgmat")
    assert frames.shape == (20, 12)  # (40/10 records) x 5 chains
    assert np.all((frames > 0) & (frames < 1))
    # the session that made the frames, as the header records it; the
    # seed is the sample stage's seed derived from the global seed 11
    assert meta == {"kind": "spontaneous", "layout": "recording-major",
                    "n_chains": "5", "n_iterations": "40",
                    "record_every": "10", "seed": "520846937"}
    assert meta["seed"] == str(stage_seed(11, "sample"))
    p_init, _ = load_matrix(out / "p_init.cgmat")
    assert p_init.shape == (1, 12)


def test_analyze_outputs(run_dir):
    root, cfg, out = run_dir
    assert {p.name for p in out.iterdir()} == {
        "train_white.cgmat", "test_white.cgmat", "whitener.cgmat",
        "model.cgdbm", "checkpoint.cgdbm", "train_log.csv",
        "frames.cgmat", "p_init.cgmat",
        "orientation_maps.cgmat", "correlation.csv", "preference_hist.csv",
        "som.csv", "osi.csv", "summary.txt", "filters.pgm",
        "rf_second_layer.pgm", "top_active.pgm", "top_active.csv",
        "report.txt"}
    frames, _ = load_matrix(out / "frames.cgmat")
    top = top_active_filters(frames.mean(axis=0), k=min(25, 12))
    rows = (out / "top_active.csv").read_text().strip().split("\n")
    assert rows == ["rank,unit"] + [f"{i},{j}" for i, j in enumerate(top)]
    maps, meta = load_matrix(out / "orientation_maps.cgmat")
    assert maps.shape == (8, 12)
    assert np.all((maps >= 0) & (maps <= 1))
    hist = (out / "preference_hist.csv").read_text().strip().split("\n")
    assert hist[0] == "orientation_deg,relative_occurrence"
    assert len(hist) == 9
    assert hist[1].startswith("0,")
    assert hist[4].startswith("67.5,")
    summary = (out / "summary.txt").read_text()
    assert "significant_fraction = " in summary
    assert "threshold = " in summary


def test_every_binary_artifact_is_one_container_kind(run_dir):
    root, cfg, out = run_dir
    kinds = {}
    for path in sorted([*out.glob("*.cgmat"), *out.glob("*.cgdbm")]):
        _, meta = load_matrix(path)
        kinds[path.name] = meta["kind"]
    assert kinds == {
        "checkpoint.cgdbm": "model", "frames.cgmat": "spontaneous",
        "model.cgdbm": "model", "orientation_maps.cgmat": "orientation_maps",
        "p_init.cgmat": "initial_probability",
        "test_white.cgmat": "whitened_test",
        "train_white.cgmat": "whitened_train", "whitener.cgmat": "whitener"}


@pytest.mark.parametrize("source, target, stage", [
    ("whitener.cgmat", "model.cgdbm", "sample"),
    ("model.cgdbm", "whitener.cgmat", "analyze"),
    ("orientation_maps.cgmat", "frames.cgmat", "analyze"),
    ("frames.cgmat", "p_init.cgmat", "analyze"),
    ("test_white.cgmat", "train_white.cgmat", "sample"),
    ("test_white.cgmat", "train_white.cgmat", "train")])
def test_wrong_kind_exit_code(run_dir, tmp_path, source, target, stage):
    # a valid container of another kind under an artifact's name
    root, cfg, out = run_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    shutil.copyfile(run / source, run / target)
    assert main([stage, "--config", str(cfg), "--out-dir", str(run)]) == 4


def test_report_output(run_dir):
    root, cfg, out = run_dir
    text = (out / "report.txt").read_text()
    assert "[analysis summary]" in text
    assert "[artifacts]" in text
    assert "model.cgdbm" in text


def test_report_never_lists_temporary_files(run_dir, tmp_path):
    root, cfg, out = run_dir
    assert not list(out.glob("*.tmp"))
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    # what an interrupted checkpoint write leaves behind
    (copy / "checkpoint.cgdbm.tmp").write_bytes(b"CGMAT3\nL=")
    assert main(["report", "--out-dir", str(copy)]) == 0
    assert ".tmp" not in (copy / "report.txt").read_text()


def test_reruns_are_bit_identical(run_dir, tmp_path):
    root, cfg, out = run_dir
    out2 = tmp_path / "again"
    base = ["--config", str(cfg), "--out-dir", str(out2)]
    assert main(["prepare", *base]) == 0
    assert main(["train", *base]) == 0
    assert main(["sample", *base]) == 0
    assert main(["analyze", *base]) == 0
    for name in ("train_white.cgmat", "whitener.cgmat", "model.cgdbm",
                 "frames.cgmat", "summary.txt", "filters.pgm",
                 "top_active.csv", "correlation.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_seed_override_changes_artifacts(run_dir, tmp_path):
    root, cfg, out = run_dir
    out2 = tmp_path / "seeded"
    base = ["--config", str(cfg), "--out-dir", str(out2), "--seed", "99"]
    assert main(["prepare", *base]) == 0
    assert (out / "train_white.cgmat").read_bytes() != \
        (out2 / "train_white.cgmat").read_bytes()


def test_seed_override_seeds_train_and_sample(run_dir, tmp_path):
    # under --seed 99, train and sample run on the seeds derived from 99,
    # not from the config's seed 11
    root, cfg_path, out = run_dir
    run = tmp_path / "seeded"
    base = ["--config", str(cfg_path), "--out-dir", str(run), "--seed", "99"]
    for step in ("prepare", "train", "sample"):
        assert main([step, *base]) == 0
    cfg = load_config(cfg_path)
    data, _ = load_matrix(run / "train_white.cgmat")
    *_, want = train(data, cfg.model.dims, cfg.training,
                     stage_seed(99, "train"))
    save_model(tmp_path / "want.cgdbm", want.params, want.offsets)
    assert (run / "model.cgdbm").read_bytes() == \
        (tmp_path / "want.cgdbm").read_bytes()
    p_init = average_initial_probability(want.params, want.offsets, data,
                                         cfg.training)
    frames, meta = load_matrix(run / "frames.cgmat")
    seed = stage_seed(99, "sample")
    np.testing.assert_array_equal(
        frames, run_spontaneous_session(want.params, want.offsets, p_init,
                                        cfg.sampling, seed))
    assert meta["seed"] == str(seed)


def test_epochs_zero_saves_initial_model(run_dir, tmp_path):
    root, cfg, out = run_dir
    out2 = tmp_path / "ep0"
    base = ["--config", str(cfg), "--out-dir", str(out2)]
    assert main(["prepare", *base]) == 0
    assert main(["train", *base, "--epochs", "0"]) == 0
    params, offsets = load_model(out2 / "model.cgdbm")
    # data-mean visible offsets are the signature of the untrained init
    train, _ = load_matrix(out2 / "train_white.cgmat")
    np.testing.assert_allclose(offsets.c_x, train.mean(axis=0), atol=1e-12)
    assert (out2 / "checkpoint.cgdbm").read_bytes() == \
        (out2 / "model.cgdbm").read_bytes()


def test_exit_codes(run_dir, tmp_path):
    root, cfg, out = run_dir
    empty = tmp_path / "empty"
    empty.mkdir()
    base = ["--config", str(cfg), "--out-dir", str(empty)]
    # missing config file
    assert main(["prepare", "--config", str(tmp_path / "no.cfg"),
                 "--out-dir", str(empty)]) == 2
    # a config file that is not UTF-8
    utf16 = tmp_path / "utf16.cfg"
    utf16.write_bytes(b"\xff\xfe" + cfg.read_text().encode("utf-16-le"))
    assert main(["prepare", "--config", str(utf16),
                 "--out-dir", str(empty)]) == 2
    # negative seed, from the command line or the config
    assert main(["prepare", *base, "--seed", "-1"]) == 2
    negative = tmp_path / "negative.cfg"
    negative.write_text(cfg.read_text().replace("seed = 11", "seed = -3"))
    assert main(["prepare", "--config", str(negative),
                 "--out-dir", str(empty)]) == 2
    # too few training patches for pca_k, caught before any patch is cut
    few = tmp_path / "few.cfg"
    few.write_text(cfg.read_text().replace("n_patches = 800",
                                           "n_patches = 20"))
    assert main(["prepare", "--config", str(few),
                 "--out-dir", str(empty)]) == 2
    # train before prepare
    assert main(["train", *base]) == 2
    # a corpus image whose PGM header gives a negative size -> format error
    bad_corpus = tmp_path / "bad_corpus"
    shutil.copytree(root / "corpus", bad_corpus)
    (bad_corpus / "negative.pgm").write_bytes(b"P5\n-3 4\n255\n" + bytes(12))
    bad_images = tmp_path / "bad_images.cfg"
    bad_images.write_text(TINY_CFG.format(corpus=bad_corpus))
    assert main(["prepare", "--config", str(bad_images),
                 "--out-dir", str(tmp_path / "bad_images")]) == 4
    # sample config violation: iterations not divisible by record stride
    assert main(["prepare", *base]) == 0
    assert main(["train", *base, "--epochs", "1"]) == 0
    bad_cfg = tmp_path / "iters95.cfg"
    bad_cfg.write_text(cfg.read_text().replace("n_iterations = 40",
                                               "n_iterations = 95"))
    assert main(["sample", "--config", str(bad_cfg),
                 "--out-dir", str(empty)]) == 2
    # p_init without its one row, under a valid digest -> shape error
    assert main(["sample", *base]) == 0
    save_matrix(empty / "p_init.cgmat", np.zeros((0, 12)),
                meta={"kind": "initial_probability"})
    assert main(["analyze", *base]) == 2
    # corrupted model file -> format error
    blob = bytearray((empty / "model.cgdbm").read_bytes())
    blob[-3] ^= 0xFF
    (empty / "model.cgdbm").write_bytes(bytes(blob))
    assert main(["sample", *base]) == 4
    # negative model dims whose implied payload size is positive, under a
    # valid digest -> format error
    save_matrix(empty / "model.cgdbm", np.zeros((1, 2)),
                meta={"kind": "model", "L": "-4", "M": "-4", "N": "-1"})
    assert main(["sample", *base]) == 4
    # report on a missing directory
    assert main(["report", "--out-dir", str(tmp_path / "nowhere")]) == 2


def test_non_ascii_header_exit_code(run_dir, tmp_path):
    root, cfg, out = run_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    frames = (run / "frames.cgmat").read_bytes()
    assert b"kind=spontaneous" in frames
    (run / "frames.cgmat").write_bytes(
        frames.replace(b"kind=spontaneous", b"kind=spontan\xe9ous", 1))
    assert main(["analyze", "--config", str(cfg), "--out-dir", str(run)]) == 4


def test_edited_whitener_header_exit_code(run_dir, tmp_path):
    # analyze scales the gratings by the whitener's mean_patch_norm; an
    # edited value must fail the digest instead of changing the analysis
    root, cfg, out = run_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    whitener = (run / "whitener.cgmat").read_bytes()
    assert b"mean_patch_norm=" in whitener
    (run / "whitener.cgmat").write_bytes(
        whitener.replace(b"mean_patch_norm=", b"mean_patch_norm=7", 1))
    assert main(["analyze", "--config", str(cfg), "--out-dir", str(run)]) == 4


def test_whitener_without_mean_patch_norm_exit_code(run_dir, tmp_path):
    # a whitener written without the norm that scales the gratings, under
    # a valid digest, must not be analysed with zero-amplitude gratings
    root, cfg, out = run_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    flat, meta = load_matrix(run / "whitener.cgmat")
    del meta["mean_patch_norm"]
    save_matrix(run / "whitener.cgmat", flat, meta=meta)
    assert main(["analyze", "--config", str(cfg), "--out-dir", str(run)]) == 4


@pytest.mark.parametrize("value", [np.nan, 1.7])
def test_p_init_outside_unit_interval_exit_code(run_dir, tmp_path, value):
    # control frames drawn at such rates would be all zeros or all ones
    root, cfg, out = run_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / "summary.txt").unlink()
    p_init, meta = load_matrix(run / "p_init.cgmat")
    save_matrix(run / "p_init.cgmat", np.full_like(p_init, value), meta=meta)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert main(["analyze", "--config", str(cfg), "--out-dir", str(run)]) == 3
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    assert "summary.txt" not in before


def test_analyze_function_reproduces_summary(run_dir, tmp_path,
                                             monkeypatch):
    # the analysis is a pure function of the loaded artifacts: it alone
    # reproduces the stage's summary.txt and writes no file
    root, cfg_path, out = run_dir
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.chdir(tmp_path)
    cfg = load_config(cfg_path)
    params, offsets = load_model(out / "model.cgdbm")
    frames, _ = load_matrix(out / "frames.cgmat")
    p_init, _ = load_matrix(out / "p_init.cgmat")
    whitener, meta = load_whitener(out / "whitener.cgmat")
    res = analyze(params, offsets, whitener, int(meta["patch_side"]),
                  float(meta["mean_patch_norm"]), frames, p_init[0],
                  cfg.analysis, cfg.training,
                  som_seed=stage_seed(11, "analyze"),
                  control_seed=stage_seed(11, "analyze", 1))
    assert "\n".join(res.summary) + "\n" == (out / "summary.txt").read_text()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exit_code_and_checkpoint(run_dir, tmp_path):
    root, cfg, out = run_dir
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(cfg.read_text().replace(
        "epochs_max = 2",
        "epochs_max = 4\nlearning_rate_start = 1e60"))
    out2 = tmp_path / "div"
    base = ["--config", str(bad_cfg), "--out-dir", str(out2)]
    assert main(["prepare", *base]) == 0
    assert main(["train", *base]) == 3
    # last good state is retained
    params, offsets = load_model(out2 / "checkpoint.cgdbm")
    assert np.all(np.isfinite(params.W))
    assert not (out2 / "model.cgdbm").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_keeps_last_finished_epoch(run_dir, tmp_path):
    # at a constant rate and momentum the schedule does not depend on
    # epochs_max, so a run that diverges in epoch 2 leaves the checkpoint
    # and log that a two-epoch run leaves
    root, cfg, out = run_dir
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(cfg.read_text().replace(
        "epochs_max = 2",
        "epochs_max = 8\nlearning_rate_start = 1e4\nlearning_rate_end = 1e4\n"
        "momentum_start = 0\nmomentum_end = 0"))
    div, two = tmp_path / "div", tmp_path / "two"
    for run in (div, two):
        assert main(["prepare", "--config", str(bad_cfg),
                     "--out-dir", str(run)]) == 0
    assert main(["train", "--config", str(bad_cfg), "--out-dir", str(div)]) == 3
    assert main(["train", "--config", str(bad_cfg), "--out-dir", str(two),
                 "--epochs", "2"]) == 0
    log = (div / "train_log.csv").read_text().strip().split("\n")
    assert len(log) == 3  # header + 2 epochs
    assert (div / "train_log.csv").read_bytes() == \
        (two / "train_log.csv").read_bytes()
    assert (div / "checkpoint.cgdbm").read_bytes() == \
        (two / "model.cgdbm").read_bytes()
    assert not (div / "model.cgdbm").exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "r"
    out.mkdir()
    (out / "summary.txt").write_text("significant_fraction = 0.5\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cgdbm.cli", "report", "--out-dir", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "significant_fraction" in proc.stdout
    assert (out / "report.txt").is_file()


def test_cli_import_skips_scipy_stats():
    # each stage runs in its own process and pays for every import of the
    # CLI; scipy.stats is the costliest and the pipeline does not need it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cgdbm.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


STAGE_PROBE = """
import sys
from cgdbm.cli import main
import cgdbm.model
on_import = 'scipy' in sys.modules
rc = main(sys.argv[1:])
special = sys.modules.get('scipy.special')
print(on_import, rc, 'scipy' in sys.modules, special is not None,
      special is not None and cgdbm.model._expit is not special.expit)
"""


def test_cli_import_and_report_skip_scipy(run_dir, tmp_path):
    # each stage is a fresh process and pays for every import it makes.
    # Importing the CLI loads no scipy; prepare and report never load it;
    # train, sample and analyze load only the compiled modules that hold
    # expit and stdtrit, never scipy.special, whose package init costs
    # about 0.3 s
    root, cfg, _ = run_dir
    out = tmp_path / "run"
    base = ["--config", str(cfg), "--out-dir", str(out)]
    seen = {}
    for stage in ("prepare", "train", "sample", "analyze", "report"):
        args = base if stage != "report" else ["--out-dir", str(out)]
        proc = subprocess.run(
            [sys.executable, "-c", STAGE_PROBE, stage, *args],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        on_import, rc, scipy, special, own_expit = proc.stdout.split()[-5:]
        assert (on_import, rc) == ("False", "0"), (stage, proc.stdout)
        seen[stage] = (scipy, special, own_expit)
    assert seen["prepare"] == seen["report"] == ("False", "False", "False")
    assert seen["train"][1:] == seen["sample"][1:] == ("False", "False")
    assert seen["analyze"] == ("True", "False", "False")
