"""End-to-end subcommand tests on a tiny synthetic run."""

import shutil
import subprocess
import sys

import numpy as np
import pytest

from cgdbm.cli import main
from cgdbm.config import stage_seed
from cgdbm.io import load_matrix, load_model, save_matrix, write_pgm
from cgdbm.synth import make_corpus

TINY_CFG = """
seed = 11

[data]
image_dir = {corpus}
patch_side = 6
n_patches = 800
train_fraction = 0.9
pca_k = 20

[model]
L = 20
M = 12
N = 4

[training]
epochs_max = 2
batch_size = 60
patience = 5

[sampling]
n_chains = 5
n_iterations = 40
record_every = 10

[analysis]
alpha = 0.05
threshold_n = 12
som_nodes = 8
som_epochs = 3
som_radius_start = 2.0
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A completed tiny pipeline run: prepare, train, sample, analyze."""
    root = tmp_path_factory.mktemp("run")
    corpus = root / "corpus"
    corpus.mkdir()
    for i, img in enumerate(make_corpus(4, 24, seed=5)):
        if i == 0:
            write_pgm(corpus / f"img_{i}.pgm", img, maxval=65535)
        else:
            save_matrix(corpus / f"img_{i}.cgmat", img)
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
    for name in ("orientation_maps.cgmat", "orientation_maps.csv",
                 "correlation.csv", "control_correlation.csv",
                 "preference_hist.csv", "som.csv", "osi.csv", "summary.txt",
                 "filters.pgm", "filters.svg", "rf_second_layer.pgm",
                 "rf_second_layer.svg", "top_active.pgm", "top_active.svg"):
        assert (out / name).is_file(), name
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


def test_report_output(run_dir):
    root, cfg, out = run_dir
    text = (out / "report.txt").read_text()
    assert "[analysis summary]" in text
    assert "[artifacts]" in text
    assert "model.cgdbm" in text


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
                 "filters.svg", "correlation.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_seed_override_changes_artifacts(run_dir, tmp_path):
    root, cfg, out = run_dir
    out2 = tmp_path / "seeded"
    base = ["--config", str(cfg), "--out-dir", str(out2), "--seed", "99"]
    assert main(["prepare", *base]) == 0
    assert (out / "train_white.cgmat").read_bytes() != \
        (out2 / "train_white.cgmat").read_bytes()


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


def test_sample_flag_overrides(run_dir, tmp_path):
    root, cfg, out = run_dir
    out2 = tmp_path / "flags"
    base = ["--config", str(cfg), "--out-dir", str(out2)]
    assert main(["prepare", *base]) == 0
    assert main(["train", *base, "--epochs", "1"]) == 0
    assert main(["sample", *base, "--chains", "10", "--iters", "100",
                 "--every", "10"]) == 0
    frames, _ = load_matrix(out2 / "frames.cgmat")
    assert frames.shape == (100, 12)


def test_exit_codes(run_dir, tmp_path):
    root, cfg, out = run_dir
    empty = tmp_path / "empty"
    empty.mkdir()
    base = ["--config", str(cfg), "--out-dir", str(empty)]
    # missing config file
    assert main(["prepare", "--config", str(tmp_path / "no.cfg"),
                 "--out-dir", str(empty)]) == 2
    # train before prepare
    assert main(["train", *base]) == 2
    # sample config violation: iterations not divisible by record stride
    assert main(["prepare", *base]) == 0
    assert main(["train", *base, "--epochs", "1"]) == 0
    assert main(["sample", *base, "--iters", "95"]) == 2
    # corrupted model file -> format error
    blob = bytearray((empty / "model.cgdbm").read_bytes())
    blob[-3] ^= 0xFF
    (empty / "model.cgdbm").write_bytes(bytes(blob))
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


def test_cli_import_and_report_skip_scipy(tmp_path):
    # scipy is loaded by the stages that sample or test, never on import:
    # prepare and report do not pay for it
    (tmp_path / "summary.txt").write_text("significant_fraction = 0.5\n")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cgdbm.cli import main; "
         "loaded = 'scipy' in sys.modules; "
         f"rc = main(['report', '--out-dir', {str(tmp_path)!r}]); "
         "print(loaded, rc, 'scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["False", "0", "False"]
