"""The scripts: the desk runner, scripts/run_desk_pipeline.py, on a tiny
config, and the corpus writer, scripts/make_corpus.py."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from cgdbm.cli import main
from cgdbm.io import write_pgm
from cgdbm.stimuli import load_grayscale_images
from cgdbm.synth import make_corpus, write_corpus
from tiny import TINY_CFG

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args) -> subprocess.CompletedProcess:
    # the script (and the runner's stages) import this checkout's cgdbm
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True)


def run_runner(*args) -> subprocess.CompletedProcess:
    return run_script("run_desk_pipeline.py", *args)


def tiny_config(tmp_path, corpus) -> str:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG.format(corpus=corpus))
    return str(cfg)


def test_runner_matches_in_process_runs(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, 4, 24, seed=5)
    cfg = tiny_config(tmp_path, corpus)
    out = tmp_path / "runs"
    seeds = (0, 1)
    want, want_stdout = {}, {}
    for seed in seeds:
        seed_dir = out / f"seed_{seed}"
        base = ["--config", cfg, "--out-dir", str(seed_dir),
                "--seed", str(seed)]
        for stage in ("prepare", "train", "sample", "analyze"):
            assert main([stage, *base]) == 0, (seed, stage)
        assert main(["report", "--out-dir", str(seed_dir)]) == 0
        want[seed] = {p.name: p.read_bytes() for p in seed_dir.iterdir()}
        want_stdout[seed] = capsys.readouterr().out
    shutil.rmtree(out)

    proc = run_runner("--config", cfg, "--out", out, "--seeds", *seeds)
    assert proc.returncode == 0, proc.stderr
    for seed in seeds:
        seed_dir = out / f"seed_{seed}"
        got = {p.name: p.read_bytes() for p in seed_dir.iterdir()}
        assert got.keys() == want[seed].keys()
        changed = [name for name in got if got[name] != want[seed][name]]
        assert not changed, f"seed {seed}: artifacts differ: {changed}"
    # each seed's stage output unchanged, one seed after the other
    assert proc.stdout == "".join(want_stdout[seed] for seed in seeds)


def test_runner_names_the_failing_seed_and_stage(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_pgm(corpus / "small.pgm", np.zeros((4, 4)))  # patch_side is 6
    proc = run_runner("--config", tiny_config(tmp_path, corpus),
                      "--out", tmp_path / "runs", "--seeds", 3)
    assert proc.returncode == 1
    assert "seed 3: prepare exited 3: " in proc.stderr
    assert "no image is at least 6x6" in proc.stderr


def test_runner_rejects_bad_input(tmp_path):
    cfg = tiny_config(tmp_path, tmp_path / "corpus")
    out = tmp_path / "runs"
    proc = run_runner("--config", cfg, "--out", out, "--seeds", 0, 1, 0)
    assert proc.returncode == 2
    assert "a seed is repeated" in proc.stderr
    proc = run_runner("--config", tmp_path / "missing.cfg", "--out", out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: config file ")
    assert "Traceback" not in proc.stderr
    # nothing was built or run
    assert not out.exists() and not (tmp_path / "corpus").exists()


def test_make_corpus_script_writes_the_quantized_scenes(tmp_path):
    # the corpus is read from PGM only, so what the script writes is what
    # prepare sees: make_corpus's scenes rounded to 16 bits
    out = tmp_path / "corpus"
    proc = run_script("make_corpus.py", "--out", out, "--n-images", 2,
                      "--side", 16, "--shapes", 5)
    assert proc.returncode == 0, proc.stderr
    got = load_grayscale_images(out)
    want = make_corpus(2, 16, 0, 5)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, np.rint(w * 65535) / 65535)
