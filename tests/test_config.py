"""Config grammar, validation, and stage-seed derivation."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from cgdbm.analysis import AnalysisConfig
from cgdbm.config import (DataConfig, ModelConfig, RunConfig, load_config,
                          parse_config, stage_seed)
from cgdbm.errors import ConfigError
from cgdbm.sampling import SessionConfig
from cgdbm.training import TrainConfig
from tiny import TINY_CFG

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOOD = """
# a desk-scale run
seed = 7

[data]
image_dir = corpus   # trailing comment
patch_side = 12
n_patches = 5000
train_fraction = 0.9
pca_k = 100

[model]
L = 100
M = 64
N = 16

[training]
epochs_max = 3
batch_size = 50

[sampling]
n_chains = 10
n_iterations = 100
record_every = 10

[analysis]
alpha = 0.01
threshold_n = 64
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.seed == 7
    assert cfg.data.image_dir == "corpus"
    assert cfg.data.patch_side == 12
    assert cfg.model.dims == (100, 64, 16)
    assert cfg.training.epochs_max == 3
    assert cfg.training.batch_size == 50
    # untouched fields keep defaults
    assert cfg.training.learning_rate_start == 0.03
    assert cfg.sampling.n_chains == 10
    assert cfg.analysis.threshold_n == 64


def test_stage_seeds_are_distinct():
    seeds = {stage_seed(7, s) for s in ("prepare", "train", "sample",
                                        "analyze")}
    seeds.add(stage_seed(7, "analyze", 1))  # the control-frame stream
    assert len(seeds) == 5
    assert stage_seed(7, "analyze", 1) == int(
        np.random.SeedSequence([7, 4, 1]).generate_state(1)[0])
    with pytest.raises(ConfigError):
        stage_seed(7, "nope")


def test_stage_seed_depends_on_global_seed():
    assert stage_seed(1, "train") != stage_seed(2, "train")


def test_defaults_when_sections_missing():
    cfg = parse_config("seed = 3\n")
    assert cfg.model.L == cfg.data.pca_k == 100
    assert cfg.analysis.alpha == 0.01


@pytest.mark.parametrize("text,fragment", [
    ("x = 1\n", "only 'seed'"),
    ("seed = 1\nseed = 2\n", "duplicate global seed"),
    ("[nosuch]\n", "unknown section"),
    ("[model]\nQ = 3\n", "unknown key"),
    ("[model]\nL = abc\n", "cannot parse"),
    ("[model]\nL = 1\nL = 2\n", "duplicate key"),
    ("[training]\nseed = 5\n", "unknown key"),
    ("[sampling]\nseed = 5\n", "unknown key"),
    ("[analysis]\nn_control = 5\n", "unknown key"),
    # module constants, not keys
    ("[training]\nsigma_lr_factor = 0.1\n",
     "unknown key 'sigma_lr_factor' in section [training]"),
    ("[training]\nsigma_step_clip = 0.05\n",
     "unknown key 'sigma_step_clip' in section [training]"),
    ("[analysis]\nsom_lr_end = 0.01\n",
     "unknown key 'som_lr_end' in section [analysis]"),
    ("[analysis]\nsom_radius_end = 1.0\n",
     "unknown key 'som_radius_end' in section [analysis]"),
    ("[analysis]\ngrating_frequency_count = 6\n",
     "unknown key 'grating_frequency_count' in section [analysis]"),
    ("[analysis]\ngrating_phase_count = 4\n",
     "unknown key 'grating_phase_count' in section [analysis]"),
    ("[analysis]\nsom_nodes = 1\n", "need at least 2 nodes"),
    ("[analysis]\nsom_epochs = 0\n", "need at least 1 epoch"),
    ("[analysis]\nsom_lr_start = 0\n", "learning rates must be positive"),
    ("[analysis]\nsom_radius_start = -1\n", "radii must be positive"),
    ("seed\n", "expected key = value"),
    ("[model]\nL = 42\n", "must equal"),
    ("[training]\nepochs_max = -1\n", "epochs_max"),
    ("[data]\npatch_side = 1\n", "patch_side must be at least 2"),
    # n training rows support at most n - 1 components
    ("[data]\nn_patches = 50\n",
     "45 training patches support at most 44 components, fewer than "
     "pca_k=100"),
    ("[data]\nn_patches = 3\ntrain_fraction = 0.2\npca_k = 2\n"
     "[model]\nL = 2\n",
     "1 training patches support at most 0 components, fewer than "
     "pca_k=2"),
    ("[data]\nn_patches = 111\n", "100 training patches support at most 99"),
    ("seed = -3\n", "seed must be nonnegative"),
    # the range checks in validate() cannot see NaN, so parsing rejects
    # every non-finite float
    ("[analysis]\nsom_radius_start = nan\n", "'nan' is not a finite number"),
    ("[training]\nlearning_rate_start = inf\n",
     "'inf' is not a finite number"),
    ("[training]\nlearning_rate_start = -inf\n",
     "'-inf' is not a finite number"),
    # checks across sections, for what analyze needs
    ("[data]\npatch_side = 3\npca_k = 9\n[model]\nL = 9\n",
     "patch_side too small for the default frequencies"),
    ("[sampling]\nn_chains = 5\nn_iterations = 40\n[analysis]\n"
     "som_nodes = 40\n", "records 20 frames, fewer than som_nodes=40"),
    # the grammar's edges, each with its whole message
    ("[model]\nL = 100\n[model]\nM = 8\n",
     "line 3: duplicate section [model]"),
    ("[model] junk\n", "line 1: expected key = value"),
    # a deeper indent continues the key above it
    ("[model]\nL = 100\n  M = 8\n",
     "[model] L: cannot parse '100\\nM = 8' as int"),
    ("# a comment\n\nseed = 1\nseed = 2\n", "line 4: duplicate global seed"),
    ("[model]\n# a comment\nL = 1\nL = 2\n",
     "line 4: duplicate key 'L' in section [model]"),
    ("[model]\nL: 100\n", "line 2: expected key = value"),
    ("[model]\nl = 100\n", "unknown key 'l' in section [model]"),
    ("[ model ]\n", "unknown section [ model ]"),
    ("[DEFAULT]\nseed = 1\n", "unknown section [DEFAULT]"),
    ("[seed]\n", "unknown section [seed]"),
    ("seed = 1 ; two\n", "seed: cannot parse '1 ; two' as int"),
    ("[data]\npatch_side = 6.0\n",
     "[data] patch_side: cannot parse '6.0' as int"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# top\n\nseed = 1\n[model]\n# mid\nL = 100\n")
    assert cfg.seed == 1


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "none.cfg")


def test_load_config_not_utf8(tmp_path):
    path = tmp_path / "utf16.cfg"
    path.write_bytes(b"\xff\xfe" + "seed = 1\n".encode("utf-16-le"))
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(path)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    assert load_config(path) == parse_config(GOOD)


@pytest.mark.parametrize("name, dims", [("desk.cfg", (100, 64, 16)),
                                        ("full.cfg", (256, 900, 100))])
def test_shipped_configs_parse_and_validate(name, dims):
    # load_config validates every section
    assert load_config(CONFIGS / name).model.dims == dims


def test_training_rows_just_enough_for_pca_k():
    # 112 patches at train_fraction 0.9 leave 101 training rows, whose
    # centered covariance can have rank pca_k = 100
    assert DataConfig(n_patches=112).validate() == DataConfig(n_patches=112)


DESK = RunConfig(
    seed=0,
    data=DataConfig(image_dir="corpus", patch_side=12, n_patches=20000,
                    train_fraction=0.9, pca_k=100),
    model=ModelConfig(L=100, M=64, N=16),
    training=TrainConfig(
        learning_rate_start=0.03, learning_rate_end=0.001,
        momentum_start=0.9, momentum_end=0.0, batch_size=100,
        offset_rate=0.001, epochs_max=600,
        mean_field_max_iters=30, mean_field_tol=0.0001,
        gibbs_steps_per_batch=5, val_fraction=0.1, patience=60),
    sampling=SessionConfig(n_chains=100, n_iterations=2000, record_every=10),
    analysis=AnalysisConfig(
        alpha=0.01, threshold_n=64, som_nodes=40, som_epochs=20,
        som_lr_start=0.5, som_radius_start=10.0, orientation_count=8))

FULL = RunConfig(
    seed=0,
    data=DataConfig(image_dir="corpus_full", patch_side=32, n_patches=60000,
                    train_fraction=0.8333333333333334, pca_k=256),
    model=ModelConfig(L=256, M=900, N=100),
    training=TrainConfig(
        learning_rate_start=0.03, learning_rate_end=0.001,
        momentum_start=0.9, momentum_end=0.0, batch_size=100,
        offset_rate=0.001, epochs_max=100,
        mean_field_max_iters=30, mean_field_tol=0.0001,
        gibbs_steps_per_batch=5, val_fraction=0.1, patience=10),
    sampling=SessionConfig(n_chains=100, n_iterations=2000, record_every=10),
    analysis=AnalysisConfig(
        alpha=0.01, threshold_n=200, som_nodes=40, som_epochs=20,
        som_lr_start=0.5, som_radius_start=10.0, orientation_count=8))

TINY = RunConfig(
    seed=11,
    data=DataConfig(image_dir="tiny_corpus", patch_side=6, n_patches=800,
                    train_fraction=0.9, pca_k=20),
    model=ModelConfig(L=20, M=12, N=4),
    training=TrainConfig(
        learning_rate_start=0.03, learning_rate_end=0.001,
        momentum_start=0.9, momentum_end=0.0, batch_size=60,
        offset_rate=0.001, epochs_max=2,
        mean_field_max_iters=30, mean_field_tol=0.0001,
        gibbs_steps_per_batch=5, val_fraction=0.1, patience=5),
    sampling=SessionConfig(n_chains=5, n_iterations=40, record_every=10),
    analysis=AnalysisConfig(
        alpha=0.05, threshold_n=12, som_nodes=8, som_epochs=3,
        som_lr_start=0.5, som_radius_start=2.0, orientation_count=8))


@pytest.mark.parametrize("text, want", [
    ((CONFIGS / "desk.cfg").read_text(encoding="utf-8"), DESK),
    ((CONFIGS / "full.cfg").read_text(encoding="utf-8"), FULL),
    (TINY_CFG.format(corpus="tiny_corpus"), TINY),
], ids=["desk.cfg", "full.cfg", "TINY_CFG"])
def test_run_configs_parse_to_every_field(text, want):
    assert parse_config(text) == want


def _load_benchmark():
    # loaded by path: perfbench is a script directory, not a package
    path = CONFIGS.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_configs_parse():
    # every key the benchmark writes must still be a key
    bench = _load_benchmark()
    assert set(bench.WORKLOADS) == {"desk_pipeline", "full_train"}
    for name, wl in bench.WORKLOADS.items():
        cfg = parse_config(bench.config_text(wl, 0))
        assert cfg.model.dims == wl.dims, name


@pytest.mark.parametrize("text, want", [
    # keys indented alike are keys, not continuations
    ("[model]\n    L = 100\n    M = 8\n", RunConfig(model=ModelConfig(M=8))),
    # a comment after a header, and an indented full-line comment
    ("[model]  # the layer widths\n  # eight units\nM = 8\n",
     RunConfig(model=ModelConfig(M=8))),
    # a hash with no whitespace before it is part of the value
    ("[data]\nimage_dir = a#b\n", RunConfig(data=DataConfig(image_dir="a#b"))),
])
def test_grammar_accepts(text, want):
    assert parse_config(text) == want
