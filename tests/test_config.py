"""Config grammar, validation, and stage-seed derivation."""

from pathlib import Path

import numpy as np
import pytest

from cgdbm.config import load_config, parse_config, stage_seed
from cgdbm.errors import ConfigError

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
    ("[analysis]\nsom_nodes = 1\n", "need at least 2 nodes"),
    ("[analysis]\nsom_epochs = 0\n", "need at least 1 epoch"),
    ("[analysis]\nsom_lr_end = 0\n", "learning rates must be positive"),
    ("[analysis]\nsom_radius_start = -1\n", "radii must be positive"),
    ("seed\n", "expected key = value"),
    ("[model]\nL = 42\n", "must equal"),
    ("[training]\nepochs_max = -1\n", "epochs_max"),
    ("[data]\npatch_side = 1\n", "patch_side must be at least 2"),
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


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    assert load_config(path) == parse_config(GOOD)


@pytest.mark.parametrize("name, dims", [("desk.cfg", (100, 64, 16)),
                                        ("full.cfg", (256, 900, 100))])
def test_shipped_configs_parse_and_validate(name, dims):
    # load_config validates every section
    assert load_config(CONFIGS / name).model.dims == dims
