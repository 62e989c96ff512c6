"""Run configuration: an INI file, read by the stdlib's configparser.

    # full-line comment, or inline after whitespace
    seed = 7                 the global seed, above the first section
    [data]                   section header
    image_dir = corpus       string value
    patch_side = 12          int value
    train_fraction = 0.9     float value, finite

The file is UTF-8.  Only `=` separates a key from its value, keys keep
their case, and there is no interpolation and no DEFAULT section.  The
sections are RunConfig's fields (data, model, training, sampling,
analysis); their keys, with types, are the fields of each section's
dataclass.  An unknown or repeated section or key is an error, as is
text after a header.  A line indented deeper than the key above it
continues that key's value.  No section has a seed: the CLI derives each
stage's seed from the global seed with `stage_seed`, so one number pins
the whole pipeline.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .analysis import AnalysisConfig
from .errors import ConfigError
from .sampling import SessionConfig
from .stimuli import default_frequencies, n_train_rows
from .training import TrainConfig

# fixed stage tags keep per-stage randomness independent of one another
STAGE_IDS = {"prepare": 1, "train": 2, "sample": 3, "analyze": 4}


def stage_seed(seed: int, stage: str, stream: int | None = None) -> int:
    """Derive one stage's RNG seed from the global seed; a stage that
    needs a further independent stream names it by a sub-index."""
    if stage not in STAGE_IDS:
        raise ConfigError(f"unknown stage {stage!r}")
    key = [int(seed), STAGE_IDS[stage]]
    if stream is not None:
        key.append(stream)
    return int(np.random.SeedSequence(key).generate_state(1)[0])


@dataclass(frozen=True)
class DataConfig:
    image_dir: str = "corpus"
    patch_side: int = 12
    n_patches: int = 20000
    train_fraction: float = 0.9
    pca_k: int = 100

    def validate(self) -> "DataConfig":
        if self.patch_side < 2:
            raise ConfigError("patch_side must be at least 2")
        if self.n_patches < 2:
            raise ConfigError("n_patches must be at least 2")
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError("train_fraction must lie in (0, 1)")
        if self.pca_k < 1 or self.pca_k > self.patch_side**2:
            raise ConfigError("pca_k must lie in [1, patch_side^2]")
        # the centered covariance of n rows has rank at most n - 1
        n_train = n_train_rows(self.n_patches, self.train_fraction)
        if n_train - 1 < self.pca_k:
            raise ConfigError(f"{n_train} training patches support at most "
                              f"{n_train - 1} components, fewer than "
                              f"pca_k={self.pca_k}")
        return self


@dataclass(frozen=True)
class ModelConfig:
    L: int = 100
    M: int = 64
    N: int = 16

    def validate(self) -> "ModelConfig":
        if min(self.L, self.M, self.N) < 1:
            raise ConfigError("model dimensions must be positive")
        return self

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.L, self.M, self.N)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    data: DataConfig = DataConfig()
    model: ModelConfig = ModelConfig()
    training: TrainConfig = TrainConfig()
    sampling: SessionConfig = SessionConfig()
    analysis: AnalysisConfig = AnalysisConfig()

    def validate(self) -> "RunConfig":
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.model.L != self.data.pca_k:
            raise ConfigError(f"model L={self.model.L} must equal "
                              f"data pca_k={self.data.pca_k}")
        self.model.validate()
        self.data.validate()
        self.training.validate()
        self.sampling.validate()
        self.analysis.validate()
        # what analyze needs of the earlier stages' output, checked
        # before any stage runs
        default_frequencies(self.data.patch_side)
        session = self.sampling
        n_frames = (session.n_iterations // session.record_every
                    * session.n_chains)
        if n_frames < self.analysis.som_nodes:
            raise ConfigError(f"the session records {n_frames} frames, fewer "
                              f"than som_nodes={self.analysis.som_nodes}")
        return self


# lone surrogates, so no UTF-8 file can name them: the keys above the
# first header go to _GLOBAL, and _NO_DEFAULT replaces the DEFAULT
# section, whose keys every section would inherit, and stays empty
_GLOBAL, _NO_DEFAULT = "\udc80", "\udc81"
# anchored, so that text after a header's bracket is an error
_SECTION_HEADER = re.compile(r"\[(?P<header>.+)\]$")


def _convert(raw: str, target_type, where: str):
    try:
        value = target_type(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as "
                          f"{target_type.__name__}") from None
    # validate()'s range checks would let NaN through
    if target_type is float and not math.isfinite(value):
        raise ConfigError(f"{where}: {raw!r} is not a finite number")
    return value


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",),
        inline_comment_prefixes=("#",), interpolation=None,
        default_section=_NO_DEFAULT)
    parser.optionxform = str  # keys keep their case: L, M, N
    parser.SECTCRE = _SECTION_HEADER
    # configparser counts the sentinel header as line 1
    try:
        parser.read_string(f"[{_GLOBAL}]\n{text}")
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"line {exc.lineno - 1}: duplicate section "
                          f"[{exc.section}]") from None
    except configparser.DuplicateOptionError as exc:
        what = (f"global {exc.option}" if exc.section == _GLOBAL
                else f"key {exc.option!r} in section [{exc.section}]")
        raise ConfigError(f"line {exc.lineno - 1}: duplicate {what}") from None
    except configparser.ParsingError as exc:
        raise ConfigError(f"line {exc.errors[0][0] - 1}: expected "
                          f"key = value") from None
    values = {}
    for key, raw in parser[_GLOBAL].items():
        if key != "seed":
            raise ConfigError(f"only 'seed' may appear before the first "
                              f"section, got {key!r}")
        values["seed"] = _convert(raw, int, "seed")
    sections = get_type_hints(RunConfig)
    for name in parser.sections():
        if name == _GLOBAL:
            continue
        cls = sections.get(name)
        if not is_dataclass(cls):
            raise ConfigError(f"unknown section [{name}]")
        types = get_type_hints(cls)
        kwargs = {}
        for key, raw in parser[name].items():
            if key not in types:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            kwargs[key] = _convert(raw, types[key], f"[{name}] {key}")
        values[name] = cls(**kwargs)
    return RunConfig(**values).validate()


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} does not exist")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not UTF-8: {exc}") from None
    return parse_config(text)
