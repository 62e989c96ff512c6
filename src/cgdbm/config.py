"""Run configuration: a flat sectioned key=value text format.

Grammar, line by line:

    # full-line comment (also allowed after a value, preceded by space)
    seed = 7                 global keys appear before any section
    [data]                   section header
    image_dir = corpus       string value
    patch_side = 12          int value
    train_fraction = 0.9     float value

Sections are data, model, training, sampling, and analysis; every key
maps to a field of the matching config dataclass.  Unknown sections or
keys are errors, as is a repeated key.  Values never span lines.  No
section has a seed: the CLI derives each stage's seed from the single
global seed with `stage_seed` and passes it to the stage, so one number
pins the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import AnalysisConfig
from .errors import ConfigError
from .sampling import SessionConfig
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
        if self.model.L != self.data.pca_k:
            raise ConfigError(f"model L={self.model.L} must equal "
                              f"data pca_k={self.data.pca_k}")
        self.model.validate()
        self.data.validate()
        self.training.validate()
        self.sampling.validate()
        self.analysis.validate()
        return self


_SECTION_TYPES = {
    "data": DataConfig,
    "model": ModelConfig,
    "training": TrainConfig,
    "sampling": SessionConfig,
    "analysis": AnalysisConfig,
}


def _strip_comment(line: str) -> str:
    if line.lstrip().startswith("#"):
        return ""
    # inline comments need whitespace before the hash
    for i in range(1, len(line)):
        if line[i] == "#" and line[i - 1] in " \t":
            return line[:i]
    return line


def _convert(raw: str, target_type, where: str):
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as "
                          f"{target_type.__name__}") from None
    return raw


def parse_config(text: str) -> RunConfig:
    section = None
    global_seed = None
    values: dict[str, dict] = {name: {} for name in _SECTION_TYPES}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = _strip_comment(rawline).strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_TYPES:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if section is None:
            if key != "seed":
                raise ConfigError(f"{where}: only 'seed' may appear before "
                                  f"the first section, got {key!r}")
            if global_seed is not None:
                raise ConfigError(f"{where}: duplicate global seed")
            global_seed = _convert(raw, int, where)
            continue
        cls = _SECTION_TYPES[section]
        known = {f.name: f.type for f in fields(cls)}
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r} in "
                              f"section [{section}]")
        if key in values[section]:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        ftype = {"int": int, "float": float, "str": str}[known[key]] \
            if isinstance(known[key], str) else known[key]
        values[section][key] = _convert(raw, ftype, where)
    return RunConfig(
        seed=0 if global_seed is None else global_seed,
        data=DataConfig(**values["data"]),
        model=ModelConfig(**values["model"]),
        training=TrainConfig(**values["training"]),
        sampling=SessionConfig(**values["sampling"]),
        analysis=AnalysisConfig(**values["analysis"]),
    ).validate()


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} does not exist")
    return parse_config(p.read_text())
