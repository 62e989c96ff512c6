"""Free-running Gibbs sessions and their random controls.

A session runs a population of independent chains from a data-informed
start and records, every few sweeps, the hidden-1 conditional probability
vector of each chain.  Those probability vectors are the "frames" all the
downstream correlation analysis works on; matched Bernoulli noise frames
serve as the control.

A session draws from one generator seeded with the `seed` argument of
`run_spontaneous_session`; the configuration holds no seed.  The random
numbers of each recording interval are drawn as one block, the next one
on a worker thread while the main thread sweeps through the current
one; the draws and their order are those of one sweep at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .model import ModelParams, Offsets, check_dims, cond_hidden1
from .training import (GibbsNoise, PersistentChains, TrainConfig,
                       check_unit_interval, gibbs_model_step, mean_field_data)


@dataclass(frozen=True)
class SessionConfig:
    n_chains: int = 100
    n_iterations: int = 2000
    record_every: int = 10

    def validate(self) -> "SessionConfig":
        if self.n_chains < 1 or self.n_iterations < 1 or self.record_every < 1:
            raise ConfigError("session sizes must be positive")
        if self.n_iterations % self.record_every != 0:
            raise ConfigError(
                f"record_every={self.record_every} must divide "
                f"n_iterations={self.n_iterations}")
        return self


def average_initial_probability(p: ModelParams, c: Offsets, dataset,
                                cfg: TrainConfig) -> np.ndarray:
    """Mean over all data rows of the mean-field hidden-1 probabilities.
    Used to start free-running chains in a data-like regime."""
    L, M, N = check_dims(p, c)
    data = np.atleast_2d(np.asarray(dataset, dtype=np.float64))
    if data.shape[1] != L:
        raise ShapeError(f"dataset width {data.shape[1]} does not match L={L}")
    total = np.zeros(M)
    count = 0
    for start in range(0, data.shape[0], max(cfg.batch_size, 1)):
        batch = data[start:start + cfg.batch_size]
        mf = mean_field_data(batch, p, c, cfg)
        total += mf.y.sum(axis=0)
        count += batch.shape[0]
    return total / count


def run_spontaneous_session(p: ModelParams, c: Offsets, p_init,
                            cfg: SessionConfig, seed: int) -> np.ndarray:
    """Free-running session without any clamped input.

    Chains start from Bernoulli draws of p_init.  After every
    `record_every` sweeps the conditional probability vector
    P(y | x, z) of each chain is recorded (the same distribution the
    sweep's y sample was drawn from).  Frames are stacked recording by
    recording, chains in index order within each recording: an
    (n_iterations / record_every * n_chains, M) array.
    """
    cfg.validate()
    L, M, N = check_dims(p, c)
    p_init = np.asarray(p_init, dtype=np.float64)
    if p_init.shape != (M,):
        raise ShapeError(f"p_init has shape {p_init.shape}, expected ({M},)")
    check_unit_interval(p_init, "p_init entries")
    rng = np.random.default_rng(seed)
    y0 = (rng.random((cfg.n_chains, M)) < p_init).astype(np.float64)
    chains = PersistentChains(
        x=np.broadcast_to(c.c_x, (cfg.n_chains, L)).copy(),
        y=y0,
        z=np.broadcast_to(c.c_z, (cfg.n_chains, N)).copy(),
    )
    noise = GibbsNoise.empty(cfg.record_every, cfg.n_chains, (L, M, N))
    spare = GibbsNoise.empty(cfg.record_every, cfg.n_chains, (L, M, N))
    n_records = cfg.n_iterations // cfg.record_every
    frames = np.empty((n_records * cfg.n_chains, M))
    noise.fill(rng)
    # imported here: it costs the other stages' processes 0.6 MB
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as worker:
        for rec in range(n_records):
            # While the next block is drawn, only the worker touches rng
            # and spare.
            drawn = (worker.submit(spare.fill, rng)
                     if rec + 1 < n_records else None)
            for sweep in range(cfg.record_every):
                gibbs_model_step(chains, p, c, noise, sweep)
            # Same x and z the last sweep's y was drawn from.
            cond_hidden1(chains.x, chains.z, p, c,
                         out=frames[rec * cfg.n_chains:(rec + 1) * cfg.n_chains])
            if drawn is not None:
                drawn.result()
            noise, spare = spare, noise
    return frames


def random_control_frames(p_init, count: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Bernoulli noise frames matched to the session's initial rates."""
    p_init = np.asarray(p_init, dtype=np.float64)
    if p_init.ndim != 1:
        raise ShapeError("p_init must be a vector")
    check_unit_interval(p_init, "p_init entries")
    if count < 1:
        raise ConfigError("count must be positive")
    return (rng.random((count, p_init.shape[0])) < p_init).astype(np.float64)
