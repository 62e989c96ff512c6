"""Session mechanics: frame geometry, determinism, and agreement of the
recorded probabilities with enumerated marginals on small models."""

import numpy as np
import pytest

from cgdbm.errors import ConfigError, ShapeError
from cgdbm.exact import all_binary_states, brute_force_hidden_marginal
from cgdbm.model import ModelParams, Offsets
from cgdbm.sampling import (
    SessionConfig,
    average_initial_probability,
    random_control_frames,
    run_spontaneous_session,
)
from cgdbm.training import TrainConfig, mean_field_data
from oracles import random_model


class TestSessionConfig:
    def test_record_interval_must_divide(self):
        with pytest.raises(ConfigError):
            SessionConfig(n_iterations=95, record_every=10).validate()
        SessionConfig(n_iterations=100, record_every=10).validate()


class TestSpontaneousSession:
    def test_frame_count_and_range(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        cfg = SessionConfig(n_chains=7, n_iterations=60, record_every=10, seed=4)
        frames = run_spontaneous_session(p, c, np.full(3, 0.5), cfg)
        assert frames.shape == (6 * 7, 3)
        assert frames.min() >= 0.0 and frames.max() <= 1.0

    def test_bit_identical_reruns(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        cfg = SessionConfig(n_chains=5, n_iterations=40, record_every=5, seed=21)
        a = run_spontaneous_session(p, c, np.full(3, 0.3), cfg)
        b = run_spontaneous_session(p, c, np.full(3, 0.3), cfg)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_frames(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        base = dict(n_chains=5, n_iterations=40, record_every=5)
        a = run_spontaneous_session(p, c, np.full(3, 0.3),
                                    SessionConfig(seed=1, **base))
        b = run_spontaneous_session(p, c, np.full(3, 0.3),
                                    SessionConfig(seed=2, **base))
        assert np.abs(a - b).max() > 0

    def test_recorded_probabilities_average_to_marginal(self, rng):
        # E[P(y_j=1 | x, z)] under the joint equals the marginal P(y_j=1),
        # which enumeration provides exactly.
        p, c = random_model(rng, 2, 3, 2, scale=0.6)
        table = brute_force_hidden_marginal(p, c)
        ys = all_binary_states(3)
        marginal = (table.sum(axis=1)[:, None] * ys).sum(axis=0)
        cfg = SessionConfig(n_chains=60, n_iterations=600, record_every=3, seed=9)
        got = run_spontaneous_session(p, c, np.full(3, 0.5), cfg).mean(axis=0)
        np.testing.assert_allclose(got, marginal, atol=0.02)

    def test_bad_p_init_rejected(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        cfg = SessionConfig(n_chains=2, n_iterations=10, record_every=5)
        with pytest.raises(ShapeError):
            run_spontaneous_session(p, c, np.full(4, 0.5), cfg)
        with pytest.raises(ValueError):
            run_spontaneous_session(p, c, np.array([0.5, 0.5, 1.5]), cfg)


class TestControls:
    def test_rates_and_binarity(self, rng):
        p_init = np.array([0.1, 0.5, 0.9])
        frames = random_control_frames(p_init, 20000, rng)
        assert frames.shape == (20000, 3)
        assert set(np.unique(frames)) <= {0.0, 1.0}
        se = np.sqrt(p_init * (1 - p_init) / 20000)
        assert np.all(np.abs(frames.mean(axis=0) - p_init) < 5 * se)

    def test_count_validated(self, rng):
        with pytest.raises(ConfigError):
            random_control_frames(np.array([0.5]), 0, rng)


class TestInitialProbability:
    def test_zero_model_is_half(self):
        p = ModelParams(W=np.zeros((2, 3)), U=np.zeros((3, 2)),
                        b_y=np.zeros(3), b_z=np.zeros(2), sigma2=np.ones(2))
        c = Offsets(c_x=np.zeros(2), c_y=np.full(3, 0.5), c_z=np.full(2, 0.5))
        data = np.random.default_rng(0).standard_normal((23, 2))
        out = average_initial_probability(p, c, data, TrainConfig(batch_size=10))
        np.testing.assert_array_equal(out, np.full(3, 0.5))

    def test_equals_full_batch_mean(self, rng):
        p, c = random_model(rng, 3, 4, 2)
        data = rng.standard_normal((37, 3))
        cfg = TrainConfig(batch_size=10)
        got = average_initial_probability(p, c, data, cfg)
        want = mean_field_data(data, p, c, cfg).y.mean(axis=0)
        np.testing.assert_allclose(got, want, atol=1e-12)
