"""Session mechanics: frame geometry, determinism, and agreement of the
recorded probabilities with enumerated marginals on small models."""

import threading

import numpy as np
import pytest

import cgdbm.sampling
from cgdbm.errors import ConfigError, DomainError, ShapeError
from cgdbm.exact import all_binary_states, brute_force_hidden_marginal
from cgdbm.model import ModelParams, Offsets
from cgdbm.sampling import (
    SessionConfig,
    average_initial_probability,
    random_control_frames,
    run_spontaneous_session,
)
from cgdbm.training import TrainConfig, mean_field_data
from oracles import random_model, session_reference


class TestSessionConfig:
    def test_record_interval_must_divide(self):
        with pytest.raises(ConfigError):
            SessionConfig(n_iterations=95, record_every=10).validate()
        SessionConfig(n_iterations=100, record_every=10).validate()


class TestSpontaneousSession:
    def test_frame_count_and_range(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        cfg = SessionConfig(n_chains=7, n_iterations=60, record_every=10)
        frames = run_spontaneous_session(p, c, np.full(3, 0.5), cfg, seed=4)
        assert frames.shape == (6 * 7, 3)
        assert frames.min() >= 0.0 and frames.max() <= 1.0

    def test_bit_identical_reruns(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        cfg = SessionConfig(n_chains=5, n_iterations=40, record_every=5)
        a = run_spontaneous_session(p, c, np.full(3, 0.3), cfg, seed=21)
        b = run_spontaneous_session(p, c, np.full(3, 0.3), cfg, seed=21)
        np.testing.assert_array_equal(a, b)

    def test_frames_equal_reference_sweep(self, rng):
        # the in-place sweep on noise drawn ahead computes exactly what
        # the allocating one drawing as it goes does: with several
        # recordings, a recording after every sweep, and one recording
        p, c = random_model(rng, 4, 5, 3)
        p_init = rng.uniform(0.1, 0.9, 5)
        for record_every in (5, 1, 30):
            cfg = SessionConfig(n_chains=6, n_iterations=30,
                                record_every=record_every)
            np.testing.assert_array_equal(
                run_spontaneous_session(p, c, p_init, cfg, seed=8),
                session_reference(p, c, p_init, cfg.n_chains,
                                  cfg.n_iterations, cfg.record_every, 8))

    def test_worker_thread_ends_with_the_session(self, rng, monkeypatch):
        # one worker runs beside the sweeps, and none is left behind
        p, c = random_model(rng, 2, 3, 2)
        counts = []
        original = cgdbm.sampling.gibbs_model_step

        def watched(*args):
            counts.append(threading.active_count())
            return original(*args)

        monkeypatch.setattr(cgdbm.sampling, "gibbs_model_step", watched)
        before = threading.active_count()
        run_spontaneous_session(p, c, np.full(3, 0.5),
                                SessionConfig(n_chains=4, n_iterations=20,
                                              record_every=5), seed=3)
        assert counts and set(counts) == {before + 1}
        assert threading.active_count() == before

    def test_seed_changes_frames(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        cfg = SessionConfig(n_chains=5, n_iterations=40, record_every=5)
        a = run_spontaneous_session(p, c, np.full(3, 0.3), cfg, seed=1)
        b = run_spontaneous_session(p, c, np.full(3, 0.3), cfg, seed=2)
        assert np.abs(a - b).max() > 0

    def test_recorded_probabilities_average_to_marginal(self, rng):
        # E[P(y_j=1 | x, z)] under the joint equals the marginal P(y_j=1),
        # which enumeration provides exactly.
        p, c = random_model(rng, 2, 3, 2, scale=0.6)
        table = brute_force_hidden_marginal(p, c)
        ys = all_binary_states(3)
        marginal = (table.sum(axis=1)[:, None] * ys).sum(axis=0)
        cfg = SessionConfig(n_chains=60, n_iterations=600, record_every=3)
        got = run_spontaneous_session(p, c, np.full(3, 0.5), cfg,
                                      seed=9).mean(axis=0)
        np.testing.assert_allclose(got, marginal, atol=0.02)

    def test_bad_p_init_rejected(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        cfg = SessionConfig(n_chains=2, n_iterations=10, record_every=5)
        with pytest.raises(ShapeError):
            run_spontaneous_session(p, c, np.full(4, 0.5), cfg, seed=0)
        with pytest.raises(ValueError):
            run_spontaneous_session(p, c, np.array([0.5, 0.5, 1.5]), cfg,
                                    seed=0)

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
    def test_p_init_outside_unit_interval_is_domain_error(self, rng, bad):
        p, c = random_model(rng, 2, 3, 2)
        cfg = SessionConfig(n_chains=2, n_iterations=10, record_every=5)
        with pytest.raises(DomainError, match=r"p_init entries must lie in"):
            run_spontaneous_session(p, c, np.array([0.5, bad, 0.5]), cfg,
                                    seed=0)


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

    @pytest.mark.parametrize("bad", [1.7, -0.5, np.nan])
    def test_p_init_outside_unit_interval_is_domain_error(self, rng, bad):
        with pytest.raises(DomainError, match=r"p_init entries must lie in"):
            random_control_frames(np.array([0.2, bad]), 10, rng)


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
