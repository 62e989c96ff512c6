"""Training-loop components against exact oracles and hand-built cases."""

import copy
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest

import cgdbm.training
from cgdbm.errors import ConfigError, DomainError, NumericError, ShapeError
from cgdbm.exact import brute_force_hidden_marginal, log_likelihood
from cgdbm.model import ModelParams, Offsets, cond_hidden1, cond_visible, sigmoid
from cgdbm.training import (
    SIGMA_STEP_CLIP,
    GibbsNoise,
    GradientStats,
    PersistentChains,
    TrainConfig,
    anneal,
    apply_updates,
    batch_gradient_stats,
    gibbs_model_step,
    initialize,
    mean_field_data,
    reconstruction_error,
    train,
    update_offsets,
)
from oracles import fd_gradients, random_model, total_variation, train_reference


def sample_exact(p, c, n, rng):
    """Draw exact joint samples by enumerating (y, z) then drawing x."""
    table = brute_force_hidden_marginal(p, c)
    flat = table.ravel()
    M = p.W.shape[1]
    idx = rng.choice(flat.size, size=n, p=flat)
    iy, iz = np.unravel_index(idx, table.shape)
    ys = ((iy[:, None] >> np.arange(M)) & 1).astype(float)
    means, var = cond_visible(ys, p, c)
    xs = means + rng.standard_normal(means.shape) * np.sqrt(var)
    return xs


class TestInitialize:
    def test_ranges_and_offsets(self, rng):
        data_mean = rng.standard_normal(6)
        p, c = initialize((6, 5, 3), data_mean, rng)
        r_w = np.sqrt(6.0 / (6 + 5))
        r_u = np.sqrt(6.0 / (5 + 3))
        assert np.all(np.abs(p.W) <= r_w) and np.all(np.abs(p.U) <= r_u)
        assert np.all(np.abs(p.sigma2 - 0.5) < 0.5)
        assert np.all(np.abs(p.b_y + 4.0) < 1.0)
        np.testing.assert_array_equal(c.c_x, data_mean)
        np.testing.assert_allclose(c.c_y, 1.0 / (1.0 + np.exp(-p.b_y)), atol=1e-12)
        np.testing.assert_allclose(c.c_z, 1.0 / (1.0 + np.exp(-p.b_z)), atol=1e-12)

    def test_bias_minus_four_gives_known_offset(self, rng):
        # sigmoid(-4) with the bias pinned exactly.
        p, c = initialize((2, 3, 2), np.zeros(2), rng)
        from dataclasses import replace
        p2 = replace(p, b_y=np.full(3, -4.0))
        c2 = Offsets(c_x=c.c_x, c_y=1.0 / (1.0 + np.exp(-p2.b_y)), c_z=c.c_z)
        np.testing.assert_allclose(c2.c_y, 0.01798620996209156, atol=1e-12)


class TestAnneal:
    def test_endpoints_and_midpoint(self):
        cfg = TrainConfig(epochs_max=3)
        assert anneal(cfg, 0) == (0.03, 0.9)
        lr, mom = anneal(cfg, 1)
        assert lr == pytest.approx(0.0155, abs=1e-15)
        assert mom == pytest.approx(0.45, abs=1e-15)
        assert anneal(cfg, 2) == (0.001, 0.0)

    def test_single_epoch_uses_start(self):
        cfg = TrainConfig(epochs_max=1)
        assert anneal(cfg, 0) == (0.03, 0.9)


class TestMeanField:
    def test_zero_model_fixed_point(self):
        p = ModelParams(W=np.zeros((2, 3)), U=np.zeros((3, 2)),
                        b_y=np.zeros(3), b_z=np.zeros(2), sigma2=np.ones(2))
        c = Offsets(c_x=np.zeros(2), c_y=np.full(3, 0.5), c_z=np.full(2, 0.5))
        mf = mean_field_data(np.zeros((4, 2)), p, c, TrainConfig())
        np.testing.assert_array_equal(mf.y, np.full((4, 3), 0.5))
        np.testing.assert_array_equal(mf.z, np.full((4, 2), 0.5))
        # the first sweep has no previous iterate, the second moves nothing
        assert mf.converged and mf.iterations_used == 2

    def test_rerun_from_fixed_point_is_stable(self, rng):
        p, c = random_model(rng, L=3, M=4, N=2, scale=0.4)
        x = rng.standard_normal((6, 3))
        cfg = TrainConfig(mean_field_max_iters=200, mean_field_tol=1e-12)
        mf = mean_field_data(x, p, c, cfg)
        assert mf.converged
        # One more explicit sweep moves nothing beyond the tolerance.
        from scipy.special import expit
        y2 = expit(((x - c.c_x) / p.sigma2) @ p.W + (mf.z - c.c_z) @ p.U.T + p.b_y)
        z2 = expit(((y2 - c.c_y) @ p.U) + p.b_z)
        assert np.abs(y2 - mf.y).max() <= 1e-10
        assert np.abs(z2 - mf.z).max() <= 1e-10

    def test_decoupled_top_layer_is_exact(self, rng):
        # With U = 0 mean field is exact: y is the clamped conditional.
        p, c = random_model(rng, L=3, M=4, N=2)
        p = ModelParams(W=p.W, U=np.zeros((4, 2)), b_y=p.b_y, b_z=p.b_z,
                        sigma2=p.sigma2)
        x = rng.standard_normal((5, 3))
        mf = mean_field_data(x, p, c, TrainConfig())
        z_rest = np.broadcast_to(c.c_z, (5, 2))
        np.testing.assert_allclose(mf.y, cond_hidden1(x, z_rest, p, c), atol=1e-8)

    def test_residual_mostly_nonincreasing(self, rng):
        bad = 0
        trials = 40
        for _ in range(trials):
            p, c = random_model(rng, L=3, M=4, N=2, scale=0.8)
            x = rng.standard_normal((3, 3))
            cfg = TrainConfig(mean_field_max_iters=25, mean_field_tol=1e-12)
            # Track residuals by hand with the same update rule, undamped.
            from scipy.special import expit
            bottom = ((x - c.c_x) / p.sigma2) @ p.W + p.b_y
            z = np.broadcast_to(c.c_z, (3, 2)).copy()
            y = None
            residuals = []
            for _ in range(cfg.mean_field_max_iters):
                y_new = expit(bottom + (z - c.c_z) @ p.U.T)
                z_new = expit((y_new - c.c_y) @ p.U + p.b_z)
                if y is not None:
                    residuals.append(max(np.abs(y_new - y).max(),
                                         np.abs(z_new - z).max()))
                y, z = y_new, z_new
            if any(b > a * (1 + 1e-12) for a, b in zip(residuals, residuals[1:])):
                bad += 1
        assert bad <= trials * 0.05


class TestGibbsStep:
    def test_single_step_conditional_frequencies(self, rng):
        # Hold y fixed; the z and x draws must follow their conditionals.
        p, c = random_model(rng, L=2, M=3, N=2)
        y = (rng.random(3) < 0.5).astype(float)
        n = 40000
        chains = PersistentChains(
            x=np.zeros((n, 2)), y=np.tile(y, (n, 1)), z=np.zeros((n, 2)))
        out = gibbs_model_step(chains, p, c,
                               GibbsNoise.empty(1, n, (2, 3, 2)).fill(rng))
        from cgdbm.model import cond_hidden2
        pz = cond_hidden2(y, p, c)
        for k in range(2):
            se = np.sqrt(pz[k] * (1 - pz[k]) / n)
            assert abs(out.z[:, k].mean() - pz[k]) < 5 * se + 1e-9
        means, var = cond_visible(y, p, c)
        for i in range(2):
            se = np.sqrt(var[i] / n)
            assert abs(out.x[:, i].mean() - means[i]) < 5 * se
            assert abs(out.x[:, i].var() - var[i]) < 6 * var[i] / np.sqrt(n)

    def test_stationary_frequencies_match_enumeration(self, rng):
        p, c = random_model(rng, L=2, M=2, N=2, scale=0.6)
        table = brute_force_hidden_marginal(p, c)
        n_chains, sweeps, burn = 200, 700, 100
        chains = PersistentChains(
            x=np.tile(c.c_x, (n_chains, 1)),
            y=(rng.random((n_chains, 2)) < 0.5).astype(float),
            z=(rng.random((n_chains, 2)) < 0.5).astype(float))
        counts = np.zeros_like(table)
        pow_y = 2 ** np.arange(2)
        pow_z = 2 ** np.arange(2)
        noise = GibbsNoise.empty(1, n_chains, (2, 2, 2))
        for s in range(sweeps):
            chains = gibbs_model_step(chains, p, c, noise.fill(rng))
            if s >= burn:
                iy = (chains.y @ pow_y).astype(int)
                iz = (chains.z @ pow_z).astype(int)
                np.add.at(counts, (iy, iz), 1.0)
        freq = counts / counts.sum()
        assert total_variation(freq, table) <= 0.02


class TestNoiseBlocks:
    DIMS = (4, 3, 2)

    @staticmethod
    def sweep_draws(rng, n, dims):
        """One sweep's draws, made the way the sweep used to make them."""
        L, M, N = dims
        return (rng.random((n, N)), rng.standard_normal((n, L)),
                rng.random((n, M)))

    def test_blocks_equal_per_sweep_draws(self):
        rng = np.random.default_rng(12)
        ref = np.random.default_rng(12)
        noise = GibbsNoise.empty(3, 5, self.DIMS)
        for _ in range(4):
            noise.fill(rng)
            for sweep in range(3):
                want = self.sweep_draws(ref, 5, self.DIMS)
                for a, b in zip((noise.z[sweep], noise.x[sweep],
                                 noise.y[sweep]), want):
                    np.testing.assert_array_equal(a, b)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestApplyUpdates:
    # apply_updates works in place on the params and velocities and
    # consumes the gradient it is given.
    def test_velocity_decays_geometrically(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        dims = (2, 3, 2)
        velocity = GradientStats.zeros(dims)
        velocity.dW[...] += 0.04
        velocity.dsigma[...] += 0.02
        apply_updates(p, velocity, GradientStats.zeros(dims), lr=0.1,
                      momentum=0.5)
        np.testing.assert_array_equal(velocity.dW, np.full((2, 3), 0.02))
        np.testing.assert_array_equal(velocity.dsigma, np.full(2, 0.01))
        apply_updates(p, velocity, GradientStats.zeros(dims), lr=0.1,
                      momentum=0.5)
        np.testing.assert_array_equal(velocity.dW, np.full((2, 3), 0.01))

    def test_plain_step_without_momentum(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        dims = (2, 3, 2)
        b_y = p.b_y.copy()
        grad = GradientStats.zeros(dims)
        v = np.array([0.3, -0.2, 0.5])
        grad.db_y[:] = v
        apply_updates(p, GradientStats.zeros(dims), grad, lr=1.0,
                      momentum=0.0)
        np.testing.assert_allclose(p.b_y, b_y + v, atol=1e-15)

    def test_sigma_step_clipped_and_floored(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        dims = (2, 3, 2)
        sigma2 = p.sigma2.copy()

        def grad():
            g = GradientStats.zeros(dims)
            g.dsigma[:] = [500.0, -500.0]
            return g

        apply_updates(p, GradientStats.zeros(dims), grad(), lr=1.0,
                      momentum=0.0)
        step = np.sqrt(p.sigma2) - np.sqrt(sigma2)
        assert step[0] == pytest.approx(SIGMA_STEP_CLIP, abs=1e-12)
        assert np.sqrt(p.sigma2[1]) >= np.sqrt(sigma2[1]) - SIGMA_STEP_CLIP - 1e-12
        # Drive sigma into the floor.
        pf = ModelParams(W=p.W, U=p.U, b_y=p.b_y, b_z=p.b_z,
                         sigma2=np.full(2, 1.2e-4))
        apply_updates(pf, GradientStats.zeros(dims), grad(), lr=1.0,
                      momentum=0.0)
        assert pf.sigma2[1] == pytest.approx(1e-4, abs=1e-18)

    def test_non_finite_update_raises(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        grad = GradientStats.zeros((2, 3, 2))
        grad.dU[0, 0] = np.inf
        with pytest.raises(NumericError, match="U"):
            apply_updates(p, GradientStats.zeros((2, 3, 2)), grad, lr=1.0,
                          momentum=0.0)


class TestUpdateOffsets:
    def test_moves_toward_batch_means(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        my = rng.uniform(0, 1, 3)
        mz = rng.uniform(0, 1, 2)
        mx = rng.standard_normal(2)
        nu = 0.25
        c2, db_y, db_z = update_offsets(c, my, mz, mx, p, nu)
        np.testing.assert_allclose(c2.c_y, (1 - nu) * c.c_y + nu * my, atol=1e-15)
        np.testing.assert_allclose(c2.c_z, (1 - nu) * c.c_z + nu * mz, atol=1e-15)
        np.testing.assert_allclose(c2.c_x, (1 - nu) * c.c_x + nu * mx, atol=1e-15)
        np.testing.assert_allclose(db_z, p.U.T @ (nu * (my - c.c_y)), atol=1e-15)

    def test_hidden_marginal_invariant(self, rng):
        # The composite move (offsets + bias corrections) must leave the
        # enumerated hidden marginal untouched, in arbitrary directions.
        for _ in range(10):
            p, c = random_model(rng, 2, 3, 2)
            before = brute_force_hidden_marginal(p, c)
            my = rng.uniform(0, 1, 3)
            mz = rng.uniform(0, 1, 2)
            mx = rng.standard_normal(2) * 3.0
            c2, db_y, db_z = update_offsets(c, my, mz, mx, p, nu=0.37)
            from dataclasses import replace
            p2 = replace(p, b_y=p.b_y + db_y, b_z=p.b_z + db_z)
            after = brute_force_hidden_marginal(p2, c2)
            assert np.abs(after - before).max() <= 1e-10

    @pytest.mark.parametrize("layer", ["y", "z"])
    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan])
    def test_hidden_means_outside_unit_interval_rejected(self, rng, layer,
                                                         bad):
        p, c = random_model(rng, 2, 3, 2)
        my, mz = np.full(3, 0.5), np.full(2, 0.5)
        (my if layer == "y" else mz)[1] = bad
        with pytest.raises(DomainError, match="hidden batch means"):
            update_offsets(c, my, mz, np.zeros(2), p, nu=0.1)


class TestBatchGradientStats:
    def test_matches_finite_differences_of_mean_energy(self, rng):
        # the batch statistics are the gradient of the mean row -E
        p, c = random_model(rng, 3, 4, 2)
        B = 7
        xs = rng.standard_normal((B, 3)) * 2.0
        ys = (rng.random((B, 4)) < 0.5).astype(float)
        zs = (rng.random((B, 2)) < 0.5).astype(float)
        stats = batch_gradient_stats(xs, ys, zs, p, c)
        fd = fd_gradients(xs, ys, zs, p, c, h=1e-5)
        for got, want in zip((stats.dW, stats.dU, stats.db_y, stats.db_z,
                              stats.dsigma), fd):
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


class TestReconstructionError:
    def test_zero_coupling_reconstructs_offset(self, rng):
        p = ModelParams(W=np.zeros((2, 3)), U=np.zeros((3, 2)),
                        b_y=np.zeros(3), b_z=np.zeros(2), sigma2=np.ones(2))
        c = Offsets(c_x=np.array([1.0, -2.0]), c_y=np.full(3, 0.5),
                    c_z=np.full(2, 0.5))
        x = rng.standard_normal((10, 2)) + c.c_x
        want = float(np.mean(np.sum((x - c.c_x) ** 2, axis=1)))
        assert reconstruction_error(p, c, x) == pytest.approx(want, rel=1e-12)


class TestTrain:
    def test_yields_one_state_before_and_after_each_epoch(self, rng):
        data = rng.standard_normal((80, 3))
        cfg = TrainConfig(epochs_max=4, batch_size=20)
        seen = []
        for state in train(data, (3, 4, 2), cfg, seed=7):
            if not seen:
                assert state.log == []
                rng2 = np.random.default_rng(7)
                rng2.permutation(80)
                p0, c0 = initialize((3, 4, 2), data.mean(axis=0), rng2)
                assert_same_state((state.params, state.offsets), (p0, c0))
            assert len(state.log) == len(seen)
            seen.append(state)
        assert len(seen) == cfg.epochs_max + 1
        assert all(state is seen[0] for state in seen)

    def test_zero_epochs_returns_initialized_model(self, rng):
        data = rng.standard_normal((50, 3))
        cfg = TrainConfig(epochs_max=0, batch_size=10)
        (res,) = train(data, (3, 4, 2), cfg, seed=0)
        assert res.log == []
        rng2 = np.random.default_rng(0)
        rng2.permutation(50)
        p0, c0 = initialize((3, 4, 2), data.mean(axis=0), rng2)
        np.testing.assert_array_equal(res.params.W, p0.W)
        np.testing.assert_array_equal(res.offsets.c_x, c0.c_x)

    def test_runs_and_logs(self, rng):
        data = rng.standard_normal((80, 3))
        cfg = TrainConfig(epochs_max=4, batch_size=20)
        *_, res = train(data, (3, 4, 2), cfg, seed=7)
        assert len(res.log) == 4
        assert all(np.isfinite(r.reconstruction_error) for r in res.log)
        assert res.log[0].learning_rate == 0.03
        assert np.all(np.isfinite(res.params.W))

    def test_deterministic_given_seed(self, rng):
        data = rng.standard_normal((60, 3))
        cfg = TrainConfig(epochs_max=3, batch_size=20)
        *_, a = train(data, (3, 4, 2), cfg, seed=11)
        *_, b = train(data, (3, 4, 2), cfg, seed=11)
        np.testing.assert_array_equal(a.params.W, b.params.W)
        np.testing.assert_array_equal(a.params.sigma2, b.params.sigma2)
        assert [r.reconstruction_error for r in a.log] == [r.reconstruction_error for r in b.log]

    def test_divergence_carries_last_good_state(self, rng):
        # the state of the yield before the raise is still finite
        data = rng.standard_normal((60, 3)) * 50.0
        cfg = TrainConfig(epochs_max=50, batch_size=20,
                          learning_rate_start=2e5, learning_rate_end=2e5,
                          momentum_start=0.0, momentum_end=0.0)
        seen, error = run_states(train(data, (3, 4, 2), cfg, seed=3))
        assert type(error) is NumericError
        assert str(error).startswith(f"training diverged in epoch {len(seen) - 1}: ")
        assert np.all(np.isfinite(seen[-1].params.W))
        assert isinstance(seen[-1].offsets, Offsets)

    def test_early_stopping_on_patience(self, rng):
        # Constant data reconstructs immediately; error cannot improve.
        data = np.tile(np.array([0.5, -0.25]), (40, 1))
        data = data + rng.standard_normal((40, 2)) * 1e-9
        cfg = TrainConfig(epochs_max=200, batch_size=10, patience=3,
                          learning_rate_start=1e-6, learning_rate_end=1e-6)
        *_, res = train(data, (2, 3, 2), cfg, seed=5)
        assert res.stall >= cfg.patience
        assert len(res.log) < 200

    def test_log_likelihood_improves_on_enumerable_model(self):
        # Data drawn exactly from a known small model; short training must
        # raise held-out log likelihood for most seeds.
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            p_true, c_true = random_model(rng, L=2, M=3, N=2, scale=0.9)
            data = sample_exact(p_true, c_true, 500, rng)
            val = sample_exact(p_true, c_true, 200, rng)
            cfg = TrainConfig(epochs_max=25, batch_size=50,
                              val_fraction=0.0, patience=100)
            # Mirror train's rng sequence (split permutation, then init) to
            # recover the exact starting model.
            rng_t = np.random.default_rng(seed)
            rng_t.permutation(500)
            p0, c0 = initialize((2, 3, 2), data.mean(axis=0), rng_t)
            *_, res = train(data, (2, 3, 2), cfg, seed)
            ll_before = log_likelihood(val, p0, c0)
            ll_after = log_likelihood(val, res.params, res.offsets)
            if ll_after > ll_before:
                wins += 1
        assert wins >= 8


def state_arrays(p, c):
    return (p.W, p.U, p.b_y, p.b_z, p.sigma2, c.c_x, c.c_y, c.c_z)


def assert_same_state(got, want):
    for a, b in zip(state_arrays(*got), state_arrays(*want)):
        np.testing.assert_array_equal(a, b)


def assert_same_log(got, want):
    assert len(got) == len(want)
    np.testing.assert_array_equal([astuple(r) for r in got],
                                  [astuple(r) for r in want])


def run_states(steps):
    """Copies of every state a training generator yields, and the
    NumericError that ended it (None if it ran to its end)."""
    seen = []
    try:
        for state in steps:
            seen.append(copy.deepcopy(state))
    except NumericError as exc:
        return seen, exc
    return seen, None


def assert_same_train_state(got, want):
    """Every field of two TrainStates, bit for bit."""
    assert_same_state((got.params, got.offsets), (want.params, want.offsets))
    for a, b in zip(astuple(got.velocity), astuple(want.velocity)):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(astuple(got.chains), astuple(want.chains)):
        np.testing.assert_array_equal(a, b)
    assert got.rng.bit_generator.state == want.rng.bit_generator.state
    assert_same_log(got.log, want.log)
    assert (got.best_val, got.stall) == (want.best_val, want.stall)


def assert_same_run(got, want):
    """Two run_states results: the same states, then the same error."""
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[0], want[0]):
        assert_same_train_state(a, b)
    assert str(got[1]) == str(want[1])


def mean_field_damps(x, p, c, cfg):
    """Whether mean_field_data's damping starts on this batch: the
    undamped iterates' residual grows before it reaches the tolerance."""
    bottom_up = ((x - c.c_x) / p.sigma2) @ p.W + p.b_y
    z = np.broadcast_to(c.c_z, (x.shape[0], c.c_z.shape[0]))
    y = None
    prev = np.inf
    for _ in range(cfg.mean_field_max_iters):
        y_new = sigmoid(bottom_up + (z - c.c_z) @ p.U.T)
        z_new = sigmoid((y_new - c.c_y) @ p.U + p.b_z)
        if y is not None:
            residual = max(np.abs(y_new - y).max(), np.abs(z_new - z).max())
            if residual <= cfg.mean_field_tol:
                return False
            if residual > prev:
                return True
            prev = residual
        y, z = y_new, z_new
    return False


@pytest.fixture(params=["thread", "inline"])
def data_phase_on(request, monkeypatch):
    """Run train()'s data phase on the worker thread or in line, whatever
    the model size."""
    monkeypatch.setattr(cgdbm.training, "OVERLAP_MIN_MULTIPLY_ADDS",
                        0 if request.param == "thread" else np.inf)
    return request.param


# With seed 3, diverges in epoch 8, after eight finished epochs.
DIVERGING = TrainConfig(epochs_max=50, batch_size=20,
                        learning_rate_start=2e5, learning_rate_end=2e5,
                        momentum_start=0.0, momentum_end=0.0)


@pytest.mark.usefixtures("data_phase_on")
class TestTrainMatchesReference:
    """train() (in-place buffers, data phase on the worker thread or in
    line) against the allocating single-threaded loop, bit for bit."""

    @pytest.fixture(autouse=True)
    def sweep_threads(self, monkeypatch, data_phase_on):
        """Record the number of live threads at each sweep of train()."""
        self.mode = data_phase_on
        self.counts = []
        original = cgdbm.training.gibbs_model_step

        def watched(*args):
            self.counts.append(threading.active_count())
            return original(*args)

        monkeypatch.setattr(cgdbm.training, "gibbs_model_step", watched)

    def check(self, data, dims, cfg, seed, worker=True):
        want = run_states(train_reference(data, dims, cfg, seed))
        threads = threading.active_count()
        got = run_states(train(data, dims, cfg, seed))
        # a worker runs beside the sweeps unless it has nothing to do,
        # and it ends with its epoch, early stop or not
        assert set(self.counts) == {threads + worker}
        assert threading.active_count() == threads
        assert_same_run(got, want)
        return got[0][-1]

    def test_uneven_last_batch(self, rng, monkeypatch, data_phase_on):
        data = rng.standard_normal((97, 3))
        cfg = TrainConfig(epochs_max=4, batch_size=20)
        threads = []
        original = cgdbm.training.mean_field_data

        def watched(*args):
            threads.append(threading.current_thread())
            return original(*args)

        monkeypatch.setattr(cgdbm.training, "mean_field_data", watched)
        # 10 validation rows leave 87: four batches of 20 and one of 7
        res = self.check(data, (3, 5, 2), cfg, seed=7)
        assert len(res.log) == 4
        assert (threading.main_thread() in threads) == (data_phase_on == "inline")
        # each epoch runs its five data phases on one thread
        assert len(threads) == 20
        assert {len(set(threads[i:i + 5])) for i in range(0, 20, 5)} == {1}

    def test_mean_field_damping(self, monkeypatch):
        # Found by a random search over small runs: with a large rate and
        # momentum, the mean field of one batch starts damping.  The
        # draws below reproduce that case's data.
        rng = np.random.default_rng(170)
        lr = float(np.exp(rng.uniform(np.log(0.03), np.log(3))))
        momentum = float(rng.uniform(0, 0.9))
        rng.integers(1, 5), rng.integers(1, 6), rng.integers(1, 6)
        data = rng.standard_normal((60, 2)) * rng.uniform(0.5, 5)
        cfg = TrainConfig(epochs_max=15, batch_size=20,
                          learning_rate_start=lr, learning_rate_end=lr,
                          momentum_start=momentum, momentum_end=momentum,
                          patience=100)
        damped = []
        original = cgdbm.training.mean_field_data

        def watched(x, p, c, cfg):
            damped.append(mean_field_damps(x, p, c, cfg))
            return original(x, p, c, cfg)

        monkeypatch.setattr(cgdbm.training, "mean_field_data", watched)
        self.check(data, (2, 5, 2), cfg, seed=170)
        assert any(damped)

    def test_one_batch_per_epoch(self, rng):
        # 45 training rows fit one batch, so each epoch's permutation is
        # drawn right after the previous epoch's only block, no block is
        # drawn ahead, and with the data phase in line no worker starts
        data = rng.standard_normal((50, 3))
        cfg = TrainConfig(epochs_max=5, batch_size=60)
        res = self.check(data, (3, 4, 2), cfg, seed=9,
                         worker=self.mode == "thread")
        assert len(res.log) == 5

    def test_one_gibbs_step_per_batch(self, rng):
        data = rng.standard_normal((97, 3))
        cfg = TrainConfig(epochs_max=4, batch_size=20,
                          gibbs_steps_per_batch=1)
        assert len(self.check(data, (3, 5, 2), cfg, seed=4).log) == 4

    def test_early_stopping(self, rng):
        data = np.tile(np.array([0.5, -0.25]), (40, 1))
        data = data + rng.standard_normal((40, 2)) * 1e-9
        cfg = TrainConfig(epochs_max=200, batch_size=10, patience=3,
                          learning_rate_start=1e-6, learning_rate_end=1e-6)
        assert self.check(data, (2, 3, 2), cfg, seed=5).stall == cfg.patience

    def test_divergence(self, rng):
        data = rng.standard_normal((60, 3)) * 50.0
        _, error = run_states(train_reference(data, (3, 4, 2), DIVERGING,
                                              seed=3))
        assert str(error).startswith("training diverged in epoch 8: ")
        # check compares the messages too
        assert len(self.check(data, (3, 4, 2), DIVERGING, seed=3).log) == 8

    def test_concurrent_runs_with_fast_thread_switching(self, rng):
        # three runs at once (six threads on the cores) with the
        # interpreter switching threads every 10 us: a data phase that
        # read parameters the main thread was updating would show here
        data = rng.standard_normal((97, 3))
        cfg = TrainConfig(epochs_max=3, batch_size=20)
        seeds = (1, 2, 3)
        results = {}

        def run(seed):
            results[seed] = run_states(train(data, (3, 5, 2), cfg, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(seed,))
                       for seed in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            assert_same_run(results[seed], run_states(
                train_reference(data, (3, 5, 2), cfg, seed)))


@pytest.mark.usefixtures("data_phase_on")
class TestWorkerThread:
    """No worker thread is alive while train() waits at a yield, and none
    is left when it raises or is closed."""

    def test_no_worker_at_a_yield(self, rng):
        before = threading.active_count()
        for _ in train(rng.standard_normal((90, 3)), (3, 4, 2),
                       TrainConfig(epochs_max=3, batch_size=20), seed=7):
            assert threading.active_count() == before

    def test_close_after_two_yields(self, rng):
        before = threading.active_count()
        steps = train(rng.standard_normal((90, 3)), (3, 4, 2),
                      TrainConfig(epochs_max=3, batch_size=20), seed=7)
        next(steps)
        next(steps)
        assert threading.active_count() == before
        steps.close()
        assert threading.active_count() == before

    def test_divergence_with_a_block_pending(self, rng, monkeypatch):
        # the update of the first of five batches fails after the
        # worker drew the second batch's block
        original = cgdbm.training.apply_updates

        def failing(*args):
            original(*args)
            raise NumericError("injected")

        monkeypatch.setattr(cgdbm.training, "apply_updates", failing)
        before = threading.active_count()
        with pytest.raises(NumericError, match="epoch 0: injected"):
            for _ in train(rng.standard_normal((90, 3)), (3, 4, 2),
                           TrainConfig(epochs_max=2, batch_size=20), seed=7):
                pass
        assert threading.active_count() == before


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(offset_rate=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(momentum_start=1.5).validate()
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate_start=-0.1).validate()

    def test_width_mismatch_rejected(self, rng):
        data = rng.standard_normal((30, 4))
        with pytest.raises(ShapeError):
            next(train(data, (3, 4, 2),
                       TrainConfig(epochs_max=1, batch_size=10), seed=0))
