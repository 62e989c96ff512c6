"""Training-loop components against exact oracles and hand-built cases."""

import numpy as np
import pytest

from cgdbm.errors import ConfigError, ShapeError
from cgdbm.exact import brute_force_hidden_marginal, log_likelihood
from cgdbm.model import ModelParams, Offsets, cond_hidden1, cond_visible
from cgdbm.training import (
    GradientStats,
    OptimizerState,
    PersistentChains,
    TrainConfig,
    TrainingDiverged,
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
from oracles import fd_gradients, random_model, total_variation


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
        cfg = TrainConfig()
        data_mean = rng.standard_normal(6)
        p, c = initialize((6, 5, 3), data_mean, cfg, rng)
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
        cfg = TrainConfig()
        p, c = initialize((2, 3, 2), np.zeros(2), cfg, rng)
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
        assert mf.converged and mf.residual == 0.0

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
        out = gibbs_model_step(chains, p, c, rng)
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
        for s in range(sweeps):
            chains = gibbs_model_step(chains, p, c, rng)
            if s >= burn:
                iy = (chains.y @ pow_y).astype(int)
                iz = (chains.z @ pow_z).astype(int)
                np.add.at(counts, (iy, iz), 1.0)
        freq = counts / counts.sum()
        assert total_variation(freq, table) <= 0.02


class TestApplyUpdates:
    def make_zero_stats(self, dims):
        L, M, N = dims
        return GradientStats(dW=np.zeros((L, M)), dU=np.zeros((M, N)),
                             db_y=np.zeros(M), db_z=np.zeros(N),
                             dsigma=np.zeros(L))

    def test_velocity_decays_geometrically(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        dims = (2, 3, 2)
        opt = OptimizerState.zeros(dims)
        opt.vW += 0.04
        opt.vsigma += 0.02
        zero = self.make_zero_stats(dims)
        cfg = TrainConfig()
        p1, opt1 = apply_updates(p, opt, zero, zero, lr=0.1, momentum=0.5, cfg=cfg)
        np.testing.assert_array_equal(opt1.vW, np.full((2, 3), 0.02))
        np.testing.assert_array_equal(opt1.vsigma, np.full(2, 0.01))
        p2, opt2 = apply_updates(p1, opt1, zero, zero, lr=0.1, momentum=0.5, cfg=cfg)
        np.testing.assert_array_equal(opt2.vW, np.full((2, 3), 0.01))

    def test_plain_step_without_momentum(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        dims = (2, 3, 2)
        zero = self.make_zero_stats(dims)
        v = np.array([0.3, -0.2, 0.5])
        data = GradientStats(dW=zero.dW, dU=zero.dU, db_y=v,
                             db_z=zero.db_z, dsigma=zero.dsigma)
        p1, _ = apply_updates(p, OptimizerState.zeros(dims), data, zero,
                              lr=1.0, momentum=0.0, cfg=TrainConfig())
        np.testing.assert_allclose(p1.b_y, p.b_y + v, atol=1e-15)

    def test_sigma_step_clipped_and_floored(self, rng):
        p, c = random_model(rng, 2, 3, 2)
        dims = (2, 3, 2)
        zero = self.make_zero_stats(dims)
        data = GradientStats(dW=zero.dW, dU=zero.dU, db_y=zero.db_y,
                             db_z=zero.db_z, dsigma=np.array([500.0, -500.0]))
        cfg = TrainConfig()
        p1, opt1 = apply_updates(p, OptimizerState.zeros(dims), data, zero,
                                 lr=1.0, momentum=0.0, cfg=cfg)
        step = np.sqrt(p1.sigma2) - np.sqrt(p.sigma2)
        assert step[0] == pytest.approx(cfg.sigma_step_clip, abs=1e-12)
        assert np.sqrt(p1.sigma2[1]) >= np.sqrt(p.sigma2[1]) - cfg.sigma_step_clip - 1e-12
        # Drive sigma into the floor.
        pf = ModelParams(W=p.W, U=p.U, b_y=p.b_y, b_z=p.b_z,
                         sigma2=np.full(2, 1.2e-4))
        p2, _ = apply_updates(pf, OptimizerState.zeros(dims), data, zero,
                              lr=1.0, momentum=0.0, cfg=cfg)
        assert p2.sigma2[1] == pytest.approx(1e-4, abs=1e-18)


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
    def test_zero_epochs_returns_initialized_model(self, rng):
        data = rng.standard_normal((50, 3))
        cfg = TrainConfig(epochs_max=0, batch_size=10)
        res = train(data, (3, 4, 2), cfg)
        assert res.log == []
        rng2 = np.random.default_rng(cfg.seed)
        rng2.permutation(50)
        p0, c0 = initialize((3, 4, 2), data.mean(axis=0), cfg, rng2)
        np.testing.assert_array_equal(res.params.W, p0.W)
        np.testing.assert_array_equal(res.offsets.c_x, c0.c_x)

    def test_runs_and_logs(self, rng):
        data = rng.standard_normal((80, 3))
        cfg = TrainConfig(epochs_max=4, batch_size=20, seed=7)
        res = train(data, (3, 4, 2), cfg)
        assert len(res.log) == 4
        assert all(np.isfinite(r.recon_error) for r in res.log)
        assert res.log[0].lr == 0.03
        assert np.all(np.isfinite(res.params.W))

    def test_deterministic_given_seed(self, rng):
        data = rng.standard_normal((60, 3))
        cfg = TrainConfig(epochs_max=3, batch_size=20, seed=11)
        a = train(data, (3, 4, 2), cfg)
        b = train(data, (3, 4, 2), cfg)
        np.testing.assert_array_equal(a.params.W, b.params.W)
        np.testing.assert_array_equal(a.params.sigma2, b.params.sigma2)
        assert [r.recon_error for r in a.log] == [r.recon_error for r in b.log]

    def test_divergence_carries_last_good_state(self, rng):
        data = rng.standard_normal((60, 3)) * 50.0
        cfg = TrainConfig(epochs_max=50, batch_size=20,
                          learning_rate_start=2e5, learning_rate_end=2e5,
                          momentum_start=0.0, momentum_end=0.0, seed=3)
        with pytest.raises(TrainingDiverged) as exc_info:
            train(data, (3, 4, 2), cfg)
        exc = exc_info.value
        assert np.all(np.isfinite(exc.params.W))
        assert isinstance(exc.offsets, Offsets)

    def test_early_stopping_on_patience(self, rng):
        # Constant data reconstructs immediately; error cannot improve.
        data = np.tile(np.array([0.5, -0.25]), (40, 1))
        data = data + rng.standard_normal((40, 2)) * 1e-9
        cfg = TrainConfig(epochs_max=200, batch_size=10, patience=3,
                          learning_rate_start=1e-6, learning_rate_end=1e-6,
                          seed=5)
        res = train(data, (2, 3, 2), cfg)
        assert res.stopped_early
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
            cfg = TrainConfig(epochs_max=25, batch_size=50, seed=seed,
                              val_fraction=0.0, patience=100)
            # Mirror train's rng sequence (split permutation, then init) to
            # recover the exact starting model.
            rng_t = np.random.default_rng(cfg.seed)
            rng_t.permutation(500)
            p0, c0 = initialize((2, 3, 2), data.mean(axis=0), cfg, rng_t)
            res = train(data, (2, 3, 2), cfg)
            ll_before = log_likelihood(val, p0, c0)
            ll_after = log_likelihood(val, res.params, res.offsets)
            if ll_after > ll_before:
                wins += 1
        assert wins >= 8


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
            train(data, (3, 4, 2), TrainConfig(epochs_max=1, batch_size=10))
