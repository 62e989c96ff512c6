"""Enumeration and integration oracles for the exact small-model module."""

import numpy as np
import pytest
from scipy.integrate import quad

from cgdbm.errors import DomainError
from cgdbm.exact import (
    all_binary_states,
    brute_force_hidden_marginal,
    hidden_free_energy,
    hidden_free_energy_table,
    log_likelihood,
    log_partition,
    to_uncentered,
)
from cgdbm.model import ModelParams, Offsets, energy
from oracles import quad_hidden_marginal, random_model, total_variation


def quad_free_energy(y, z, p, c):
    """-log integral over x of exp(-E), for L=1, via adaptive quadrature."""
    def integrand(xv):
        return np.exp(-energy([xv], y, z, p, c)[0])
    sigma = float(np.sqrt(p.sigma2[0]))
    mean = float(c.c_x[0] + p.W[0] @ (np.asarray(y) - c.c_y))
    val, _ = quad(integrand, mean - 14 * sigma, mean + 14 * sigma, limit=200)
    return -np.log(val)


class TestBinaryEnumeration:
    def test_order_and_completeness(self):
        states = all_binary_states(3)
        assert states.shape == (8, 3)
        # Index 5 = 0b101: units 0 and 2 on.
        np.testing.assert_array_equal(states[5], [1.0, 0.0, 1.0])
        assert len({tuple(row) for row in states}) == 8

    def test_refuses_large_enumeration(self):
        with pytest.raises(DomainError):
            all_binary_states(21)
        p = ModelParams(W=np.zeros((1, 12)), U=np.zeros((12, 9)),
                        b_y=np.zeros(12), b_z=np.zeros(9), sigma2=np.ones(1))
        c = Offsets(c_x=np.zeros(1), c_y=np.full(12, 0.5), c_z=np.full(9, 0.5))
        with pytest.raises(DomainError):
            brute_force_hidden_marginal(p, c)


class TestHiddenFreeEnergy:
    def test_zero_model_gaussian_normalizer(self):
        # Everything zero, unit variance: F = -0.5 log(2 pi).
        p = ModelParams(W=[[0.0]], U=[[0.0]], b_y=[0.0], b_z=[0.0], sigma2=[1.0])
        c = Offsets(c_x=[0.0], c_y=[0.0], c_z=[0.0])
        f = hidden_free_energy([0.0], [0.0], p, c)
        assert f == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_matches_quadrature(self, rng):
        for _ in range(8):
            p, c = random_model(rng, L=1, M=2, N=2)
            y = (rng.random(2) < 0.5).astype(float)
            z = (rng.random(2) < 0.5).astype(float)
            want = quad_free_energy(y, z, p, c)
            assert hidden_free_energy(y, z, p, c) == pytest.approx(want, rel=1e-6)

    def test_table_matches_scalar_calls(self, rng):
        p, c = random_model(rng, L=2, M=2, N=2)
        table = hidden_free_energy_table(p, c)
        ys = all_binary_states(2)
        zs = all_binary_states(2)
        for iy in range(4):
            for iz in range(4):
                assert table[iy, iz] == pytest.approx(
                    hidden_free_energy(ys[iy], zs[iz], p, c), rel=1e-12)


class TestHiddenMarginal:
    def test_is_a_distribution(self, rng):
        p, c = random_model(rng, L=2, M=3, N=2)
        table = brute_force_hidden_marginal(p, c)
        assert table.shape == (8, 4)
        assert np.all(table > 0)
        assert table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_grid_integration(self, rng):
        # Independent oracle: integrate exp(-E) over x on a dense grid.
        for _ in range(3):
            p, c = random_model(rng, L=1, M=2, N=1)
            want = quad_hidden_marginal(p, c)
            got = brute_force_hidden_marginal(p, c)
            assert total_variation(want, got) <= 1e-4

    def test_probability_ratios_follow_free_energy(self, rng):
        p, c = random_model(rng, L=2, M=2, N=1)
        table = brute_force_hidden_marginal(p, c)
        f = hidden_free_energy_table(p, c)
        ratio = np.log(table[1, 1] / table[0, 0])
        assert ratio == pytest.approx(f[0, 0] - f[1, 1], rel=1e-10)


class TestLogLikelihood:
    def test_matches_quadrature_partition(self, rng):
        p, c = random_model(rng, L=1, M=2, N=1)
        xs = rng.standard_normal((4, 1))
        # Z by quadrature per hidden state; P(x) by direct enumeration.
        ys = all_binary_states(2)
        zs = all_binary_states(1)
        z_quad = sum(np.exp(-quad_free_energy(y, z, p, c))
                     for y in ys for z in zs)
        per_row = []
        for r in range(4):
            s = sum(np.exp(-energy(xs[r], y, z, p, c)[0])
                    for y in ys for z in zs)
            per_row.append(np.log(s / z_quad))
        want = float(np.mean(per_row))
        assert log_likelihood(xs, p, c) == pytest.approx(want, rel=1e-8)

    def test_log_partition_matches_quadrature(self, rng):
        p, c = random_model(rng, L=1, M=2, N=2)
        ys = all_binary_states(2)
        zs = all_binary_states(2)
        z_quad = sum(np.exp(-quad_free_energy(y, z, p, c))
                     for y in ys for z in zs)
        assert log_partition(p, c) == pytest.approx(np.log(z_quad), rel=1e-8)


class TestToUncentered:
    def test_zero_offsets_is_identity(self, rng):
        p, _ = random_model(rng, L=2, M=3, N=2)
        c = Offsets(c_x=rng.standard_normal(2), c_y=np.zeros(3), c_z=np.zeros(2))
        p2, c2 = to_uncentered(p, c)
        np.testing.assert_array_equal(p2.W, p.W)
        np.testing.assert_array_equal(p2.U, p.U)
        np.testing.assert_array_equal(p2.b_y, p.b_y)
        np.testing.assert_array_equal(p2.b_z, p.b_z)
        np.testing.assert_array_equal(c2.c_x, c.c_x)

    def test_energy_difference_is_constant(self, rng):
        p, c = random_model(rng, L=3, M=4, N=3)
        p2, c2 = to_uncentered(p, c)
        x = rng.standard_normal((200, 3)) * 3.0
        y = (rng.random((200, 4)) < 0.5).astype(float)
        z = (rng.random((200, 3)) < 0.5).astype(float)
        diffs = energy(x, y, z, p, c) - energy(x, y, z, p2, c2)
        assert max(diffs) - min(diffs) <= 1e-9

    def test_hidden_marginal_preserved(self, rng):
        p, c = random_model(rng, L=2, M=3, N=2)
        p2, c2 = to_uncentered(p, c)
        a = brute_force_hidden_marginal(p, c)
        b = brute_force_hidden_marginal(p2, c2)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
