"""Core model math against hand-computed values, explicit-loop energies,
energy-ratio enumeration, and finite differences of the training
gradient statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdbm.errors import DomainError, NumericError, ShapeError
from cgdbm.model import (
    SIGMA2_FLOOR,
    ModelParams,
    Offsets,
    cond_hidden1,
    cond_hidden2,
    cond_visible,
    energy,
    sigmoid,
)
from cgdbm.training import batch_gradient_stats
from oracles import (
    enum_cond_hidden1,
    enum_cond_hidden2,
    fd_gradients,
    random_model,
    random_state,
    raw_energy,
)


def tiny_111(w=1.0, u=1.0, b_y=0.0, b_z=0.0, sigma2=1.0, c_x=0.0, c_y=0.0, c_z=0.0):
    p = ModelParams(W=[[w]], U=[[u]], b_y=[b_y], b_z=[b_z], sigma2=[sigma2])
    c = Offsets(c_x=[c_x], c_y=[c_y], c_z=[c_z])
    return p, c


class TestEnergy:
    def test_all_offset_state_has_zero_energy(self):
        p, c = tiny_111(w=0.7, u=-1.3, b_y=0.4, b_z=-0.2, c_x=2.5)
        np.testing.assert_array_equal(energy([[2.5]], [[0.0]], [[0.0]], p, c),
                                      [0.0])

    def test_unit_coupling_state(self):
        # x=1, y=1, z=1 with unit couplings, zero biases/offsets, sigma2=1:
        # 0.5 - 1 - 0 - 0 - 1 = -1.5
        p, c = tiny_111()
        e = energy([[1.0]], [[1.0]], [[1.0]], p, c)
        assert e.shape == (1,)
        assert e[0] == pytest.approx(-1.5, abs=1e-15)

    def test_matches_explicit_loop_formula(self, rng):
        # one row per state, four states per model
        for _ in range(25):
            p, c = random_model(rng, L=3, M=4, N=2)
            x, y, z = (np.array(rows) for rows in zip(
                *(random_state(rng, 3, 4, 2) for _ in range(4))))
            got = energy(x, y, z, p, c)
            assert got.shape == (4,)
            for r in range(4):
                want = raw_energy(x[r], y[r], z[r], p.W, p.U, p.b_y, p.b_z,
                                  p.sigma2, c.c_x, c.c_y, c.c_z)
                assert got[r] == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch_raises(self):
        p, c = tiny_111()
        bad = Offsets(c_x=[0.0, 0.0], c_y=[0.0], c_z=[0.0])
        with pytest.raises(ShapeError):
            energy([[1.0]], [[1.0]], [[1.0]], p, bad)
        # row counts must agree across the three layers
        with pytest.raises(ShapeError):
            energy([[1.0], [2.0]], [[1.0]], [[1.0]], p, c)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_energy_raises(self):
        p, c = tiny_111()
        with pytest.raises(NumericError):
            energy([[1.0], [np.inf]], [[1.0], [1.0]], [[1.0], [1.0]], p, c)


class TestValidation:
    def test_nonpositive_sigma2_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(W=[[1.0]], U=[[1.0]], b_y=[0.0], b_z=[0.0], sigma2=[0.0])
        with pytest.raises(DomainError):
            ModelParams(W=[[1.0]], U=[[1.0]], b_y=[0.0], b_z=[0.0], sigma2=[-1.0])

    def test_tiny_sigma2_floored(self):
        p = ModelParams(W=[[1.0]], U=[[1.0]], b_y=[0.0], b_z=[0.0], sigma2=[1e-12])
        assert p.sigma2[0] == SIGMA2_FLOOR

    def test_offset_range_enforced(self):
        with pytest.raises(DomainError):
            Offsets(c_x=[0.0], c_y=[1.5], c_z=[0.0])
        # The boundary is allowed: the uncentered form uses exact zeros.
        Offsets(c_x=[0.0], c_y=[0.0], c_z=[1.0])

    def test_inconsistent_hidden_sizes_rejected(self):
        with pytest.raises(ShapeError):
            ModelParams(W=np.ones((2, 3)), U=np.ones((4, 2)),
                        b_y=np.zeros(3), b_z=np.zeros(2), sigma2=np.ones(2))


class TestConditionals:
    def test_visible_mean_formula(self):
        p, c = tiny_111(w=2.0, c_x=1.0, c_y=0.5)
        means, variances = cond_visible(np.array([1.0]), p, c)
        assert means[0] == pytest.approx(2.0)
        assert variances[0] == 1.0

    def test_hidden1_unit_drive(self):
        # (x - c_x)/sigma2 * w = 1 with no top-down input or bias.
        p, c = tiny_111()
        prob = cond_hidden1(np.array([1.0]), np.array([0.0]), p, c)
        assert prob[0] == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_hidden2_cancelling_drive(self):
        p, c = tiny_111(u=2.0, b_z=-1.0, c_y=0.5)
        prob = cond_hidden2(np.array([1.0]), p, c)
        assert prob[0] == pytest.approx(0.5, abs=1e-15)

    def test_hidden1_matches_energy_ratio(self, rng):
        for _ in range(20):
            p, c = random_model(rng, L=2, M=3, N=2)
            x = rng.standard_normal(2) * 2.0
            z = (rng.random(2) < 0.5).astype(float)
            probs = cond_hidden1(x, z, p, c)
            for j in range(3):
                assert probs[j] == pytest.approx(
                    enum_cond_hidden1(j, x, z, p, c), abs=1e-12)

    def test_hidden2_matches_energy_ratio(self, rng):
        for _ in range(20):
            p, c = random_model(rng, L=2, M=3, N=2)
            y = (rng.random(3) < 0.5).astype(float)
            probs = cond_hidden2(y, p, c)
            for k in range(2):
                assert probs[k] == pytest.approx(
                    enum_cond_hidden2(k, y, p, c), abs=1e-12)

    def test_visible_gaussian_matches_energy_shape(self, rng):
        # exp(-E) as a function of x_i must be proportional to the returned
        # Gaussian density: check via log-ratio at two x values.
        p, c = random_model(rng, L=1, M=2, N=1)
        y = np.array([1.0, 0.0])
        z = np.array([1.0])
        means, variances = cond_visible(y, p, c)
        for x0, x1 in [(-1.3, 0.4), (0.9, 2.2)]:
            e0, e1 = energy([[x0], [x1]], [y, y], [z, z], p, c)
            want = (-0.5 * (x0 - means[0]) ** 2 / variances[0]
                    + 0.5 * (x1 - means[0]) ** 2 / variances[0])
            assert (e1 - e0) == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_batched_rows_match_single_calls(self, rng):
        p, c = random_model(rng, L=3, M=4, N=2)
        xs = rng.standard_normal((5, 3))
        zs = (rng.random((5, 2)) < 0.5).astype(float)
        batch = cond_hidden1(xs, zs, p, c)
        for r in range(5):
            single = cond_hidden1(xs[r], zs[r], p, c)
            # matmul and matvec reduce in different orders
            np.testing.assert_allclose(batch[r], single, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("rows", [None, 1, 5])
    def test_out_is_filled_and_returned(self, rng, rows):
        # the Gibbs sweep writes each conditional into a chain array
        p, c = random_model(rng, L=3, M=4, N=2)
        lead = () if rows is None else (rows,)
        x = rng.standard_normal(lead + (3,))
        y = (rng.random(lead + (4,)) < 0.5).astype(float)
        z = (rng.random(lead + (2,)) < 0.5).astype(float)
        for call, shape in (
                (lambda out=None: cond_visible(y, p, c, out=out)[0], x.shape),
                (lambda out=None: cond_hidden1(x, z, p, c, out=out), y.shape),
                (lambda out=None: cond_hidden2(y, p, c, out=out), z.shape)):
            buf = np.full(shape, np.nan)
            assert call(out=buf) is buf
            np.testing.assert_array_equal(buf, call())

    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=30, deadline=None)
    def test_hidden2_probability_bounds(self, b):
        p, c = tiny_111(b_z=b)
        prob = cond_hidden2(np.array([1.0]), p, c)
        assert 0.0 <= prob[0] <= 1.0


class TestGradients:
    """The training gradient statistics at one state (a batch of one row)."""

    def test_zero_at_all_offset_state(self):
        p, c = tiny_111(w=0.6, u=-0.9, b_y=0.3, b_z=0.1, c_x=1.2)
        g = batch_gradient_stats([[1.2]], [[0.0]], [[0.0]], p, c)
        for block in (g.dW, g.dU, g.db_y, g.db_z, g.dsigma):
            np.testing.assert_array_equal(block, np.zeros_like(block))

    def test_dsigma_cancellation_case(self):
        # x=2, y=1, w=1, sigma=1, zero offsets: 4/1 - 2*2*1/1 = 0.
        p, c = tiny_111()
        g = batch_gradient_stats([[2.0]], [[1.0]], [[0.0]], p, c)
        assert g.dsigma[0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            p, c = random_model(rng, L=3, M=4, N=2)
            x, y, z = (v[None, :] for v in random_state(rng, 3, 4, 2))
            g = batch_gradient_stats(x, y, z, p, c)
            dW, dU, db_y, db_z, dsigma = fd_gradients(x, y, z, p, c, h=1e-5)
            np.testing.assert_allclose(g.dW, dW, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(g.dU, dU, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(g.db_y, db_y, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(g.db_z, db_z, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(g.dsigma, dsigma, rtol=1e-5, atol=1e-7)


def test_sigmoid_is_expit_bit_for_bit(rng):
    from scipy.special import expit

    x = rng.normal(size=100_000) * np.geomspace(1.0, 800.0, 100_000)
    x = np.concatenate([x, [0.0, -0.0, np.inf, -np.inf, np.nan]])
    assert np.array_equal(sigmoid(x), expit(x), equal_nan=True)
