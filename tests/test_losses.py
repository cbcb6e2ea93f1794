import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import endotrack as et
from endotrack.errors import BadExtent, BadPenalty, InvalidQuaternion, ShapeMismatch
from endotrack.checks import finite_diff_grad
from endotrack.losses import FlowPyramid

from helpers import random_unit_quat


def oracle_quat_log(q):
    # Independent of the package: scalar math on the canonical quaternion.
    q = [float(v) for v in q]
    if q[0] < 0:
        q = [-v for v in q]
    vn = math.sqrt(q[1] ** 2 + q[2] ** 2 + q[3] ** 2)
    if vn < 1e-8:
        return (0.0, 0.0, 0.0)
    a = math.acos(max(-1.0, min(1.0, q[0])))
    return tuple(v / vn * a for v in q[1:])


def oracle_geometric_loss(pred, target, lam_t, lam_r):
    t_err = sum(abs(a - b) for a, b in zip(target.t, pred.t))
    lp, lt = oracle_quat_log(pred.q), oracle_quat_log(target.q)
    r_err = sum(abs(a - b) for a, b in zip(lt, lp))
    return t_err * math.exp(-lam_t) + lam_t + r_err * math.exp(-lam_r) + lam_r


def random_posevec(rng):
    return et.PoseVec(rng.standard_normal(3), et.quat_normalize(random_unit_quat(rng)))


class TestGeometricLoss:
    def test_equal_poses_give_lambda_sum(self, rng):
        for _ in range(50):
            p = random_posevec(rng)
            w = et.LossWeights(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert et.geometric_loss(p, p, w) == w.lam_t + w.lam_r

    def test_default_inits_at_zero_error(self, rng):
        p = random_posevec(rng)
        w = et.LossWeights()
        assert w.lam_t == 0.0 and w.lam_r == -3.0
        assert et.geometric_loss(p, p, w) == -3.0

    def test_unit_translation_error(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        pred = et.PoseVec(np.zeros(3), q)
        target = et.PoseVec(np.ones(3), q)
        assert et.geometric_loss(pred, target, et.LossWeights(0.0, 0.0)) == pytest.approx(3.0)

    def test_matches_scalar_oracle(self, rng):
        for _ in range(100):
            pred, target = random_posevec(rng), random_posevec(rng)
            lam = rng.uniform(-2, 2, 2)
            ours = et.geometric_loss(pred, target, et.LossWeights(*lam))
            ref = oracle_geometric_loss(pred, target, *lam)
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_sign_flip_invariance(self, rng):
        for _ in range(50):
            pred, target = random_posevec(rng), random_posevec(rng)
            w = et.LossWeights()
            base = et.geometric_loss(pred, target, w)
            flipped_pred = et.PoseVec(pred.t, -pred.q)
            flipped_target = et.PoseVec(target.t, -target.q)
            assert et.geometric_loss(flipped_pred, target, w) == base
            assert et.geometric_loss(pred, flipped_target, w) == base

    def test_non_unit_rejected(self, rng):
        p = random_posevec(rng)
        bad = et.PoseVec(p.t, p.q * 1.001)
        with pytest.raises(InvalidQuaternion):
            et.geometric_loss(bad, p, et.LossWeights())


class TestLambdaGrad:
    def test_zero_errors(self, rng):
        p = random_posevec(rng)
        assert et.geometric_loss_lambda_grad(p, p, et.LossWeights(0.5, -1.0)) == (1.0, 1.0)

    def test_stationary_translation(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        lam_t = 0.37
        # Arrange |dt|_1 = exp(lam_t) so the lam_t gradient vanishes.
        pred = et.PoseVec(np.zeros(3), q)
        target = et.PoseVec(np.array([math.exp(lam_t), 0.0, 0.0]), q)
        d_t, _ = et.geometric_loss_lambda_grad(pred, target, et.LossWeights(lam_t, 0.0))
        assert d_t == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            pred, target = random_posevec(rng), random_posevec(rng)
            lam = rng.uniform(-2, 2, 2)
            analytic = np.array(
                et.geometric_loss_lambda_grad(pred, target, et.LossWeights(*lam))
            )
            fd = finite_diff_grad(
                lambda v: et.geometric_loss(pred, target, et.LossWeights(v[0], v[1])),
                lam, h=1e-6,
            )
            assert np.max(np.abs(analytic - fd) / np.maximum(np.abs(analytic), 1.0)) < 1e-6


class TestLambdaDescent:
    def test_monotone_decrease_50_steps(self):
        history, final = et.descend_loss_weights(0.5, 0.05, steps=50, lr=0.1)
        assert len(history) == 51
        assert all(b < a for a, b in zip(history, history[1:]))
        # Gradients shrink toward the minimizer lam = log(err).
        g = et.geometric_loss_lambda_grad(
            et.PoseVec(np.zeros(3), [1, 0, 0, 0]),
            et.PoseVec(np.array([0.5, 0, 0]), [1, 0, 0, 0]),
            et.LossWeights(final.lam_t, final.lam_r),
        )
        assert abs(g[0]) < abs(1.0 - 0.5 * math.exp(0.0))


class TestFlowPyramid:
    def test_level_extents_64(self):
        pyr = et.flow_pyramid(np.zeros((64, 64, 2)))
        assert [pyr.level(l).shape for l in range(2, 7)] == [
            (32, 32, 2), (16, 16, 2), (8, 8, 2), (4, 4, 2), (2, 2, 2),
        ]

    def test_constant_flow_scales(self):
        flow = np.zeros((64, 64, 2))
        flow[..., 0] = 4.0
        pyr = et.flow_pyramid(flow)
        np.testing.assert_allclose(pyr.level(3), np.broadcast_to([1.0, 0.0], (16, 16, 2)))

    def test_zero_flow_zero_pyramid(self):
        pyr = et.flow_pyramid(np.zeros((32, 64, 2)))
        for l in range(2, 7):
            assert np.count_nonzero(pyr.level(l)) == 0

    def test_bad_extent(self):
        with pytest.raises(BadExtent):
            et.flow_pyramid(np.zeros((48, 64, 2)))
        with pytest.raises(BadExtent):
            et.flow_pyramid(np.zeros((0, 64, 2)))

    def test_pad_to_multiple(self):
        flow = np.ones((30, 50, 2))
        padded = et.pad_to_multiple(flow)
        assert padded.shape == (32, 64, 2)
        assert np.array_equal(padded[:30, :50], flow)
        assert np.count_nonzero(padded[30:]) == 0
        same = et.pad_to_multiple(np.ones((32, 32, 2)))
        assert same.shape == (32, 32, 2)

    def test_level_out_of_range(self):
        pyr = et.flow_pyramid(np.zeros((32, 32, 2)))
        with pytest.raises(BadExtent):
            pyr.level(7)


class TestFlowRobustLoss:
    def test_zero_error_floor(self):
        pyr = et.flow_pyramid(np.zeros((64, 64, 2)))
        for i, l in enumerate(range(2, 7)):
            theta = np.zeros(5)
            theta[i] = 1.0
            n = pyr.level(l).shape[0] * pyr.level(l).shape[1]
            assert et.flow_robust_loss(pyr, pyr, theta=theta) == n * 0.01**0.4

    def test_single_pixel_unit_base(self):
        # 32x32 input: level 6 is a single pixel.  |du| = 0.99 with eps 0.01
        # makes the base exactly 1, and so the loss at q = 0.4.
        gt = et.flow_pyramid(np.zeros((32, 32, 2)))
        levels = list(gt.levels)
        bumped = levels[-1].copy()
        bumped[0, 0, 0] = 0.99
        pred = FlowPyramid(tuple(levels[:-1] + [bumped]))
        loss = et.flow_robust_loss(pred, gt, theta=[0, 0, 0, 0, 1])
        assert loss == pytest.approx(1.0, abs=1e-15)

    def test_theta_linearity(self, rng):
        a = et.flow_pyramid(rng.standard_normal((32, 32, 2)))
        b = et.flow_pyramid(rng.standard_normal((32, 32, 2)))
        one = et.flow_robust_loss(a, b, theta=[0, 1, 0, 0, 0])
        two = et.flow_robust_loss(a, b, theta=[0, 2, 0, 0, 0])
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    @given(st.integers(0, 2**31), st.floats(0.01, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_each_delta(self, seed, bump):
        r = np.random.default_rng(seed)
        gt = et.flow_pyramid(r.standard_normal((32, 32, 2)))
        pred = et.flow_pyramid(r.standard_normal((32, 32, 2)))
        base = et.flow_robust_loss(pred, gt)
        levels = list(pred.levels)
        i = int(r.integers(0, 5))
        worse = levels[i].copy()
        h, w = worse.shape[:2]
        pos = (int(r.integers(0, h)), int(r.integers(0, w)), int(r.integers(0, 2)))
        # Move one component further from the target.
        delta = worse[pos] - gt.levels[i][pos]
        worse[pos] += bump if delta >= 0 else -bump
        levels[i] = worse
        worse_loss = et.flow_robust_loss(FlowPyramid(tuple(levels)), gt)
        assert worse_loss >= base

    def test_shape_validation(self):
        a = et.flow_pyramid(np.zeros((32, 32, 2)))
        b = et.flow_pyramid(np.zeros((64, 64, 2)))
        with pytest.raises(ShapeMismatch):
            et.flow_robust_loss(a, b)
        with pytest.raises(ShapeMismatch):
            et.flow_robust_loss(a, a, theta=[1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_theta_refused(self, bad):
        pyr = et.flow_pyramid(np.zeros((32, 32, 2)))
        for level in range(5):
            theta = np.ones(5)
            theta[level] = bad
            with pytest.raises(BadPenalty, match="theta"):
                et.flow_robust_loss(pyr, pyr, theta=theta)
