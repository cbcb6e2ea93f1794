import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import endotrack as et
from endotrack.errors import NotARotation, ShapeMismatch, ZeroQuaternion
from endotrack import se3
from endotrack.se3 import vec_norm

from helpers import random_pose, random_unit_quat


def rotmat_from_euler(rx, ry, rz):
    """Inverse of euler_from_rotmat: R = Rz(rz) @ Ry(ry) @ Rx(rx)."""
    Rx = et.rotmat_from_axis_angle([1.0, 0.0, 0.0], rx)
    Ry = et.rotmat_from_axis_angle([0.0, 1.0, 0.0], ry)
    Rz = et.rotmat_from_axis_angle([0.0, 0.0, 1.0], rz)
    return Rz @ Ry @ Rx


def pose_as_matrix(p):
    M = np.eye(4)
    M[:3, :3] = p.R
    M[:3, 3] = p.t
    return M


unit_quats = st.builds(
    lambda seed: random_unit_quat(np.random.default_rng(seed)),
    st.integers(min_value=0, max_value=2**31),
)


class TestQuatNormalize:
    def test_identity(self):
        assert np.array_equal(et.quat_normalize([1, 0, 0, 0]), [1, 0, 0, 0])

    def test_double_cover(self):
        assert np.array_equal(et.quat_normalize([-1, 0, 0, 0]), [1, 0, 0, 0])

    def test_scaling(self):
        assert np.array_equal(et.quat_normalize([2, 0, 0, 0]), [1, 0, 0, 0])

    def test_zero_raises(self):
        with pytest.raises(ZeroQuaternion):
            et.quat_normalize([0.0, 0.0, 0.0, 1e-13])

    @given(unit_quats)
    def test_canonical_sign(self, q):
        assert et.quat_normalize(q)[0] >= 0


class TestQuatLog:
    def test_identity_is_exact_zero(self):
        out = et.quat_log([1, 0, 0, 0])
        assert np.array_equal(out, np.zeros(3))

    def test_x_axis_rotation(self):
        q = [math.cos(math.pi / 6), math.sin(math.pi / 6), 0, 0]
        assert np.allclose(et.quat_log(q), [math.pi / 6, 0, 0], atol=1e-12)

    def test_half_turn(self):
        assert np.allclose(et.quat_log([0, 1, 0, 0]), [math.pi / 2, 0, 0], atol=1e-12)

    @given(unit_quats)
    @settings(max_examples=200)
    def test_matches_rotation_angle(self, q):
        q = et.quat_normalize(q)
        log = et.quat_log(q)
        assert np.linalg.norm(log) <= math.pi
        R = et.quat_to_rotmat(q)
        angle = math.acos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
        assert abs(2.0 * np.linalg.norm(log) - angle) < 1e-6


class TestRotmatConversions:
    def test_identity(self):
        assert np.allclose(et.quat_to_rotmat([1, 0, 0, 0]), np.eye(3))

    def test_90_about_z(self):
        # Oracle: axis-angle formula for a quarter turn.
        R = et.quat_to_rotmat([math.sqrt(0.5), 0, 0, math.sqrt(0.5)])
        expected = et.rotmat_from_axis_angle([0, 0, 1], math.pi / 2)
        assert np.allclose(R, expected, atol=1e-12)
        assert R[0, 1] == pytest.approx(-1.0)
        assert R[1, 0] == pytest.approx(1.0)

    def test_round_trip_1000_random(self, rng):
        worst = 0.0
        for _ in range(1000):
            q = et.quat_normalize(random_unit_quat(rng))
            q2 = et.rotmat_to_quat(et.quat_to_rotmat(q))
            worst = max(worst, np.max(np.abs(q2 - q)))
        assert worst <= 1e-9

    def test_sign_flip_same_matrix(self, rng):
        q = random_unit_quat(rng)
        assert np.allclose(et.quat_to_rotmat(q), et.quat_to_rotmat(-q), atol=1e-15)

    def test_against_scipy(self, rng):
        for _ in range(200):
            R = Rotation.random(random_state=int(rng.integers(1 << 31))).as_matrix()
            ours = et.rotmat_to_quat(R)
            x, y, z, w = Rotation.from_matrix(R).as_quat()
            ref = np.array([w, x, y, z])
            if ref[0] < 0:
                ref = -ref
            assert np.allclose(ours, ref, atol=1e-12)

    def test_not_a_rotation(self):
        with pytest.raises(NotARotation):
            et.rotmat_to_quat(np.diag([1.0, 1.0, 1.1]))

    def test_reflection_rejected(self):
        with pytest.raises(NotARotation):
            et.rotmat_to_quat(np.diag([1.0, 1.0, -1.0]))


class TestPoseAlgebra:
    def test_compose_identity(self, rng):
        p = random_pose(rng)
        out = et.pose_compose(et.identity_pose(), p)
        assert np.allclose(out.R, p.R, atol=1e-15)
        assert np.allclose(out.t, p.t, atol=1e-15)

    def test_compose_inverse_is_identity(self, rng):
        p = random_pose(rng)
        out = et.pose_compose(p, et.pose_inverse(p))
        assert np.allclose(out.R, np.eye(3), atol=1e-9)
        assert np.allclose(out.t, 0.0, atol=1e-9)

    def test_compose_matches_matrix_product(self, rng):
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            M = pose_as_matrix(a) @ pose_as_matrix(b)
            out = et.pose_compose(a, b)
            assert np.allclose(pose_as_matrix(out), M, atol=1e-12)

    def test_inverse_examples(self, rng):
        ident = et.identity_pose()
        inv = et.pose_inverse(ident)
        assert np.allclose(pose_as_matrix(inv), np.eye(4), atol=1e-15)
        p = random_pose(rng)
        back = et.pose_inverse(et.pose_inverse(p))
        assert np.allclose(back.R, p.R, atol=1e-12)
        assert np.allclose(back.t, p.t, atol=1e-12)

    def test_inverse_matches_numeric_inverse(self, rng):
        for _ in range(100):
            p = random_pose(rng)
            assert np.allclose(
                pose_as_matrix(et.pose_inverse(p)), np.linalg.inv(pose_as_matrix(p)), atol=1e-9
            )

    def test_relative_pose(self, rng):
        p = random_pose(rng)
        rel_self = et.relative_pose(p, p)
        assert np.allclose(pose_as_matrix(rel_self), np.eye(4), atol=1e-12)
        rel = et.relative_pose(et.identity_pose(), p)
        assert np.allclose(pose_as_matrix(rel), pose_as_matrix(p), atol=1e-15)

    def test_relative_then_compose_round_trip(self, rng):
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            again = et.pose_compose(a, et.relative_pose(a, b))
            assert np.allclose(again.R, b.R, atol=1e-9)
            assert np.allclose(again.t, b.t, atol=1e-9)

    def test_associativity(self, rng):
        for _ in range(100):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = et.pose_compose(et.pose_compose(a, b), c)
            right = et.pose_compose(a, et.pose_compose(b, c))
            assert np.allclose(left.R, right.R, atol=1e-9)
            assert np.allclose(left.t, right.t, atol=1e-9)

    def test_unit_propagates(self, rng):
        a = random_pose(rng, unit="cm")
        b = random_pose(rng, unit="cm")
        assert et.pose_compose(a, b).unit == "cm"
        assert et.pose_inverse(a).unit == "cm"

    def test_bad_shapes(self):
        with pytest.raises(ShapeMismatch):
            et.Pose(np.eye(4), np.zeros(3))
        with pytest.raises(ShapeMismatch):
            et.Pose(np.eye(3), np.zeros(4))


class TestOrthoDefect:
    """The drift test equals the plain expression bit for bit, NaN and inf included."""

    @staticmethod
    def plain(R):
        return np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max(axis=(-2, -1))

    def test_matches_plain_expression(self, rng):
        near = et.quat_to_rotmat(rng.standard_normal((40, 4)))
        special = rng.standard_normal((6, 3, 3))
        special[0, 1, 2] = np.nan
        special[1, 0, 0] = np.inf
        special[2, 2, 1] = -np.inf
        special[3] = np.nan
        special[4, 0] = [np.inf, -np.inf, 0.0]
        cases = [rng.standard_normal((50, 3, 3)), near + 1e-9 * rng.standard_normal(near.shape),
                 special, rng.standard_normal((2, 4, 3, 3)), rng.standard_normal((3, 3)),
                 np.eye(3), special[1]]
        with np.errstate(invalid="ignore"):
            for R in cases:
                before = R.copy()
                got = se3._ortho_defect(R)
                assert got.shape == R.shape[:-2]
                assert np.array_equal(got, self.plain(R), equal_nan=True)
                assert np.array_equal(R, before, equal_nan=True)
            defect = se3._ortho_defect(special)
        assert np.isnan(defect[[0, 3, 4]]).all() and np.isinf(defect[[1, 2]]).all()

    def test_shared_identity_is_read_only(self):
        assert not se3._EYE3.flags.writeable
        with pytest.raises(ValueError):
            se3._EYE3[0, 0] = 2.0
        a, b = et.identity_pose(), et.identity_pose()
        assert a.R.flags.writeable and a.R is not b.R and a.R is not se3._EYE3
        a.R[0, 0] = 2.0
        assert np.array_equal(b.R, np.eye(3)) and np.array_equal(et.identity_pose().R, np.eye(3))


class TestEuler:
    def test_identity(self):
        assert et.euler_from_rotmat(np.eye(3)) == (0.0, 0.0, 0.0)

    def test_pure_x_rotation(self):
        # Oracle: build the matrix from known angles and invert.
        R = rotmat_from_euler(math.pi / 6, 0.0, 0.0)
        rx, ry, rz = et.euler_from_rotmat(R)
        assert rx == pytest.approx(math.pi / 6, abs=1e-12)
        assert ry == pytest.approx(0.0, abs=1e-12)
        assert rz == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_away_from_lock(self, rng):
        for _ in range(300):
            angles = rng.uniform(-math.pi, math.pi, 3)
            angles[1] = rng.uniform(-1.4, 1.4)  # keep |ry| < pi/2
            R = rotmat_from_euler(*angles)
            R2 = rotmat_from_euler(*et.euler_from_rotmat(R))
            assert np.allclose(R, R2, atol=1e-9)

    def test_matches_scipy(self, rng):
        for _ in range(200):
            R = et.quat_to_rotmat(et.quat_normalize(random_unit_quat(rng)))
            if abs(R[2, 0]) > 1.0 - 1e-6:
                continue
            assert np.allclose(
                et.euler_from_rotmat(R), Rotation.from_matrix(R).as_euler("xyz"), atol=1e-9
            )

    def test_gimbal_lock_sets_rz_zero(self):
        for ry in (math.pi / 2, -math.pi / 2):
            R = rotmat_from_euler(0.3, ry, 0.7)
            rx, ry_out, rz = et.euler_from_rotmat(R)
            assert rz == 0.0
            assert np.allclose(rotmat_from_euler(rx, ry_out, rz), R, atol=1e-9)


class TestPoseVec:
    def test_round_trip(self, rng):
        for _ in range(200):
            p = random_pose(rng)
            v = et.pose_to_vec(p)
            back = et.pose_from_vec(v, unit=p.unit)
            assert np.array_equal(back.t, p.t)
            assert np.allclose(back.R, p.R, atol=1e-9)

    def test_quat_round_trip_up_to_sign(self, rng):
        for _ in range(200):
            q = et.quat_normalize(random_unit_quat(rng))
            v = et.pose_to_vec(et.Pose(et.quat_to_rotmat(q), np.zeros(3)))
            assert min(np.max(np.abs(v.q - q)), np.max(np.abs(v.q + q))) <= 1e-9


class TestOrthonormalize:
    def test_repairs_drifted_rotation(self, rng):
        R = et.quat_to_rotmat(et.quat_normalize(random_unit_quat(rng)))
        drifted = R + 1e-6 * rng.standard_normal((3, 3))
        fixed = et.orthonormalize(drifted)
        assert np.max(np.abs(fixed.T @ fixed - np.eye(3))) < 1e-12
        assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(fixed - R)) < 1e-5


def random_rotations(rng, n):
    return np.stack([et.quat_to_rotmat(et.quat_normalize(random_unit_quat(rng))) for _ in range(n)])


class TestBroadcasting:
    """A stack gives, row by row, exactly what single-pose calls give."""

    def test_unary_functions(self, rng):
        n = 60
        q = rng.standard_normal((n, 4))
        # Near-half-turns reach every branch of rotmat_to_quat.
        R = np.concatenate([random_rotations(rng, n),
                            np.stack([et.rotmat_from_axis_angle(a, 3.1)
                                      for a in rng.standard_normal((n, 3))])])
        axis, angle = rng.standard_normal((n, 3)), rng.uniform(-3, 3, n)
        axis[0] = 0.0
        cases = {
            "quat_normalize": (et.quat_normalize, q),
            "quat_to_rotmat": (et.quat_to_rotmat, q),
            "rotmat_to_quat": (et.rotmat_to_quat, R),
            "orthonormalize": (et.orthonormalize, R + 1e-6 * rng.standard_normal(R.shape)),
            "euler_from_rotmat": (lambda m: np.stack(et.euler_from_rotmat(m), axis=-1), R),
        }
        for name, (fn, x) in cases.items():
            stacked = fn(x)
            assert stacked.shape[0] == len(x), name
            assert np.array_equal(stacked, np.array([fn(row) for row in x])), name
        rodrigues = et.rotmat_from_axis_angle(axis, angle)
        assert np.array_equal(rodrigues, np.array([et.rotmat_from_axis_angle(a, g)
                                                   for a, g in zip(axis, angle)]))
        assert np.array_equal(rodrigues[0], np.eye(3))

    def test_vec_norm_matches_1d_norm(self, rng):
        for v in (rng.standard_normal((500, 3)), rng.standard_normal((500, 4)),
                  rng.standard_normal((500, 7))[:, 3:6]):
            assert np.array_equal(vec_norm(v), np.array([np.linalg.norm(row) for row in v]))

    def test_leading_axes_kept(self, rng):
        q = rng.standard_normal((2, 5, 4))
        R = et.quat_to_rotmat(et.quat_normalize(q))
        assert R.shape == (2, 5, 3, 3)
        assert et.rotmat_to_quat(R).shape == (2, 5, 4)
        assert np.array_equal(et.quat_normalize(q)[1, 3], et.quat_normalize(q[1, 3]))

    def test_pose_functions(self, rng):
        a = [random_pose(rng) for _ in range(30)]
        b = [random_pose(rng) for _ in range(30)]
        A = et.Pose(np.stack([p.R for p in a]), np.stack([p.t for p in a]))
        B = et.Pose(np.stack([p.R for p in b]), np.stack([p.t for p in b]))
        for fn, args in ((et.pose_compose, (A, B)), (et.relative_pose, (A, B)), (et.pose_inverse, (A,))):
            out = fn(*args)
            one = [fn(*(et.Pose(x.R[i], x.t[i]) for x in args)) for i in range(30)]
            assert np.array_equal(out.R, np.array([p.R for p in one])), fn.__name__
            assert np.array_equal(out.t, np.array([p.t for p in one])), fn.__name__
        vec = et.pose_to_vec(A)
        assert vec.t.shape == (30, 3) and vec.q.shape == (30, 4)
        back = et.pose_from_vec(vec)
        assert np.array_equal(back.R, np.array([et.pose_from_vec(et.pose_to_vec(p)).R for p in a]))

    def test_compose_repairs_only_drifted_rows(self, rng):
        R = random_rotations(rng, 4)
        drifted = R.copy()
        drifted[2] += 1e-6
        ident = et.Pose(np.broadcast_to(np.eye(3), R.shape), np.zeros((4, 3)))
        out = et.pose_compose(et.Pose(drifted, np.zeros((4, 3))), ident)
        for i in (0, 1, 3):
            assert np.array_equal(out.R[i], et.pose_compose(et.Pose(R[i], np.zeros(3)),
                                                            et.identity_pose()).R)
        assert np.array_equal(out.R[2], et.orthonormalize(drifted[2]))

    def test_zero_quaternion_index(self):
        q = np.ones((3, 4))
        q[1] = 0.0
        with pytest.raises(ZeroQuaternion) as info:
            et.quat_normalize(q)
        assert info.value.index == (1,)

    def test_check_rotation_rejects_any_bad_row(self, rng):
        R = random_rotations(rng, 5)
        et.check_rotation(R)
        R[3] = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NotARotation):
            et.check_rotation(R)
        et.check_rotation(np.zeros((0, 3, 3)))

    def test_mismatched_leading_axes(self):
        with pytest.raises(ShapeMismatch):
            et.Pose(np.zeros((2, 3, 3)), np.zeros((3, 3)))
        with pytest.raises(ShapeMismatch):
            et.PoseVec(np.zeros((2, 3)), np.zeros(4))
