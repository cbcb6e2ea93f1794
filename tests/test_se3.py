import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import endotrack as et
from endotrack.errors import NotARotation, ShapeMismatch, UnitMismatch, ZeroQuaternion
from endotrack import se3
from endotrack.se3 import vec_norm

from helpers import random_pose, random_unit_quat, trajectory_of
from trajectory_oracle import pose_compose_reference


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

    # acos(cos h) cancels near the identity: at h = 1e-7 it is 4e-4 relative off.
    # abs=0, since pytest.approx's default absolute tolerance would pass that.
    @pytest.mark.parametrize("h", [1e-4, 1e-6, 1e-7])
    def test_small_angle_keeps_precision(self, h):
        assert et.quat_log([math.cos(h), math.sin(h), 0, 0])[0] == pytest.approx(h, rel=1e-15, abs=0)

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

    # Composing an mm pose with a cm pose used to add the cm offset as mm.
    @pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stacked"])
    def test_mixed_units_refused(self, stack):
        mm = et.Pose(np.broadcast_to(np.eye(3), stack + (3, 3)), np.ones(stack + (3,)), "mm")
        cm = et.Pose(np.eye(3), np.ones(3), "cm")
        with pytest.raises(UnitMismatch, match="a unit 'mm' vs b unit 'cm'"):
            et.pose_compose(mm, cm)
        with pytest.raises(UnitMismatch, match="a unit 'cm' vs b unit 'mm'"):
            et.pose_compose(cm, mm)
        with pytest.raises(UnitMismatch, match="p_prev unit 'mm' vs p_cur unit 'cm'"):
            et.relative_pose(mm, cm)

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


def assert_checked_pose(p, unit):
    """p holds what Pose(p.R, p.t, unit) would: float64 R (..., 3, 3) and t (..., 3)."""
    assert type(p) is et.Pose and p.unit == unit
    assert type(p.R) is np.ndarray and type(p.t) is np.ndarray
    assert p.R.dtype == np.float64 and p.t.dtype == np.float64
    assert p.R.shape[-2:] == (3, 3) and p.t.shape == p.R.shape[:-2] + (3,)
    again = et.Pose(p.R, p.t, unit)
    assert np.array_equal(again.R, p.R, equal_nan=True) and np.array_equal(again.t, p.t, equal_nan=True)


class TestComposeAgainstReference:
    """pose_compose's one whole-stack drift test equals the per-rotation test bit for bit."""

    @staticmethod
    def assert_same(a, b):
        with np.errstate(invalid="ignore"):
            got, want = et.pose_compose(a, b), pose_compose_reference(a, b)
        assert got.R.shape == want.R.shape and got.t.shape == want.t.shape
        assert np.array_equal(got.R, want.R, equal_nan=True)
        assert np.array_equal(got.t, want.t, equal_nan=True)
        assert got.unit == want.unit
        assert_checked_pose(got, a.unit)
        return got

    @staticmethod
    def scaled(rng, n, scale):
        """n rotations times (1 + scale): a drift of about 2 * scale each."""
        return random_rotations(rng, n) * (1.0 + scale)

    def test_single_and_stacked(self, rng):
        for _ in range(20):
            self.assert_same(random_pose(rng, unit="cm"), random_pose(rng, unit="cm"))
        A = et.Pose(random_rotations(rng, 30), rng.standard_normal((30, 3)))
        B = et.Pose(random_rotations(rng, 30), rng.standard_normal((30, 3)))
        self.assert_same(A, B)
        nested = et.Pose(random_rotations(rng, 6).reshape(2, 3, 3, 3), rng.standard_normal((2, 3, 3)))
        self.assert_same(nested, nested)

    def test_broadcasts_both_ways(self, rng):
        stack = et.Pose(self.scaled(rng, 8, 1e-7), rng.standard_normal((8, 3)))
        one = random_pose(rng)
        assert self.assert_same(stack, one).R.shape == (8, 3, 3)
        assert self.assert_same(one, stack).R.shape == (8, 3, 3)

    def test_drift_just_above_and_below_tolerance(self, rng):
        ident = et.identity_pose()
        above, below = 0.75 * se3.ORTHO_TOL, 0.25 * se3.ORTHO_TOL
        R = np.concatenate([self.scaled(rng, 3, above), self.scaled(rng, 3, below)])
        defect = se3._ortho_defect(R)
        assert (defect[:3] > se3.ORTHO_TOL).all() and (defect[3:] < se3.ORTHO_TOL).all()
        out = self.assert_same(et.Pose(R, np.zeros((6, 3))), ident)
        assert not np.array_equal(out.R[:3], R[:3]) and np.array_equal(out.R[3:], R[3:])
        # Every row below the tolerance: the whole-stack test alone decides.
        assert np.array_equal(self.assert_same(et.Pose(R[3:], np.zeros((3, 3))), ident).R, R[3:])
        for i in (0, 4):
            self.assert_same(et.Pose(R[i], np.zeros(3)), ident)

    def test_empty_stack(self):
        empty = et.Pose(np.zeros((0, 3, 3)), np.zeros((0, 3)))
        out = self.assert_same(empty, empty)
        assert out.R.shape == (0, 3, 3) and out.t.shape == (0, 3)

    def test_nan_row_left_unrepaired(self, rng):
        ident = et.identity_pose()
        R = self.scaled(rng, 4, 1e-7)
        R[1, 0, 2] = np.nan
        out = self.assert_same(et.Pose(R, np.zeros((4, 3))), ident)
        # The drifted rows beside the NaN row are still repaired.
        assert np.isnan(out.R[1]).any() and not np.isnan(out.R[[0, 2, 3]]).any()
        assert np.array_equal(out.R[[0, 2, 3]], et.orthonormalize(R[[0, 2, 3]]))
        self.assert_same(et.Pose(R[1], np.zeros(3)), ident)

    # Single poses take their own path (dot and a drift test on Python floats).

    @staticmethod
    def single(rng, t_decades=(-8, 8)):
        R = random_rotations(rng, 1)[0]
        return et.Pose(R, rng.standard_normal(3) * 10.0 ** rng.uniform(*t_decades))

    def test_single_pose_sweep(self, rng):
        # Every 10th left operand drifts by about 2e-8, so the repair runs too.
        for i in range(10_000):
            a, b = self.single(rng), self.single(rng)
            if i % 10 == 0:
                a = et.Pose(a.R * (1.0 + 1e-8 * rng.uniform(0.5, 1.5, 3)), a.t)
            self.assert_same(a, b)

    @staticmethod
    def column_scaled(R, col, s):
        out = R.copy()
        out[:, col] *= 1.0 + s
        return out

    def test_single_pose_drift_just_below_and_above_tolerance(self, rng):
        # One column scaled: R'R is diagonal, RR' is not.  Bisect the scale
        # until the largest residual sits within a few ulps of 1.0 on either side.
        ident = et.identity_pose()
        for col in range(3):
            Q = random_rotations(rng, 1)[0]
            lo, hi = 0.0, 1e-9
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                if se3._ortho_defect(self.column_scaled(Q, col, mid)) > se3.ORTHO_TOL:
                    hi = mid
                else:
                    lo = mid
            below, above = self.column_scaled(Q, col, lo), self.column_scaled(Q, col, hi)
            ulps = 4 * np.spacing(1.0)
            assert se3.ORTHO_TOL - ulps < se3._ortho_defect(below) <= se3.ORTHO_TOL
            assert se3.ORTHO_TOL < se3._ortho_defect(above) < se3.ORTHO_TOL + ulps
            kept = self.assert_same(et.Pose(below, np.zeros(3)), ident)
            repaired = self.assert_same(et.Pose(above, np.zeros(3)), ident)
            assert np.array_equal(kept.R, below)
            assert np.array_equal(repaired.R, et.orthonormalize(above))

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)])
    def test_single_pose_off_diagonal_drift(self, i, j, monkeypatch):
        # I + eps e_ij: R'R - I is exactly eps at (i, j) and (j, i), zero elsewhere.
        ident = et.identity_pose()
        tol = se3.ORTHO_TOL
        array_tests = []
        residual = se3._ortho_residual
        monkeypatch.setattr(se3, "_ortho_residual", lambda R: array_tests.append(1) or residual(R))
        for eps, repair in ((np.nextafter(tol, 0.0), False), (tol, False), (np.nextafter(tol, 1.0), True)):
            R = np.eye(3)
            R[i, j] = eps
            D = residual(R)
            assert D[i, j] == D[j, i] == eps and D.sum() == 2 * eps
            # Only a drift above the tolerance leaves the single-pose test for the array one.
            array_tests.clear()
            et.pose_compose(et.Pose(R, np.zeros(3)), ident)
            assert len(array_tests) == repair
            out = self.assert_same(et.Pose(R, np.zeros(3)), ident)
            assert np.array_equal(out.R, et.orthonormalize(R) if repair else R)

    def test_single_pose_transposed_and_read_only(self, rng):
        for drift in (0.0, 1e-7):
            a, b = self.single(rng), self.single(rng)
            Ra = np.ascontiguousarray(a.R.T * (1.0 + drift)).T
            Rb = b.R.T.copy().T
            ta, tb = a.t.copy(), rng.standard_normal(6)[::2]
            for x in (Rb, ta, tb):
                x.flags.writeable = False
            A, B = et.Pose(Ra, ta), et.Pose(Rb, tb)
            assert not A.R.flags.c_contiguous and not B.R.flags.c_contiguous and not B.t.flags.c_contiguous
            before = [x.copy() for x in (Ra, Rb, ta, tb)]
            for p, q in ((A, B), (B, A), (A, A), (B, B), (et.pose_inverse(A), B)):
                self.assert_same(p, q)
            assert all(np.array_equal(x, y) for x, y in zip((Ra, Rb, ta, tb), before))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_single_pose_non_finite(self, rng, bad):
        for field, index in (("R", (1, 2)), ("R", (0, 0)), ("t", (0,)), ("t", (2,))):
            a, b = self.single(rng), self.single(rng)
            arr = getattr(a, field).copy()
            arr[index] = bad
            broken = et.Pose(arr, a.t) if field == "R" else et.Pose(a.R, arr)
            for p, q in ((broken, b), (b, broken), (broken, broken)):
                self.assert_same(p, q)

    def test_stack_rows_equal_single_pose_calls(self, rng):
        n = 40
        R = random_rotations(rng, n)
        R[::4] *= 1.0 + 1e-7
        R[5, 1, 1] = np.nan
        A = et.Pose(R, rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-8, 8, (n, 1)))
        B = et.Pose(random_rotations(rng, n), rng.standard_normal((n, 3)))
        one = self.single(rng)
        with np.errstate(invalid="ignore"):
            for p, q in ((A, B), (A, one), (one, B)):
                out = et.pose_compose(p, q)
                for i in range(n):
                    left, right = (x if x is one else et.Pose(x.R[i], x.t[i]) for x in (p, q))
                    alone = et.pose_compose(left, right)
                    assert np.array_equal(out.R[i], alone.R, equal_nan=True)
                    assert np.array_equal(out.t[i], alone.t, equal_nan=True)


class TestUncheckedConstructor:
    """Poses built without __post_init__ hold what the checked constructor would build."""

    def test_compose_inverse_and_relative(self, rng):
        a, b = random_pose(rng, unit="cm"), random_pose(rng, unit="cm")
        for p in (et.pose_compose(a, b), et.relative_pose(a, b), et.pose_compose(a, et.pose_inverse(a))):
            assert_checked_pose(p, "cm")

    def test_trajectory_rows(self, rng):
        traj = trajectory_of([random_pose(rng, unit="cm") for _ in range(5)], k=2, start=4)
        assert len(traj) == 5
        for i, p in enumerate(traj):
            assert_checked_pose(p, "cm")
            assert np.array_equal(p.R, traj.R[i]) and np.array_equal(p.t, traj.t[i])

    def test_chains(self, rng):
        gt = et.synth_trajectory(70, seed=5, unit="cm", k=3)
        rels = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=0.01, sigma_r=0.01, seed=6))
        for traj in (et.chain_absolute(gt[0], rels, k=3), et.chain_rebased(gt, rels), gt):
            assert traj.R.flags.c_contiguous and traj.t.flags.c_contiguous
            for p in traj:
                assert_checked_pose(p, "cm")

    def test_public_pose_still_converts_and_checks(self):
        p = et.Pose(np.eye(3, dtype=np.int32), [1, 2, 3], "cm")
        assert_checked_pose(p, "cm")
        with pytest.raises(ShapeMismatch):
            et.Pose(np.eye(3)[:2], np.zeros(3))
        with pytest.raises(ShapeMismatch):
            et.Pose(np.eye(3), np.zeros((1, 3)))


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

    def test_rebuilds_near_gimbal_lock(self, rng):
        # Measured worst errors: 2.2e-16 outside the lock band and 2 cos(ry)
        # inside it for matrices built from the angles, 4e-8 across the
        # band's edge after a quaternion round trip.  The 1 - |R[2,0]| <= 1e-9
        # test took the lock branch up to cos(ry) = 4.5e-5 and erred by 6e-5.
        for d in [0.0, *10.0 ** rng.uniform(-17, -2, 400)]:
            rx, rz = rng.uniform(-math.pi, math.pi, 2)
            R = rotmat_from_euler(rx, rng.choice([-1.0, 1.0]) * (math.pi / 2 - d), rz)
            cy = math.hypot(R[2, 1], R[2, 2])
            err = np.abs(rotmat_from_euler(*et.euler_from_rotmat(R)) - R).max()
            assert err <= 1e-15 + (2.5 * cy if cy <= se3.LOCK_TOL else 0.0), (d, err)
            Rq = et.quat_to_rotmat(et.quat_normalize(et.rotmat_to_quat(R)))
            assert np.abs(rotmat_from_euler(*et.euler_from_rotmat(Rq)) - Rq).max() <= 1e-7, d

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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_comes_back_nan(self, rng, bad):
        # LAPACK's SVD does not return on some inf matrices, an inf at (0, 0) of a rotation among them.
        R = random_rotations(rng, 4)
        R[1, 0, 0] = bad
        R[3, 2, 1] = bad
        before = R.copy()
        out = et.orthonormalize(R)
        assert np.isnan(et.orthonormalize(R[1])).all()
        assert np.isnan(out[[1, 3]]).all()
        assert np.array_equal(out[[0, 2]], et.orthonormalize(R[[0, 2]]))
        assert np.array_equal(R, before, equal_nan=True)


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

    def test_single_quaternion_routes_same_bytes(self, rng):
        # One quaternion runs quat_normalize and quat_to_rotmat on Python
        # floats; each row of the stack route must come out byte for byte alike.
        h = math.sqrt(0.5)
        special = [[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                   [0, 0, -1, 0], [0, h, h, 0], [0, -h, 0, h], [-0.0, 1, -0.0, 0],
                   [1, -0.0, -0.0, -0.0], [-0.0, -0.0, -0.0, -1], [0.5, -0.5, -0.0, 0.5],
                   [-0.0, h, -h, -0.0], [2.0, -0.0, 0, 0], [np.nan, 0, 0, 1]]
        q = np.concatenate([np.array(special, dtype=float), rng.standard_normal((2000, 4))])
        for fn in (et.quat_normalize, et.quat_to_rotmat):
            stacked = fn(q)
            for i, row in enumerate(q):
                one = fn(row)
                assert one.dtype == stacked.dtype and one.shape == stacked.shape[1:], fn.__name__
                assert one.tobytes() == stacked[i].tobytes(), (fn.__name__, row)
        unit = et.quat_normalize(q[:-1])
        R = et.quat_to_rotmat(unit)
        for i, row in enumerate(unit):
            assert et.quat_to_rotmat(row).tobytes() == R[i].tobytes()

    def test_single_zero_quaternion_index(self):
        with pytest.raises(ZeroQuaternion, match="norm 0.0 too small") as info:
            et.quat_normalize([0.0, -0.0, 0.0, 0.0])
        assert info.value.index == ()

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
        with pytest.raises(NotARotation) as info:
            et.check_rotation(R)
        assert info.value.index == (3,)
        R[4, 0, 0] = np.nan
        with pytest.raises(NotARotation, match="by nan") as info:
            et.check_rotation(R)
        assert info.value.index == (4,)
        et.check_rotation(np.zeros((0, 3, 3)))

    def test_mismatched_leading_axes(self):
        with pytest.raises(ShapeMismatch):
            et.Pose(np.zeros((2, 3, 3)), np.zeros((3, 3)))
        with pytest.raises(ShapeMismatch):
            et.PoseVec(np.zeros((2, 3)), np.zeros(4))
