import math
import re

import numpy as np
import pytest

import endotrack as et
from endotrack import files, se3, tracker
from endotrack.errors import AlignmentError, LengthMismatch, ShapeMismatch, UnitMismatch

from helpers import random_pose, trajectory_of
from trajectory_oracle import chain_absolute_loop, chain_rebased_loop, synth_trajectory_loop


def ate_series(gt, est):
    return np.array([np.linalg.norm(g.t - e.t) for g, e in zip(gt.poses, est.poses)])


class TestTrajectoryType:
    def test_length_mismatch(self, rng):
        with pytest.raises(LengthMismatch):
            et.Trajectory(np.stack([np.eye(3)] * 2), np.zeros((1, 3)), k=4)

    def test_shapes_and_stride_checked(self):
        with pytest.raises(ShapeMismatch):
            et.Trajectory(np.eye(3), np.zeros(3))
        with pytest.raises(ShapeMismatch):
            et.Trajectory(np.zeros((2, 3, 3)), np.zeros((2, 4)))
        with pytest.raises(ShapeMismatch):
            et.Trajectory(np.zeros((2, 3, 3)), np.zeros((2, 3)), k=0)

    @pytest.mark.parametrize("field, value", [("k", True), ("k", False), ("k", 2.5), ("k", np.float64(4.0)),
                                              ("k", "4"), ("start", 0.5), ("start", True),
                                              ("start", np.True_), ("start", None)])
    def test_non_integer_stride_or_start_refused(self, field, value):
        name = "stride k" if field == "k" else "start"
        with pytest.raises(ShapeMismatch, match=re.escape(f"{name} must be an integer, got {value!r}")):
            et.Trajectory(np.stack([np.eye(3)] * 2), np.zeros((2, 3)), **{field: value})

    def test_numpy_integer_stride_and_start_taken_as_int(self):
        traj = et.Trajectory(np.stack([np.eye(3)] * 2), np.zeros((2, 3)), k=np.int64(3), start=np.uint8(6))
        assert type(traj.k) is int and type(traj.start) is int
        assert (traj.k, traj.start, traj.frames) == (3, 6, (6, 9))
        back = files.parse_trajectory(files.format_trajectory(traj))
        assert back.k == 3 and back.frames == traj.frames

    def test_stores_contiguous_float64(self, rng):
        R = np.stack([random_pose(rng).R for _ in range(4)]).transpose(0, 2, 1)
        traj = et.Trajectory(R, np.zeros((3, 4), dtype=np.float32).T, k=2, start=6)
        for a in (traj.R, traj.t):
            assert a.dtype == np.float64 and a.flags.c_contiguous
        assert traj.frames == (6, 8, 10, 12)
        assert np.array_equal(traj.poses[2].R, R[2]) and traj.poses[2].unit == "mm"

    def test_poses_built_on_access(self, rng, monkeypatch):
        traj = trajectory_of([random_pose(rng, unit="cm") for _ in range(4)], k=2)
        built = []
        monkeypatch.setattr(tracker, "_pose", lambda *a: built.append(a) or se3._pose(*a))
        poses = traj.poses
        first, last = poses[0], poses[-1]
        assert len(built) == 2 and len(poses) == 4
        assert np.array_equal(first.R, traj.R[0]) and np.array_equal(last.t, traj.t[3])
        assert first.unit == "cm" and np.shares_memory(first.R, traj.R)
        assert [p.t.tolist() for p in poses] == traj.t.tolist()
        assert [p.t.tolist() for p in poses[1::2]] == traj.t[1::2].tolist()
        assert isinstance(poses[:2], tuple) and poses[5:] == ()
        with pytest.raises(IndexError):
            poses[4]
        with pytest.raises(TypeError):
            poses[np.array([0, 1])]
        with pytest.raises(TypeError):
            poses[0] = first

    def test_relatives_indexed_by_later_frame(self, rng):
        poses = [random_pose(rng) for _ in range(3)]
        rels = trajectory_of(poses, k=2, start=10).relatives()
        assert rels.frames == (12, 14) and rels.k == 2
        for i, rel in enumerate(rels.poses):
            one = et.relative_pose(poses[i], poses[i + 1])
            assert np.array_equal(rel.R, one.R) and np.array_equal(rel.t, one.t)
        single = trajectory_of(poses[:1], start=10).relatives()
        assert len(single) == 0 and single.start == 14 and single.frames == ()


class TestChainAbsolute:
    def test_identity_relatives(self, rng):
        p0 = random_pose(rng)
        traj = et.chain_absolute(p0, trajectory_of([et.identity_pose()] * 5))
        assert len(traj) == 6
        for p in traj.poses:
            assert np.allclose(p.R, p0.R, atol=1e-15)
            assert np.allclose(p.t, p0.t, atol=1e-15)

    def test_single_relative(self, rng):
        p0, rel = random_pose(rng), random_pose(rng)
        traj = et.chain_absolute(p0, trajectory_of([rel]))
        expect = et.pose_compose(p0, rel)
        assert np.allclose(traj.poses[1].R, expect.R, atol=1e-15)
        assert np.allclose(traj.poses[1].t, expect.t, atol=1e-15)

    def test_exact_relatives_round_trip_1000_steps(self):
        gt = et.synth_trajectory(1001, smoothness=1.0, seed=11)
        est = et.chain_absolute(gt.poses[0], gt.relatives(), k=gt.k)
        errs = ate_series(gt, est)
        assert errs.max() <= 1e-7
        for g, e in zip(gt.poses[::100], est.poses[::100]):
            assert np.max(np.abs(g.R - e.R)) <= 1e-7

    def test_frames_and_unit(self, rng):
        p0 = random_pose(rng, unit="cm")
        traj = et.chain_absolute(p0, trajectory_of([random_pose(rng, unit="cm")] * 3, start=14), k=2)
        assert traj.frames == (10, 12, 14, 16)
        assert traj.unit == "cm"

    def test_default_frames_are_the_frames_rels_label(self):
        gt = et.synth_trajectory(5, k=1)
        p0 = et.Pose(gt.R[0], gt.t[0], gt.unit)
        assert et.chain_absolute(p0, gt.relatives()).frames == gt.frames == (0, 1, 2, 3, 4)
        rels = trajectory_of([et.identity_pose()] * 3, k=3, start=10)
        traj = et.chain_absolute(p0, rels)
        assert (traj.k, traj.frames) == (3, (7, 10, 13, 16))
        assert et.chain_absolute(p0, rels, k=2).frames == (7, 9, 11, 13)

    def test_mixed_units_refused(self, rng):
        rels = trajectory_of([random_pose(rng, unit="mm")] * 3)
        with pytest.raises(UnitMismatch, match="p0 unit 'cm' vs rels unit 'mm'"):
            et.chain_absolute(random_pose(rng, unit="cm"), rels)

    def test_stacked_start_pose_refused(self, rng):
        rels = trajectory_of([random_pose(rng)] * 3)
        for n in (1, 2, 4):
            p0 = et.Pose(np.broadcast_to(np.eye(3), (n, 3, 3)), np.zeros((n, 3)))
            with pytest.raises(ShapeMismatch, match=r"p0 must be a single pose, got R \(%d, 3, 3\)" % n):
                et.chain_absolute(p0, rels)


class TestChainRebased:
    def test_exact_relatives_reproduce_gt(self):
        gt = et.synth_trajectory(100, seed=3)
        est = et.chain_rebased(gt, gt.relatives())
        assert ate_series(gt, est).max() <= 1e-12

    def test_length_mismatch(self):
        gt = et.synth_trajectory(5, seed=0)
        with pytest.raises(AlignmentError):
            et.chain_rebased(gt, trajectory_of(gt.relatives().poses[:-1]))

    # Relatives at another stride, from another frame or of another count.
    @pytest.mark.parametrize("k, start, n, have", [
        (7, 4, 4, "4 poses from frame 4 at stride 7"),
        (4, 100, 4, "4 poses from frame 100 at stride 4"),
        (4, 4, 3, "3 poses from frame 4 at stride 4"),
    ])
    def test_misaligned_relatives_refused(self, k, start, n, have):
        gt = et.synth_trajectory(5, seed=0)
        exact = gt.relatives()
        rels = et.Trajectory(exact.R[:n], exact.t[:n], k, exact.unit, start)
        with pytest.raises(AlignmentError, match=f"rels: {have}, expected 4 poses from frame 4 at stride 4"):
            et.chain_rebased(gt, rels)

    def test_empty_gt_refused(self):
        empty = et.Trajectory(np.empty((0, 3, 3)), np.empty((0, 3)))
        with pytest.raises(LengthMismatch, match="gt: need at least 1 pose, got 0"):
            et.chain_rebased(empty, empty.relatives())

    def test_single_pose_gt_gives_itself(self):
        gt = et.synth_trajectory(2, seed=0)
        one = et.Trajectory(gt.R[:1], gt.t[:1], gt.k, gt.unit)
        est = et.chain_rebased(one, one.relatives())
        assert np.array_equal(est.R, one.R) and np.array_equal(est.t, one.t)

    def test_mixed_units_refused(self):
        gt = et.synth_trajectory(5, seed=0, unit="cm")
        exact = gt.relatives()
        rels = et.Trajectory(exact.R, exact.t, exact.k, "mm", exact.start)
        with pytest.raises(UnitMismatch, match="gt unit 'cm' vs rels unit 'mm'"):
            et.chain_rebased(gt, rels)

    def test_single_step_equals_chained(self, rng):
        gt = et.synth_trajectory(2, seed=8)
        rels = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=0.05, seed=1))
        rebased = et.chain_rebased(gt, rels)
        chained = et.chain_absolute(gt.poses[0], rels, k=gt.k)
        assert np.array_equal(rebased.poses[1].t, chained.poses[1].t)
        assert np.array_equal(rebased.poses[1].R, chained.poses[1].R)

    def test_no_drift_growth(self):
        gt = et.synth_trajectory(300, seed=5)
        sigma = 0.01 * et.mean_step_length(gt)
        rels = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=sigma, seed=6))
        chained = ate_series(gt, et.chain_absolute(gt.poses[0], rels, k=gt.k))[1:]
        rebased = ate_series(gt, et.chain_rebased(gt, rels))[1:]
        n = len(chained) // 10
        assert chained[-n:].mean() > 3.0 * chained[:n].mean()
        assert rebased[-n:].mean() <= 1.5 * rebased[:n].mean()


class TestSynth:
    def test_minimal(self):
        traj = et.synth_trajectory(2, seed=0)
        assert len(traj) == 2
        with pytest.raises(LengthMismatch):
            et.synth_trajectory(1, seed=0)

    def test_seed_reproducible(self):
        a = et.synth_trajectory(20, seed=42)
        b = et.synth_trajectory(20, seed=42)
        for p, q in zip(a.poses, b.poses):
            assert np.array_equal(p.R, q.R) and np.array_equal(p.t, q.t)

    def test_step_lengths_bounded_by_smoothness(self):
        for smoothness in (0.5, 2.0):
            traj = et.synth_trajectory(200, smoothness=smoothness, seed=9)
            steps = [np.linalg.norm(r.t) for r in traj.relatives().poses]
            assert max(steps) <= smoothness + 1e-9
            assert min(steps) > 0.0

    def test_poses_valid(self):
        traj = et.synth_trajectory(500, seed=13)
        for p in traj.poses[::50]:
            et.check_rotation(p.R, tol=1e-9)

    def test_starts_at_identity(self):
        traj = et.synth_trajectory(5, seed=1)
        assert np.array_equal(traj.poses[0].R, np.eye(3))
        assert np.array_equal(traj.poses[0].t, np.zeros(3))


class TestPerturb:
    def test_zero_noise_is_exact(self):
        gt = et.synth_trajectory(30, seed=2)
        exact = gt.relatives()
        noisy = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=0.0, sigma_r=0.0, seed=77))
        assert noisy.frames == exact.frames
        assert np.array_equal(exact.R, noisy.R)
        assert np.array_equal(exact.t, noisy.t)

    def test_deterministic(self):
        gt = et.synth_trajectory(30, seed=2)
        spec = et.NoiseSpec(sigma_t=0.1, sigma_r=0.01, seed=5)
        a = et.perturb_relatives(gt, spec)
        b = et.perturb_relatives(gt, spec)
        assert np.array_equal(a.R, b.R) and np.array_equal(a.t, b.t)

    def test_rte_magnitude_matches_chi3_mean(self):
        # |N(0, sigma^2 I_3)| has mean 2*sqrt(2/pi)*sigma.
        gt = et.synth_trajectory(4001, seed=21)
        sigma = 0.1
        noisy = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=sigma, seed=22))
        rtes = et.rte(gt.relatives(), noisy)
        expected = 2.0 * math.sqrt(2.0 / math.pi) * sigma
        assert np.mean(rtes) == pytest.approx(expected, rel=0.05)

    def test_bias_shifts_relatives(self):
        gt = et.synth_trajectory(50, seed=2)
        bias = np.array([0.3, 0.0, 0.0])
        noisy = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=0.0, bias_t=bias, seed=1))
        assert np.allclose(noisy.t - gt.relatives().t, bias, atol=1e-15)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ShapeMismatch):
            et.NoiseSpec(sigma_t=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        for name in ("sigma_t", "sigma_r"):
            with pytest.raises(ShapeMismatch, match=f"{name}={sigma}"):
                et.NoiseSpec(**{name: sigma})

    def test_matches_per_step_draws(self):
        # The stream order of one draw per step: t-noise, axis, then the angle.
        gt = et.synth_trajectory(30, seed=2)
        spec = et.NoiseSpec(sigma_t=0.1, sigma_r=0.01, bias_t=np.array([0.0, 0.2, 0.0]), seed=5)
        noisy = et.perturb_relatives(gt, spec)
        rng = np.random.default_rng(spec.seed)
        for rel, got in zip(gt.relatives().poses, noisy.poses):
            t = rel.t + spec.bias_t + spec.sigma_t * rng.standard_normal(3)
            axis = rng.standard_normal(3)
            angle = abs(rng.normal(0.0, spec.sigma_r))
            assert np.array_equal(got.t, t)
            assert np.array_equal(got.R, rel.R @ et.rotmat_from_axis_angle(axis, angle))


class TestRenormalization:
    def test_long_chain_rotations_stay_orthonormal(self):
        gt = et.synth_trajectory(2000, seed=17)
        est = et.chain_absolute(gt.poses[0], gt.relatives(), k=gt.k)
        worst = max(
            np.max(np.abs(p.R.T @ p.R - np.eye(3))) for p in est.poses[::100]
        )
        assert worst < 1e-9


def assert_same_bits(got, want):
    assert np.array_equal(got.R, want.R) and np.array_equal(got.t, want.t)
    assert (got.k, got.unit, got.start) == (want.k, want.unit, want.start)


class TestAgainstLoopOracle:
    """The batched synth and the row-indexed chains equal the per-step loops bit for bit."""

    # n = 65 and 1000 cross RENORM_EVERY = 64 in chain_absolute.
    @pytest.mark.parametrize("n", [2, 3, 65, 1000])
    @pytest.mark.parametrize("smoothness", [1e-3, 1.0, 1e3])
    def test_synth(self, n, smoothness):
        for seed in (0, 7, 2024):
            assert_same_bits(et.synth_trajectory(n, smoothness, seed, "cm", 3),
                             synth_trajectory_loop(n, smoothness, seed, "cm", 3))
        assert_same_bits(et.synth_trajectory(n, smoothness), synth_trajectory_loop(n, smoothness))

    @pytest.mark.parametrize("n", [2, 3, 65, 1000])
    def test_chains(self, rng, n):
        synth = et.synth_trajectory(n, seed=n, unit="cm")
        gt = et.Trajectory(synth.R, synth.t, k=3, unit="cm", start=6)
        for seed in (1, 2):
            rels = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=0.05, sigma_r=0.01, seed=seed))
            p0 = random_pose(rng, unit="cm")
            assert_same_bits(et.chain_absolute(p0, rels, k=3), chain_absolute_loop(p0, rels, k=3))
            assert_same_bits(et.chain_rebased(gt, rels), chain_rebased_loop(gt, rels))

    def test_chains_with_drift_repair(self, rng, monkeypatch):
        # Relatives 1e-6 off the rotation group: every compose re-orthonormalizes.
        gt = et.synth_trajectory(200, seed=4, unit="cm", k=3)
        exact = gt.relatives()
        rels = et.Trajectory(exact.R + 1e-6 * rng.standard_normal(exact.R.shape), exact.t,
                             exact.k, exact.unit, exact.start)
        repairs = []
        monkeypatch.setattr(se3, "orthonormalize", lambda R: repairs.append(1) or et.orthonormalize(R))
        p0 = gt.poses[0]
        got = et.chain_absolute(p0, rels, k=3), et.chain_rebased(gt, rels)
        assert len(repairs) == 2 * len(rels)
        want = chain_absolute_loop(p0, rels, k=3), chain_rebased_loop(gt, rels)
        assert len(repairs) == 4 * len(rels)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
