"""Metric tests; oracles are scalar re-derivations written here plus scipy
for the Euler decomposition and the rotation angle, never the package's own
code path."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import endotrack as et
from endotrack.errors import AlignmentError, LengthMismatch, UnitMismatch
from endotrack.files import BLOCK_ROWS

from helpers import random_pose, trajectory_of


def pose_matrix(p):
    M = np.eye(4)
    M[:3, :3] = p.R
    M[:3, 3] = p.t
    return M


def oracle_ate(gt, est):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(gt.t, est.t)))


def oracle_ce(gt, est):
    eg = Rotation.from_matrix(gt.R).as_euler("xyz")
    ee = Rotation.from_matrix(est.R).as_euler("xyz")
    return sum((1.0 - math.cos(a - b)) / 3.0 for a, b in zip(eg, ee))


def oracle_de(gt, est):
    u = [gt.R[i][0] for i in range(3)]
    v = [est.R[i][0] for i in range(3)]
    cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    dot = sum(a * b for a, b in zip(u, v))
    return math.degrees(math.atan2(math.sqrt(sum(c * c for c in cross)), dot))


def oracle_rte(gt_rel, est_rel):
    err = np.linalg.inv(pose_matrix(gt_rel)) @ pose_matrix(est_rel)
    return math.sqrt(sum(err[i, 3] ** 2 for i in range(3)))


def oracle_rot(gt_rel, est_rel):
    err = np.linalg.inv(pose_matrix(gt_rel)) @ pose_matrix(est_rel)
    return math.degrees(Rotation.from_matrix(err[:3, :3]).magnitude())


ORACLES = {"ate": oracle_ate, "ce": oracle_ce, "de": oracle_de, "rte": oracle_rte, "rot": oracle_rot}
METRICS = {"ate": et.ate, "ce": et.ce, "de": et.de, "rte": et.rte, "rot": et.rot}


class TestExamples:
    def test_all_zero_on_identical(self, rng):
        p = random_pose(rng)
        for name, fn in METRICS.items():
            assert fn(p, p) == pytest.approx(0.0, abs=1e-6), name

    def test_ate_3_4_5(self):
        gt = et.Pose(np.eye(3), np.zeros(3))
        est = et.Pose(np.eye(3), np.array([3.0, 4.0, 0.0]))
        assert et.ate(gt, est) == 5.0

    def test_ce_half_turn_about_x(self):
        gt = et.identity_pose()
        est = et.Pose(et.rotmat_from_axis_angle([1, 0, 0], math.pi), np.zeros(3))
        assert et.ce(gt, est) == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("d", [1e-6, 1e-8])
    def test_ce_small_angle_keeps_precision(self, d):
        # 1 - cos(d) cancels here: it read 0 at 1e-8 rad.  The bound is a few ulps.
        est = et.Pose(et.rotmat_from_axis_angle([1, 0, 0], d), np.zeros(3))
        assert et.ce(et.identity_pose(), est) == pytest.approx((d**2 / 2 - d**4 / 24) / 3, rel=1e-15, abs=0)

    def test_de_90_about_z(self):
        gt = et.identity_pose()
        est = et.Pose(et.rotmat_from_axis_angle([0, 0, 1], math.pi / 2), np.zeros(3))
        assert et.de(gt, est) == pytest.approx(90.0, abs=1e-9)

    def test_de_x_axis_rotation_invisible(self):
        gt = et.identity_pose()
        est = et.Pose(et.rotmat_from_axis_angle([1, 0, 0], 1.234), np.zeros(3))
        assert et.de(gt, est) == pytest.approx(0.0, abs=1e-6)

    def test_rte_pure_translation(self):
        gt_rel = et.identity_pose()
        est_rel = et.Pose(np.eye(3), np.array([0.0, 0.0, 2.0]))
        assert et.rte(gt_rel, est_rel) == 2.0

    def test_rot_90_any_axis(self, rng):
        for _ in range(20):
            axis = rng.standard_normal(3)
            gt_rel = random_pose(rng)
            err = et.Pose(et.rotmat_from_axis_angle(axis, math.pi / 2), np.zeros(3))
            est_rel = et.pose_compose(gt_rel, err)
            assert et.rot(gt_rel, est_rel) == pytest.approx(90.0, abs=1e-6)

    def test_rot_180(self):
        gt_rel = et.identity_pose()
        est_rel = et.Pose(et.rotmat_from_axis_angle([0, 1, 0], math.pi), np.zeros(3))
        assert et.rot(gt_rel, est_rel) == pytest.approx(180.0, abs=1e-6)

    def test_unit_mismatch(self, rng):
        a = random_pose(rng, unit="mm")
        b = random_pose(rng, unit="cm")
        with pytest.raises(UnitMismatch):
            et.ate(a, b)
        with pytest.raises(UnitMismatch):
            et.rte(a, b)


class TestOracleEquivalence:
    def test_1000_random_pairs(self, rng):
        for _ in range(1000):
            gt, est = random_pose(rng), random_pose(rng)
            for name in ORACLES:
                ours = METRICS[name](gt, est)
                ref = ORACLES[name](gt, est)
                assert abs(ours - ref) <= 1e-9, f"{name}: {ours} vs {ref}"


class TestStacks:
    def test_stack_equals_per_pose_calls(self, rng):
        gt = trajectory_of([random_pose(rng) for _ in range(40)])
        est = trajectory_of([random_pose(rng) for _ in range(40)])
        for name, fn in METRICS.items():
            stacked = fn(gt, est)
            assert stacked.shape == (40,), name
            one = np.array([fn(g, e) for g, e in zip(gt.poses, est.poses)])
            assert np.array_equal(stacked, one), name

    def test_empty_stacks(self):
        empty = et.synth_trajectory(2, seed=0).relatives().relatives()
        for name, fn in METRICS.items():
            assert fn(empty, empty).shape == (0,), name


class TestSymmetries:
    def test_swap_symmetry(self, rng):
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            for name in ("ate", "ce", "de", "rte", "rot"):
                assert METRICS[name](a, b) == pytest.approx(METRICS[name](b, a), abs=1e-9), name

    def test_rot_axis_invariance(self, rng):
        angle = 0.7
        base = random_pose(rng)
        values = []
        for _ in range(50):
            err = et.Pose(et.rotmat_from_axis_angle(rng.standard_normal(3), angle), np.zeros(3))
            values.append(et.rot(base, et.pose_compose(base, err)))
        assert max(values) - min(values) <= 1e-9
        assert values[0] == pytest.approx(math.degrees(angle), abs=1e-9)

    def test_de_world_rotation_invariance(self, rng):
        # A shared world-frame rotation of both poses leaves DE unchanged.
        for _ in range(50):
            gt, est = random_pose(rng), random_pose(rng)
            world = et.Pose(et.rotmat_from_axis_angle(rng.standard_normal(3), rng.uniform(0, 3)), np.zeros(3))
            base = et.de(gt, est)
            rotated = et.de(et.pose_compose(world, gt), et.pose_compose(world, est))
            assert rotated == pytest.approx(base, abs=1e-8)


class TestEvaluate:
    def test_equal_trajectories_zero(self):
        tol = {"ate": 1e-12, "ce": 1e-12, "de": 1e-12, "rte": 1e-12, "rot": 1e-12}
        gt = et.synth_trajectory(20, seed=3)
        rep = et.evaluate(gt, gt)
        for name, (mean, std) in rep.summary().items():
            assert mean == pytest.approx(0.0, abs=tol[name]), name
            assert std == pytest.approx(0.0, abs=tol[name]), name

    def test_single_frame_trajectory(self, rng):
        p = random_pose(rng)
        traj = trajectory_of([p])
        rep = et.evaluate(traj, traj)
        assert rep.rte.size == 0 and rep.rot.size == 0
        assert rep.summary()["rte"] == (0.0, 0.0)
        text = rep.to_text()
        assert "mean±std" in text

    def test_empty_gt_refused(self):
        empty = et.Trajectory(np.empty((0, 3, 3)), np.empty((0, 3)))
        with pytest.raises(LengthMismatch, match="gt: need at least 1 pose, got 0"):
            et.evaluate(empty, empty)

    def test_mismatches(self, rng):
        gt = et.synth_trajectory(5, seed=1, unit="mm")
        est_cm = et.synth_trajectory(5, seed=1, unit="cm")
        with pytest.raises(UnitMismatch):
            et.evaluate(gt, est_cm)
        est_k2 = et.synth_trajectory(5, seed=1, k=2)
        with pytest.raises(AlignmentError):
            et.evaluate(gt, est_k2)

    @pytest.mark.parametrize("k, start, n, have", [
        (7, 0, 5, "5 poses from frame 0 at stride 7"),
        (4, 100, 5, "5 poses from frame 100 at stride 4"),
        (4, 0, 4, "4 poses from frame 0 at stride 4"),
    ])
    def test_misaligned_estimate_names_both_frames(self, k, start, n, have):
        gt = et.synth_trajectory(5, seed=1)
        est = et.Trajectory(gt.R[:n], gt.t[:n], k, gt.unit, start)
        with pytest.raises(AlignmentError, match=f"est: {have}, expected 5 poses from frame 0 at stride 4"):
            et.evaluate(gt, est)

    def test_noisy_run_matches_scalar_oracles(self):
        gt = et.synth_trajectory(50, seed=9)
        rels = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=0.05, sigma_r=0.01, seed=10))
        est = et.chain_absolute(gt.poses[0], rels, k=gt.k)
        rep = et.evaluate(gt, est)
        for i, (g, e) in enumerate(zip(gt.poses, est.poses)):
            assert rep.ate[i] == pytest.approx(oracle_ate(g, e), abs=1e-9)
            assert rep.ce[i] == pytest.approx(oracle_ce(g, e), abs=1e-9)
            assert rep.de[i] == pytest.approx(oracle_de(g, e), abs=1e-9)
        for i, (g, e) in enumerate(zip(gt.relatives().poses, est.relatives().poses)):
            assert rep.rte[i] == pytest.approx(oracle_rte(g, e), abs=1e-9)
            assert rep.rot[i] == pytest.approx(oracle_rot(g, e), abs=1e-9)

    def test_population_std(self):
        gt = et.synth_trajectory(30, seed=4)
        rels = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=0.05, seed=5))
        est = et.chain_absolute(gt.poses[0], rels, k=gt.k)
        rep = et.evaluate(gt, est)
        mean, std = rep.summary()["ate"]
        assert std == pytest.approx(float(np.std(rep.ate, ddof=0)), abs=1e-15)

    def test_report_ranges(self):
        gt = et.synth_trajectory(40, seed=6)
        rels = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=0.2, sigma_r=0.2, seed=7))
        est = et.chain_absolute(gt.poses[0], rels, k=gt.k)
        rep = et.evaluate(gt, est)
        assert np.all((rep.de >= 0.0) & (rep.de <= 180.0))
        assert np.all((rep.rot >= 0.0) & (rep.rot <= 180.0))
        assert np.all((rep.ce >= 0.0) & (rep.ce <= 2.0))
        assert np.all(np.isfinite(rep.ate))

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    def test_blocks_match_whole_arrays(self, n):
        """Each series equals the metric called on whole arrays, and the
        streamed text equals the report laid out one line per frame."""
        gt = et.synth_trajectory(n, seed=n)
        rels = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=0.01, sigma_r=0.002, seed=1))
        est = et.chain_absolute(gt.poses[0], rels, k=gt.k)
        rep = et.evaluate(gt, est)
        gt_rels, est_rels = gt.relatives(), est.relatives()
        whole = {"ate": et.ate(gt, est), "ce": et.ce(gt, est), "de": et.de(gt, est),
                 "rte": et.rte(gt_rels, est_rels), "rot": et.rot(gt_rels, est_rels)}
        for name, series in whole.items():
            assert np.array_equal(getattr(rep, name), series), name
        lines = [f"# unit=mm frames={n}", "frame ate ce de rte rot"]
        for i, frame in enumerate(gt.frames):
            rel = f"{rep.rte[i - 1]:.6g} {rep.rot[i - 1]:.6g}" if i > 0 else "- -"
            lines.append(f"{frame} {rep.ate[i]:.6g} {rep.ce[i]:.6g} {rep.de[i]:.6g} {rel}")
        chunks = list(rep.chunks())
        assert len(chunks) == 2 + -(-n // BLOCK_ROWS)
        assert "".join(chunks) == rep.to_text() + "\n"
        assert rep.to_text().splitlines()[:n + 2] == lines

    def test_peak_against_inputs(self):
        # Measured 0.355x the four input arrays; bound 0.5x.  Evaluating
        # whole arrays at once took 2.35x.
        gt = et.synth_trajectory(20_000, seed=1)
        rels = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=0.01, sigma_r=0.002, seed=2))
        est = et.chain_absolute(gt.poses[0], rels, k=gt.k)
        inputs = sum(a.nbytes for a in (gt.R, gt.t, est.R, est.t))
        tracemalloc.start()
        try:
            et.evaluate(gt, est)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * inputs

    def test_to_text_layout(self):
        gt = et.synth_trajectory(4, seed=2)
        text = et.evaluate(gt, gt).to_text()
        lines = text.splitlines()
        assert lines[1] == "frame ate ce de rte rot"
        assert lines[2].startswith("0 ") and "- -" in lines[2]
        assert any(line.strip().startswith("ate") and "±" in line for line in lines)
