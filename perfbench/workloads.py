"""The benchmark's workloads: seeded inputs, one closed-loop step, output checks.

Every call into endotrack goes through a module attribute looked up at call
time (``pipeline.pipeline_forward``), so the traced run's wrappers see it.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from endotrack import decoder, files, metrics, pipeline, se3, tracker
# Bound once here, so output checks never go through the traced run's wrappers.
from endotrack.se3 import rotmat_to_quat

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Seed of the anchor inputs whose outputs reference.json records.
ANCHOR_SEED = 20250131
DECODER_CHANNELS = 12
# Chained-pose agreement with the recorded reference: |a - b| <= atol + rtol * |b|.
# The float32 chain differs from the float64 one on the same inputs by about
# 5e-7 over 16 frames, so 1e-5 admits any reordering of float32 arithmetic.
TRACK_TOL = {"float32": (1e-5, 1e-5), "float64": (1e-10, 1e-9)}
QUAT_UNIT_TOL = 1e-9
ZERO_NOISE_TOL = 1e-9
ROUND_TRIP_TOL = 1e-12
SUMMARY_TOL = 1e-9
NOISE = {"sigma_t": 0.01, "sigma_r": 0.002}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _pose_row(p) -> list[float]:
    return [float(v) for v in (*p.R.ravel(), *p.t)]


class FrameStream:
    """Distinct seeded frames made one at a time, as video arrives.

    Frame i is the current frame of pair i and the previous frame of pair
    i + 1; no frame's content repeats.
    """

    def __init__(self, seed: int, size: int, dtype):
        self.rng = np.random.default_rng(seed)
        self.size = size
        self.dtype = dtype
        self.prev = self._draw(3)

    def _draw(self, channels: int) -> np.ndarray:
        return self.rng.standard_normal((channels, self.size, self.size), dtype=self.dtype)

    def next_pair(self):
        cur = self._draw(3)
        flow = self._draw(2)
        prev, self.prev = self.prev, cur
        return prev, cur, flow


@dataclass(frozen=True)
class Track:
    """Frame pair -> pipeline -> decoder -> relative pose -> chained pose."""

    name: str
    size: int
    dtype: str
    warmup_frames: int = 3
    anchor_frames: int = 16

    def setup(self, seed: int) -> "TrackRun":
        return TrackRun(self, seed)


class TrackRun:
    def __init__(self, spec: Track, seed: int):
        self.spec = spec
        dtype = np.dtype(spec.dtype).type
        cfg = pipeline.PipelineConfig(height=spec.size, width=spec.size)
        self.params = pipeline.init_pipeline(cfg).astype(dtype)
        self.dec = decoder.decoder_init(cfg.fused_channels, DECODER_CHANNELS, seed=1).astype(dtype)
        self.att_labels = {id(self.params.att1): "att1", id(self.params.att2): "att2"}
        self.pose = se3.identity_pose()
        warm = FrameStream(seed + 1_000_003, spec.size, dtype)
        for _ in range(spec.warmup_frames):
            self.step(warm.next_pair())
        self.pose = se3.identity_pose()
        self.stream = FrameStream(seed, spec.size, dtype)

    def next_input(self):
        return self.stream.next_pair()

    def step(self, pair):
        """Timed: one frame pair in, the running pose chained onto.

        Only the running pose is kept, so memory does not grow with the
        number of frames a run completes.
        """
        prev, cur, flow = pair
        fused = pipeline.pipeline_forward(prev, cur, flow, self.params)
        vec = decoder.decoder_forward(fused, self.dec)
        self.pose = se3.pose_compose(self.pose, se3.pose_from_vec(vec))
        return vec

    def stages(self, vec):
        """A frame step is timed as a whole."""
        return None

    def check(self, vec) -> bool:
        return bool(np.all(np.isfinite(vec.t)) and np.all(np.isfinite(vec.q))
                    and abs(np.linalg.norm(vec.q) - 1.0) <= QUAT_UNIT_TOL
                    and np.all(np.isfinite(self.pose.R)) and np.all(np.isfinite(self.pose.t)))

    def poses_per_s(self, times: list[float]) -> float:
        """Frames completed per second of timed wall time (one pose per frame)."""
        return len(times) / sum(times)

    def anchor_rows(self) -> list[list[float]]:
        """Chained poses of the fixed anchor stream, through the same step."""
        saved = self.pose
        self.pose = se3.identity_pose()
        stream = FrameStream(ANCHOR_SEED, self.spec.size, np.dtype(self.spec.dtype).type)
        rows = []
        try:
            for _ in range(self.spec.anchor_frames):
                self.step(stream.next_pair())
                rows.append(_pose_row(self.pose))
            return rows
        finally:
            self.pose = saved

    def final_checks(self, reference: dict) -> list[bool]:
        """One verdict per anchor frame: its chained pose matches the reference."""
        ref = reference.get(self.spec.name)
        if ref is None:
            return [False]
        atol, rtol = TRACK_TOL[self.spec.dtype]
        got = np.asarray(self.anchor_rows())
        want = np.asarray(ref)
        if got.shape != want.shape:
            return [False] * len(want)
        return [bool(ok) for ok in np.all(np.abs(got - want) <= atol + rtol * np.abs(want), axis=1)]


@dataclass(frozen=True)
class Traj:
    """Offline pass: synth -> perturb -> chain -> rebase -> format -> parse -> evaluate."""

    name: str
    n_poses: int
    warmup_poses: int = 200
    anchor_poses: int = 2000

    def setup(self, seed: int) -> "TrajRun":
        return TrajRun(self, seed)


@dataclass
class PassOutput:
    est: object
    rebased: object
    parsed: object
    summary: dict
    stage_s: list  # seconds of each stage, in pass order


def trajectory_pass(n: int, seed: int) -> PassOutput:
    marks = [time.perf_counter()]

    def mark(value):
        marks.append(time.perf_counter())
        return value

    gt = mark(tracker.synth_trajectory(n, seed=seed))
    rels = mark(tracker.perturb_relatives(gt, tracker.NoiseSpec(seed=seed + 1, **NOISE)))
    est = mark(tracker.chain_absolute(gt.poses[0], rels, k=gt.k))
    rebased = mark(tracker.chain_rebased(gt, rels))
    text = mark(files.format_trajectory(est))
    parsed = mark(files.parse_trajectory(text))
    summary = mark(metrics.evaluate(gt, parsed).summary())
    return PassOutput(est, rebased, parsed, summary, np.diff(marks).tolist())


def _stack(traj) -> tuple[np.ndarray, np.ndarray]:
    return np.stack([p.R for p in traj.poses]), np.stack([p.t for p in traj.poses])


def _finite(traj) -> bool:
    r, t = _stack(traj)
    return bool(np.all(np.isfinite(r)) and np.all(np.isfinite(t)))


def _max_diff(a, b) -> float:
    (ra, ta), (rb, tb) = _stack(a), _stack(b)
    return float(max(np.max(np.abs(ra - rb)), np.max(np.abs(ta - tb))))


def _unit_quats(traj) -> np.ndarray:
    q = np.stack([rotmat_to_quat(p.R) for p in traj.poses])
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _vec_diff(a, b) -> float:
    """Largest difference in t and in the unit quaternion: what a trajectory file stores.

    A chained R is off the rotation group by up to the re-orthonormalization
    tolerance, so its quaternion's norm is off 1 by as much; parsing
    normalizes it, and the comparison does the same.
    """
    (_, ta), (_, tb) = _stack(a), _stack(b)
    return float(max(np.max(np.abs(ta - tb)), np.max(np.abs(_unit_quats(a) - _unit_quats(b)))))


def summary_rows(summary: dict) -> list[list[float]]:
    return [list(summary[name]) for name in ("ate", "ce", "de", "rte", "rot")]


class TrajRun:
    def __init__(self, spec: Traj, seed: int):
        self.spec = spec
        self.att_labels: dict = {}
        self.seed = seed
        self.passes = 0
        trajectory_pass(spec.warmup_poses, seed + 1_000_003)

    def next_input(self) -> int:
        """A fresh seed per pass; a full collection keeps earlier passes' garbage out."""
        gc.collect()
        pass_seed = int(np.random.default_rng([self.seed, self.passes]).integers(2**31))
        self.passes += 1
        return pass_seed

    def step(self, pass_seed: int) -> PassOutput:
        """Timed: one whole pass at n poses."""
        return trajectory_pass(self.spec.n_poses, pass_seed)

    def stages(self, out: PassOutput) -> list:
        return out.stage_s

    def check(self, out: PassOutput) -> bool:
        return bool(np.all(np.isfinite(summary_rows(out.summary)))
                    and _finite(out.est) and _finite(out.rebased)
                    and _vec_diff(out.est, out.parsed) <= ROUND_TRIP_TOL)

    def final_checks(self, reference: dict) -> list[bool]:
        """Zero-noise chain reproduces ground truth; the anchor summary matches."""
        gt = tracker.synth_trajectory(self.spec.n_poses, seed=self.seed)
        zero = tracker.chain_absolute(gt.poses[0], gt.relatives(), k=gt.k)
        ok_chain = _max_diff(gt, zero) <= ZERO_NOISE_TOL
        ref = reference.get(self.spec.name)
        if ref is None:
            return [ok_chain, False]
        got = np.array(self.anchor_rows())
        want = np.array(ref)
        ok_anchor = bool(got.shape == want.shape and np.all(
            np.abs(got - want) <= SUMMARY_TOL * np.maximum(1.0, np.abs(want))))
        return [ok_chain, ok_anchor]

    def anchor_rows(self) -> list[list[float]]:
        """Metric summary of the fixed anchor pass."""
        return summary_rows(trajectory_pass(self.spec.anchor_poses, ANCHOR_SEED).summary)

    def poses_per_s(self, times: list[float]) -> float:
        """Poses per second of the median pass: few passes fit in a run."""
        return self.spec.n_poses / statistics.median(times)


WORKLOADS = {
    "track-64-f32": Track("track-64-f32", 64, "float32"),
    "track-256-f64": Track("track-256-f64", 256, "float64", anchor_frames=4),
    "traj-10k": Traj("traj-10k", 10_000),
}
# Tiny versions for the benchmark's own tests; reference.json records them too.
TINY = {
    "track-16-f32": Track("track-16-f32", 16, "float32", warmup_frames=1, anchor_frames=4),
    "track-16-f64": Track("track-16-f64", 16, "float64", warmup_frames=1, anchor_frames=4),
    "traj-60": Traj("traj-60", 60, warmup_poses=10, anchor_poses=40),
}
