"""Absolute-pose chaining, ground-truth rebasing, and synthetic trajectories.

Chained mode accumulates each estimated relative pose onto the previous
estimate, so per-step errors compound into drift.  Rebased mode composes
each estimate onto the ground-truth previous pose instead, isolating the
per-step relative error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch, ShapeMismatch, UnitMismatch
from .se3 import Pose, orthonormalize, pose_compose, relative_pose, rotmat_from_axis_angle

# Unconditional re-orthonormalization cadence for long chains.
RENORM_EVERY = 64
DEFAULT_STRIDE = 4


@dataclass(frozen=True)
class Trajectory:
    """Frame-indexed absolute poses with a fixed stride and length unit."""

    frames: tuple
    poses: tuple
    k: int = DEFAULT_STRIDE
    unit: str = "mm"

    def __post_init__(self):
        frames = tuple(int(f) for f in self.frames)
        poses = tuple(self.poses)
        if len(frames) != len(poses) or not poses:
            raise LengthMismatch(f"{len(frames)} frame indices vs {len(poses)} poses")
        if self.k < 1:
            raise ShapeMismatch(f"stride k must be >= 1, got {self.k}")
        for a, b in zip(frames, frames[1:]):
            if b - a != self.k:
                raise ShapeMismatch(f"frame indices must increase by k={self.k}: {a} -> {b}")
        for p in poses:
            if p.unit != self.unit:
                raise UnitMismatch(f"pose unit {p.unit!r} != trajectory unit {self.unit!r}")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "poses", poses)

    def __len__(self) -> int:
        return len(self.poses)

    def relatives(self) -> list[Pose]:
        """Exact relative poses between consecutive frames."""
        return [relative_pose(a, b) for a, b in zip(self.poses, self.poses[1:])]


@dataclass(frozen=True)
class NoiseSpec:
    """Per-step corruption of relative poses."""

    sigma_t: float = 0.0
    sigma_r: float = 0.0
    bias_t: np.ndarray = field(default_factory=lambda: np.zeros(3))
    seed: int = 0

    def __post_init__(self):
        if self.sigma_t < 0 or self.sigma_r < 0:
            raise ShapeMismatch("noise sigmas must be non-negative")
        bias = np.asarray(self.bias_t, dtype=float)
        if bias.shape != (3,) or not np.all(np.isfinite(bias)):
            raise ShapeMismatch(f"bias_t must be a finite 3-vector, got {bias}")
        object.__setattr__(self, "bias_t", bias)


def chain_absolute(p0: Pose, rels, k: int = DEFAULT_STRIDE, start: int = 0) -> Trajectory:
    """Accumulate relative poses from the initial pose: P_i = P_{i-1} * rel_i.

    Rotations are re-orthonormalized every RENORM_EVERY steps (plus the
    tolerance-triggered fix inside pose_compose) so thousand-step chains
    stay valid.
    """
    poses = [p0]
    cur = p0
    for i, rel in enumerate(rels, start=1):
        cur = pose_compose(cur, rel)
        if i % RENORM_EVERY == 0:
            cur = Pose(orthonormalize(cur.R), cur.t, cur.unit)
        poses.append(cur)
    frames = tuple(start + i * k for i in range(len(poses)))
    return Trajectory(frames, tuple(poses), k=k, unit=p0.unit)


def chain_rebased(gt: Trajectory, rels) -> Trajectory:
    """Compose each estimated relative onto the ground-truth previous pose.

    Per-step errors do not accumulate; the first pose is the ground truth
    initial pose.  Raises LengthMismatch unless len(rels) == len(gt) - 1.
    """
    rels = list(rels)
    if len(rels) != len(gt) - 1:
        raise LengthMismatch(f"{len(rels)} relatives for a {len(gt)}-pose trajectory")
    poses = [gt.poses[0]]
    for prev_gt, rel in zip(gt.poses, rels):
        poses.append(pose_compose(prev_gt, rel))
    return Trajectory(gt.frames, tuple(poses), k=gt.k, unit=gt.unit)


def synth_trajectory(n: int, smoothness: float = 1.0, seed: int = 0,
                     unit: str = "mm", k: int = DEFAULT_STRIDE) -> Trajectory:
    """Smooth random trajectory of n poses starting at the identity.

    Per-step translation directions follow momentum-filtered noise and step
    lengths are drawn from smoothness * U[0.25, 1), so every step length is
    bounded by ``smoothness``.  Small smoothed rotations accompany each
    step.  Deterministic per seed.
    """
    if n < 2:
        raise LengthMismatch(f"need at least 2 poses, got n={n}")
    rng = np.random.default_rng(seed)
    heading = rng.standard_normal(3)
    axis = rng.standard_normal(3)
    poses = [Pose(np.eye(3), np.zeros(3), unit)]
    for _ in range(n - 1):
        heading = 0.8 * heading + 0.2 * rng.standard_normal(3)
        direction = heading / max(np.linalg.norm(heading), 1e-12)
        step_t = smoothness * rng.uniform(0.25, 1.0) * direction
        axis = 0.8 * axis + 0.2 * rng.standard_normal(3)
        angle = abs(rng.normal(0.0, 0.03))
        step = Pose(rotmat_from_axis_angle(axis, angle), step_t, unit)
        poses.append(pose_compose(poses[-1], step))
    frames = tuple(i * k for i in range(n))
    return Trajectory(frames, tuple(poses), k=k, unit=unit)


def perturb_relatives(gt: Trajectory, spec: NoiseSpec) -> list[Pose]:
    """Exact relatives of gt, each corrupted per the noise spec.

    Translation gets bias_t plus isotropic Gaussian noise; the rotation is
    composed on the right with a random-axis rotation of angle
    |N(0, sigma_r^2)|.  Zero sigmas and bias return the exact relatives.
    """
    rng = np.random.default_rng(spec.seed)
    noisy = []
    for rel in gt.relatives():
        t = rel.t + spec.bias_t + spec.sigma_t * rng.standard_normal(3)
        axis = rng.standard_normal(3)
        angle = abs(rng.normal(0.0, spec.sigma_r)) if spec.sigma_r > 0 else 0.0
        R = rel.R @ rotmat_from_axis_angle(axis, angle)
        noisy.append(Pose(R, t, rel.unit))
    return noisy


def mean_step_length(traj: Trajectory) -> float:
    steps = [np.linalg.norm(rel.t) for rel in traj.relatives()]
    return float(np.mean(steps)) if steps else 0.0
