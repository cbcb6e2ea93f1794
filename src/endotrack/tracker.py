"""Absolute-pose chaining, ground-truth rebasing, and synthetic trajectories.

A ``Trajectory`` holds its poses as arrays and indexes as them: ``traj[i]``
is frame ``traj.frames[i]`` as a Pose and ``traj[a:b]`` the Trajectory of
those rows, so no caller works out a row's frame by hand.

Chained mode and synthesis run the one pose recurrence P_i = P_{i-1} * rel_i
(``_prefix``), so chained per-step errors compound into drift.  Rebased mode
composes each estimate onto the ground-truth previous pose instead, isolating
the per-step relative error.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import AlignmentError, LengthMismatch, ShapeMismatch, integer, same_unit
from .se3 import (Pose, _pose, identity_pose, orthonormalize, pose_compose, relative_pose,
                  rotmat_from_axis_angle, vec_norm)

# Unconditional re-orthonormalization cadence for long chains.
RENORM_EVERY = 64
DEFAULT_STRIDE = 4
# Rows per formatted, parsed or evaluated block.  Larger blocks raised the
# traj-10k benchmark's peak RSS (4096 rows: 60.4 MB against 55.5 MB); measure
# before raising it.
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Trajectory:
    """Absolute poses as arrays: ``R`` (N, 3, 3) and ``t`` (N, 3), with frame
    ``start + i * k`` at row i and one length unit for all rows.  ``frames``
    is that range; ``traj[i]`` is row i as a Pose and ``traj[a:b]`` the
    Trajectory of those rows."""

    R: np.ndarray
    t: np.ndarray
    k: int = DEFAULT_STRIDE
    unit: str = "mm"
    start: int = 0

    def __post_init__(self):
        R = np.ascontiguousarray(self.R, dtype=float)
        t = np.ascontiguousarray(self.t, dtype=float)
        if R.shape[1:] != (3, 3) or t.shape[1:] != (3,):
            raise ShapeMismatch(f"need R (N, 3, 3) and t (N, 3), got {R.shape} and {t.shape}")
        if len(R) != len(t):
            raise LengthMismatch(f"{len(R)} rotations vs {len(t)} translations")
        k, start = integer(self.k, "stride k", 1), integer(self.start, "start")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "start", start)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        """Row i as a Pose around views of R and t, built when it is read; a
        slice as the Trajectory of its rows at their own frames, so a step of
        s is stride k * s and a negative step raises ShapeMismatch."""
        if isinstance(i, slice):
            fr = self.frames[i]
            return Trajectory(self.R[i], self.t[i], fr.step, self.unit, fr.start)
        # An integer only: an array index would stack rows.
        i = operator.index(i)
        return _pose(self.R[i], self.t[i], self.unit)

    @property
    def frames(self) -> range:
        return range(self.start, self.start + len(self) * self.k, self.k)

    @property
    def poses(self) -> Trajectory:
        """The trajectory itself, which indexes as its poses; kept only for perfbench."""
        return self

    def relatives(self) -> Trajectory:
        """Exact relative poses between consecutive frames, indexed by the later frame."""
        rel = relative_pose(self[:-1], self[1:])
        return Trajectory(rel.R, rel.t, self.k, self.unit, self.start + self.k)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-step corruption of relative poses."""

    sigma_t: float = 0.0
    sigma_r: float = 0.0
    bias_t: np.ndarray = field(default_factory=lambda: np.zeros(3))
    seed: int = 0

    def __post_init__(self):
        if not all(np.isfinite(s) and s >= 0 for s in (self.sigma_t, self.sigma_r)):
            raise ShapeMismatch(f"noise sigmas must be finite and non-negative, got "
                                f"sigma_t={self.sigma_t}, sigma_r={self.sigma_r}")
        bias = np.asarray(self.bias_t, dtype=float)
        if bias.shape != (3,) or not np.all(np.isfinite(bias)):
            raise ShapeMismatch(f"bias_t must be a finite 3-vector, got {bias}")
        object.__setattr__(self, "bias_t", bias)


def check_frames(traj: Trajectory, name: str, start: int, k: int, n: int | None = None) -> None:
    """The one rule for when two trajectories' frames line up: AlignmentError,
    naming both first frames, strides and (when checked) counts, unless
    ``traj``'s rows are frames start, start + k, ... and, given ``n``, n rows."""
    if traj.start != start or traj.k != k or n is not None and len(traj) != n:
        have, want = (f"{len(traj)} poses ", f"{n} poses ") if n is not None else ("", "")
        raise AlignmentError(f"{name}: {have}from frame {traj.start} at stride {traj.k}, "
                             f"expected {want}from frame {start} at stride {k}")


def _prefix(p0: Pose, rel_R: np.ndarray, rel_t: np.ndarray, renorm_every: int = 0) -> tuple:
    """R (n+1, 3, 3) and t (n+1, 3): row 0 is p0, row i is pose_compose(row i-1, rel row i),
    re-orthonormalized when ``renorm_every and i % renorm_every == 0``; one unit, p0's."""
    R, t = np.empty((len(rel_R) + 1, 3, 3)), np.empty((len(rel_R) + 1, 3))
    R[0], t[0] = p0.R, p0.t
    cur = p0
    for i, (Ri, ti) in enumerate(zip(rel_R, rel_t), start=1):
        cur = pose_compose(cur, _pose(Ri, ti, p0.unit))
        if renorm_every and i % renorm_every == 0:
            cur = _pose(orthonormalize(cur.R), cur.t, cur.unit)
        R[i], t[i] = cur.R, cur.t
    return R, t


def chain_absolute(p0: Pose, rels: Trajectory, k: int | None = None) -> Trajectory:
    """Accumulate relative poses from the initial pose by ``_prefix``: P_i = P_{i-1} * rel_i.

    p0 is frame ``rels.start - rels.k`` and the rows follow at rels.k; a ``k``
    other than rels.k raises AlignmentError.  Rotations are re-orthonormalized
    every RENORM_EVERY steps (plus the tolerance-triggered fix inside
    pose_compose) so thousand-step chains stay valid.  Raises ShapeMismatch
    unless p0 is a single pose and UnitMismatch unless p0 and rels share a unit.
    """
    if p0.R.shape != (3, 3):
        raise ShapeMismatch(f"p0 must be a single pose, got R {p0.R.shape}")
    same_unit(p0, rels, "p0", "rels")
    if k is not None:
        check_frames(rels, "rels", rels.start, integer(k, "stride k", 1))
    R, t = _prefix(p0, rels.R, rels.t, RENORM_EVERY)
    return Trajectory(R, t, rels.k, p0.unit, rels.start - rels.k)


def chain_rebased(gt: Trajectory, rels: Trajectory) -> Trajectory:
    """Compose each estimated relative onto the ground-truth previous pose.

    Per-step errors do not accumulate; the first pose is the ground truth
    initial pose.  Raises UnitMismatch unless gt and rels share a unit,
    LengthMismatch for a gt without rows and AlignmentError unless rels hold
    the len(gt) - 1 frames after gt's first.
    """
    same_unit(gt, rels, "gt", "rels")
    if not len(gt):
        raise LengthMismatch(f"gt: need at least 1 pose, got {len(gt)}")
    check_frames(rels, "rels", gt.start + gt.k, gt.k, len(gt) - 1)
    R, t = gt.R.copy(), gt.t.copy()
    for i, (gt_R, gt_t, rel_R, rel_t) in enumerate(zip(gt.R, gt.t, rels.R, rels.t), start=1):
        step = pose_compose(_pose(gt_R, gt_t, gt.unit), _pose(rel_R, rel_t, rels.unit))
        R[i], t[i] = step.R, step.t
    return Trajectory(R, t, gt.k, gt.unit, gt.start)


def _momentum(prev: float, noise: float) -> float:
    return 0.8 * prev + 0.2 * noise


def synth_trajectory(n: int, smoothness: float = 1.0, seed: int = 0,
                     unit: str = "mm", k: int = DEFAULT_STRIDE) -> Trajectory:
    """Smooth random trajectory of n poses starting at the identity.

    Per-step translation directions follow momentum-filtered noise and step
    lengths are drawn from smoothness * U[0.25, 1), so every step length is
    bounded by ``smoothness``, which must be finite and positive.  Small
    smoothed rotations accompany each step.  Deterministic per seed: one
    stream seeded by ``seed`` draws the initial heading (3 normals) and axis
    (3 normals), then per step the heading noise (3 normals), the step length
    (one uniform), the axis noise (3 normals) and the angle (one normal).
    """
    if integer(n, "n") < 2:
        raise LengthMismatch(f"need at least 2 poses, got n={n}")
    if not (np.isfinite(smoothness) and smoothness > 0):
        raise ShapeMismatch(f"smoothness must be finite and positive, got {smoothness}")
    rng = np.random.default_rng(seed)
    # Row 0: the initial heading (columns 0-2) and axis (3-5); its column 6 is
    # never filled.  Row i: step i's heading noise, axis noise and angle normal.
    z, u = np.empty((n, 7)), np.empty(n - 1)
    flat = z.reshape(-1)
    rng.standard_normal(out=flat[:6])
    rng.standard_normal(out=flat[7:10])
    # Step i's axis and angle normals and step i+1's heading normals follow each
    # other in the stream and in flat, so each step is one uniform and one block.
    for i in range(1, n - 1):
        u[i - 1] = rng.random()
        rng.standard_normal(out=flat[7 * i + 3:7 * i + 10])
    u[n - 2] = rng.random()
    rng.standard_normal(out=flat[7 * n - 4:])
    # The momentum filter on Python floats rounds as float64 arrays do.
    for col in range(6):
        z[:, col] = list(accumulate(z[:, col].tolist(), _momentum))
    heading, axis = z[1:, :3], z[1:, 3:6]
    direction = heading / np.maximum(vec_norm(heading), 1e-12)[:, None]
    # rng.uniform(0.25, 1.0) is 0.25 + 0.75 * rng.random(), and rng.normal(0.0, 0.03)
    # is 0.0 + 0.03 * z: 0.03 * z up to the sign of a zero, which abs drops.
    step_t = (smoothness * (0.25 + 0.75 * u))[:, None] * direction
    step_R = rotmat_from_axis_angle(axis, np.abs(0.03 * z[1:, 6]))
    R, t = _prefix(identity_pose(unit), step_R, step_t)
    return Trajectory(R, t, k, unit)


def perturb_relatives(gt: Trajectory, spec: NoiseSpec) -> Trajectory:
    """Exact relatives of gt, each corrupted per the noise spec.

    Translation gets bias_t plus isotropic Gaussian noise; the rotation is
    composed on the right with a random-axis rotation of angle
    |N(0, sigma_r^2)|.  Zero sigmas and bias return the exact relatives.
    Each step draws its translation noise, then its axis, then (when
    sigma_r > 0) its angle from one stream seeded by ``spec.seed``.
    """
    rels = gt.relatives()
    rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal((len(rels), 7 if spec.sigma_r > 0 else 6))
    t = rels.t + spec.bias_t + spec.sigma_t * z[:, :3]
    angle = np.abs(spec.sigma_r * z[:, 6]) if spec.sigma_r > 0 else 0.0
    R = rels.R @ rotmat_from_axis_angle(z[:, 3:6], angle)
    return Trajectory(R, t, rels.k, rels.unit, rels.start)


def mean_step_length(traj: Trajectory) -> float:
    steps = vec_norm(traj.relatives().t)
    return float(np.mean(steps)) if steps.size else 0.0
