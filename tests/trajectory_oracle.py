"""Per-step references for the trajectory loops and the pose composition.

``synth_trajectory_loop`` draws, filters, normalizes and composes one step at
a time; ``chain_absolute_loop`` and ``chain_rebased_loop`` compose the
per-pose ``Trajectory.poses`` views.  endotrack.tracker batches everything
but the compose recurrence and reads array rows; tests require equal bits.
``pose_compose_reference`` keeps the plain ``@``/``matvec`` arithmetic, tests
every rotation's drift on its own and builds a checked ``Pose``;
``se3.pose_compose`` must equal it bit for bit.  The loops compose through it,
so a fault in ``se3.pose_compose`` cannot move both sides of a comparison.
``parse_lines`` reads a trajectory file's text one line at a time, checking
each line in order; ``files.parse_trajectory`` reads it in blocks and must
give the same arrays, labels and errors.  ``read_lines`` decodes a whole
file, then reads it as ``parse_lines`` does; ``files.read_trajectory``, which
decodes a block at a time, must agree with it.
"""

from pathlib import Path

import numpy as np

from endotrack import se3
from endotrack.errors import TrajectoryParseError, ZeroQuaternion, plain
from endotrack.files import POSE_BOUND, _beyond_bound, _parse_header
from endotrack.se3 import (ORTHO_TOL, Pose, PoseVec, _ortho_defect, identity_pose, orthonormalize,
                           pose_from_vec, rotmat_from_axis_angle)
from endotrack.tracker import DEFAULT_STRIDE, RENORM_EVERY, Trajectory


def pose_compose_reference(a: Pose, b: Pose) -> Pose:
    R = a.R @ b.R
    t = np.matvec(a.R, b.t) + a.t
    drifted = _ortho_defect(R) > ORTHO_TOL
    if drifted.any():
        # Looked up on se3 at call time, as pose_compose does, so a test can count repairs.
        R[drifted] = se3.orthonormalize(R[drifted])
    return Pose(R, t, a.unit)


def synth_trajectory_loop(n: int, smoothness: float = 1.0, seed: int = 0,
                          unit: str = "mm", k: int = DEFAULT_STRIDE) -> Trajectory:
    rng = np.random.default_rng(seed)
    heading = rng.standard_normal(3)
    axis = rng.standard_normal(3)
    cur = identity_pose(unit)
    R, t = np.empty((n, 3, 3)), np.empty((n, 3))
    R[0], t[0] = cur.R, cur.t
    for i in range(1, n):
        heading = 0.8 * heading + 0.2 * rng.standard_normal(3)
        direction = heading / max(np.linalg.norm(heading), 1e-12)
        step_t = smoothness * rng.uniform(0.25, 1.0) * direction
        axis = 0.8 * axis + 0.2 * rng.standard_normal(3)
        angle = abs(rng.normal(0.0, 0.03))
        cur = pose_compose_reference(cur, Pose(rotmat_from_axis_angle(axis, angle), step_t, unit))
        R[i], t[i] = cur.R, cur.t
    return Trajectory(R, t, k, unit)


def chain_absolute_loop(p0: Pose, rels: Trajectory, k: int | None = None) -> Trajectory:
    R, t = np.empty((len(rels) + 1, 3, 3)), np.empty((len(rels) + 1, 3))
    R[0], t[0] = p0.R, p0.t
    cur = p0
    for i, rel in enumerate(rels.poses, start=1):
        cur = pose_compose_reference(cur, rel)
        if i % RENORM_EVERY == 0:
            cur = Pose(orthonormalize(cur.R), cur.t, cur.unit)
        R[i], t[i] = cur.R, cur.t
    return Trajectory(R, t, rels.k if k is None else k, p0.unit, rels.start - rels.k)


def chain_rebased_loop(gt: Trajectory, rels: Trajectory) -> Trajectory:
    R, t = gt.R.copy(), gt.t.copy()
    for i, (prev_gt, rel) in enumerate(zip(gt.poses, rels.poses), start=1):
        step = pose_compose_reference(prev_gt, rel)
        R[i], t[i] = step.R, step.t
    return Trajectory(R, t, gt.k, gt.unit, gt.start)


def parse_lines(text: str) -> Trajectory:
    unit = None
    frames: list[int] = []
    rows: list[list[float]] = []
    line_nos: list[int] = []
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if unit is None:
            unit, k = _parse_header(line_no, line)
            continue
        try:
            tokens = plain(line).split()
        except ValueError as e:
            raise TrajectoryParseError(line_no, str(e)) from None
        if len(tokens) != 8:
            raise TrajectoryParseError(line_no, f"expected 8 fields, got {len(tokens)}")
        try:
            frame = int(tokens[0])
            vals = [float(t) for t in tokens[1:]]
        except ValueError as e:
            raise TrajectoryParseError(line_no, str(e)) from None
        if not all(abs(v) <= POSE_BOUND for v in vals):
            raise _beyond_bound(f"line {line_no}")
        if frames and frame - frames[-1] != k:
            raise TrajectoryParseError(
                line_no, f"frame index {frame} does not follow {frames[-1]} by k={k}"
            )
        frames.append(frame)
        rows.append(vals)
        line_nos.append(line_no)
    if unit is None:
        raise TrajectoryParseError(line_no, "missing header line 'unit=<mm|cm> k=<int>'")
    if not rows:
        raise TrajectoryParseError(line_no, "no pose rows")
    v = np.array(rows)
    try:
        poses = pose_from_vec(PoseVec(v[:, :3], np.roll(v[:, 3:], 1, axis=1)), unit)
    except ZeroQuaternion as e:
        raise ZeroQuaternion(f"line {line_nos[e.index[0]]}: {e}") from None
    return Trajectory(poses.R, poses.t, k, unit, frames[0])


def read_lines(path) -> Trajectory:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # The bytes before the first bad one decode; "x" stands for the line it starts.
        raise TrajectoryParseError(len((data[:e.start].decode("utf-8") + "x").splitlines()),
                                   f"byte {data[e.start]:#04x} is not UTF-8 text") from None
    return parse_lines(text)
