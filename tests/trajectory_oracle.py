"""Per-step references for the trajectory loops and the pose composition.

``synth_trajectory_loop`` draws, filters, normalizes and composes one step at
a time; ``chain_absolute_loop`` and ``chain_rebased_loop`` compose the
per-pose ``Trajectory.poses`` views.  endotrack.tracker batches everything
but the compose recurrence and reads array rows; tests require equal bits.
``pose_compose_reference`` keeps the plain ``@``/``matvec`` arithmetic, tests
every rotation's drift on its own and builds a checked ``Pose``;
``se3.pose_compose`` must equal it bit for bit.  The loops compose through it,
so a fault in ``se3.pose_compose`` cannot move both sides of a comparison.
"""

import numpy as np

from endotrack import se3
from endotrack.se3 import (ORTHO_TOL, Pose, _ortho_defect, identity_pose, orthonormalize,
                           rotmat_from_axis_angle)
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


def chain_absolute_loop(p0: Pose, rels: Trajectory, k: int | None = None,
                        start: int | None = None) -> Trajectory:
    R, t = np.empty((len(rels) + 1, 3, 3)), np.empty((len(rels) + 1, 3))
    R[0], t[0] = p0.R, p0.t
    cur = p0
    for i, rel in enumerate(rels.poses, start=1):
        cur = pose_compose_reference(cur, rel)
        if i % RENORM_EVERY == 0:
            cur = Pose(orthonormalize(cur.R), cur.t, cur.unit)
        R[i], t[i] = cur.R, cur.t
    return Trajectory(R, t, rels.k if k is None else k, p0.unit,
                      rels.start - rels.k if start is None else start)


def chain_rebased_loop(gt: Trajectory, rels: Trajectory) -> Trajectory:
    R, t = gt.R.copy(), gt.t.copy()
    for i, (prev_gt, rel) in enumerate(zip(gt.poses, rels.poses), start=1):
        step = pose_compose_reference(prev_gt, rel)
        R[i], t[i] = step.R, step.t
    return Trajectory(R, t, gt.k, gt.unit, gt.start)
