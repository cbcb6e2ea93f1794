"""Trajectory evaluation metrics.

Five per-frame measures compare an estimated trajectory against ground
truth sharing the same world frame and units (no alignment step):

* ate  - Euclidean distance between absolute translations.
* ce   - mean over the three extrinsic X-Y-Z Euler-angle pairs of
         1 - cos(d), d the angle difference; dimensionless in [0, 2].  It
         is taken as 2 sin^2(d / 2), which keeps its precision at small d
         where 1 - cos(d) cancels, and needs no wrap of d to [-pi, pi].
* de   - angle in degrees between the rotated x-axes u, v of the two
         poses, 2 * atan2(|u - v|, |u + v|).
* rte  - translation norm of the relative-pose error transform.
* rot  - geodesic angle in degrees of the relative-pose error rotation E,
         atan2(|axial(E - E^T)| / 2, (trace E - 1) / 2).  The unclamped
         linear form (trace-1)/2 * 180/pi is deliberately not used: it
         reads 57.3 at zero error and is not an angle.

Both angles use atan2 rather than acos of a cosine: acos near 1 turns
rounding of order 1e-16 into an angle of order 1e-8 rad, so zero error
would not read as zero.

Each metric takes two poses or two trajectories and returns one value per
pose.  Summaries report mean +/- population standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, same_unit
from .files import BLOCK_ROWS
from .se3 import Pose, euler_from_rotmat, pose_compose, pose_inverse, relative_pose, vec_norm
from .tracker import Trajectory, check_frames


def ate(gt: Pose, est: Pose) -> np.ndarray:
    same_unit(gt, est, "gt", "est")
    return vec_norm(gt.t - est.t)


def ce(gt: Pose, est: Pose) -> np.ndarray:
    pairs = zip(euler_from_rotmat(gt.R), euler_from_rotmat(est.R))
    return sum(2.0 * np.sin((a - b) / 2.0) ** 2 for a, b in pairs) / 3.0


def de(gt: Pose, est: Pose) -> np.ndarray:
    u, v = gt.R[..., :, 0], est.R[..., :, 0]
    return np.degrees(2.0 * np.arctan2(vec_norm(u - v), vec_norm(u + v)))


def rte(gt_rel: Pose, est_rel: Pose) -> np.ndarray:
    same_unit(gt_rel, est_rel, "gt", "est")
    return vec_norm(pose_compose(pose_inverse(gt_rel), est_rel).t)


def rot(gt_rel: Pose, est_rel: Pose) -> np.ndarray:
    e = np.swapaxes(gt_rel.R, -1, -2) @ est_rel.R
    axial = np.stack([e[..., 2, 1] - e[..., 1, 2], e[..., 0, 2] - e[..., 2, 0],
                      e[..., 1, 0] - e[..., 0, 1]], axis=-1)
    trace = e[..., 0, 0] + e[..., 1, 1] + e[..., 2, 2]
    return np.degrees(np.arctan2(vec_norm(axial) / 2.0, (trace - 1.0) / 2.0))


@dataclass(frozen=True)
class MetricReport:
    """The five series of ``evaluate``: ate, ce and de one entry per frame,
    rte and rot one per consecutive frame pair.  ``chunks`` yields the report
    text a block of frames at a time, so it is never held whole."""

    frames: range
    ate: np.ndarray
    ce: np.ndarray
    de: np.ndarray
    rte: np.ndarray
    rot: np.ndarray
    unit: str

    _UNITS = {"ate": "{unit}", "ce": "", "de": "deg", "rte": "{unit}", "rot": "deg"}

    def summary(self) -> dict:
        """name -> (mean, population std); empty series report (0.0, 0.0)."""
        series = {name: getattr(self, name) for name in ("ate", "ce", "de", "rte", "rot")}
        return {name: (float(np.mean(s)), float(np.std(s))) if s.size else (0.0, 0.0)
                for name, s in series.items()}

    def chunks(self):
        """The report text, each line ending in a newline: the header, one
        string per block of BLOCK_ROWS frames, then the summary."""
        yield f"# unit={self.unit} frames={len(self.frames)}\nframe ate ce de rte rot\n"
        for lo in range(0, len(self.frames), BLOCK_ROWS):
            lines = []
            for i in range(lo, min(lo + BLOCK_ROWS, len(self.frames))):
                rel = f"{self.rte[i - 1]:.6g} {self.rot[i - 1]:.6g}" if i > 0 else "- -"
                lines.append(f"{self.frames[i]} {self.ate[i]:.6g} {self.ce[i]:.6g} {self.de[i]:.6g} {rel}\n")
            yield "".join(lines)
        lines = ["summary (mean±std)\n"]
        for name, (m, s) in self.summary().items():
            suffix = self._UNITS[name].format(unit=self.unit)
            lines.append(f"  {name:<4} {m:.6g}±{s:.6g} {suffix}".rstrip() + "\n")
        yield "".join(lines)

    def to_text(self) -> str:
        """The whole report, without the last newline."""
        return "".join(self.chunks())[:-1]


def evaluate(gt: Trajectory, est: Trajectory) -> MetricReport:
    """Per-frame ATE/CE/DE and per-step RTE/ROT with mean±std summaries.

    The series are filled BLOCK_ROWS rows at a time, so no temporary spans
    the trajectories; each block's steps run from the row before it.
    Raises UnitMismatch unless the unit tags agree, LengthMismatch for a gt
    without rows and, through check_frames, AlignmentError unless est holds
    gt's frames.
    """
    same_unit(gt, est, "gt", "est")
    if not len(gt):
        raise LengthMismatch(f"gt: need at least 1 pose, got {len(gt)}")
    check_frames(est, "est", gt.start, gt.k, len(gt))
    n = len(gt)
    report = MetricReport(range(gt.start, gt.start + n * gt.k, gt.k), np.empty(n), np.empty(n),
                          np.empty(n), np.empty(n - 1), np.empty(n - 1), gt.unit)
    for lo in range(0, n, BLOCK_ROWS):
        hi, before = min(lo + BLOCK_ROWS, n), max(lo - 1, 0)
        g, e = (Pose(traj.R[lo:hi], traj.t[lo:hi], traj.unit) for traj in (gt, est))
        report.ate[lo:hi], report.ce[lo:hi], report.de[lo:hi] = ate(g, e), ce(g, e), de(g, e)
        g_rel, e_rel = (relative_pose(Pose(traj.R[before:hi - 1], traj.t[before:hi - 1], traj.unit),
                                      Pose(traj.R[before + 1:hi], traj.t[before + 1:hi], traj.unit))
                        for traj in (gt, est))
        report.rte[before:hi - 1], report.rot[before:hi - 1] = rte(g_rel, e_rel), rot(g_rel, e_rel)
    return report
