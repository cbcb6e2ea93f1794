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

from .errors import same_unit
from .se3 import Pose, euler_from_rotmat, pose_compose, pose_inverse, vec_norm
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
    frames: tuple
    ate: np.ndarray
    ce: np.ndarray
    de: np.ndarray
    rte: np.ndarray  # one entry per consecutive frame pair
    rot: np.ndarray
    unit: str

    _UNITS = {"ate": "{unit}", "ce": "", "de": "deg", "rte": "{unit}", "rot": "deg"}

    def summary(self) -> dict:
        """name -> (mean, population std); empty series report (0.0, 0.0)."""
        series = {name: getattr(self, name) for name in ("ate", "ce", "de", "rte", "rot")}
        return {name: (float(np.mean(s)), float(np.std(s))) if s.size else (0.0, 0.0)
                for name, s in series.items()}

    def to_text(self) -> str:
        lines = [f"# unit={self.unit} frames={len(self.frames)}",
                 "frame ate ce de rte rot"]
        for i, frame in enumerate(self.frames):
            rel = f"{self.rte[i - 1]:.6g} {self.rot[i - 1]:.6g}" if i > 0 else "- -"
            lines.append(f"{frame} {self.ate[i]:.6g} {self.ce[i]:.6g} {self.de[i]:.6g} {rel}")
        lines.append("summary (mean±std)")
        for name, (m, s) in self.summary().items():
            suffix = self._UNITS[name].format(unit=self.unit)
            lines.append(f"  {name:<4} {m:.6g}±{s:.6g} {suffix}".rstrip())
        return "\n".join(lines)


def evaluate(gt: Trajectory, est: Trajectory) -> MetricReport:
    """Per-frame ATE/CE/DE and per-step RTE/ROT with mean±std summaries.

    Raises UnitMismatch unless the unit tags agree and, through
    check_frames, AlignmentError unless est holds gt's frames.
    """
    same_unit(gt, est, "gt", "est")
    check_frames(est, "est", gt.start, gt.k, len(gt))
    gt_rels, est_rels = gt.relatives(), est.relatives()
    return MetricReport(gt.frames, ate(gt, est), ce(gt, est), de(gt, est),
                        rte(gt_rels, est_rels), rot(gt_rels, est_rels), gt.unit)
