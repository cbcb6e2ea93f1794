"""Trajectory evaluation metrics.

Five per-frame measures compare an estimated trajectory against ground
truth sharing the same world frame and units (no alignment step):

* ate  - Euclidean distance between absolute translations.
* ce   - mean over the three extrinsic X-Y-Z Euler-angle pairs of
         (1 - cos(angle difference)); dimensionless in [0, 2].
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

Summaries report mean +/- population standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, UnitMismatch
from .se3 import Pose, euler_from_rotmat, pose_compose, pose_inverse, relative_pose
from .tracker import Trajectory


def _check_units(gt: Pose, est: Pose) -> None:
    if gt.unit != est.unit:
        raise UnitMismatch(f"gt unit {gt.unit!r} vs est unit {est.unit!r}")


def _wrap_pi(d: float) -> float:
    r = (d + np.pi) % (2.0 * np.pi) - np.pi
    return np.pi if r == -np.pi else r


def ate(gt: Pose, est: Pose) -> float:
    _check_units(gt, est)
    return float(np.linalg.norm(gt.t - est.t))


def ce(gt: Pose, est: Pose) -> float:
    eg = euler_from_rotmat(gt.R)
    ee = euler_from_rotmat(est.R)
    return float(np.mean([1.0 - np.cos(_wrap_pi(a - b)) for a, b in zip(eg, ee)]))


def de(gt: Pose, est: Pose) -> float:
    u, v = gt.R[:, 0], est.R[:, 0]
    return float(np.degrees(2.0 * np.arctan2(np.linalg.norm(u - v), np.linalg.norm(u + v))))


def rte(gt_rel: Pose, est_rel: Pose) -> float:
    _check_units(gt_rel, est_rel)
    return float(np.linalg.norm(pose_compose(pose_inverse(gt_rel), est_rel).t))


def rot(gt_rel: Pose, est_rel: Pose) -> float:
    e = gt_rel.R.T @ est_rel.R
    axial = (e[2, 1] - e[1, 2], e[0, 2] - e[2, 0], e[1, 0] - e[0, 1])
    return float(np.degrees(np.arctan2(np.linalg.norm(axial) / 2.0, (np.trace(e) - 1.0) / 2.0)))


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

    def series(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def summary(self) -> dict:
        """name -> (mean, population std); empty series report (0.0, 0.0)."""
        out = {}
        for name in ("ate", "ce", "de", "rte", "rot"):
            s = self.series(name)
            if s.size == 0:
                out[name] = (0.0, 0.0)
            else:
                out[name] = (float(np.mean(s)), float(np.std(s)))
        return out

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

    Trajectories must agree in unit tag, stride, and frame indices.
    """
    if gt.unit != est.unit:
        raise UnitMismatch(f"gt unit {gt.unit!r} vs est unit {est.unit!r}")
    if gt.k != est.k:
        raise AlignmentError(f"stride mismatch: {gt.k} vs {est.k}")
    if gt.frames != est.frames:
        raise AlignmentError("frame indices differ")
    ates = np.array([ate(g, e) for g, e in zip(gt.poses, est.poses)])
    ces = np.array([ce(g, e) for g, e in zip(gt.poses, est.poses)])
    des = np.array([de(g, e) for g, e in zip(gt.poses, est.poses)])
    gt_rels = gt.relatives()
    est_rels = est.relatives()
    rtes = np.array([rte(g, e) for g, e in zip(gt_rels, est_rels)])
    rots = np.array([rot(g, e) for g, e in zip(gt_rels, est_rels)])
    return MetricReport(gt.frames, ates, ces, des, rtes, rots, gt.unit)
