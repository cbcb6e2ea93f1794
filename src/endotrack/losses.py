"""Training losses: homoscedastic-weighted geometric pose loss with analytic
weight gradients, and the multi-scale robust optical-flow loss with its
pyramid constructor.  The flow loss is PWC-Net's (Sun et al., CVPR 2018),
with its fixed noise eps = FLOW_EPS and exponent q = FLOW_Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadExtent, BadPenalty, InvalidQuaternion, ShapeMismatch, integer
from .se3 import PoseVec, quat_log

PYRAMID_LEVELS = (2, 3, 4, 5, 6)
# flow_pyramid's extents must divide by this: the coarsest level halves them l - 1 times.
PYRAMID_MULTIPLE = 2 ** (PYRAMID_LEVELS[-1] - 1)
FLOW_EPS = 0.01
FLOW_Q = 0.4


@dataclass(frozen=True)
class LossWeights:
    """Learnable balance scalars; lam_t starts at 0, lam_r at -3."""

    lam_t: float = 0.0
    lam_r: float = -3.0


def _canonical_unit(q, which: str) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if abs(n - 1.0) > 1e-6:
        raise InvalidQuaternion(f"{which} quaternion norm {n} not within 1e-6 of 1")
    return -q if q[0] < 0 else q


def _errors_l1(pred: PoseVec, target: PoseVec) -> tuple[float, float]:
    qp = _canonical_unit(pred.q, "predicted")
    qt = _canonical_unit(target.q, "target")
    t_err = float(np.sum(np.abs(target.t - pred.t)))
    r_err = float(np.sum(np.abs(quat_log(qt) - quat_log(qp))))
    return t_err, r_err


def _weighted_loss(t_err: float, r_err: float, w: LossWeights) -> float:
    return t_err * np.exp(-w.lam_t) + w.lam_t + r_err * np.exp(-w.lam_r) + w.lam_r


def _weighted_lambda_grad(t_err: float, r_err: float, w: LossWeights) -> tuple[float, float]:
    return 1.0 - t_err * np.exp(-w.lam_t), 1.0 - r_err * np.exp(-w.lam_r)


def geometric_loss(pred: PoseVec, target: PoseVec, w: LossWeights) -> float:
    """L1 translation and quaternion-log errors, each weighted by exp(-lam)
    plus the additive lam regularizer.

    Equal poses give exactly lam_t + lam_r.  Both quaternions are
    canonicalized first, so sign flips of either argument cannot change
    the value.
    """
    return _weighted_loss(*_errors_l1(pred, target), w)


def geometric_loss_lambda_grad(pred: PoseVec, target: PoseVec, w: LossWeights) -> tuple[float, float]:
    """Closed-form d loss / d(lam_t, lam_r): 1 - err * exp(-lam)."""
    return _weighted_lambda_grad(*_errors_l1(pred, target), w)


def descend_loss_weights(t_err: float, r_err: float, steps: int = 50,
                         lr: float = 0.1) -> tuple[list[float], LossWeights]:
    """Plain gradient descent on the two weights, from ``LossWeights()``, with
    the pose errors fixed.

    Returns the loss at every iterate (steps+1 values) and the final
    weights.  The objective is convex in each weight, so moderate step
    sizes decrease it monotonically.
    """
    steps = integer(steps, "steps", 0)
    w = LossWeights()
    history = [float(_weighted_loss(t_err, r_err, w))]
    for _ in range(steps):
        g_t, g_r = _weighted_lambda_grad(t_err, r_err, w)
        w = LossWeights(w.lam_t - lr * g_t, w.lam_r - lr * g_r)
        history.append(float(_weighted_loss(t_err, r_err, w)))
    return history, w


@dataclass(frozen=True)
class FlowPyramid:
    """2-channel flow fields at levels 2..6; level l is (H/2^(l-1), W/2^(l-1), 2)."""

    levels: tuple

    def level(self, l: int) -> np.ndarray:
        if l not in PYRAMID_LEVELS:
            raise BadExtent(f"level {l} outside {PYRAMID_LEVELS}")
        return self.levels[l - 2]


def pad_to_multiple(flow: np.ndarray) -> np.ndarray:
    """Zero-pad bottom/right so both spatial extents divide PYRAMID_MULTIPLE."""
    flow = np.asarray(flow)
    h, w = flow.shape[:2]
    ph = (-h) % PYRAMID_MULTIPLE
    pw = (-w) % PYRAMID_MULTIPLE
    if ph == 0 and pw == 0:
        return flow
    return np.pad(flow, ((0, ph), (0, pw), (0, 0)))


def _halve(flow: np.ndarray) -> np.ndarray:
    h, w, c = flow.shape
    # 2x2 average pooling; magnitudes halve with the resolution.
    return flow.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3)) * 0.5


def flow_pyramid(flow: np.ndarray) -> FlowPyramid:
    """Build levels 2..6 by repeated 2x2 mean pooling with flow halving.

    Raises BadExtent unless both extents are positive multiples of
    PYRAMID_MULTIPLE (use pad_to_multiple first).
    """
    flow = np.asarray(flow, dtype=float)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ShapeMismatch(f"expected (H, W, 2) flow, got {flow.shape}")
    h, w = flow.shape[:2]
    if not (h and w) or h % PYRAMID_MULTIPLE or w % PYRAMID_MULTIPLE:
        raise BadExtent(f"extents {h}x{w} must be positive multiples of {PYRAMID_MULTIPLE}")
    levels = []
    cur = flow
    for _ in PYRAMID_LEVELS:
        cur = _halve(cur)
        levels.append(cur)
    return FlowPyramid(tuple(levels))


def flow_robust_loss(pred: FlowPyramid, gt: FlowPyramid, theta=None) -> float:
    """Sum over levels of theta_l * sum over pixels of (|du|+|dv| + FLOW_EPS)^FLOW_Q.

    The sub-unit exponent tempers large-magnitude outliers; the noise
    constant keeps the power well-defined at zero error.  theta defaults to
    all ones; BadPenalty refuses a weight that is not finite and non-negative.
    """
    if theta is None:
        theta = np.ones(len(PYRAMID_LEVELS))
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(PYRAMID_LEVELS),):
        raise ShapeMismatch(f"theta must have {len(PYRAMID_LEVELS)} entries, got {theta.shape}")
    if not np.all((theta >= 0.0) & (theta < np.inf)):
        raise BadPenalty(f"level weights theta={theta} must be finite and non-negative")
    total = 0.0
    for i, l in enumerate(PYRAMID_LEVELS):
        p = pred.level(l)
        g = gt.level(l)
        if p.shape != g.shape:
            raise ShapeMismatch(f"level {l}: {p.shape} vs {g.shape}")
        d = np.abs(p - g).sum(axis=-1)
        total += theta[i] * float(np.sum((d + FLOW_EPS) ** FLOW_Q))
    return total
