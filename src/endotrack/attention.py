"""Multi-dimensional attention over three axis permutations of a feature map.

The input map (H, W, C) is viewed three ways: (H, W, C), (C, H, W) and
(W, C, H).  Each view is pooled over its last axis (max and mean, blended
by the learnable scalars alpha and beta), passed through a per-branch 1x3
convolution along the view's second axis, and squashed by a sigmoid into a
2-D attention map.  The map scales its view (broadcast along the pooled
axis); the three re-aligned results are averaged with equal weight 1/3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeMismatch
from .kernels import activation, conv2d, inverse_order, permute, pool_last_axis

# Axis orders producing the (H,W,C), (C,H,W), (W,C,H) views of an (H,W,C) map.
BRANCH_ORDERS = ((0, 1, 2), (2, 0, 1), (1, 2, 0))


@dataclass(frozen=True)
class AttentionParams:
    """Learnables: pooling blend scalars plus one 1x3 conv per branch."""

    alpha: float
    beta: float
    conv_w: tuple  # three (1, 1, 1, 3) kernels
    conv_b: tuple  # three (1,) biases


def attention_init(seed: int) -> AttentionParams:
    """Seeded init: alpha, beta ~ U[0,1); conv weights ~ U[-k, k], k = 1/sqrt(3).

    The bound k follows the fan-in rule for a 1-channel 1x3 kernel.
    """
    rng = np.random.default_rng(seed)
    alpha = float(rng.random())
    beta = float(rng.random())
    k = 1.0 / np.sqrt(3.0)
    conv_w = tuple(rng.uniform(-k, k, size=(1, 1, 1, 3)) for _ in range(3))
    conv_b = tuple(rng.uniform(-k, k, size=(1,)) for _ in range(3))
    return AttentionParams(alpha, beta, conv_w, conv_b)


def branch_attention(view: np.ndarray, params: AttentionParams, branch: int) -> np.ndarray:
    """2-D attention map in (0, 1) for one permuted view."""
    pooled = (
        params.alpha * pool_last_axis(view, "max")
        + params.beta * pool_last_axis(view, "avg")
    )[..., 0]
    raw = conv2d(pooled[None], params.conv_w[branch], params.conv_b[branch], pad=(0, 1))
    return activation(raw, "sigmoid")[0]


def attention_forward(f0: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Apply the three-branch attention; output shape equals input shape."""
    f0 = np.asarray(f0)
    if f0.ndim != 3:
        raise ShapeMismatch(f"expected a rank-3 (H,W,C) map, got shape {f0.shape}")
    out = np.zeros_like(f0, dtype=np.result_type(f0, params.conv_w[0]))
    for branch, order in enumerate(BRANCH_ORDERS):
        view = permute(f0, order)
        amap = branch_attention(view, params, branch)
        attended = view * amap[:, :, None]
        out += permute(attended, inverse_order(order))
    return out / 3.0


def attention_grad_check(f0: np.ndarray, params: AttentionParams, h: float = 1e-4):
    """Finite-difference sanity check of d sum(forward) / d(alpha, beta, conv_w).

    Each gradient is computed at steps h and h/10; the pair must agree
    within 5% (relative, floored at 1e-8) and be finite.  Returns a list of
    check entries; see checks.GradCheckEntry.
    """
    from .checks import GradCheckEntry, two_step_rel_err

    entries = []

    def scalar_obj(field):
        def f(v):
            p = replace(params, **{field: float(v)})
            return float(np.sum(attention_forward(f0, p)))
        return f

    for field in ("alpha", "beta"):
        err = two_step_rel_err(scalar_obj(field), getattr(params, field), h)
        entries.append(GradCheckEntry(f"attention {field}", err, 0.05))

    for branch in range(3):
        worst = 0.0
        for j in range(3):
            def f(v, branch=branch, j=j):
                w = tuple(x.copy() for x in params.conv_w)
                w[branch][0, 0, 0, j] = v
                p = replace(params, conv_w=w)
                return float(np.sum(attention_forward(f0, p)))
            err = two_step_rel_err(f, params.conv_w[branch][0, 0, 0, j], h)
            worst = max(worst, err)
        entries.append(GradCheckEntry(f"attention conv branch {branch}", worst, 0.05))
    return entries
