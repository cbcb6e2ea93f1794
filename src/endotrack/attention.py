"""Multi-dimensional attention: three branches, each pooling one axis of a map.

The branches pool an (H, W, C) map over C, W and H (max and mean, blended
by the learnable scalars alpha and beta) into (H, W), (H, C) and (W, C)
planes.  Each plane goes through its branch's 1x3 convolution, sliding
along W, H and C respectively, and a sigmoid, giving a 2-D attention map.
The input is scaled by the mean of the three maps, each broadcast along
the axis its branch pooled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeMismatch
from .kernels import activation, conv2d, pool_last_axis
from .kernels import permute  # noqa: F401  unused; perfbench/layers.py wraps attention.permute by name

# Per branch: the (H, W, C) axis it pools; kernel shape and pad sliding its 1x3 conv along W, H, C.
_BRANCHES = ((2, (1, 1, 1, 3), (0, 1)), (1, (1, 1, 3, 1), (1, 0)), (0, (1, 1, 1, 3), (0, 1)))


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


def attention_maps(f0: np.ndarray, params: AttentionParams) -> tuple:
    """The three branch maps in (0, 1), shaped (H, W), (H, C) and (W, C)."""
    f0 = np.asarray(f0)
    if f0.ndim != 3:
        raise ShapeMismatch(f"expected a rank-3 (H,W,C) map, got shape {f0.shape}")
    maps = []
    for branch, (axis, kernel_shape, pad) in enumerate(_BRANCHES):
        view = np.moveaxis(f0, axis, -1)
        pooled = params.alpha * pool_last_axis(view, "max") + params.beta * pool_last_axis(view, "avg")
        w = params.conv_w[branch].reshape(kernel_shape)
        raw = conv2d(pooled[None, ..., 0], w, params.conv_b[branch], pad=pad)
        maps.append(activation(raw, "sigmoid")[0])
    return tuple(maps)


def attention_forward(f0: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Apply the three-branch attention; output shape equals input shape."""
    f0 = np.asarray(f0)
    hw, hc, wc = attention_maps(f0, params)
    return f0 * (hw[:, :, None] + hc[:, None, :] + wc[None]) / 3.0


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
