"""Multi-dimensional attention: three branches, each pooling one axis of a map.

The branches pool a (C, H, W) map over C, W and H (a blend of max and mean
weighted by the learnable scalars alpha and beta) into (H, W), (C, H) and
(C, W) planes, like triplet attention's rotated branches (Misra et al., WACV
2021).  Each plane goes through its branch's 1x3 convolution, sliding along
W, H and C, and a sigmoid, giving a 2-D attention map; one sigmoid call
covers all three planes, laid end to end.  The input is scaled by the mean
of the three maps, each broadcast along the axis it pooled, summed into one
buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .kernels import activation, conv2d, pool_last_axis
from .kernels import permute  # noqa: F401  unused; perfbench/layers.py wraps attention.permute by name

# Per branch: the transpose of the (C, H, W) map that puts the pooled axis (C, W, H) last;
# kernel shape and pad sliding its 1x3 conv along W, H, C.
_BRANCHES = (((1, 2, 0), (1, 1, 1, 3), (0, 1)), ((0, 1, 2), (1, 1, 1, 3), (0, 1)),
             ((0, 2, 1), (1, 1, 3, 1), (1, 0)))


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
    """The three branch maps in (0, 1) of a (C, H, W) map, shaped (H, W), (C, H) and (C, W)."""
    f0 = np.asarray(f0)
    if f0.ndim != 3:
        raise ShapeMismatch(f"expected a rank-3 (C,H,W) map, got shape {f0.shape}")
    raws = []
    for branch, (order, kernel_shape, pad) in enumerate(_BRANCHES):
        view = f0.transpose(order)
        pooled = params.alpha * pool_last_axis(view, "max") + params.beta * pool_last_axis(view, "avg")
        w = params.conv_w[branch].reshape(kernel_shape)
        raws.append(conv2d(pooled[None, ..., 0], w, params.conv_b[branch], pad=pad)[0])
    # The sigmoid is elementwise: one call over the three maps laid end to end.
    flat = activation(np.concatenate([r.ravel() for r in raws]), "sigmoid")
    hw, ch, cw = raws
    a, b = hw.size, hw.size + ch.size
    return flat[:a].reshape(hw.shape), flat[a:b].reshape(ch.shape), flat[b:].reshape(cw.shape)


def attention_forward(f0: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Apply the three-branch attention; output shape equals input shape."""
    f0 = np.asarray(f0)
    hw, ch, cw = attention_maps(f0, params)
    # f0 * (hw + ch + cw) / 3.0 in one buffer, in the same operation order.
    s = hw[None] + ch[:, :, None]
    s += cw[:, None, :]
    s *= f0
    s /= 3.0
    return s

