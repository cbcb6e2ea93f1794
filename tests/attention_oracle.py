"""Permute-based reference for the attention block.

Each branch copies the (H, W, C) map into a permuted view, pools the view's
last axis, convolves along the view's second axis, scales the view by the
sigmoid map and permutes the result back; the three results are averaged.
endotrack.attention computes the same maps in place; tests compare the two.
"""

import numpy as np

from endotrack.kernels import activation, conv2d, permute, pool_last_axis

# Axis orders producing the (H,W,C), (C,H,W), (W,C,H) views of an (H,W,C) map.
BRANCH_ORDERS = ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def inverse_order(order) -> tuple:
    order = tuple(int(a) for a in order)
    inv = [0] * len(order)
    for i, a in enumerate(order):
        inv[a] = i
    return tuple(inv)


def branch_attention(view, params, branch):
    """2-D attention map in (0, 1) for one permuted view."""
    pooled = (
        params.alpha * pool_last_axis(view, "max")
        + params.beta * pool_last_axis(view, "avg")
    )[..., 0]
    raw = conv2d(pooled[None], params.conv_w[branch], params.conv_b[branch], pad=(0, 1))
    return activation(raw, "sigmoid")[0]


def oracle_attention_forward(f0, params):
    f0 = np.asarray(f0)
    out = np.zeros_like(f0, dtype=np.result_type(f0, params.conv_w[0]))
    for branch, order in enumerate(BRANCH_ORDERS):
        view = permute(f0, order)
        amap = branch_attention(view, params, branch)
        out += permute(view * amap[:, :, None], inverse_order(order))
    return out / 3.0
