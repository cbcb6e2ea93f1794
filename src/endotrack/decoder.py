"""Pose decoder: squeeze, normalized downsample, two separable-conv residual
blocks, and a global-pool head projecting to a 7-parameter pose vector.

Block structure: a 7x7 grouped (3-group) depthwise stage, two 1x1 pointwise
convs with one ReLU between them, a learnable residual scale gamma
(initialized to 1e-6 so each block starts as a near-identity), and the skip
connection back to the block input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tree
from .errors import BadChannelCount, ShapeMismatch
from .kernels import activation, affine, conv2d, conv_init, layernorm
from .se3 import PoseVec, quat_normalize

GAMMA_INIT = 1e-6


@dataclass(frozen=True)
class DscBlockParams:
    dw_w: np.ndarray   # (C, C/3, 7, 7), groups=3
    dw_b: np.ndarray
    pw1_w: np.ndarray  # (C, C, 1, 1)
    pw1_b: np.ndarray
    pw2_w: np.ndarray
    pw2_b: np.ndarray
    gamma: float


@dataclass(frozen=True)
class DecoderParams:
    squeeze_w: np.ndarray  # (C, C_in, 1, 1)
    squeeze_b: np.ndarray
    ln_gamma: np.ndarray
    ln_beta: np.ndarray
    down_w: np.ndarray     # (C, C, 2, 2), stride 2
    down_b: np.ndarray
    blocks: tuple
    head_w: np.ndarray     # (7, C)
    head_b: np.ndarray

    def astype(self, dtype) -> "DecoderParams":
        return tree.astype(self, dtype)


def decoder_init(in_channels: int, channels: int, seed: int = 0) -> DecoderParams:
    """Seeded parameters; ``channels`` is the post-squeeze width.

    Raises BadChannelCount unless channels is divisible by 3 (the grouped
    depthwise stage needs it).  Conv/affine weights use the fan-in uniform
    rule; every block's gamma starts at 1e-6.
    """
    if channels % 3 != 0:
        raise BadChannelCount(f"channels={channels} not divisible by 3")
    if in_channels < 1 or channels < 3:
        raise BadChannelCount(f"need in_channels >= 1 and channels >= 3, got {in_channels}, {channels}")
    rng = np.random.default_rng(seed)
    c = channels
    blocks = []
    for _ in range(2):
        dw_w, dw_b = conv_init(rng, c, c // 3, 7, 7)
        pw1_w, pw1_b = conv_init(rng, c, c, 1, 1)
        pw2_w, pw2_b = conv_init(rng, c, c, 1, 1)
        blocks.append(DscBlockParams(dw_w, dw_b, pw1_w, pw1_b, pw2_w, pw2_b, GAMMA_INIT))
    squeeze_w, squeeze_b = conv_init(rng, c, in_channels, 1, 1)
    down_w, down_b = conv_init(rng, c, c, 2, 2)
    # The affine head draws as a 1x1 conv (7, C, 1, 1): the same fan-in C.
    head_w, head_b = conv_init(rng, 7, c, 1, 1)
    return DecoderParams(squeeze_w, squeeze_b, np.ones(c), np.zeros(c), down_w, down_b,
                         tuple(blocks), head_w.reshape(7, c), head_b)


def dsc_block_forward(x: np.ndarray, block: DscBlockParams) -> np.ndarray:
    """x + gamma * pw2(relu(pw1(depthwise7x7(x)))); shape preserved."""
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[0] % 3 != 0:
        raise ShapeMismatch(f"block input must be (C,H,W) with C divisible by 3, got {x.shape}")
    y = conv2d(x, block.dw_w, block.dw_b, pad=3, groups=3)
    y = activation(conv2d(y, block.pw1_w, block.pw1_b), "relu")
    y = conv2d(y, block.pw2_w, block.pw2_b)
    return x + block.gamma * y


def decoder_forward(f: np.ndarray, params: DecoderParams) -> PoseVec:
    """Feature map (C_in, H, W) to a pose vector [t(3), q(4)].

    The raw quaternion from the head is normalized (and canonicalized);
    a degenerate raw norm surfaces as ZeroQuaternion rather than being
    silently replaced.
    """
    f = np.asarray(f)
    if f.ndim != 3 or f.shape[0] != params.squeeze_w.shape[1]:
        raise ShapeMismatch(
            f"expected ({params.squeeze_w.shape[1]}, H, W) input, got {f.shape}"
        )
    x = activation(conv2d(f, params.squeeze_w, params.squeeze_b), "relu")
    x = layernorm(x, params.ln_gamma, params.ln_beta)
    x = conv2d(x, params.down_w, params.down_b, stride=2)
    for block in params.blocks:
        x = dsc_block_forward(x, block)
    feats = x.mean(axis=(1, 2))
    y = affine(feats, params.head_w, params.head_b)
    return PoseVec(y[:3], quat_normalize(y[3:]))

