"""Four-stream feature front end.

Two scene features (one per frame) and a motion feature (from the optical
flow, zero-padded to 3 channels) come from a shared 2-stage strided conv
stack with seeded random weights.  The joint feature comes from the stacked
frame pair through stem conv + attention, twice.  The four maps are
concatenated in the order (current scene, previous scene, motion, joint),
and the fused map is standardized once per channel (``kernels.standardize``).

The extractors are randomly initialized stand-ins, not trained networks;
the pipeline's guarantees are structural (shapes, fusion order, the
attention math), not representational.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tree
from .attention import AttentionParams, attention_forward, attention_init
from .errors import BadExtent, ShapeMismatch
from .kernels import activation, concat_channels, conv2d, conv_init, standardize


@dataclass(frozen=True)
class PipelineConfig:
    height: int = 64
    width: int = 64
    scene_channels: tuple = (8, 8)
    joint_channels: tuple = (8, 8)
    seed: int = 0

    def __post_init__(self):
        for name in ("height", "width"):
            if getattr(self, name) < 5:
                raise BadExtent(f"{name} must be >= 5 (after two stride-2 stems the decoder's 2x2 "
                                f"stride-2 downsample needs 2 pixels), got {getattr(self, name)}")
        for name in ("scene_channels", "joint_channels"):
            pair = tuple(int(c) for c in getattr(self, name))
            if len(pair) != 2 or min(pair) < 1:
                raise BadExtent(f"{name} must be two positive extents, got {pair}")
            object.__setattr__(self, name, pair)

    @property
    def fused_channels(self) -> int:
        return 3 * self.scene_channels[1] + self.joint_channels[1]


@dataclass(frozen=True)
class PipelineParams:
    config: PipelineConfig
    scene1_w: np.ndarray
    scene1_b: np.ndarray
    scene2_w: np.ndarray
    scene2_b: np.ndarray
    joint1_w: np.ndarray
    joint1_b: np.ndarray
    att1: AttentionParams
    joint2_w: np.ndarray
    joint2_b: np.ndarray
    att2: AttentionParams

    def astype(self, dtype) -> "PipelineParams":
        return tree.astype(self, dtype)


def init_pipeline(config: PipelineConfig) -> PipelineParams:
    rng = np.random.default_rng(config.seed)
    s1, s2 = config.scene_channels
    j1, j2 = config.joint_channels
    scene1_w, scene1_b = conv_init(rng, s1, 3, 3, 3)
    scene2_w, scene2_b = conv_init(rng, s2, s1, 3, 3)
    joint1_w, joint1_b = conv_init(rng, j1, 6, 3, 3)
    joint2_w, joint2_b = conv_init(rng, j2, j1, 3, 3)
    att1 = attention_init(int(rng.integers(2**32)))
    att2 = attention_init(int(rng.integers(2**32)))
    return PipelineParams(
        config,
        scene1_w, scene1_b, scene2_w, scene2_b,
        joint1_w, joint1_b, att1, joint2_w, joint2_b, att2,
    )


def _frame(x, channels: int, cfg: PipelineConfig) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (channels, cfg.height, cfg.width):
        raise ShapeMismatch(f"expected ({channels}, {cfg.height}, {cfg.width}), got {x.shape}")
    return x


def _stem(x, w, b):
    return activation(conv2d(x, w, b, stride=2, pad=1), "relu")


def extract_scene(img: np.ndarray, params: PipelineParams) -> np.ndarray:
    """Single image (3, H, W) to a (C, H/4, W/4) feature map."""
    img = _frame(img, 3, params.config)
    return _stem(_stem(img, params.scene1_w, params.scene1_b), params.scene2_w, params.scene2_b)


def extract_motion(flow: np.ndarray, params: PipelineParams) -> np.ndarray:
    """Optical flow (2, H, W), zero-padded to 3 channels, through the same
    extractor as the scene features."""
    flow = _frame(flow, 2, params.config)
    padded = np.concatenate([flow, np.zeros((1,) + flow.shape[1:], dtype=flow.dtype)])
    return extract_scene(padded, params)


def _attend(x: np.ndarray, att: AttentionParams) -> np.ndarray:
    # Attention operates on (H, W, C) views of the (C, H, W) map.
    return attention_forward(x.transpose(1, 2, 0), att).transpose(2, 0, 1)


def extract_joint(pair: np.ndarray, params: PipelineParams) -> np.ndarray:
    """Stacked frame pair (6, H, W) through stem + attention, twice."""
    pair = _frame(pair, 6, params.config)
    x = _attend(_stem(pair, params.joint1_w, params.joint1_b), params.att1)
    return _attend(_stem(x, params.joint2_w, params.joint2_b), params.att2)


def fuse(f_cur, f_prev, f_motion, f_joint) -> np.ndarray:
    """Concatenate channels in fixed order, then standardize each channel
    over its spatial extent."""
    return standardize(concat_channels([f_cur, f_prev, f_motion, f_joint]), (1, 2))


def pipeline_forward(img_prev: np.ndarray, img_cur: np.ndarray, flow: np.ndarray,
                     params: PipelineParams) -> np.ndarray:
    """Full front end for one frame pair; returns the fused feature map."""
    f_cur = extract_scene(img_cur, params)
    f_prev = extract_scene(img_prev, params)
    f_motion = extract_motion(flow, params)
    f_joint = extract_joint(np.concatenate([img_prev, img_cur]), params)
    return fuse(f_cur, f_prev, f_motion, f_joint)
