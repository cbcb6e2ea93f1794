"""Four-stream feature front end.

Two scene features (one per frame) and a motion feature (from the optical
flow, zero-padded to 3 channels) come from a shared 2-stage strided conv
stack, the joint feature from the stacked frame pair through stem conv +
attention, twice.  Both stacks are 8 then 8 channels wide, with weights from
``default_rng(0)``; only the frame size is configurable.  The four maps are
concatenated in the order (current scene, previous scene, motion, joint),
and the fused 32-channel map is standardized once per channel.

The extractors are randomly initialized stand-ins, not trained networks;
the pipeline's guarantees are structural (shapes, fusion order, the
attention math), not representational.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tree
from .attention import AttentionParams, attention_forward, attention_init
from .errors import BadExtent, ShapeMismatch, integer
from .kernels import activation, concat_channels, conv2d, conv_init, standardize


# Output channels of the two stem convs on the scene/motion path and on the joint path.
SCENE_CHANNELS = (8, 8)
JOINT_CHANNELS = (8, 8)


@dataclass(frozen=True)
class PipelineConfig:
    height: int = 64
    width: int = 64

    def __post_init__(self):
        for name in ("height", "width"):
            v = integer(getattr(self, name), name)
            if v < 5:
                raise BadExtent(f"{name} must be >= 5 (after two stride-2 stems the decoder's 2x2 "
                                f"stride-2 downsample needs 2 pixels), got {v}")
            object.__setattr__(self, name, v)

    @property
    def fused_channels(self) -> int:
        return 3 * SCENE_CHANNELS[1] + JOINT_CHANNELS[1]


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
    rng = np.random.default_rng(0)
    s1, s2 = SCENE_CHANNELS
    j1, j2 = JOINT_CHANNELS
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


def extract_joint(pair: np.ndarray, params: PipelineParams) -> np.ndarray:
    """Stacked frame pair (6, H, W) through stem + attention, twice."""
    pair = _frame(pair, 6, params.config)
    x = attention_forward(_stem(pair, params.joint1_w, params.joint1_b), params.att1)
    return attention_forward(_stem(x, params.joint2_w, params.joint2_b), params.att2)


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
