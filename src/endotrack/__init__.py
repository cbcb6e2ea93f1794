"""Math core for real-time ego-motion tracking from endoscopic video:
SE(3) pose algebra and chaining, the attention and separable-conv decoder
kernels at verifiable toy scale, geometric and optical-flow losses, and the
five-metric trajectory evaluation suite.
"""

from . import errors
from .attention import AttentionParams, attention_forward, attention_init
from .checks import attention_grad_check, decoder_grad_check
from .decoder import DecoderParams, decoder_forward, decoder_init, dsc_block_forward
from .files import read_trajectory, write_trajectory
from .losses import (
    FlowPyramid,
    LossWeights,
    descend_loss_weights,
    flow_pyramid,
    flow_robust_loss,
    geometric_loss,
    geometric_loss_lambda_grad,
    pad_to_multiple,
)
from .metrics import MetricReport, ate, ce, de, evaluate, rot, rte
from .pipeline import (
    PipelineConfig,
    PipelineParams,
    extract_joint,
    extract_motion,
    extract_scene,
    fuse,
    init_pipeline,
    pipeline_forward,
)
from .se3 import (
    Pose,
    PoseVec,
    check_rotation,
    euler_from_rotmat,
    identity_pose,
    orthonormalize,
    pose_compose,
    pose_from_vec,
    pose_inverse,
    pose_to_vec,
    quat_log,
    quat_normalize,
    quat_to_rotmat,
    relative_pose,
    rotmat_from_axis_angle,
    rotmat_to_quat,
)
from .tracker import (
    NoiseSpec,
    Trajectory,
    chain_absolute,
    chain_rebased,
    mean_step_length,
    perturb_relatives,
    synth_trajectory,
)

__version__ = "0.1.0"
