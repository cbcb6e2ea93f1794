"""Gradient checks probe leaves by path; each entry must equal the explicit
per-element loop it replaces, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

import endotrack as et
from endotrack.checks import two_step_rel_err


def explicit_attention_conv_branch(f0, params, branch, h=1e-4):
    worst = 0.0
    for j in range(3):
        def f(v, j=j):
            w = tuple(x.copy() for x in params.conv_w)
            w[branch][0, 0, 0, j] = v
            return float(np.sum(et.attention_forward(f0, replace(params, conv_w=w))))
        worst = max(worst, two_step_rel_err(f, params.conv_w[branch][0, 0, 0, j], h))
    return worst


def explicit_decoder_head(feat, params, h=1e-4):
    target = et.PoseVec(
        np.array([0.1, -0.2, 0.15]),
        et.rotmat_to_quat(et.rotmat_from_axis_angle([1.0, 2.0, -1.0], 0.3)),
    )
    worst = 0.0
    for idx in np.ndindex(params.head_w.shape):
        def f(v, idx=idx):
            w = params.head_w.copy()
            w[idx] = v
            pose = et.decoder_forward(feat, replace(params, head_w=w))
            return et.geometric_loss(pose, target, et.LossWeights())
        worst = max(worst, two_step_rel_err(f, params.head_w[idx], h))
    return worst


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_attention_conv_branch_matches_explicit_loop(seed):
    rng = np.random.default_rng(seed)
    f0 = rng.standard_normal((4, 5, 3))
    params = et.attention_init(seed)
    entries = {e.name: e for e in et.attention_grad_check(f0, params)}
    assert list(entries) == ["attention alpha", "attention beta", "attention conv branch 0",
                             "attention conv branch 1", "attention conv branch 2"]
    entry = entries["attention conv branch 1"]
    assert entry.tol == 0.05
    assert entry.max_rel_err == explicit_attention_conv_branch(f0, params, 1)


@pytest.mark.parametrize("seed", [1, 6])
def test_decoder_head_matches_explicit_loop(seed):
    rng = np.random.default_rng(seed)
    feat = rng.standard_normal((6, 6, 6))
    params = et.decoder_init(6, 6, seed=seed)
    entry = et.decoder_grad_check(feat, params)[-1]
    assert (entry.name, entry.tol) == ("decoder head affine", 0.05)
    assert entry.max_rel_err == explicit_decoder_head(feat, params)
