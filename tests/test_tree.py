"""Parameter-tree walker: leaf paths and dtype casts over the real params classes."""

import numpy as np
import pytest

import endotrack as et
from endotrack.tree import astype, flatten


def test_leaf_paths_follow_field_order():
    keys = list(flatten(et.decoder_init(6, 6)))
    assert keys[:2] == ["squeeze_w", "squeeze_b"]
    assert "blocks.1.dw_w" in keys and "blocks.0.gamma" in keys
    assert keys[-1] == "head_b"
    assert list(flatten(et.attention_init(0))) == [
        "alpha", "beta", "conv_w.0", "conv_w.1", "conv_w.2", "conv_b.0", "conv_b.1", "conv_b.2",
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make", [
    lambda: et.init_pipeline(et.PipelineConfig(height=16, width=16)),
    lambda: et.decoder_init(12, 12, seed=2),
])
def test_astype_casts_arrays_only(make, dtype):
    params = make()
    cast = params.astype(dtype)
    assert type(cast) is type(params)
    before, after = flatten(params), flatten(cast)
    assert list(before) == list(after)
    for key, leaf in after.items():
        if isinstance(before[key], np.ndarray):
            assert leaf.dtype == dtype, key
            assert np.array_equal(leaf, before[key].astype(dtype)), key
        else:
            assert type(leaf) is type(before[key]) and leaf == before[key], key
    if hasattr(params, "config"):
        assert cast.config == params.config


def test_astype_accepts_any_subtree():
    att = et.attention_init(4)
    cast = astype(att, np.float32)
    assert all(w.dtype == np.float32 for w in cast.conv_w)
    assert cast.alpha == att.alpha and type(cast.alpha) is float
