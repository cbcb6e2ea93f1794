"""Parameter-tree walker: leaf paths, dtype casts and one-element edits over the
real params classes."""

import numpy as np
import pytest

import endotrack as et
from endotrack.tree import astype, flatten, with_element


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


def test_with_element_leaves_input_unchanged():
    att = et.attention_init(3)
    before = {key: np.copy(leaf) for key, leaf in flatten(att).items()}
    new = with_element(att, "conv_w.1", (0, 0, 0, 2), 9.0)
    assert new.conv_w[1][0, 0, 0, 2] == 9.0
    for key, leaf in flatten(att).items():
        assert np.array_equal(leaf, before[key]), key
    changed = [key for key, leaf in flatten(new).items() if not np.array_equal(leaf, before[key])]
    assert changed == ["conv_w.1"]
    # Untouched array leaves are shared, not copied.
    assert new.conv_w[0] is att.conv_w[0] and new.conv_b[1] is att.conv_b[1]


def test_with_element_nested_paths():
    dec = et.decoder_init(6, 6, seed=1)
    new = with_element(dec, "blocks.0.gamma", (), 0.5)
    assert new.blocks[0].gamma == 0.5 and dec.blocks[0].gamma == 1e-6
    assert new.blocks[1].gamma == 1e-6 and new.blocks[0].dw_w is dec.blocks[0].dw_w
    new = with_element(dec, "blocks.1.pw1_w", (2, 3, 0, 0), -4.0)
    assert new.blocks[1].pw1_w[2, 3, 0, 0] == -4.0
    assert dec.blocks[1].pw1_w[2, 3, 0, 0] != -4.0
    x = np.arange(6.0).reshape(2, 3)
    assert with_element(x, "", (1, 2), 0.0)[1, 2] == 0.0 and x[1, 2] == 5.0


def test_with_element_scalar_leaf_keeps_type():
    att = et.attention_init(2)
    new = with_element(att, "alpha", (), np.float64(0.25))
    assert type(new.alpha) is float and new.alpha == 0.25
    assert type(with_element(et.LossWeights(), "lam_r", (), np.float32(1.5)).lam_r) is float
    with pytest.raises(IndexError):
        with_element(att, "beta", (0,), 1.0)


@pytest.mark.parametrize("path", ["conv_w.3", "conv_w", "gamma", "alpha.0", "Alpha", ""])
def test_with_element_unknown_path_raises(path):
    with pytest.raises(KeyError, match="no leaf"):
        with_element(et.attention_init(0), path, (), 1.0)
