import numpy as np
import pytest

import endotrack as et
from endotrack.errors import BadExtent, ShapeMismatch
from endotrack.kernels import standardize


@pytest.fixture(scope="module")
def params():
    return et.init_pipeline(et.PipelineConfig(height=32, width=32, seed=0))


class TestConfig:
    def test_fused_channels(self):
        cfg = et.PipelineConfig(scene_channels=(4, 6), joint_channels=(4, 10))
        assert cfg.fused_channels == 3 * 6 + 10

    def test_validation(self):
        with pytest.raises(BadExtent):
            et.PipelineConfig(height=2)
        with pytest.raises(BadExtent, match="height"):
            et.PipelineConfig(height=4)
        with pytest.raises(BadExtent, match="width"):
            et.PipelineConfig(width=4)
        with pytest.raises(BadExtent):
            et.PipelineConfig(scene_channels=(0, 4))


class TestScene:
    def test_zero_image_finite(self, params):
        out = et.extract_scene(np.zeros((3, 32, 32)), params)
        assert np.all(np.isfinite(out))

    def test_deterministic(self, params, rng):
        img = rng.standard_normal((3, 32, 32))
        assert np.array_equal(et.extract_scene(img, params), et.extract_scene(img, params))

    def test_output_shape(self, params):
        out = et.extract_scene(np.zeros((3, 32, 32)), params)
        assert out.shape == (params.config.scene_channels[1], 8, 8)

    def test_wrong_shape(self, params):
        with pytest.raises(ShapeMismatch):
            et.extract_scene(np.zeros((3, 16, 16)), params)


class TestMotion:
    def test_matches_padded_scene_path(self, params, rng):
        flow = rng.standard_normal((2, 32, 32))
        padded = np.concatenate([flow, np.zeros((1, 32, 32))])
        assert np.array_equal(et.extract_motion(flow, params), et.extract_scene(padded, params))

    def test_wrong_channels(self, params):
        with pytest.raises(ShapeMismatch):
            et.extract_motion(np.zeros((3, 32, 32)), params)


class TestJoint:
    def test_shape_and_determinism(self, params, rng):
        pair = rng.standard_normal((6, 32, 32))
        out = et.extract_joint(pair, params)
        assert out.shape == (params.config.joint_channels[1], 8, 8)
        assert np.array_equal(out, et.extract_joint(pair, params))
        assert np.all(np.isfinite(out))

    def test_identical_frames_ok(self, params, rng):
        img = rng.standard_normal((3, 32, 32))
        out = et.extract_joint(np.concatenate([img, img]), params)
        assert np.all(np.isfinite(out))

    def test_frame_order_matters(self, params, rng):
        a = rng.standard_normal((3, 32, 32))
        b = rng.standard_normal((3, 32, 32))
        fwd = et.extract_joint(np.concatenate([a, b]), params)
        rev = et.extract_joint(np.concatenate([b, a]), params)
        assert not np.allclose(fwd, rev)


class TestFuse:
    def test_channel_arithmetic(self, rng):
        maps = [rng.standard_normal((2, 4, 4)) for _ in range(4)]
        assert et.fuse(*maps).shape == (8, 4, 4)

    def test_slices_recover_standardized_inputs(self, rng):
        # The last stream is a transposed (H, W, C) view, as the joint map
        # comes back from attention; fuse must not depend on memory layout.
        for hw in (4, 8, 16, 32):
            maps = [rng.standard_normal((3, hw, hw)) for _ in range(3)]
            maps.append(rng.standard_normal((hw, hw, 3)).transpose(2, 0, 1))
            assert not maps[3].flags.c_contiguous
            fused = et.fuse(*maps)
            for i, m in enumerate(maps):
                np.testing.assert_array_equal(fused[3 * i:3 * (i + 1)],
                                              standardize(np.ascontiguousarray(m), (1, 2)))

    def test_constant_map_normalizes_to_zero(self, rng):
        maps = [np.full((2, 4, 4), 3.0)] + [rng.standard_normal((2, 4, 4)) for _ in range(3)]
        fused = et.fuse(*maps)
        assert np.max(np.abs(fused[:2])) < 1e-6

    def test_spatial_mismatch(self, rng):
        maps = [rng.standard_normal((2, 4, 4)) for _ in range(3)]
        with pytest.raises(ShapeMismatch):
            et.fuse(*maps, rng.standard_normal((2, 5, 4)))


class TestEndToEnd:
    def test_forward(self, params, rng):
        prev = rng.standard_normal((3, 32, 32))
        cur = rng.standard_normal((3, 32, 32))
        flow = rng.standard_normal((2, 32, 32))
        fused = et.pipeline_forward(prev, cur, flow, params)
        assert fused.shape == (params.config.fused_channels, 8, 8)
        assert np.all(np.isfinite(fused))
        assert np.array_equal(fused, et.pipeline_forward(prev, cur, flow, params))

    def test_seed_reproducibility(self, rng):
        cfg = et.PipelineConfig(height=32, width=32, seed=99)
        a, b = et.init_pipeline(cfg), et.init_pipeline(cfg)
        assert np.array_equal(a.scene1_w, b.scene1_w)
        assert a.att1.alpha == b.att1.alpha
        prev = rng.standard_normal((3, 32, 32))
        cur = rng.standard_normal((3, 32, 32))
        flow = rng.standard_normal((2, 32, 32))
        assert np.array_equal(
            et.pipeline_forward(prev, cur, flow, a), et.pipeline_forward(prev, cur, flow, b)
        )

    def test_feeds_decoder(self, params, rng):
        fused = et.pipeline_forward(
            rng.standard_normal((3, 32, 32)),
            rng.standard_normal((3, 32, 32)),
            rng.standard_normal((2, 32, 32)),
            params,
        )
        dec = et.decoder_init(params.config.fused_channels, 12, seed=1)
        out = et.decoder_forward(fused, dec)
        assert np.linalg.norm(out.q) == pytest.approx(1.0, abs=1e-12)
