from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import endotrack as et
from endotrack import attention, kernels, tree
from endotrack.attention import _BRANCHES, attention_maps
from endotrack.errors import ShapeMismatch
from endotrack.checks import finite_diff_grad

from attention_oracle import oracle_attention_forward


def zero_conv_params(params):
    return replace(
        params,
        conv_w=tuple(np.zeros_like(w) for w in params.conv_w),
        conv_b=tuple(np.zeros_like(b) for b in params.conv_b),
    )


class TestInit:
    def test_deterministic(self):
        a, b = et.attention_init(42), et.attention_init(42)
        assert a.alpha == b.alpha and a.beta == b.beta
        assert all(np.array_equal(x, y) for x, y in zip(a.conv_w, b.conv_w))
        assert all(np.array_equal(x, y) for x, y in zip(a.conv_b, b.conv_b))

    def test_alpha_beta_range_1000_seeds(self):
        for seed in range(1000):
            p = et.attention_init(seed)
            assert 0.0 <= p.alpha < 1.0
            assert 0.0 <= p.beta < 1.0

    def test_seeds_differ(self):
        alphas = {et.attention_init(s).alpha for s in range(100)}
        assert len(alphas) > 90

    def test_conv_weight_bound(self):
        k = 1.0 / np.sqrt(3.0)
        for seed in range(50):
            p = et.attention_init(seed)
            for w in p.conv_w:
                assert np.all(np.abs(w) <= k)


class TestForward:
    def test_output_shape_4x5x6(self, rng):
        p = et.attention_init(0)
        x = rng.standard_normal((4, 5, 6))
        assert et.attention_forward(x, p).shape == (4, 5, 6)

    @given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_shape_preserved(self, seed, h, w, c):
        r = np.random.default_rng(seed)
        x = r.standard_normal((h, w, c))
        out = et.attention_forward(x, et.attention_init(seed % 17))
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))

    def test_zero_conv_gives_half_input(self, rng):
        p = zero_conv_params(et.attention_init(3))
        x = rng.standard_normal((5, 4, 3))
        out = et.attention_forward(x, p)
        np.testing.assert_allclose(out, 0.5 * x, rtol=1e-13, atol=1e-16)

    def test_elementwise_bound(self, rng):
        for seed in range(20):
            p = et.attention_init(seed)
            x = np.random.default_rng(seed).standard_normal((6, 5, 4))
            out = et.attention_forward(x, p)
            assert np.all(np.abs(out) <= np.abs(x) + 1e-15)

    def test_contraction_sup_norm(self, rng):
        p = et.attention_init(9)
        x = rng.standard_normal((8, 8, 6))
        out = et.attention_forward(x, p)
        assert np.max(np.abs(out)) <= np.max(np.abs(x))

    def test_attention_values_strictly_open(self, rng):
        for seed in range(10):
            p = et.attention_init(seed)
            x = 10.0 * np.random.default_rng(seed).standard_normal((6, 5, 4))
            for amap in attention_maps(x, p):
                assert np.all(amap > 0.0) and np.all(amap < 1.0)

    def test_saturated_bias_recovers_input(self, rng):
        p = et.attention_init(1)
        p = replace(
            p,
            alpha=0.0,
            beta=0.0,
            conv_w=tuple(np.zeros_like(w) for w in p.conv_w),
            conv_b=tuple(np.full_like(b, 50.0) for b in p.conv_b),
        )
        x = rng.standard_normal((4, 4, 3))
        out = et.attention_forward(x, p)
        np.testing.assert_allclose(out, x, rtol=1e-15)

    def test_rank_check(self):
        with pytest.raises(ShapeMismatch):
            et.attention_forward(np.zeros((3, 3)), et.attention_init(0))


def oracle_chw(x, params):
    """The oracle on the (H, W, C) transpose of a (C, H, W) map, transposed back."""
    return oracle_attention_forward(x.transpose(1, 2, 0), params).transpose(2, 0, 1)


class TestMatchesPermuteOracle:
    @pytest.mark.parametrize("shape", [(3, 3, 3), (5, 7, 4), (8, 8, 6), (4, 5, 6),
                                       (1, 8, 6), (8, 1, 1), (1, 1, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_f64(self, shape, seed):
        p = et.attention_init(seed)
        h, w, c = shape
        x = np.random.default_rng(seed).standard_normal(shape).transpose(2, 0, 1)
        assert [m.shape for m in attention_maps(x, p)] == [(h, w), (c, h), (c, w)]
        out = et.attention_forward(x, p)
        assert out.dtype == np.float64
        assert np.max(np.abs(out - oracle_chw(x, p))) <= 1e-12

    def test_f32(self, rng):
        p = tree.astype(et.attention_init(4), np.float32)
        x = rng.standard_normal((32, 32, 8)).astype(np.float32).transpose(2, 0, 1)
        out = et.attention_forward(x, p)
        assert out.dtype == np.float32
        assert np.max(np.abs(out - oracle_chw(x, p))) <= 1e-6

    def test_f32_input_f64_params_gives_f64(self, rng):
        p = et.attention_init(5)
        x = rng.standard_normal((6, 5, 4)).astype(np.float32).transpose(2, 0, 1)
        out = et.attention_forward(x, p)
        assert out.dtype == np.float64
        assert np.max(np.abs(out - oracle_chw(x, p))) <= 1e-12


class TestOneSigmoid:
    """attention_maps runs one sigmoid over the three raw maps laid end to end;
    each map equals, byte for byte, its own branch's sigmoid."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 32, 32), (3, 5, 7), (1, 1, 1)])
    def test_each_map_is_its_branch_sigmoid(self, rng, dtype, shape):
        p = tree.astype(et.attention_init(6), dtype)
        # Large values saturate some entries of each map.
        f0 = (40.0 * rng.standard_normal(shape)).astype(dtype)
        maps = attention_maps(f0, p)
        for branch, (order, kernel_shape, pad) in enumerate(_BRANCHES):
            view = f0.transpose(order)
            pooled = (p.alpha * kernels.pool_last_axis(view, "max")
                      + p.beta * kernels.pool_last_axis(view, "avg"))
            raw = kernels.conv2d(pooled[None, ..., 0], p.conv_w[branch].reshape(kernel_shape),
                                 p.conv_b[branch], pad=pad)
            want = kernels.activation(raw, "sigmoid")[0]
            assert maps[branch].dtype == want.dtype and maps[branch].shape == want.shape
            assert maps[branch].tobytes() == want.tobytes()

    def test_one_activation_call_per_block(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(attention, "activation", lambda x, kind: calls.append(kind) or kernels.activation(x, kind))
        et.attention_forward(rng.standard_normal((4, 5, 6)), et.attention_init(0))
        assert calls == ["sigmoid"]

    def test_forward_is_input_times_mean_map(self, rng):
        p = et.attention_init(2)
        f0 = rng.standard_normal((4, 5, 6)).astype(np.float32)
        hw, ch, cw = attention_maps(f0, p)
        want = f0 * (hw[None] + ch[:, :, None] + cw[:, None, :]) / 3.0
        got = et.attention_forward(f0, p)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestGradCheck:
    def test_zero_input_alpha_grad_is_zero(self):
        p = et.attention_init(5)
        x = np.zeros((3, 3, 3))

        def f(v):
            return float(np.sum(et.attention_forward(x, replace(p, alpha=float(v[0])))))

        grad = finite_diff_grad(f, np.array([p.alpha]), h=1e-5)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)

    def test_random_case_passes(self, rng):
        p = et.attention_init(7)
        x = rng.standard_normal((4, 4, 3))
        entries = et.attention_grad_check(x, p)
        assert len(entries) == 5
        for e in entries:
            assert np.isfinite(e.max_rel_err)
            assert e.passed, f"{e.name}: {e.max_rel_err}"

    def test_alpha_grad_matches_full_fd(self, rng):
        # Cross-check the two-step harness against the generic FD kernel.
        p = et.attention_init(11)
        x = rng.standard_normal((3, 4, 2))

        def f(v):
            return float(np.sum(et.attention_forward(x, replace(p, alpha=float(v[0])))))

        g_kernel = finite_diff_grad(f, np.array([p.alpha]), h=1e-5)[0]
        g_manual = (f(np.array([p.alpha + 1e-5])) - f(np.array([p.alpha - 1e-5]))) / 2e-5
        assert g_kernel == pytest.approx(g_manual, rel=1e-9)
