"""Kernel tests: every vectorized kernel is compared against a naive
nested-loop implementation written here, independent of the package."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from endotrack import kernels
from endotrack.checks import finite_diff_grad
from endotrack.errors import BadPermutation, NonFiniteFunction, ShapeMismatch

from attention_oracle import inverse_order

RELTOL = 1e-12


def loop_pool_last(x, kind):
    out = np.empty(x.shape[:-1] + (1,))
    for idx in np.ndindex(x.shape[:-1]):
        vals = [x[idx + (j,)] for j in range(x.shape[-1])]
        out[idx + (0,)] = max(vals) if kind == "max" else sum(vals) / len(vals)
    return out


def loop_conv2d(x, w, b=None, stride=(1, 1), pad=(0, 0), groups=1):
    c_in, h, wd = x.shape
    c_out, c_per_g, kh, kw = w.shape
    sh, sw = stride
    ph, pw = pad
    h_out = (h + 2 * ph - kh) // sh + 1
    w_out = (wd + 2 * pw - kw) // sw + 1
    xp = np.zeros((c_in, h + 2 * ph, wd + 2 * pw))
    xp[:, ph:ph + h, pw:pw + wd] = x
    out = np.zeros((c_out, h_out, w_out))
    og = c_out // groups
    for o in range(c_out):
        g = o // og
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for c in range(c_per_g):
                    for u in range(kh):
                        for v in range(kw):
                            acc += xp[g * c_per_g + c, i * sh + u, j * sw + v] * w[o, c, u, v]
                out[o, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


def loop_layernorm(x, gamma, beta, eps):
    c, h, w = x.shape
    out = np.empty_like(x)
    for i in range(h):
        for j in range(w):
            col = x[:, i, j]
            mu = sum(col) / c
            var = sum((v - mu) ** 2 for v in col) / c
            for ch in range(c):
                out[ch, i, j] = (x[ch, i, j] - mu) / math.sqrt(var + eps) * gamma[ch] + beta[ch]
    return out


def assert_close(a, b, rtol=RELTOL):
    np.testing.assert_allclose(a, b, rtol=rtol, atol=1e-15)


class TestPermute:
    def test_identity_order_bitwise(self, rng):
        x = rng.standard_normal((3, 4, 5))
        assert np.array_equal(kernels.permute(x, (0, 1, 2)), x)

    def test_hwc_to_chw(self, rng):
        x = rng.standard_normal((4, 5, 6))
        y = kernels.permute(x, (2, 0, 1))
        assert y.shape == (6, 4, 5)
        assert y[2, 1, 3] == x[1, 3, 2]

    @given(st.integers(0, 2**31), st.permutations([0, 1, 2]))
    def test_involution_bitwise(self, seed, order):
        x = np.random.default_rng(seed).standard_normal((2, 3, 4))
        y = kernels.permute(kernels.permute(x, order), inverse_order(order))
        assert np.array_equal(y, x)

    def test_bad_permutation(self):
        with pytest.raises(BadPermutation):
            kernels.permute(np.zeros((2, 2)), (0, 0))


class TestPool:
    def test_avg_example(self):
        out = kernels.pool_last_axis(np.array([[1.0, 2.0], [3.0, 4.0]]), "avg")
        assert np.array_equal(out, [[1.5], [3.5]])

    def test_max_example(self):
        out = kernels.pool_last_axis(np.array([[1.0, 2.0], [3.0, 4.0]]), "max")
        assert np.array_equal(out, [[2.0], [4.0]])

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((4, 5, 6))
        for kind in ("max", "avg"):
            assert_close(kernels.pool_last_axis(x, kind), loop_pool_last(x, kind))


class TestConv2d:
    def test_identity_1x1(self, rng):
        x = rng.standard_normal((3, 5, 5))
        w = np.eye(3).reshape(3, 3, 1, 1)
        assert_close(kernels.conv2d(x, w), x)

    def test_ones_1x3_row_sums(self):
        x = np.ones((1, 3, 3))
        w = np.ones((1, 1, 1, 3))
        out = kernels.conv2d(x, w, pad=(0, 1))
        assert np.array_equal(out[0], np.tile([2.0, 3.0, 2.0], (3, 1)))

    def test_grouped_equals_split_convs(self, rng):
        x = rng.standard_normal((6, 5, 5))
        b = rng.standard_normal(6)
        for groups in (2, 3):
            cg = 6 // groups
            w = rng.standard_normal((6, cg, 3, 3))
            out = kernels.conv2d(x, w, b, pad=1, groups=groups)
            for g in range(groups):
                sl = slice(g * cg, (g + 1) * cg)
                expect = kernels.conv2d(x[sl], w[sl], b[sl], pad=1)
                assert_close(out[sl], expect)

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((4, 7, 6))
        w = rng.standard_normal((6, 2, 3, 2))
        b = rng.standard_normal(6)
        out = kernels.conv2d(x, w, b, stride=(2, 1), pad=(1, 0), groups=2)
        assert_close(out, loop_conv2d(x, w, b, stride=(2, 1), pad=(1, 0), groups=2))

    @pytest.mark.parametrize("kh, kw, groups", [(3, 3, 1), (7, 7, 3)])
    def test_f32_in_f32_out(self, rng, kh, kw, groups):
        x = rng.standard_normal((6, 9, 8))
        w = rng.standard_normal((6, 6 // groups, kh, kw))
        b = rng.standard_normal(6)
        out = kernels.conv2d(x.astype(np.float32), w.astype(np.float32), b.astype(np.float32),
                             stride=(1, 2), pad=3, groups=groups)
        assert out.dtype == np.float32
        expect = loop_conv2d(x, w, b, stride=(1, 2), pad=(3, 3), groups=groups)
        np.testing.assert_allclose(out, expect, rtol=1e-4, atol=1e-4)

    def test_output_extent_formula(self, rng):
        x = rng.standard_normal((1, 8, 8))
        w = rng.standard_normal((1, 1, 2, 2))
        assert kernels.conv2d(x, w, stride=2).shape == (1, 4, 4)
        assert kernels.conv2d(x, w[:, :, :1, :1], stride=2).shape == (1, 4, 4)

    def test_shape_errors(self, rng):
        x = rng.standard_normal((4, 5, 5))
        with pytest.raises(ShapeMismatch):
            kernels.conv2d(x, rng.standard_normal((4, 3, 1, 1)))
        with pytest.raises(ShapeMismatch):
            kernels.conv2d(x, rng.standard_normal((3, 2, 1, 1)), groups=2)
        with pytest.raises(ShapeMismatch):
            kernels.conv2d(x, rng.standard_normal((4, 4, 9, 9)))
        with pytest.raises(ShapeMismatch):
            kernels.conv2d(x, rng.standard_normal((4, 4, 1, 1)), b=np.zeros(3))


class TestLayernorm:
    def test_constant_input_zeros(self):
        x = np.full((3, 4, 4), 7.0)
        out = kernels.layernorm(x, np.ones(3), np.zeros(3))
        assert np.max(np.abs(out)) < 1e-9

    def test_position_stats(self, rng):
        # Large input variance keeps the eps bias far below the tolerance.
        x = 100.0 * rng.standard_normal((8, 5, 5))
        gamma = np.full(8, 2.0)
        beta = np.full(8, 0.5)
        out = kernels.layernorm(x, gamma, beta)
        assert np.allclose(out.mean(axis=0), 0.5, atol=1e-6)
        assert np.allclose(out.var(axis=0), 4.0, rtol=1e-6)

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((5, 4, 3))
        gamma = rng.standard_normal(5)
        beta = rng.standard_normal(5)
        assert_close(kernels.layernorm(x, gamma, beta),
                     loop_layernorm(x, gamma, beta, 1e-6))

    def test_shape_error(self):
        with pytest.raises(ShapeMismatch):
            kernels.layernorm(np.zeros((3, 2, 2)), np.ones(4), np.zeros(3))


class TestActivation:
    def test_relu(self):
        assert np.array_equal(kernels.activation(np.array([-1.0, 2.0]), "relu"), [0.0, 2.0])

    def test_sigmoid_at_zero(self):
        for dtype in (np.float32, np.float64):
            out = kernels.activation(np.array([0.0, -0.0], dtype), "sigmoid")
            assert out.dtype == dtype and np.array_equal(out, [0.5, 0.5])

    def test_sigmoid_saturation_stays_open(self):
        out = kernels.activation(np.array([-50.0, 50.0, -1000.0, 1000.0, -np.inf, np.inf]), "sigmoid")
        assert np.all(out > 0.0) and np.all(out < 1.0)
        assert np.all(np.isfinite(out))
        info = np.finfo(np.float64)
        assert out[-2] == info.tiny and out[-1] == 1.0 - info.epsneg
        assert np.isnan(kernels.activation(np.array([np.nan]), "sigmoid")[0])

    def test_sigmoid_log_domain_oracle(self):
        # exp(x - log(1 + exp(x))) evaluated in log space for x << 0.
        x = -50.0
        expected = math.exp(x - math.log1p(math.exp(x)))
        assert kernels.activation(np.array([x]), "sigmoid")[0] == pytest.approx(expected, rel=1e-12)

    @given(arrays(np.float64, (3, 3), elements=st.floats(-30, 30)))
    def test_sigmoid_matches_naive(self, x):
        out = kernels.activation(x, "sigmoid")
        naive = 1.0 / (1.0 + np.exp(-x))
        np.testing.assert_allclose(out, naive, rtol=1e-12)


class TestConcat:
    def test_single_tensor_identity(self, rng):
        x = rng.standard_normal((2, 3, 3))
        assert np.array_equal(kernels.concat_channels([x]), x)

    def test_shapes(self, rng):
        a = rng.standard_normal((2, 4, 4))
        b = rng.standard_normal((3, 4, 4))
        assert kernels.concat_channels([a, b]).shape == (5, 4, 4)

    @given(st.integers(0, 2**31), st.integers(1, 4), st.integers(1, 4))
    def test_slice_back(self, seed, c1, c2):
        r = np.random.default_rng(seed)
        a, b = r.standard_normal((c1, 3, 2)), r.standard_normal((c2, 3, 2))
        out = kernels.concat_channels([a, b])
        assert np.array_equal(out[:c1], a)
        assert np.array_equal(out[c1:], b)

    def test_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            kernels.concat_channels([rng.standard_normal((2, 4, 4)), rng.standard_normal((2, 4, 5))])


class TestAffine:
    def test_identity(self, rng):
        x = rng.standard_normal(5)
        assert np.array_equal(kernels.affine(x, np.eye(5), np.zeros(5)), x)

    def test_zero_weight_gives_bias(self, rng):
        b = rng.standard_normal(4)
        assert np.array_equal(kernels.affine(rng.standard_normal(5), np.zeros((4, 5)), b), b)

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 3))
        W = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        flat = x.ravel()
        expect = [sum(W[i, j] * flat[j] for j in range(6)) + b[i] for i in range(4)]
        assert_close(kernels.affine(x, W, b), expect)

    def test_shape_error(self):
        with pytest.raises(ShapeMismatch):
            kernels.affine(np.zeros(5), np.zeros((4, 6)), np.zeros(4))


class TestFiniteDiff:
    def test_sum_of_squares(self):
        grad = finite_diff_grad(lambda x: float(np.sum(x**2)), np.array([1.0, 2.0]))
        assert np.allclose(grad, [2.0, 4.0], atol=1e-6)
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        grad = finite_diff_grad(lambda v: float(np.sum(v**2 * [[1.0, 2.0], [3.0, 4.0]])), x)
        assert grad.shape == x.shape
        assert np.allclose(grad, 2 * x * [[1.0, 2.0], [3.0, 4.0]], atol=1e-6)

    def test_sigmoid_derivative(self):
        def f(x):
            return float(kernels.activation(x, "sigmoid")[0])

        grad = finite_diff_grad(f, np.array([0.0]))
        assert grad[0] == pytest.approx(0.25, abs=1e-6)

    def test_nonfinite_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteFunction):
            finite_diff_grad(lambda x: float(np.log(x[0])), np.array([1e-9]), h=1e-5)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.zeros(2), h=0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from([1, 2, 3]), st.integers(1, 3), st.integers(1, 2),
       st.integers(1, 7), st.integers(1, 7), st.tuples(st.integers(1, 2), st.integers(1, 2)),
       st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 6), st.integers(0, 6),
       st.booleans())
# A 3x3 kernel padded by 1 on both axes (the stems' kernel and pad); a 2x5 kernel
# whose stride and pad differ per axis, so a tap offset or stride applied to the
# wrong axis shows; three groups gathered straight from a strided, unpadded input.
@example(seed=0, groups=1, c_per_g=2, og=2, kh=3, kw=3, stride=(1, 1), pad=(1, 1), dh=0, dw=2,
         strided_x=False)
@example(seed=0, groups=1, c_per_g=2, og=2, kh=2, kw=5, stride=(2, 1), pad=(0, 2), dh=3, dw=0,
         strided_x=False)
@example(seed=0, groups=3, c_per_g=2, og=1, kh=3, kw=2, stride=(1, 2), pad=(0, 0), dh=2, dw=3,
         strided_x=True)
def test_conv_oracle_random_shapes(seed, groups, c_per_g, og, kh, kw, stride, pad, dh, dw,
                                   strided_x):
    r = np.random.default_rng(seed)
    # The smallest input the padded kernel fits, plus dh/dw; extents of 1 occur.
    h = max(kh - 2 * pad[0], 1) + dh
    w = max(kw - 2 * pad[1], 1) + dw
    x = r.standard_normal((groups * c_per_g, h, w))
    if strided_x:
        # The same values stored as a (W, H, C) array and viewed as (C, H, W): not C-contiguous.
        x = np.ascontiguousarray(x.transpose(2, 1, 0)).transpose(2, 1, 0)
    wts = r.standard_normal((groups * og, c_per_g, kh, kw))
    b = r.standard_normal(groups * og)
    out = kernels.conv2d(x, wts, b, stride=stride, pad=pad, groups=groups)
    expect = loop_conv2d(x, wts, b, stride=stride, pad=pad, groups=groups)
    np.testing.assert_allclose(out, expect, rtol=RELTOL, atol=1e-13)
