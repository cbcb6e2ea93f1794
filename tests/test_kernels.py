"""Kernel tests: every vectorized kernel is compared against a naive
nested-loop implementation written here, independent of the package.
conv2d, standardize, the sigmoid and pooling are also pinned bit for bit
to the step-by-step formulas written here."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from endotrack import attention, decoder, kernels, pipeline
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


def gather_conv2d(x, w, b=None, stride=1, pad=0, groups=1):
    """The per-tap gather: each of the kh*kw strided taps copied into one
    (C_in, kh, kw, H_out, W_out) buffer, then a batched (groups, C_out/g, K)
    @ (groups, K, H_out*W_out) matmul for every group count, as conv2d
    runs it.  conv2d may build its buffer in two copies; its bits must
    match this form's all the same."""
    x, w = np.asarray(x), np.asarray(w)
    c_in, h, wd = x.shape
    c_out, c_per_g, kh, kw = w.shape
    sh, sw = (stride, stride) if np.isscalar(stride) else stride
    ph, pw = (pad, pad) if np.isscalar(pad) else pad
    h_out = (h + 2 * ph - kh) // sh + 1
    w_out = (wd + 2 * pw - kw) // sw + 1
    dtype = np.result_type(x, w)
    if ph or pw:
        xp = np.zeros((c_in, h + 2 * ph, wd + 2 * pw), dtype=dtype)
        xp[:, ph:ph + h, pw:pw + wd] = x
    else:
        xp = x
    cols = np.empty((c_in, kh, kw, h_out, w_out), dtype=dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i:i + sh * (h_out - 1) + 1:sh, j:j + sw * (w_out - 1) + 1:sw]
    k = c_per_g * kh * kw
    out = w.astype(dtype, copy=False).reshape(groups, c_out // groups, k) @ cols.reshape(groups, k, -1)
    out = out.reshape(c_out, h_out, w_out)
    if b is not None:
        out += np.asarray(b)[:, None, None].astype(dtype, copy=False)
    return out


def frame_conv_calls(size, dtype):
    """Every conv2d call (x, w, b, keywords) of one frame pair through the
    pipeline and the decoder at size x size."""
    calls = []

    def record(x, w, b=None, **kw):
        calls.append((x, w, b, kw))
        return kernels.conv2d(x, w, b, **kw)

    cfg = pipeline.PipelineConfig(height=size, width=size)
    params = pipeline.init_pipeline(cfg).astype(dtype)
    dec = decoder.decoder_init(cfg.fused_channels, 12, seed=1).astype(dtype)
    r = np.random.default_rng(size)
    prev, cur, flow = (r.standard_normal((c, size, size)).astype(dtype) for c in (3, 3, 2))
    with pytest.MonkeyPatch.context() as mp:
        for module in (pipeline, attention, decoder):
            mp.setattr(module, "conv2d", record)
        decoder.decoder_forward(pipeline.pipeline_forward(prev, cur, flow, params), dec)
    return calls


def standardize_formula(x, axis):
    return (x - x.mean(axis=axis, keepdims=True)) / np.sqrt(x.var(axis=axis, keepdims=True)
                                                           + kernels.EPS)


def sigmoid_formula(x):
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    info = np.finfo(x.dtype)
    return np.clip(out, info.tiny, 1.0 - info.epsneg)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)


def assert_same_bytes(a, b):
    """Same dtype, shape and bytes: tells +0.0 from -0.0, unlike assert_same_bits."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def signed_zero_map(rng, shape, dtype):
    """Mostly +0.0 and -0.0, so that many rows have a zero maximum over both
    signs; a few rows are NaN along each branch's pooled axis."""
    x = rng.choice(np.array([0.0, -0.0, -1.0, 1.0], dtype), size=shape, p=[0.45, 0.45, 0.05, 0.05])
    x[0, 1, :] = np.nan
    x[1, :, 2] = np.nan
    x[:, 0, 0] = np.nan
    return x


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


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_branch_views_bitwise(self, rng, dtype):
        f0 = rng.standard_normal((8, 16, 12)).astype(dtype)
        for order in ((1, 2, 0), (0, 1, 2), (0, 2, 1)):
            view = f0.transpose(order)
            assert_same_bits(kernels.pool_last_axis(view, "max"), view.max(axis=-1, keepdims=True))
            assert_same_bits(kernels.pool_last_axis(view, "avg"), view.mean(axis=-1, keepdims=True))

    def test_integer_mean_is_float64(self):
        out = kernels.pool_last_axis(np.array([[1, 2], [3, 6]]), "avg")
        assert_same_bits(out, np.array([[1.5], [4.5]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 5, 7), (8, 33, 33), (4, 17, 9), (2, 3, 70), (8, 600, 16)])
    def test_branch_views_same_bytes_with_signed_zeros_and_nan(self, rng, dtype, shape):
        # Rows of 9, 17 and 33 end just past a SIMD block, where numpy's row
        # max and a max over a leading-axis copy give a zero maximum different
        # signs.  Rows of 70 take numpy's row max; the 8x600x16 map's rows of
        # 16 take the copy route at 300 and 600 KiB.  The last map has zero
        # maxima beside negatives and no -0.0.
        for f0 in (signed_zero_map(rng, shape, dtype), rng.standard_normal(shape).astype(dtype),
                   np.maximum(rng.standard_normal(shape).astype(dtype), 0),
                   np.minimum(rng.standard_normal(shape).astype(dtype), 0)):
            for order in ((1, 2, 0), (0, 1, 2), (0, 2, 1)):
                view = f0.transpose(order)
                assert_same_bytes(kernels.pool_last_axis(view, "max"), view.max(axis=-1, keepdims=True))
                assert_same_bytes(kernels.pool_last_axis(view, "avg"), view.mean(axis=-1, keepdims=True))


class TestMean:
    """kernels._mean is ndarray.mean(axis, keepdims=True), byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_matches_ndarray_mean(self, rng, dtype):
        base = (3.0 * rng.standard_normal((8, 33, 33)) + 1.0).astype(dtype)
        for x in (base, base.transpose(1, 2, 0), base[:, ::2, 1:], signed_zero_map(rng, (3, 5, 7), dtype)):
            for axis in (0, -1, (1, 2), (0, 1, 2)):
                assert_same_bytes(kernels._mean(x, axis), x.mean(axis, keepdims=True))

    def test_float32_quotients_match_ndarray_mean(self, rng):
        # Each row sums to its first entry, a random finite float32 bit
        # pattern (subnormals and both zeros included), so every count
        # divides a spread of sums; ndarray.mean divides them in float64.
        first = rng.integers(0, 2**32, 4096, dtype=np.uint64).astype(np.uint32).view(np.float32)
        first = first[np.isfinite(first)]
        for n in (3, 7, 10, 49, 641):
            x = np.zeros((first.size, n), np.float32)
            x[:, 0] = first
            assert_same_bytes(kernels._mean(x, -1), x.mean(-1, keepdims=True))

    def test_count_float32_cannot_hold(self):
        # 2**24 + 3 rounds to 2**24 + 4 as a float32; a broadcast view keeps the array small.
        x = np.broadcast_to((np.arange(8, dtype=np.float32) * 0.37 + 0.1)[:, None], (8, 2**24 + 3))
        assert_same_bytes(kernels._mean(x, -1), x.mean(-1, keepdims=True))

    def test_integer_and_bool_are_float64(self):
        for x in (np.arange(24).reshape(2, 3, 4), np.arange(24, dtype=np.uint8).reshape(2, 3, 4),
                  np.arange(24).reshape(2, 3, 4) % 3 == 0):
            for axis in (0, (1, 2)):
                out = kernels._mean(x, axis)
                assert out.dtype == np.float64
                assert_same_bytes(out, x.mean(axis, keepdims=True))

    def test_empty_matches_with_the_same_warnings(self):
        # A zero count (reducing an empty axis) warns "Mean of empty slice" and gives NaN.
        for shape, axis in (((0, 3, 3), (1, 2)), ((2, 0, 3), 0), ((2, 0, 3), 1), ((0, 4), -1)):
            x = np.zeros(shape, np.float32)
            with warnings.catch_warnings(record=True) as want_warnings:
                warnings.simplefilter("always")
                want = x.mean(axis, keepdims=True)
            with warnings.catch_warnings(record=True) as got_warnings:
                warnings.simplefilter("always")
                got = kernels._mean(x, axis)
            assert_same_bytes(got, want)
            assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]


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


    @pytest.mark.parametrize("kw", [
        {"stride": 0}, {"stride": -1}, {"stride": 1.5}, {"stride": True}, {"stride": (2, 0)},
        {"stride": (1, 2, 1)}, {"stride": None}, {"pad": -1}, {"pad": (0, -1)}, {"pad": 0.5},
        {"pad": "1"}, {"pad": np.array(1)},
    ], ids=repr)
    def test_bad_stride_or_pad_names_it(self, rng, kw):
        (name,) = kw
        with pytest.raises(ShapeMismatch, match=f"^{name} must be an integer"):
            kernels.conv2d(rng.standard_normal((2, 6, 6)), rng.standard_normal((2, 2, 3, 3)), **kw)

    def test_integer_like_stride_and_pad(self, rng):
        x = rng.standard_normal((2, 9, 8))
        w = rng.standard_normal((2, 2, 3, 3))
        expect = kernels.conv2d(x, w, stride=2, pad=1)
        for stride, pad in ((np.int64(2), np.int32(1)), ([2, 2], (1, 1)), (np.array([2, 2]), 1)):
            assert_same_bits(kernels.conv2d(x, w, stride=stride, pad=pad), expect)

    @pytest.mark.parametrize("kw, message", [
        ({"stride": (True, 1)}, "stride must be an integer, got True"),
        ({"stride": (2, 1.0)}, "stride must be an integer, got 1.0"),
        ({"stride": (np.int64(0), 1)}, "stride must be an integer >= 1, got 0"),
        ({"pad": (1, np.int64(-1))}, "pad must be an integer >= 0, got -1"),
        ({"pad": (-1, 0)}, "pad must be an integer >= 0, got -1"),
        ({"stride": (1, 1, 1)}, "stride must be an integer or a pair of them, got (1, 1, 1)"),
        ({"pad": (1,)}, "pad must be an integer or a pair of them, got (1,)"),
        ({"stride": [2, 0]}, "stride must be an integer >= 1, got 0"),
        ({"pad": [0, -2]}, "pad must be an integer >= 0, got -2"),
    ], ids=repr)
    def test_bad_pairs_refused_with_their_message(self, rng, kw, message):
        # Only a tuple of two plain ints within bound skips _pair's general branch.
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            kernels.conv2d(rng.standard_normal((2, 6, 6)), rng.standard_normal((2, 2, 3, 3)), **kw)

    def test_int_pair_types_same_bits(self, rng):
        # Rows and columns differ, so a pair read in the wrong order shows.
        x = rng.standard_normal((2, 9, 8))
        w = rng.standard_normal((2, 2, 3, 2))
        expect = kernels.conv2d(x, w, stride=(2, 1), pad=(1, 0))
        for stride, pad in (((np.int64(2), np.int64(1)), (np.int64(1), np.int64(0))), ([2, 1], [1, 0])):
            assert_same_bits(kernels.conv2d(x, w, stride=stride, pad=pad), expect)

    @pytest.mark.parametrize("size", [16, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_frame_path_arguments_take_the_short_route(self, size, dtype):
        """Every frame-path call passes plain ints or tuples of them and x, w
        and b as arrays of the frame's dtype, so none of them pays for
        ``_pair``'s general branch, ``integer`` or ``np.result_type``."""
        for x, w, b, kw in frame_conv_calls(size, dtype):
            for name, v in kw.items():
                assert type(v) is int or (type(v) is tuple and len(v) == 2
                                          and type(v[0]) is type(v[1]) is int), (name, v)
            assert type(x) is type(w) is type(b) is np.ndarray
            assert x.dtype == w.dtype == b.dtype == np.dtype(dtype)


class TestConvBitExact:
    """conv2d against the per-tap gather oracle, bit for bit."""

    @pytest.mark.parametrize("size", [16, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_frame_path_conv(self, size, dtype):
        calls = frame_conv_calls(size, dtype)
        assert len(calls) == 22
        for x, w, b, kw in calls:
            assert_same_bits(kernels.conv2d(x, w, b, **kw), gather_conv2d(x, w, b, **kw))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unpadded_non_contiguous_input(self, rng, dtype):
        a = rng.standard_normal((6, 11, 9)).astype(dtype)
        w = rng.standard_normal((6, 2, 3, 2)).astype(dtype)
        b = rng.standard_normal(6).astype(dtype)
        readonly = a.copy()
        readonly.flags.writeable = False
        for x in (a.transpose(0, 2, 1), np.ascontiguousarray(a.transpose(2, 1, 0)).transpose(2, 1, 0),
                  a[:, ::2, 1:], readonly):
            for stride in (1, (2, 1)):
                assert_same_bits(kernels.conv2d(x, w, b, stride=stride, groups=3),
                                 gather_conv2d(x, w, b, stride=stride, groups=3))

    def test_f32_input_f64_weights(self, rng):
        x = rng.standard_normal((6, 10, 10)).astype(np.float32)
        w = rng.standard_normal((6, 2, 7, 7))
        b = rng.standard_normal(6)
        for pad in (0, 3):
            out = kernels.conv2d(x, w, b, pad=pad, groups=3)
            assert out.dtype == np.float64
            assert_same_bits(out, gather_conv2d(x, w, b, pad=pad, groups=3))

    @pytest.mark.parametrize("groups", [1, 3])
    def test_mixed_dtypes_and_lists(self, rng, groups):
        # Mixed dtypes and lists fall off the short route: the dtype comes
        # from np.result_type and the weight or bias is cast to it.
        x = rng.standard_normal((6, 9, 8)).astype(np.float32)
        w64 = rng.standard_normal((6, 6 // groups, 3, 2))
        w = w64.astype(np.float32)
        b64 = rng.standard_normal(6)
        b = b64.astype(np.float32)
        cases = [
            (x, w64, b64, np.float64),
            (x, w, b64, np.float32),
            (x, w, b64.tolist(), np.float32),
            (x.tolist(), w, b, np.float64),
            # One dtype, byte-swapped, stays on it; matmul returns native float32.
            (x.astype(">f4"), w.astype(">f4"), b, np.float32),
        ]
        for xi, wi, bi, out_dtype in cases:
            for pad in (0, (1, 2)):
                out = kernels.conv2d(xi, wi, bi, pad=pad, groups=groups)
                assert out.dtype == np.dtype(out_dtype)
                assert_same_bits(out, gather_conv2d(xi, wi, bi, pad=pad, groups=groups))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout, values", [
        ("contiguous", "normal"), ("non-contiguous", "normal"), ("read-only", "normal"),
        ("negative-stride", "normal"), ("contiguous", "signed-zeros-nan")])
    def test_two_stage_condition_sweep(self, rng, dtype, layout, values):
        # Both sides of kernels._two_stage: kernels 1, 2, 3 and 7 each way,
        # every stride and pad pairing, output rows just under, at and just
        # over the row bound, and 5 or 10 output rows (too few and enough
        # runs saved for 3x3 and 7x7 kernels).
        itemsize = np.dtype(dtype).itemsize
        bound = kernels._TWO_STAGE_ROW_BYTES // itemsize
        taken = set()
        for kh in (1, 2, 3, 7):
            for kw in (1, 2, 3, 7):
                for stride in (1, (1, 2), (2, 1), 2):
                    sh, sw = (stride, stride) if type(stride) is int else stride
                    for pad in (0, 3, (1, 0), (0, 2)):
                        ph, pw = (pad, pad) if type(pad) is int else pad
                        for h_out in (5, 10):
                            for w_out in (bound - 1, bound, bound + 1):
                                h = max((h_out - 1) * sh + kh - 2 * ph, 1)
                                w = (w_out - 1) * sw + kw - 2 * pw
                                for groups in (1, 3):
                                    x = self._sweep_input(rng, (6, h, w), dtype, layout, values)
                                    wts = rng.standard_normal((6, 6 // groups, kh, kw)).astype(dtype)
                                    b = rng.standard_normal(6).astype(dtype)
                                    kw_args = dict(stride=stride, pad=pad, groups=groups)
                                    out = kernels.conv2d(x, wts, b, **kw_args)
                                    assert_same_bytes(out, gather_conv2d(x, wts, b, **kw_args))
                                    assert out.shape[2] == w_out
                                    two = kernels._two_stage(kh, kw, sh, out.shape[1], w_out * itemsize)
                                    taken.add((two, w_out - bound))
        # Two copies under and at the bound, one copy over it, and one copy
        # on each side of the bound too.
        assert taken == {(True, -1), (True, 0), (False, -1), (False, 0), (False, 1)}

    @staticmethod
    def _sweep_input(rng, shape, dtype, layout, values):
        if values == "normal":
            a = rng.standard_normal(shape).astype(dtype)
        else:
            a = rng.choice(np.array([0.0, -0.0, 1.0, -1.0], dtype), size=shape, p=[0.45, 0.45, 0.05, 0.05])
            a[0, -1, -1] = np.nan
        if layout == "non-contiguous":
            a = np.ascontiguousarray(a.transpose(2, 1, 0)).transpose(2, 1, 0)
        elif layout == "read-only":
            a.flags.writeable = False
        elif layout == "negative-stride":
            a = a[:, ::-1, ::-1].copy()[:, ::-1, ::-1]
        return a

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_3x1_kernel(self, rng, dtype):
        # The (C, W) branch: a 1x3 kernel turned to slide along C, on a plane as wide as W.
        x = rng.standard_normal((1, 8, 32)).astype(dtype)
        w = rng.standard_normal((1, 1, 3, 1)).astype(dtype)
        b = rng.standard_normal(1).astype(dtype)
        assert_same_bits(kernels.conv2d(x, w, b, pad=(1, 0)), gather_conv2d(x, w, b, pad=(1, 0)))


class TestStandardize:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [0, (1, 2)])
    def test_matches_mean_var_formula_bitwise(self, rng, dtype, axis):
        fused = (3.0 * rng.standard_normal((32, 16, 16)) + 1.0).astype(dtype)
        # A non-contiguous (C, H, W) view: standardize must not depend on memory layout.
        joint = rng.standard_normal((16, 16, 8)).astype(dtype).transpose(2, 0, 1)
        for x in (fused, joint):
            assert_same_bits(kernels.standardize(x, axis), standardize_formula(x, axis))

    def test_integer_input_is_float64(self):
        x = np.arange(24).reshape(2, 3, 4)
        assert_same_bits(kernels.standardize(x, (1, 2)), standardize_formula(x, (1, 2)))

    def test_zero_size_input(self):
        for shape, axis in (((0, 3, 3), (1, 2)), ((2, 0, 3), 0)):
            x = np.zeros(shape, np.float32)
            assert_same_bits(kernels.standardize(x, axis), standardize_formula(x, axis))


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_branch_formula_bitwise(self, rng, dtype):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 17.0, -17.0, 40.0, -40.0,
                      88.0, -88.0, 104.0, -104.0, 745.0, -745.0, 1e300, -1e300], np.float64)
        with np.errstate(over="ignore"):
            x = np.concatenate([x.astype(dtype), (30.0 * rng.standard_normal(200)).astype(dtype)])
        assert_same_bits(kernels.activation(x, "sigmoid"), sigmoid_formula(x))

    def test_sigmoid_integer_input_is_float64(self):
        x = np.arange(-40, 41, 5)
        assert_same_bits(kernels.activation(x, "sigmoid"), sigmoid_formula(x.astype(np.float64)))

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
    assert_same_bits(out, gather_conv2d(x, wts, b, stride=stride, pad=pad, groups=groups))
