"""Dense tensor kernels backing the feature front end, the attention block
and the pose decoder, and the standardization and initializer they share.

Tensors are plain numpy arrays, row-major, float64 unless the caller feeds
float32 (the benchmark's reduced-precision mode).  Feature maps use the
(C, H, W) layout; the attention block pools them through transposed views.
``pool_last_axis`` takes the max over short contiguous rows from a copy
that puts the row axis first (numpy's short-row max costs about three times
as much on the 64x64 frame's float32 attention maps), and every mean here
is the private ``_mean``: ndarray.mean's own ``np.add.reduce`` and in-place
divide by the count, without its Python wrapper.  Both give ndarray's bits.
``conv2d`` gathers without a per-tap loop: one strided view of the padded
input holds every tap of every output position (an indirection buffer, as
in Dukhan's Indirect Convolution Algorithm, with strides in place of the
index table), and one copy of it is the operand of a single matmul.
In ``conv2d``, plain ints, int pairs and an x and w of one dtype take a
short route of exact type tests; every other input still goes through
``_pair``, ``integer`` and ``np.result_type``, with the same refusals.
Every kernel here is pure and deterministic; ``conv_init`` draws from the
generator it is given.
"""

from __future__ import annotations

import numpy as np

from .errors import BadPermutation, ShapeMismatch, integer

# Added to the variance before the square root in every standardization.
EPS = 1e-6

_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
# Per float dtype, the signed integer dtype of its width and that dtype's
# least value, the bit pattern of -0.0.
_BITS = {t: (np.dtype(f"i{t.itemsize}"), np.iinfo(f"i{t.itemsize}").min) for t in _FLOATS}
# Longest rows whose max pool_last_axis takes over a leading-axis copy.  On a
# 2-core Xeon (2 MiB L2 per core) that took 0.1-0.7x the time of numpy's row
# max on 8-channel maps of up to 2 MiB with rows of at most 256 bytes, but
# 2.8-6.4x on 512-byte rows.  (It also costs 1.4-3.6x on maps of 4 MiB and
# more, which the attention block meets only on frames 4096 px tall.)
_COPY_ROW_BYTES = 256
# Per float dtype, the sigmoid's clip bounds: one ulp inside (0, 1).
_SIGMOID_BOUNDS = {t: (np.finfo(t).tiny, 1.0 - np.finfo(t).epsneg) for t in _FLOATS}


def _pair(v, name: str, least: int) -> tuple[int, int]:
    """One integer >= ``least`` for both axes, or a pair of them; else ShapeMismatch naming ``name``."""
    # Exact type tests settle a plain int or a tuple of two (never a bool) at once.
    if type(v) is int and v >= least:
        return v, v
    if type(v) is tuple and len(v) == 2:
        a, b = v
        if type(a) is int and type(b) is int and a >= least and b >= least:
            return v
    if not isinstance(v, (tuple, list, np.ndarray)):
        v = integer(v, name, least)
        return v, v
    try:
        a, b = v
    except (TypeError, ValueError):
        raise ShapeMismatch(f"{name} must be an integer or a pair of them, got {v!r}") from None
    return integer(a, name, least), integer(b, name, least)


def permute(x: np.ndarray, order) -> np.ndarray:
    """Reorder axes; inverse order restores the input bitwise."""
    x = np.asarray(x)
    order = tuple(integer(a, "order") for a in order)
    if sorted(order) != list(range(x.ndim)):
        raise BadPermutation(f"{order} is not a permutation of 0..{x.ndim - 1}")
    return np.transpose(x, order).copy()


def _mean(x: np.ndarray, axis) -> np.ndarray:
    """``x.mean(axis, keepdims=True)``, bit for bit: on a non-empty float32 or
    float64 array, the same ``np.add.reduce`` and in-place divide by the
    count that ndarray.mean runs, without its Python wrapper.  Other dtypes
    and empty arrays go through ndarray.mean for its result dtype and
    empty-slice warning.

    ndarray.mean divides by an ``np.intp`` count, which sends float32 through
    the float64 loop.  A count of at most 2**24, which float32 holds exactly,
    divides as a plain int in the array's own loop instead: a float32
    quotient rounded once equals one rounded through float64, since 53 >=
    2*24 + 2 bits.  Larger counts stay ``np.intp``.
    """
    if x.size == 0 or x.dtype not in _FLOATS:
        return x.mean(axis, keepdims=True)
    s = np.add.reduce(x, axis, keepdims=True)
    n = x.size // s.size
    return np.true_divide(s, n if n <= 2**24 else np.intp(n), out=s, casting="unsafe")


def pool_last_axis(x: np.ndarray, kind: str) -> np.ndarray:
    """Reduce the final axis to extent 1 by max or mean.

    The float max over short contiguous rows of a multi-axis array reduces a
    copy with the row axis first, which skips numpy's per-row cost.  Max is exact in any order but for the sign of a zero maximum over
    both +0.0 and -0.0, so when the input holds a -0.0 (the least integer of
    its bit patterns), the rows whose maximum is zero are reduced again as
    rows.
    """
    x = np.asarray(x)
    if kind == "max":
        if (x.dtype not in _FLOATS or x.ndim < 2 or x.strides[-1] != x.itemsize
                or x.shape[-1] * x.itemsize > _COPY_ROW_BYTES):
            return x.max(axis=-1, keepdims=True)
        c = np.ascontiguousarray(x.transpose(-1, *range(x.ndim - 1)))
        m = c.max(axis=0)
        if np.count_nonzero(m) < m.size:
            bits, neg_zero = _BITS[c.dtype]
            if c.view(bits).min() == neg_zero:
                zero = m == 0
                m[zero] = x[zero].max(axis=-1)
        return m[..., None]
    if kind == "avg":
        return _mean(x, -1)
    raise ValueError(f"unknown pooling kind {kind!r}")


def conv_init(rng, c_out: int, c_in: int, kh: int, kw: int) -> tuple[np.ndarray, np.ndarray]:
    """Fan-in uniform weights (c_out, c_in, kh, kw), then bias (c_out,), both
    drawn from U(-k, k) with k = 1/sqrt(c_in*kh*kw)."""
    k = 1.0 / np.sqrt(c_in * kh * kw)
    return rng.uniform(-k, k, size=(c_out, c_in, kh, kw)), rng.uniform(-k, k, size=(c_out,))


def conv2d(x: np.ndarray, w: np.ndarray, b=None, stride=1, pad=0, groups: int = 1) -> np.ndarray:
    """Grouped 2-D cross-correlation with zero padding.

    x: (C_in, H, W); w: (C_out, C_in/groups, kh, kw); b: (C_out,) or None.
    stride (>= 1) and pad (>= 0) are an integer or a (rows, columns) pair of
    integers, groups (>= 1) an integer.  Output spatial extent is
    floor((H + 2*pad - kh)/stride) + 1.  Plain ints, tuples of two plain
    ints and an x and w of one dtype take a short route of exact type
    tests; any other argument goes through ``_pair``, ``integer`` and
    ``np.result_type``.  Both routes refuse the same inputs with the same
    messages.
    """
    if type(x) is not np.ndarray:
        x = np.asarray(x)
    if type(w) is not np.ndarray:
        w = np.asarray(w)
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeMismatch(f"conv2d expects (C,H,W) input and 4-D weights, got {x.shape}, {w.shape}")
    c_in, h, wd = x.shape
    c_out, c_per_g, kh, kw = w.shape
    if type(groups) is not int or groups < 1:
        groups = integer(groups, "groups", 1)
    if c_in % groups or c_out % groups:
        raise ShapeMismatch(f"groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_per_g != c_in // groups:
        raise ShapeMismatch(f"weight channel dim {c_per_g} != C_in/groups = {c_in // groups}")
    sh, sw = _pair(stride, "stride", 1)
    ph, pw = _pair(pad, "pad", 0)
    h_out = (h + 2 * ph - kh) // sh + 1
    w_out = (wd + 2 * pw - kw) // sw + 1
    if h_out < 1 or w_out < 1:
        raise ShapeMismatch(f"kernel {kh}x{kw} exceeds padded input {h + 2 * ph}x{wd + 2 * pw}")

    if w.dtype == x.dtype:
        dtype = x.dtype
    else:
        dtype = np.result_type(x, w)
        w = w.astype(dtype, copy=False)
    if ph or pw:
        xp = np.zeros((c_in, h + 2 * ph, wd + 2 * pw), dtype=dtype)
        xp[:, ph:ph + h, pw:pw + wd] = x
    else:
        xp = np.ascontiguousarray(x, dtype=dtype)
    # Gathered im2col: one (C_in, kh, kw, H_out, W_out) view of the padded
    # input, whose tap axes step one row/column and whose output axes step a
    # stride (numpy refuses it if it reaches outside xp), copied once into a
    # C-contiguous buffer; then one (groups, C_out/g, K) @ (groups, K,
    # H_out*W_out) matmul, a 2-D one for a single group.  The copy is what
    # keeps the bits: reshaping the view itself can hand matmul an operand
    # whose rows overlap.
    s0, s1, s2 = xp.strides
    taps = np.ndarray((c_in, kh, kw, h_out, w_out), dtype, xp, 0, (s0, s1, s2, s1 * sh, s2 * sw))
    cols = np.ascontiguousarray(taps)
    k = c_per_g * kh * kw
    if groups == 1:
        out = w.reshape(c_out, k) @ cols.reshape(k, -1)
    else:
        out = w.reshape(groups, c_out // groups, k) @ cols.reshape(groups, k, -1)
    out = out.reshape(c_out, h_out, w_out)
    if b is not None:
        if type(b) is not np.ndarray:
            b = np.asarray(b)
        if b.shape != (c_out,):
            raise ShapeMismatch(f"bias must have shape ({c_out},), got {b.shape}")
        if b.dtype != dtype:
            b = b.astype(dtype)
        out += b[:, None, None]
    return out


def standardize(x: np.ndarray, axis) -> np.ndarray:
    """Zero mean, unit variance over ``axis``: (x - mean) / sqrt(var + EPS)."""
    # An integer x comes out float64, the dtype of its mean.
    x = np.asarray(x)
    d = x - _mean(x, axis)
    d /= np.sqrt(_mean(np.square(d), axis) + EPS)
    return d


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalize over the channel axis at each spatial position.

    x: (C, H, W); gamma, beta: (C,).
    """
    x = np.asarray(x)
    gamma = np.asarray(gamma)
    beta = np.asarray(beta)
    if x.ndim != 3 or gamma.shape != (x.shape[0],) or beta.shape != (x.shape[0],):
        raise ShapeMismatch(f"layernorm shapes: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}")
    return standardize(x, 0) * gamma[:, None, None] + beta[:, None, None]


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise relu or sigmoid.

    The sigmoid is evaluated branch-wise so large |x| cannot overflow, and
    the result is nudged into the open interval (0, 1): saturated values
    land one ulp inside the bounds instead of on them.
    """
    x = np.asarray(x)
    if kind == "relu":
        return np.maximum(x, 0)
    if kind == "sigmoid":
        lo, hi = _SIGMOID_BOUNDS.get(x.dtype, _SIGMOID_BOUNDS[np.dtype(np.float64)])
        x = x.astype(lo.dtype, copy=False)
        # exp(-|x|) never overflows; minimum(x, -x) is -|x| that keeps a NaN's sign.
        e = np.exp(np.minimum(x, -x))
        out = np.where(x >= 0, 1.0, e)
        out /= np.add(e, 1.0, out=e)
        np.maximum(out, lo, out=out)
        return np.minimum(out, hi, out=out)
    raise ValueError(f"unknown activation kind {kind!r}")


def concat_channels(xs) -> np.ndarray:
    """Concatenate along axis 0; all other extents must match."""
    try:
        return np.concatenate(xs, axis=0)
    except ValueError as e:
        raise ShapeMismatch(str(e)) from None


def affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = W @ flatten(x) + b."""
    x = np.asarray(x).ravel()
    W = np.asarray(W)
    b = np.asarray(b)
    if W.ndim != 2 or W.shape[1] != x.size or b.shape != (W.shape[0],):
        raise ShapeMismatch(f"affine shapes: x {x.size}, W {W.shape}, b {b.shape}")
    return W @ x + b
