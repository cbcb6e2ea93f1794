"""Dense tensor kernels backing the attention block and pose decoder.

Tensors are plain numpy arrays, row-major, float64 unless the caller feeds
float32 (the benchmark's reduced-precision mode).  Feature maps use the
(C, H, W) layout; the attention block pools its (H, W, C) maps through views.
Every kernel here is pure and deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import BadPermutation, ShapeMismatch


def _pair(v) -> tuple[int, int]:
    if np.isscalar(v):
        return int(v), int(v)
    a, b = v
    return int(a), int(b)


def permute(x: np.ndarray, order) -> np.ndarray:
    """Reorder axes; inverse order restores the input bitwise."""
    x = np.asarray(x)
    order = tuple(int(a) for a in order)
    if sorted(order) != list(range(x.ndim)):
        raise BadPermutation(f"{order} is not a permutation of 0..{x.ndim - 1}")
    return np.transpose(x, order).copy()


def pool_last_axis(x: np.ndarray, kind: str) -> np.ndarray:
    """Reduce the final axis to extent 1 by max or mean."""
    x = np.asarray(x)
    if kind == "max":
        return x.max(axis=-1, keepdims=True)
    if kind == "avg":
        return x.mean(axis=-1, keepdims=True)
    raise ValueError(f"unknown pooling kind {kind!r}")


def conv2d(x: np.ndarray, w: np.ndarray, b=None, stride=1, pad=0, groups: int = 1) -> np.ndarray:
    """Grouped 2-D cross-correlation with zero padding.

    x: (C_in, H, W); w: (C_out, C_in/groups, kh, kw); b: (C_out,) or None.
    Output spatial extent is floor((H + 2*pad - kh)/stride) + 1.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeMismatch(f"conv2d expects (C,H,W) input and 4-D weights, got {x.shape}, {w.shape}")
    c_in, h, wd = x.shape
    c_out, c_per_g, kh, kw = w.shape
    if groups < 1 or c_in % groups or c_out % groups:
        raise ShapeMismatch(f"groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_per_g != c_in // groups:
        raise ShapeMismatch(f"weight channel dim {c_per_g} != C_in/groups = {c_in // groups}")
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    h_out = (h + 2 * ph - kh) // sh + 1
    w_out = (wd + 2 * pw - kw) // sw + 1
    if h_out < 1 or w_out < 1:
        raise ShapeMismatch(f"kernel {kh}x{kw} exceeds padded input {h + 2 * ph}x{wd + 2 * pw}")

    dtype = np.result_type(x, w)
    if ph or pw:
        xp = np.zeros((c_in, h + 2 * ph, wd + 2 * pw), dtype=dtype)
        xp[:, ph:ph + h, pw:pw + wd] = x
    else:
        xp = x
    # Gathered im2col: copy every strided tap into one (C_in, kh, kw, H_out,
    # W_out) buffer, then one (groups, C_out/g, K) @ (groups, K, H_out*W_out) matmul.
    cols = np.empty((c_in, kh, kw, h_out, w_out), dtype=dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i:i + sh * (h_out - 1) + 1:sh, j:j + sw * (w_out - 1) + 1:sw]
    k = c_per_g * kh * kw
    out = w.astype(dtype, copy=False).reshape(groups, c_out // groups, k) @ cols.reshape(groups, k, -1)
    out = out.reshape(c_out, h_out, w_out)
    if b is not None:
        b = np.asarray(b)
        if b.shape != (c_out,):
            raise ShapeMismatch(f"bias must have shape ({c_out},), got {b.shape}")
        out += b[:, None, None].astype(dtype, copy=False)
    return out


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Normalize over the channel axis at each spatial position.

    x: (C, H, W); gamma, beta: (C,).
    """
    x = np.asarray(x)
    gamma = np.asarray(gamma)
    beta = np.asarray(beta)
    if x.ndim != 3 or gamma.shape != (x.shape[0],) or beta.shape != (x.shape[0],):
        raise ShapeMismatch(f"layernorm shapes: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}")
    mu = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    z = (x - mu) / np.sqrt(var + eps)
    return z * gamma[:, None, None] + beta[:, None, None]


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
        dtype = x.dtype if x.dtype in (np.float32, np.float64) else np.float64
        x = x.astype(dtype, copy=False)
        # exp(-|x|) never overflows; minimum(x, -x) is -|x| that keeps a NaN's sign.
        e = np.exp(np.minimum(x, -x))
        out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        info = np.finfo(dtype)
        return np.clip(out, info.tiny, 1.0 - info.epsneg)
    raise ValueError(f"unknown activation kind {kind!r}")


def concat_channels(xs) -> np.ndarray:
    """Concatenate along axis 0; all other extents must match."""
    xs = [np.asarray(x) for x in xs]
    if not xs:
        raise ShapeMismatch("need at least one tensor to concatenate")
    rest = xs[0].shape[1:]
    for x in xs[1:]:
        if x.ndim != xs[0].ndim or x.shape[1:] != rest:
            raise ShapeMismatch(f"non-channel extents differ: {x.shape[1:]} vs {rest}")
    return np.concatenate(xs, axis=0)


def affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = W @ flatten(x) + b."""
    x = np.asarray(x).ravel()
    W = np.asarray(W)
    b = np.asarray(b)
    if W.ndim != 2 or W.shape[1] != x.size or b.shape != (W.shape[0],):
        raise ShapeMismatch(f"affine shapes: x {x.size}, W {W.shape}, b {b.shape}")
    return W @ x + b
