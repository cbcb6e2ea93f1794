"""Finite-difference gradient checks of the attention block, decoder and
loss weights.  Every probe perturbs one element of one parameter-tree leaf
through ``tree.with_element``; a check names its leaves by dotted path."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tree
from .attention import AttentionParams, attention_forward, attention_init
from .decoder import DecoderParams, decoder_forward, decoder_init
from .errors import NonFiniteFunction
from .losses import LossWeights, geometric_loss, geometric_loss_lambda_grad
from .se3 import PoseVec, quat_normalize, rotmat_from_axis_angle, rotmat_to_quat


@dataclass(frozen=True)
class GradCheckEntry:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.max_rel_err)) and self.max_rel_err <= self.tol


def central_diff(f: Callable[[float], float], v: float, h: float) -> float:
    return (f(v + h) - f(v - h)) / (2.0 * h)


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one probe per element.

    Intended for small verification problems; cost is 2*size evaluations.
    Raises NonFiniteFunction if any probe returns NaN/Inf.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i, idx in enumerate(np.ndindex(x.shape)):
        grad[idx] = central_diff(lambda v: float(f(tree.with_element(x, "", idx, v))), x[idx], h)
        if not np.isfinite(grad[idx]):
            raise NonFiniteFunction(f"objective non-finite at element {i}")
    return grad


def two_step_rel_err(f: Callable[[float], float], v: float, h: float) -> float:
    """Relative disagreement of central differences at steps h and h/10.

    A smooth objective gives O(h^2) truncation error, so the two estimates
    agree to ~1% long before the 5% acceptance tolerance.  A floor of 1e-8
    keeps near-zero gradients from dividing by zero.  Returns inf on NaN/Inf.
    """
    g1 = central_diff(f, float(v), h)
    g2 = central_diff(f, float(v), h / 10.0)
    if not (np.isfinite(g1) and np.isfinite(g2)):
        return float("inf")
    return abs(g1 - g2) / max(abs(g1), abs(g2), 1e-8)


def _worst_leaf_errors(objective: Callable, params, leaves: dict, h: float, tol: float = 0.05):
    """One entry per ``{entry name: leaf path}``: the worst two_step_rel_err
    of ``objective(params)`` over that leaf's elements, which passes if it is
    finite and at most ``tol``."""
    flat = tree.flatten(params)
    entries = []
    for name, path in leaves.items():
        leaf = np.asarray(flat[path])
        errs = [two_step_rel_err(lambda v: objective(tree.with_element(params, path, idx, v)),
                                 leaf[idx], h) for idx in np.ndindex(leaf.shape)]
        entries.append(GradCheckEntry(name, max([0.0, *errs]), tol))
    return entries


def attention_grad_check(f0: np.ndarray, params: AttentionParams):
    """Step-size consistency of d sum(attention_forward(f0)) / d(alpha, beta, conv_w); f0 is (C, H, W)."""
    leaves = {"attention alpha": "alpha", "attention beta": "beta",
              **{f"attention conv branch {b}": f"conv_w.{b}" for b in range(len(params.conv_w))}}
    return _worst_leaf_errors(lambda p: float(np.sum(attention_forward(f0, p))), params, leaves, 1e-4)


def decoder_grad_check(f: np.ndarray, params: DecoderParams):
    """Step-size consistency of d loss(decoder(f)) / d(gamma, head weights): the
    geometric pose loss against a fixed reference pose, so the gradients run
    through the whole forward path, quaternion normalization included."""
    q = rotmat_to_quat(rotmat_from_axis_angle([1.0, 2.0, -1.0], 0.3))
    target = PoseVec(np.array([0.1, -0.2, 0.15]), q)
    leaves = {f"decoder gamma block {i}": f"blocks.{i}.gamma" for i in range(len(params.blocks))}
    leaves["decoder head affine"] = "head_w"
    return _worst_leaf_errors(lambda p: geometric_loss(decoder_forward(f, p), target, LossWeights()),
                              params, leaves, 1e-4)


def run_gradient_checks(seed: int = 0, inject_nan: bool = False) -> list[GradCheckEntry]:
    """Full check suite used by the CLI: attention, decoder, loss-weight grads.

    inject_nan corrupts the attention parameters first, to prove the
    harness fails loudly instead of passing vacuously.
    """
    rng = np.random.default_rng(seed)
    att = attention_init(seed)
    if inject_nan:
        att = tree.with_element(att, "conv_w.0", (0, 0, 0, 0), np.nan)
    entries = attention_grad_check(rng.standard_normal((4, 4, 3)).transpose(2, 0, 1), att)
    entries += decoder_grad_check(rng.standard_normal((6, 6, 6)), decoder_init(6, 6, seed=seed + 1))
    return entries + [lambda_grad_entry(seed + 2)]


def lambda_grad_entry(seed: int) -> GradCheckEntry:
    """Analytic loss-weight gradients vs. central differences on 20 random cases (tol 1e-6)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        pred = PoseVec(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        target = PoseVec(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        lam = rng.uniform(-2.0, 2.0, size=2)
        analytic = np.array(geometric_loss_lambda_grad(pred, target, LossWeights(*lam)))
        fd = finite_diff_grad(lambda v: geometric_loss(pred, target, LossWeights(*v)), lam, h=1e-6)
        scale = np.maximum.reduce([np.abs(analytic), np.abs(fd), np.ones(2)])
        worst = max(worst, float(np.max(np.abs(analytic - fd) / scale)))
    return GradCheckEntry("loss lambda analytic vs fd", worst, 1e-6)


def format_entries(entries: list[GradCheckEntry], seed: int) -> str:
    lines = [f"gradient checks (seed {seed})"]
    width = max(len(e.name) for e in entries)
    for e in entries:
        status = "ok" if e.passed else "FAIL"
        lines.append(f"  {e.name:<{width}}  max_rel_err {e.max_rel_err:.3e}  tol {e.tol:g}  {status}")
    lines.append("all checks passed" if all(e.passed for e in entries) else "CHECKS FAILED")
    return "\n".join(lines)
