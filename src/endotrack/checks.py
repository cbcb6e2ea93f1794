"""Gradient-check reporting shared by the attention block, decoder and losses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteFunction


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
        def along(v, idx=idx):
            probe = x.copy()
            probe[idx] = v
            return float(f(probe))

        grad[idx] = central_diff(along, x[idx], h)
        if not np.isfinite(grad[idx]):
            raise NonFiniteFunction(f"objective non-finite at element {i}")
    return grad


def two_step_rel_err(f: Callable[[float], float], v: float, h: float, floor: float = 1e-8) -> float:
    """Relative disagreement of central differences at steps h and h/10.

    A smooth objective gives O(h^2) truncation error, so the two estimates
    agree to ~1% long before the 5% acceptance tolerance.  The floor keeps
    near-zero gradients from dividing by zero.  Returns inf on NaN/Inf.
    """
    g1 = central_diff(f, float(v), h)
    g2 = central_diff(f, float(v), h / 10.0)
    if not (np.isfinite(g1) and np.isfinite(g2)):
        return float("inf")
    return abs(g1 - g2) / max(abs(g1), abs(g2), floor)


def run_gradient_checks(seed: int = 0, inject_nan: bool = False) -> list[GradCheckEntry]:
    """Full check suite used by the CLI: attention, decoder, loss-weight grads.

    inject_nan corrupts the attention parameters first, to prove the
    harness fails loudly instead of passing vacuously.
    """
    from . import losses
    from .attention import attention_grad_check, attention_init
    from .decoder import decoder_grad_check, decoder_init

    rng = np.random.default_rng(seed)
    entries: list[GradCheckEntry] = []

    att = attention_init(seed)
    if inject_nan:
        w = tuple(x.copy() for x in att.conv_w)
        w[0][0, 0, 0, 0] = np.nan
        from dataclasses import replace

        att = replace(att, conv_w=w)
    f0 = rng.standard_normal((4, 4, 3))
    entries.extend(attention_grad_check(f0, att))

    dec = decoder_init(in_channels=6, channels=6, seed=seed + 1)
    feat = rng.standard_normal((6, 6, 6))
    entries.extend(decoder_grad_check(feat, dec))

    entries.append(lambda_grad_entry(seed + 2))
    return entries


def lambda_grad_entry(seed: int, cases: int = 20) -> GradCheckEntry:
    """Analytic loss-weight gradients vs. central differences (tol 1e-6)."""
    from .losses import LossWeights, geometric_loss, geometric_loss_lambda_grad
    from .se3 import PoseVec, quat_normalize

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        pred = PoseVec(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        target = PoseVec(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        lam = rng.uniform(-2.0, 2.0, size=2)
        analytic = np.array(
            geometric_loss_lambda_grad(pred, target, LossWeights(lam[0], lam[1]))
        )
        fd = finite_diff_grad(
            lambda v: geometric_loss(pred, target, LossWeights(v[0], v[1])), lam, h=1e-6
        )
        err = np.max(np.abs(analytic - fd) / np.maximum.reduce(
            [np.abs(analytic), np.abs(fd), np.ones(2)]
        ))
        worst = max(worst, float(err))
    return GradCheckEntry("loss lambda analytic vs fd", worst, 1e-6)


def format_entries(entries: list[GradCheckEntry], seed: int) -> str:
    lines = [f"gradient checks (seed {seed})"]
    width = max(len(e.name) for e in entries)
    for e in entries:
        status = "ok" if e.passed else "FAIL"
        lines.append(f"  {e.name:<{width}}  max_rel_err {e.max_rel_err:.3e}  tol {e.tol:g}  {status}")
    lines.append("all checks passed" if all(e.passed for e in entries) else "CHECKS FAILED")
    return "\n".join(lines)
