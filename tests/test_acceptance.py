"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

import endotrack as et
from endotrack.cli import main as cli_main
from endotrack.checks import finite_diff_grad
from endotrack.losses import FlowPyramid

from helpers import random_pose, random_unit_quat


def record(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def test_01_se3_algebra_suite():
    rng = np.random.default_rng(101)
    n = 10_000
    start = time.perf_counter()
    poses = [random_pose(rng) for _ in range(n)]
    worst = 0.0
    eye3 = np.eye(3)
    for i in range(n):
        a = poses[i]
        b = poses[(i + 1) % n]
        c = poses[(i + 2) % n]
        # Associativity.
        left = et.pose_compose(et.pose_compose(a, b), c)
        right = et.pose_compose(a, et.pose_compose(b, c))
        worst = max(worst, np.max(np.abs(left.R - right.R)), np.max(np.abs(left.t - right.t)))
        # Inverse.
        ident = et.pose_compose(a, et.pose_inverse(a))
        worst = max(worst, np.max(np.abs(ident.R - eye3)), np.max(np.abs(ident.t)))
        # Relative-pose round trip.
        again = et.pose_compose(a, et.relative_pose(a, b))
        worst = max(worst, np.max(np.abs(again.R - b.R)), np.max(np.abs(again.t - b.t)))
    elapsed = time.perf_counter() - start
    record(
        "01 se3-algebra 1e4 poses",
        worst <= 1e-9 and elapsed < 5.0,
        f"max_err={worst:.2e}, {elapsed:.2f}s",
    )


def test_02_quaternion_log_correctness():
    rng = np.random.default_rng(202)
    assert np.array_equal(et.quat_log([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
    worst = 0.0
    for _ in range(10_000):
        q = et.quat_normalize(random_unit_quat(rng))
        two_log = 2.0 * np.linalg.norm(et.quat_log(q))
        R = et.quat_to_rotmat(q)
        angle = math.acos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
        worst = max(worst, abs(two_log - angle))
    record("02 quat-log vs rotation angle", worst <= 1e-6, f"max_err={worst:.2e}")


def test_03_geometric_loss_anchors():
    rng = np.random.default_rng(303)

    def rand_vec():
        return et.PoseVec(rng.standard_normal(3), et.quat_normalize(random_unit_quat(rng)))

    exact_ok = True
    for _ in range(100):
        p = rand_vec()
        w = et.LossWeights(rng.uniform(-2, 2), rng.uniform(-2, 2))
        exact_ok &= et.geometric_loss(p, p, w) == w.lam_t + w.lam_r
    init_ok = et.geometric_loss(rand_vec(), rand_vec(), et.LossWeights()) is not None
    p = rand_vec()
    init_value_ok = et.geometric_loss(p, p, et.LossWeights()) == -3.0

    worst = 0.0
    for _ in range(100):
        pred, target = rand_vec(), rand_vec()
        lam = rng.uniform(-2, 2, 2)
        analytic = np.array(et.geometric_loss_lambda_grad(pred, target, et.LossWeights(*lam)))
        fd = finite_diff_grad(
            lambda v: et.geometric_loss(pred, target, et.LossWeights(v[0], v[1])), lam, h=1e-6
        )
        rel = np.max(np.abs(analytic - fd) / np.maximum.reduce(
            [np.abs(analytic), np.abs(fd), np.ones(2)]
        ))
        worst = max(worst, float(rel))
    record(
        "03 geometric-loss anchors + lambda grads",
        exact_ok and init_ok and init_value_ok and worst <= 1e-6,
        f"grad_rel_err={worst:.2e}",
    )


def test_04_attention_block():
    from endotrack.attention import attention_maps

    rng = np.random.default_rng(404)
    ok = True
    detail = []
    for seed, shape in enumerate([(3, 3, 3), (5, 7, 4), (8, 8, 6), (1, 8, 6), (8, 1, 1)]):
        params = et.attention_init(seed)
        x = rng.standard_normal(shape)
        out = et.attention_forward(x, params)
        ok &= out.shape == x.shape
        ok &= bool(np.max(np.abs(out)) <= np.max(np.abs(x)))
        for amap in attention_maps(x, params):
            ok &= bool(np.all((amap > 0.0) & (amap < 1.0)))
    x = rng.standard_normal((8, 8, 6))
    params = et.attention_init(9)
    zeroed = replace(
        params,
        conv_w=tuple(np.zeros_like(w) for w in params.conv_w),
        conv_b=tuple(np.zeros_like(b) for b in params.conv_b),
    )
    half = et.attention_forward(x, zeroed)
    ok &= bool(np.allclose(half, 0.5 * x, rtol=1e-13, atol=1e-16))

    entries = et.attention_grad_check(rng.standard_normal((4, 4, 3)), params)
    grad_worst = max(e.max_rel_err for e in entries)
    ok &= all(e.passed for e in entries)
    record("04 attention block properties + gradcheck", ok, f"grad_consistency={grad_worst:.2e}")


def test_05_pose_decoder():
    rng = np.random.default_rng(505)
    ok = True
    worst_pert = 0.0
    for seed in range(10):
        params = et.decoder_init(12, 12, seed=seed)
        x = rng.uniform(-1.0, 1.0, size=(12, 6, 6))
        frozen = replace(params.blocks[0], gamma=0.0)
        ok &= bool(np.array_equal(et.dsc_block_forward(x, frozen), x))
        y = et.dsc_block_forward(x, params.blocks[0])
        pert = np.max(np.abs(y - x)) / np.max(np.abs(x))
        worst_pert = max(worst_pert, float(pert))
        ok &= params.blocks[0].gamma == 1e-6
        out = et.decoder_forward(rng.standard_normal((12, 8, 8)), params)
        ok &= abs(np.linalg.norm(out.q) - 1.0) <= 1e-12 and out.q[0] >= 0.0
    ok &= worst_pert <= 1e-4
    record("05 decoder residual identity + near-identity", ok, f"init_perturbation={worst_pert:.2e}")


def test_06_flow_loss():
    pyr = et.flow_pyramid(np.zeros((64, 64, 2)))
    shapes_ok = [pyr.level(l).shape for l in range(2, 7)] == [
        (32, 32, 2), (16, 16, 2), (8, 8, 2), (4, 4, 2), (2, 2, 2),
    ]
    floor_ok = True
    for i, l in enumerate(range(2, 7)):
        theta = np.zeros(5)
        theta[i] = 1.0
        n_pix = pyr.level(l).shape[0] * pyr.level(l).shape[1]
        loss = et.flow_robust_loss(pyr, pyr, theta=theta)
        floor_ok &= abs(loss - n_pix * 0.01**0.4) <= 1e-12

    rng = np.random.default_rng(606)
    gt = et.flow_pyramid(rng.standard_normal((64, 64, 2)))
    pred = et.flow_pyramid(rng.standard_normal((64, 64, 2)))
    base = et.flow_robust_loss(pred, gt)
    mono_ok = True
    for _ in range(50):
        levels = list(pred.levels)
        i = int(rng.integers(0, 5))
        bumped = levels[i].copy()
        h, w = bumped.shape[:2]
        pos = (int(rng.integers(0, h)), int(rng.integers(0, w)), int(rng.integers(0, 2)))
        step = rng.uniform(0.01, 2.0)
        bumped[pos] += step if bumped[pos] >= gt.levels[i][pos] else -step
        mono_ok &= et.flow_robust_loss(FlowPyramid(tuple(levels[:i] + [bumped] + levels[i + 1:])), gt) >= base
    record("06 flow pyramid + robust loss", shapes_ok and floor_ok and mono_ok)


def test_07_drift_experiment():
    start = time.perf_counter()
    n_steps = 500
    chained_ratios = []
    rebased_ratios = []
    for seed in range(20):
        gt = et.synth_trajectory(n_steps + 1, smoothness=1.0, seed=seed)
        sigma = 0.01 * et.mean_step_length(gt)
        rels = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=sigma, seed=1000 + seed))
        chained = et.chain_absolute(gt[0], rels, k=gt.k)
        rebased = et.chain_rebased(gt, rels)

        def decile_ratio(est):
            errs = np.array(
                [np.linalg.norm(g.t - e.t) for g, e in zip(gt[1:], est[1:])]
            )
            n = len(errs) // 10
            return errs[-n:].mean() / errs[:n].mean()

        chained_ratios.append(decile_ratio(chained))
        rebased_ratios.append(decile_ratio(rebased))
    elapsed = time.perf_counter() - start
    chained_mean = float(np.mean(chained_ratios))
    rebased_mean = float(np.mean(rebased_ratios))
    record(
        "07 drift chained>3x vs rebased<=1.5x",
        chained_mean > 3.0 and rebased_mean <= 1.5 and elapsed < 30.0,
        f"chained={chained_mean:.2f}, rebased={rebased_mean:.2f}, {elapsed:.1f}s",
    )


def test_08_metrics_oracle_equivalence():
    from test_metrics import METRICS, ORACLES

    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        gt, est = random_pose(rng), random_pose(rng)
        for name in ORACLES:
            worst = max(worst, abs(METRICS[name](gt, est) - ORACLES[name](gt, est)))
    sym_ok = True
    for _ in range(100):
        a, b = random_pose(rng), random_pose(rng)
        for name in METRICS:
            sym_ok &= abs(METRICS[name](a, b) - METRICS[name](b, a)) <= 1e-9
    axis_vals = []
    base = random_pose(rng)
    for _ in range(50):
        err = et.Pose(et.rotmat_from_axis_angle(rng.standard_normal(3), 0.9), np.zeros(3))
        axis_vals.append(et.rot(base, et.pose_compose(base, err)))
    axis_ok = max(axis_vals) - min(axis_vals) <= 1e-9
    de_ok = True
    for _ in range(50):
        gt, est = random_pose(rng), random_pose(rng)
        world = et.Pose(et.rotmat_from_axis_angle(rng.standard_normal(3), rng.uniform(0, 3)), np.zeros(3))
        de_ok &= abs(
            et.de(et.pose_compose(world, gt), et.pose_compose(world, est)) - et.de(gt, est)
        ) <= 1e-8
    record(
        "08 metrics oracle equivalence + symmetries",
        worst <= 1e-9 and sym_ok and axis_ok and de_ok,
        f"max_oracle_diff={worst:.2e}",
    )


def test_09_throughput_bench(capsys):
    code = cli_main(["bench", "--size", "64x64", "--repeat", "20", "--warmup", "5", "--f32"])
    out = capsys.readouterr().out
    with capsys.disabled():
        fps = float(re.search(r"-> ([0-9.]+) fps", out).group(1))
        labeled = "STAND-IN" in out
        record(
            "09 bench 64x64 f32 over 30 fps (stand-in label)",
            code == 0 and fps > 30.0 and labeled,
            f"{fps:.0f} fps",
        )


def test_10_cli_round_trip(tmp_path, capsys):
    def synth(into):
        into.mkdir(exist_ok=True)
        gt, rels = into / "gt.txt", into / "rels.txt"
        assert cli_main([
            "synth", "--n", "200", "--seed", "7", "--sigma-t", "0",
            "--out-gt", str(gt), "--out-rels", str(rels),
        ]) == 0
        return gt, rels

    gt_a, rels_a = synth(tmp_path / "a")
    gt_b, rels_b = synth(tmp_path / "b")
    deterministic = (gt_a.read_bytes() == gt_b.read_bytes()
                     and rels_a.read_bytes() == rels_b.read_bytes())

    zero_ok = True
    tol = {"ate": 1e-9, "ce": 1e-12, "de": 1e-9, "rte": 1e-9, "rot": 1e-9}
    for mode in ("chained", "rebased"):
        est = tmp_path / f"est_{mode}.txt"
        assert cli_main(["track", str(rels_a), "--base", str(gt_a), "--mode", mode,
                         "--out", str(est)]) == 0
        est2 = tmp_path / f"est_{mode}_2.txt"
        assert cli_main(["track", str(rels_a), "--base", str(gt_a), "--mode", mode,
                         "--out", str(est2)]) == 0
        deterministic &= est.read_bytes() == est2.read_bytes()
        report = et.evaluate(et.read_trajectory(gt_a), et.read_trajectory(est))
        for name, (mean, _) in report.summary().items():
            zero_ok &= mean <= tol[name]
    capsys.readouterr()
    with capsys.disabled():
        record(
            "10 cli synth->track->eval zero-noise round trip",
            deterministic and zero_ok,
            "byte-deterministic, metrics at numerical zero",
        )
