"""Tests of the benchmark itself: tiny workloads, span arithmetic, wrapping.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from endotrack import pipeline
from perfbench import bench, layers
from perfbench.tracing import Tracer, self_times
from perfbench.workloads import TINY, WORKLOADS, load_reference

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_untraced_end_to_end(name):
    result = bench.untraced_run(TINY[name].setup(0), 0.05, [0.1], lambda: 0.2, probes=2)
    assert result.extra["setup_s"] == {"value": 0.2, "unit": "s", "n": 3}
    assert result.attempted >= 2
    assert result.failed == 0
    assert result.extra["failed_frac"]["value"] == 0
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result.metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_traced_end_to_end(name):
    result = bench.traced_run(TINY[name].setup(0), 0.05)
    assert result.failed == 0
    assert list(result.metrics) == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("name", ["track-16-f32", "track-16-f64"])
def test_track_call_counts_per_frame(name):
    m = bench.traced_run(TINY[name].setup(0), 0.05).metrics
    assert m["pipeline.extract_scene.calls"]["value"] == 3
    assert m["kernels.conv2d.calls"]["value"] == 22
    assert m["kernels.conv2d.pipeline.calls"]["value"] == 8
    assert m["kernels.conv2d.attention.calls"]["value"] == 6
    assert m["kernels.conv2d.decoder.calls"]["value"] == 8
    assert m["se3.pose_compose.calls"]["value"] == 1
    assert m["tracker.chain_absolute.ms"]["value"] == 0


def test_traj_counts_per_pass():
    spec = TINY["traj-60"]
    m = bench.traced_run(spec.setup(0), 0.05).metrics
    assert m["tracker.chain_absolute.ms"]["value"] > 0
    assert m["kernels.conv2d.calls"]["value"] == 0
    # format writes a header line plus one line per pose.
    assert m["files.bytes"]["value"] > 60 * 8 * 2
    # chain, rebase and synth compose once per step; perturb and evaluate go through relatives.
    assert m["se3.pose_compose.calls"]["value"] >= 3 * (spec.n_poses - 1)


def test_conv_counts_are_computed_from_shapes():
    a = bench.traced_run(TINY["track-16-f32"].setup(0), 0.05).metrics
    b = bench.traced_run(TINY["track-16-f64"].setup(0), 0.05).metrics
    for caller in layers.CONV_CALLERS:
        assert a[f"kernels.conv2d.{caller}.mflop"]["value"] == b[f"kernels.conv2d.{caller}.mflop"]["value"]
        # float64 moves exactly twice the bytes of float32.
        assert b[f"kernels.conv2d.{caller}.mb"]["value"] == pytest.approx(
            2 * a[f"kernels.conv2d.{caller}.mb"]["value"], rel=1e-12)
    # Squeeze conv of the decoder: 32 fused channels -> 12 at 4x4, 1x1 kernel.
    assert b["kernels.conv2d.decoder.mflop"]["value"] > 2 * 12 * 16 * 32 * 1e-6


def test_self_time_arithmetic_on_hand_built_tree():
    #   0: [0, 10]          children 1, 2, 4
    #   1: [1, 4]           child 3
    #   2: [4, 6]
    #   3: [2, 3]
    #   4: [9, 10]
    start = [0.0, 1.0, 4.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 10.0]
    parent = [-1, 0, 0, 1, 0]
    # 0 loses 3 + 2 + 1 of 10; 1 loses [2, 3]; the leaves keep their durations.
    assert self_times(start, end, parent) == [4.0, 2.0, 2.0, 1.0, 1.0]


def test_best_step_time_counts_every_step():
    # Fastest block by mean: a slow step every third frame is not hidden.
    seg = bench.Segment(blocks=[[1.0, 1.0, 4.0], [2.0, 2.0, 2.0], [0.5]])
    assert seg.best() == 2.0
    # Stage by stage: each stage at its fastest over the steps.
    seg.stages = [[3.0, 1.0], [1.0, 2.0]]
    assert seg.best() == 2.0


def test_tracer_nests_spans_and_counts_self_time():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    class Box:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

    tr.wrap(Box, "inner", "inner")
    tr.wrap(Box, "outer", "outer")
    step = tr.begin_step()
    assert Box.outer() == 2
    tr.end_step(step)
    tr.restore()
    names = [tr.names[i] for i in tr.name]
    assert names == ["step", "outer", "inner", "inner"]
    assert list(tr.parent) == [-1, 0, 1, 1]
    # ticks: step 0..7, outer 1..6, inner 2..3 and 4..5.
    assert self_times(tr.start, tr.end, tr.parent) == [2.0, 3.0, 1.0, 1.0]


def test_every_wrapped_function_is_restored():
    run = TINY["track-16-f32"].setup(0)
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in layers.wrap_targets(run.att_labels)]
    bench.traced_run(run, 0.05)
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr} left wrapped"


def test_restored_even_when_a_step_raises(monkeypatch):
    run = TINY["track-16-f32"].setup(0)
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in layers.wrap_targets(run.att_labels)]
    monkeypatch.setattr(run, "check", lambda out: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        bench.traced_run(run, 0.05)
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn


def test_a_raising_step_counts_as_failed(monkeypatch):
    run = TINY["track-16-f64"].setup(0)

    def broken(*args):
        raise FloatingPointError("injected")

    monkeypatch.setattr(pipeline, "pipeline_forward", broken)
    result = bench.measure(run, 0.02)
    assert result.failed == len(result.times) > 0


def test_wrong_outputs_fail_the_reference_check():
    run = TINY["track-16-f32"].setup(0)
    reference = load_reference()
    assert all(run.final_checks(reference))
    moved = {"track-16-f32": [[v + 1e-3 for v in row] for row in reference["track-16-f32"]]}
    assert not any(run.final_checks(moved))
    traj = TINY["traj-60"].setup(0)
    assert all(traj.final_checks(reference))
    assert traj.final_checks({"traj-60": [[0.0, 0.0]] * 5}) == [True, False]


def test_reference_covers_every_workload():
    assert set(load_reference()) == set(WORKLOADS) | set(TINY)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_cli_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track-64-f32", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track-64-f32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
