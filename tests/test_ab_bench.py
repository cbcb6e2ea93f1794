"""Summary arithmetic of scripts/ab_bench.py on hand-made runs; no benchmark is started."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = [{"name": "step_ms_best", "better": "lower"}, {"name": "fps", "better": "higher"}]


def row(workload, pair, side, step, fps, correct=True, failed=0):
    metrics = {"step_ms_best": {"value": step, "unit": "ms"}, "fps": {"value": fps, "unit": "1/s"}}
    return {"workload": workload, "pair": pair, "seed": pair, "side": side,
            "result": {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}}


PARENT_STEP = [10.0, 12.0, 11.0, 15.0, 9.0]
CHANGE_STEP = [8.0, 12.0, 7.0, 16.0, 6.0]


def runs():
    out = []
    for pair, (p, c) in enumerate(zip(PARENT_STEP, CHANGE_STEP), start=1):
        out += [row("w", pair, "parent", p, 100.0 / p), row("w", pair, "change", c, 100.0 / c)]
    # An unfinished pair is left out of every figure.
    out.append(row("w", 6, "parent", 1000.0, 0.1, correct=False, failed=3))
    out += [row("v", 1, "change", 2.0, 1.0, failed=1), row("v", 1, "parent", 4.0, 1.0)]
    return out


def test_quartiles_match_numpy_percentiles():
    got = ab_bench.summarize(runs(), METRICS)["w"]["step_ms_best"]
    for side, values in (("parent", PARENT_STEP), ("change", CHANGE_STEP)):
        q25, median, q75 = np.percentile(values, [25, 50, 75])
        assert got[side] == {"q25": q25, "median": median, "q75": q75}
    assert got["parent"] == {"q25": 10.0, "median": 11.0, "q75": 12.0}


def test_wins_ties_and_relative_change():
    w = ab_bench.summarize(runs(), METRICS)["w"]
    # Lower is better: pairs 1, 3 and 5 win, pair 2 ties, pair 4 loses.
    assert w["step_ms_best"]["change_better_pairs"] == 3
    assert w["step_ms_best"]["median_change_rel"] == pytest.approx((8.0 - 11.0) / 11.0, abs=5e-4)
    # Higher is better for fps = 100 / step: the same pairs win.
    assert w["fps"]["change_better_pairs"] == 3
    assert w["fps"]["median_change_rel"] > 0


def test_median_of_per_pair_ratios():
    w = ab_bench.summarize(runs(), METRICS)["w"]
    # Ratios 0.8, 1.0, 7/11, 16/15 and 6/9: the median is pair 1's 0.8, not
    # the ratio of the medians, 8/11.
    assert w["step_ms_best"]["median_pair_ratio"] == 0.8
    # fps = 100 / step, so each fps ratio is the inverse of a step ratio.
    assert w["fps"]["median_pair_ratio"] == 1.25
    v = ab_bench.summarize(runs(), METRICS)["v"]
    assert v["step_ms_best"]["median_pair_ratio"] == 0.5 and v["fps"]["median_pair_ratio"] == 1.0


def test_pairs_correctness_and_failures():
    summary = ab_bench.summarize(runs(), METRICS)
    assert list(summary) == ["w", "v"]
    assert summary["w"]["pairs"] == 5 and summary["w"]["all_correct"] and summary["w"]["failed"] == 0
    v = summary["v"]
    assert v["pairs"] == 1 and v["failed"] == 1
    assert v["step_ms_best"]["parent"] == {"q25": 4.0, "median": 4.0, "q75": 4.0}
    assert v["step_ms_best"]["change_better_pairs"] == 1 and v["fps"]["change_better_pairs"] == 0
    assert ab_bench.summarize([row("u", 1, "parent", 1.0, 1.0)], METRICS) == {}


def test_an_incorrect_run_marks_the_workload():
    rows = runs() + [row("w", 6, "change", 5.0, 20.0)]
    w = ab_bench.summarize(rows, METRICS)["w"]
    assert w["pairs"] == 6 and not w["all_correct"] and w["failed"] == 3
