"""Summary arithmetic of scripts/ab_bench.py on hand-made runs; no benchmark is started."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = [{"name": "step_ms_best", "better": "lower", "bound": 0.25},
           {"name": "fps", "better": "higher", "bound": 0.25}]


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


def test_parent_spread_and_gap():
    w = ab_bench.summarize(runs(), METRICS)["w"]["step_ms_best"]
    # Parent quartiles 10 and 12; the medians 11 and 8 differ by 3 > 2.
    assert w["parent_iqr"] == 2.0 and w["gap_exceeds_parent_iqr"] is True
    # A gap equal to the spread does not exceed it, whichever side is lower.
    for change in ([9.0, 12.0, 9.0, 15.0, 8.0], [13.0, 14.0, 13.0, 15.0, 9.0]):
        rows = []
        for pair, (p, c) in enumerate(zip(PARENT_STEP, change), start=1):
            rows += [row("u", pair, "parent", p, 1.0), row("u", pair, "change", c, 1.0)]
        u = ab_bench.summarize(rows, METRICS)["u"]["step_ms_best"]
        assert u["parent_iqr"] == 2.0
        assert abs(u["change"]["median"] - u["parent"]["median"]) == 2.0
        assert u["gap_exceeds_parent_iqr"] is False
    # One pair: no spread, so any gap exceeds it and none does not.
    v = ab_bench.summarize(runs(), METRICS)["v"]
    assert v["step_ms_best"]["parent_iqr"] == 0.0 and v["step_ms_best"]["gap_exceeds_parent_iqr"] is True
    assert v["fps"]["parent_iqr"] == 0.0 and v["fps"]["gap_exceeds_parent_iqr"] is False


ONES = [1.0] * 5


def pairs_of(step_parent, step_change, fps_parent=ONES, fps_change=ONES):
    rows = []
    for pair, (sp, sc, fp, fc) in enumerate(zip(step_parent, step_change, fps_parent, fps_change), start=1):
        rows += [row("u", pair, "parent", sp, fp), row("u", pair, "change", sc, fc)]
    return ab_bench.summarize(rows, METRICS)["u"]


def test_worse_beyond_bound():
    # The parent's median step is 11; the bound 0.25 puts the limit at 13.75.
    # The change's median 14 is worse by 0.273; 13.75 is worse by exactly 0.25.
    u = pairs_of(PARENT_STEP, [14.0, 15.0, 13.0, 16.0, 12.0])
    assert u["step_ms_best"]["worse_beyond_bound"] is True
    u = pairs_of(PARENT_STEP, [13.75, 15.0, 13.0, 16.0, 12.0])
    assert u["step_ms_best"]["change"]["median"] == 13.75
    assert u["step_ms_best"]["worse_beyond_bound"] is False
    # Better by any amount is never worse; the hand-made runs' change is 27% faster.
    assert ab_bench.summarize(runs(), METRICS)["w"]["step_ms_best"]["worse_beyond_bound"] is False
    # Higher is better: a median fps falling from 10 to 7.4 is worse by 0.26,
    # to 7.5 by exactly the bound, and rising to 20 is not worse.
    fps_parent = [10.0, 9.0, 11.0, 10.0, 12.0]
    for fps_change, worse in (([7.4, 7.0, 8.0, 7.4, 9.0], True), ([7.5, 7.0, 8.0, 7.5, 9.0], False),
                              ([20.0, 20.0, 20.0, 20.0, 20.0], False)):
        u = pairs_of(PARENT_STEP, PARENT_STEP, fps_parent, fps_change)
        assert u["fps"]["worse_beyond_bound"] is worse
        assert u["step_ms_best"]["worse_beyond_bound"] is False


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    # Parent quartiles 10 and 12 around a median of 11: a spread of 2 is
    # within 0.25 * 11 = 2.75, whatever the change reads.
    w = ab_bench.summarize(runs(), METRICS)["w"]
    assert w["step_ms_best"]["unresolved"] is False
    # Quartiles 8 and 12 around 10: a spread of 4 exceeds 2.5.
    u = pairs_of([8.0, 10.0, 12.0, 6.0, 14.0], PARENT_STEP)
    assert u["step_ms_best"]["parent"] == {"q25": 8.0, "median": 10.0, "q75": 12.0}
    assert u["step_ms_best"]["unresolved"] is True
    # A spread equal to the bound (quartiles 9 and 11.5 around 10) is not wider.
    u = pairs_of([9.0, 10.0, 11.5, 8.0, 12.0], PARENT_STEP)
    assert u["step_ms_best"]["parent_iqr"] == 2.5 and u["step_ms_best"]["unresolved"] is False
    # One pair has no spread.
    assert ab_bench.summarize(runs(), METRICS)["v"]["step_ms_best"]["unresolved"] is False


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
