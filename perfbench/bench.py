"""Closed-loop measurement: one caller waits for each result before the next input.

Inputs are made outside the timed span; each timed span covers exactly one
step (one frame pair on track-*, one whole pass on traj-10k), and every
output is checked after its span closes.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import layers
from perfbench.tracing import Tracer, aggregate
from perfbench.workloads import load_reference


# A block is BLOCK_S of consecutive steps; a step longer than that is a block of its own.
BLOCK_S = 0.25


@dataclass
class Segment:
    # Per block, the seconds of each timed step, as raw doubles so that a long
    # run's record adds little to the peak memory it reports.
    blocks: list = field(default_factory=list)
    stages: list = field(default_factory=list)  # per step timed stage by stage, its stage seconds
    failed: int = 0

    @property
    def times(self) -> list:
        return [t for block in self.blocks for t in block]

    def extend(self, other: "Segment") -> None:
        self.blocks += other.blocks
        self.stages += other.stages
        self.failed += other.failed

    def best(self) -> float:
        """Seconds per step at the run's fastest: the gated step time.

        A step timed stage by stage (a trajectory pass, longer than a block)
        counts each stage at its fastest over the run's steps, so a quiet
        spell need only be as long as a stage, not a whole pass.  Other steps
        take the fastest block's mean.  Either way every stage of every step
        counts.
        """
        if self.stages:
            return sum(min(col) for col in zip(*self.stages))
        return self.best_block_mean()

    def best_block_mean(self) -> float:
        """Mean step time of the fastest block: its summed step time over its step count.

        Contention from other tenants of a shared machine slows every step
        for seconds at a time and only ever slows it, so the fastest block
        estimates the program's own cost far more steadily than the whole
        run.  A mean, not a median, so that work done on only some steps
        (a periodic refresh, an amortized rebuild) still counts.  Blocks
        holding fewer than half as many steps as the fullest one (a cut-off
        last block) are left out.
        """
        full = max(len(b) for b in self.blocks)
        return min(sum(b) / len(b) for b in self.blocks if 2 * len(b) >= full)


def measure(run, seconds: float, tracer: Tracer | None = None) -> Segment:
    """Run steps until ``seconds`` of wall time have passed (at least one step)."""
    seg = Segment()
    deadline = time.perf_counter() + seconds
    block_end = 0.0
    while True:
        item = run.next_input()
        span = tracer.begin_step() if tracer is not None else None
        error = None
        t0 = time.perf_counter()
        try:
            out = run.step(item)
        except Exception as e:  # a failed operation is counted, and the run goes on
            error = e
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_step(span)
        if error is not None and not seg.failed:
            traceback.print_exception(error, file=sys.stderr)
        ok = error is None and run.check(out)
        if ok and (stages := run.stages(out)) is not None:
            seg.stages.append(stages)
        if t0 >= block_end:
            seg.blocks.append(array("d"))
            block_end = t0 + BLOCK_S
        seg.blocks[-1].append(t1 - t0)
        seg.failed += not ok
        out = item = error = None
        if t1 >= deadline:
            return seg


def percentile(values, q: int) -> float:
    """The q-th percentile by linear interpolation (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict  # name -> {"value", "unit"}: exactly what the last line reports
    extra: dict  # name -> {"value", "unit", "n"}: every metric printed, with its sample count

    @property
    def correct(self) -> bool:
        return self.failed == 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(run, seconds: float, setup_samples: list[float], probe_setup=None,
                 probes: int = 0) -> Result:
    """End-to-end metrics from ``seconds`` of timed steps.

    The steps run in ``probes + 1`` slices with one further set-up,
    ``probe_setup()``, between slices, so that the set-up samples span the
    run and not one moment of the machine's load.
    """
    seg = Segment()
    setup_samples = list(setup_samples)
    deadline = time.perf_counter() + seconds
    for left in range(probes + 1, 0, -1):
        seg.extend(measure(run, max(0.0, deadline - time.perf_counter()) / left))
        if left > 1:
            setup_samples.append(probe_setup())
    rss_mb = peak_rss_mb()  # before the checks and the lists of step times below
    finals = run.final_checks(load_reference())
    attempted = len(seg.times) + len(finals)
    failed = seg.failed + finals.count(False)
    n = len(seg.times)
    ms = [1e3 * t for t in seg.times]
    metrics = {
        "step_ms_best": {"value": 1e3 * seg.best(), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    extra = {
        "step_ms_best": {**metrics["step_ms_best"], "n": n},
        "setup_s": {**metrics["setup_s"], "n": len(setup_samples)},
        "peak_rss_mb": {**metrics["peak_rss_mb"], "n": 1},
        "step_ms_p50": {"value": statistics.median(ms), "unit": "ms", "n": n},
        "step_ms_p90": {"value": percentile(ms, 90), "unit": "ms", "n": n},
        "poses_per_s": {"value": run.poses_per_s(seg.times), "unit": "1/s", "n": n},
        "failed_frac": {"value": failed / attempted, "unit": "1", "n": attempted},
    }
    return Result(attempted, failed, metrics, extra)


def traced_run(run, seconds: float, spans_path: Path | None = None) -> Result:
    """Untraced and traced blocks in turn; per-layer metrics from the traced ones.

    Alternating blocks lets contention hit both sides alike, so the tracing
    overhead (traced minus untraced best-block step time) is not swamped by it.
    """
    plain, traced = Segment(), Segment()
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while not traced.blocks or time.perf_counter() < deadline:
        plain.extend(measure(run, BLOCK_S))
        layers.install(tracer, run.att_labels)
        try:
            traced.extend(measure(run, BLOCK_S, tracer))
        finally:
            tracer.restore()
    finals = run.final_checks(load_reference())
    attempted = len(plain.times) + len(traced.times) + len(finals)
    failed = plain.failed + traced.failed + finals.count(False)
    metrics = layers.layer_metrics(aggregate(tracer), tracer.counts, len(traced.times))
    best_plain = 1e3 * plain.best()
    best_traced = 1e3 * traced.best()
    for (name, unit), value in zip(layers.TRACE_ROWS,
                                   (best_plain, best_traced, best_traced - best_plain)):
        metrics[name] = {"value": value, "unit": unit}
    if spans_path is not None:
        tracer.save(spans_path)
    extra = {name: {**m, "n": len(traced.times)} for name, m in metrics.items()}
    extra["failed_frac"] = {"value": failed / attempted, "unit": "1", "n": attempted}
    return Result(attempted, failed, metrics, extra)
