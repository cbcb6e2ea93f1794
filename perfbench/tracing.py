"""Spans recorded from outside endotrack, around calls into its public functions.

Tracing replaces a module attribute (for example ``endotrack.pipeline.conv2d``)
with a wrapper that records one span per call, so every caller that looks the
name up at call time is traced.  Nothing inside ``src/`` changes.  Spans stay
in memory as typed columns and are written out once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import update_wrapper

import numpy as np


class Tracer:
    """Span recorder: (name, start, end, parent, step) per call, parent by stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.step = array("l")
        self.counts: Counter = Counter()
        self.current_step = -1
        self._stack: list[int] = []
        self.deferred: list = []
        self._saved: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self.current_step)
        self.end.append(0.0)
        self.start.append(self.clock())
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def begin_step(self) -> int:
        self.current_step += 1
        return self.open(self.name_id("step"))

    def end_step(self, i: int) -> None:
        self.close(i)
        # Deferred counting runs after the step span closes, so it costs no layer time.
        for fn in self.deferred:
            fn()
        self.deferred.clear()

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name, or a function of the call's positional
        arguments returning one.  ``after(tracer, args, kwargs, result)`` runs
        once the span has closed; work it appends to ``deferred`` runs when the
        step ends.
        """
        fn = getattr(owner, attr)
        fixed = None if callable(name) else self.name_id(name)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args))
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        update_wrapper(wrapper, fn)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, fn))

    def restore(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def save(self, path) -> None:
        """Write the span table (names plus one column per field) to an .npz."""
        np.savez_compressed(
            path, names=np.asarray(self.names), name=np.asarray(self.name, dtype=np.int64),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64), step=np.asarray(self.step, dtype=np.int64))


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    The tracer is single-threaded and opens spans on a stack, so a span's
    children are disjoint and lie inside it.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


@dataclass
class SpanTotals:
    incl_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0


@dataclass
class Aggregate:
    """Per span name: summed inclusive and self seconds, and call counts."""

    by_name: dict = field(default_factory=lambda: defaultdict(SpanTotals))

    def total(self, prefix: str) -> SpanTotals:
        """Sum over ``prefix`` itself and every name below it (``prefix.*``)."""
        acc = SpanTotals()
        for name, t in self.by_name.items():
            if name == prefix or name.startswith(prefix + "."):
                acc.incl_s += t.incl_s
                acc.self_s += t.self_s
                acc.calls += t.calls
        return acc


def aggregate(tracer: Tracer) -> Aggregate:
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    agg = Aggregate()
    for nid, s, e, own in zip(tracer.name, tracer.start, tracer.end, selfs):
        t = agg.by_name[tracer.names[nid]]
        t.incl_s += e - s
        t.self_s += own
        t.calls += 1
    return agg
