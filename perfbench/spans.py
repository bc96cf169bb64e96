"""In-memory span recording around the public functions of each layer.

Spans are recorded from outside the program: each traced function is
replaced, for the duration of a traced pass, by a wrapper that stamps its
start and end with perf_counter.  A span keeps its name, start, end, the
index of the span that was open when it started (its parent) and the
index of the log event being handled.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans of one traced pass, kept in parallel lists."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.event: list[int] = []
        self.event_index = -1
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, name: str, fn, new_event: bool = False):
        """Return fn wrapped in a span; new_event advances the event index
        first (used on the parser, which sees each event before the
        estimator does)."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_event:
                self.event_index += 1
            i = len(self.name)
            self.name.append(name)
            self.parent.append(self._open[-1] if self._open else -1)
            self.event.append(self.event_index)
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(i)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._open.pop()
                self.start[i] = t0
                self.end[i] = t1
        return traced

    def self_times(self) -> np.ndarray:
        return self_times(self.start, self.end, self.parent)

    def write(self, fh, pass_index: int) -> None:
        """Append this pass's spans as CSV rows (times in microseconds
        from the first span)."""
        t0 = self.start[0] if self.start else 0.0
        for i in range(len(self.name)):
            fh.write(f"{pass_index},{i},{self.name[i]},"
                     f"{(self.start[i] - t0) * 1e6:.3f},"
                     f"{(self.end[i] - t0) * 1e6:.3f},"
                     f"{self.parent[i]},{self.event[i]}\n")


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        ivs = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        cur_s = cur_e = None
        for s, e in ivs:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Replace each (owner, attribute, span name[, new_event]) target by
    a traced wrapper; restore the originals on exit."""
    saved = []
    try:
        for target in targets:
            owner, attr, name = target[:3]
            new_event = len(target) > 3 and target[3]
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, new_event))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def write_spans(path: str, tracers) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("pass,index,name,start_us,end_us,parent,event\n")
        for k, tr in enumerate(tracers):
            tr.write(fh, k)
