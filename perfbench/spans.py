"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions at the program's module boundaries (it
patches module attributes from the outside; nothing under `src/` knows about
it).  Each call becomes a span (name, start, end, parent); counters are added
to the innermost open span; garbage-collector pauses, reported through
`gc.callbacks`, become child intervals of the span they interrupted.  Spans
stay in memory until `write_jsonl` at the end of the run.

Self time of a span is its duration minus the durations of its direct
children (spans and GC pauses).  Children never overlap because the program
is single-threaded, so the subtraction is exact.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import time

NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self.gc_events: list[tuple] = []  # (start, end, parent index, generation)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []  # patch targets the program no longer has
        self._gc_start = 0.0

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        # read the clock last: an allocation above may run a collection,
        # which then belongs to the parent, before this span starts
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def top(self) -> list | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def count(self, key: str, n: int = 1):
        if not self._stack:
            return
        rec = self.spans[self._stack[-1]]
        if rec[COUNTS] is None:
            rec[COUNTS] = {}
        rec[COUNTS][key] = rec[COUNTS].get(key, 0) + n

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            parent = self._stack[-1] if self._stack else -1
            self.gc_events.append(
                (self._gc_start, time.perf_counter(), parent, info["generation"])
            )

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, make):
        """Replace owner.attr by make(original); skipped when attr is absent."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._patches.append((owner, attr, orig))
        return True

    def wrap(self, owner, attr: str, name: str, counter=None):
        """Record every call of owner.attr as a span named `name`.

        counter(*args) -> (key, n) adds n to `key` on the new span.
        """
        tracer = self

        def make(orig):
            def traced(*args, **kwargs):
                rec = tracer.open(name)
                try:
                    if counter is not None:
                        tracer.count(*counter(*args, **kwargs))
                    return orig(*args, **kwargs)
                finally:
                    tracer.close(rec)

            return traced

        return self.patch(owner, attr, make)

    def start(self):
        gc.callbacks.append(self._on_gc)

    def stop(self):
        """Undo every patch and detach from the collector."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                    "end": s[END], "parent": s[PARENT],
                                    "counts": s[COUNTS] or {}}) + "\n")
            for g in self.gc_events:
                f.write(json.dumps({"name": "gc.collect", "start": g[0], "end": g[1],
                                    "parent": g[2], "generation": g[3]}) + "\n")


# -- derivation ----------------------------------------------------------------


def self_times(spans, gc_events) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    for g in gc_events:
        if g[2] >= 0:
            out[g[2]] -= g[1] - g[0]
    return out


def nearest(spans, i: int, name: str) -> int:
    """Index of the closest ancestor-or-self of span i called `name`, or -1."""
    while i >= 0 and spans[i][NAME] != name:
        i = spans[i][PARENT]
    return i


def instances(spans, name: str, skip: int = 0) -> list[int]:
    """Indices of the spans called `name` in start order, the first `skip` dropped."""
    return [i for i, s in enumerate(spans) if s[NAME] == name][skip:]


def per_scope(spans, values, names, scope: str, skip: int = 0) -> list[float]:
    """Sum of values[i] over spans named in `names`, per `scope` instance.

    values is a per-span list (self times, or counts).  One entry per scope
    instance, zero where the layer did not run inside it.
    """
    keep = instances(spans, scope, skip)
    sums = dict.fromkeys(keep, 0.0)
    for i, s in enumerate(spans):
        if s[NAME] in names:
            owner = nearest(spans, i, scope)
            if owner in sums:
                sums[owner] += values[i]
    return [sums[i] for i in keep]


def layer_value(spans, values, names, scope: str, skip: int = 0) -> float:
    """Median over the `scope` instances of the layer's per-instance sum."""
    sums = per_scope(spans, values, names, scope, skip)
    return statistics.median(sums) if sums else 0.0


def counts_of(spans, key: str) -> list[float]:
    return [float((s[COUNTS] or {}).get(key, 0)) for s in spans]


def gc_in(spans, gc_events, scopes) -> tuple[float, int]:
    """Total GC pause (ms) and collections that interrupted any of `scopes`,
    or a span directly under the first scope (the loop body between calls)."""
    outer = scopes[0]
    pause, n = 0.0, 0
    for start, end, parent, _gen in gc_events:
        hit = parent >= 0 and (
            spans[parent][NAME] == outer
            or any(nearest(spans, parent, s) >= 0 for s in scopes[1:])
        )
        if hit:
            pause += end - start
            n += 1
    return pause * 1e3, n
