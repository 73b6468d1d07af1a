"""Spans recorded around the public functions of the measureboost layers.

The traced benchmark mode wraps those functions from the outside: every
wrapped call records a span (name, start, end, parent) and adds the counts
it can read off its arguments and return value.  Nothing inside the program
changes; the wrappers replace module attributes and are removed afterwards.

The analysis helpers (self time, busy time, percentiles) are pure functions
of a span list so they can be tested on synthetic trees.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass

# Percentiles a "tail" figure may be taken at, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
# span around the counting done after a wrapped call, so that its cost is
# charged to neither the call nor its caller
COUNT_SPAN = "bench.count"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} is open")

    def wrap(self, name, fn, count=None, wrap_args=None):
        """fn with a span around each call.

        count(tracer, result, args, kwargs) adds counters after the span has
        closed, inside a COUNT_SPAN of its own; wrap_args(tracer, args, kwargs) -> (args, kwargs) may wrap
        callables passed into fn.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(self, args, kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                idx = self.open(COUNT_SPAN)
                try:
                    count(self, out, args, kwargs)
                finally:
                    self.close(idx)
            return out

        return wrapper


def install(tracer: Tracer, targets):
    """Replace every reference to each target function by a traced wrapper.

    targets: iterable of (module, attribute, span name, count, wrap_args),
    where attribute may be "Class.method".  Every loaded measureboost
    module that imported the function by name gets the wrapper too.
    Returns a function that restores the originals.
    """
    undo = []
    for modname, attr, name, count, wrap_args in targets:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, count, wrap_args)
        holders = [owner] + [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "measureboost" or key.startswith("measureboost."))
        ]
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is orig:
                    setattr(holder, key, wrapped)
                    undo.append((holder, key, orig))

    def restore():
        for holder, key, orig in reversed(undo):
            setattr(holder, key, orig)

    return restore


# --- analysis ---------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    return [sp.end - sp.start - union_length(children[i]) for i, sp in enumerate(spans)]


def busy_time(spans, names) -> float:
    """Wall time during which at least one span with a name in `names` ran."""
    names = set(names)
    return union_length([(sp.start, sp.end) for sp in spans if sp.name in names])


def nearest_rank(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with pct% of samples at or below it."""
    xs = sorted(samples)
    rank = max(1, math.ceil(round(pct * len(xs) / 100.0, 9)))
    return xs[rank - 1]


def tail(samples):
    """(value, percentile, sample count) at the highest ladder percentile
    that has at least ten samples beyond it.

    With too few samples for any ladder percentile the value and the
    percentile are both 0; the sample count tells the two cases apart.
    """
    n = len(samples)
    for pct in TAIL_LADDER:
        if n == 0:
            break
        value = nearest_rank(samples, pct)
        if sum(1 for x in samples if x > value) >= TAIL_MIN_BEYOND:
            return value, pct, n
    return 0.0, 0.0, n
