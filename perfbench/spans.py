"""Timing spans around the public entry points of slidingbloom's layers.

The benchmark never edits the library. For the length of a phase it
replaces a class or module attribute with a wrapper and afterwards puts
the original back. Each wrapped call records its duration and the part
of it covered by wrapped calls made inside it. A layer's self time is
its duration minus that child time.

Wrapped functions are called with positional arguments only, which is
how every call site inside slidingbloom calls them.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np


class Span:
    """Duration and child time of every call of one wrapped function.

    ``capacity`` preallocates the sample arrays so that recording that
    many calls allocates nothing; later calls append.
    """

    def __init__(self, capacity: int = 0):
        self.capacity = capacity
        self.count = 0
        self.dur = array("q", [0]) * capacity
        self.child = array("q", [0]) * capacity

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.dur, dtype=np.int64)[:self.count]

    def self_times(self) -> np.ndarray:
        return self.durations() - np.frombuffer(self.child, dtype=np.int64)[:self.count]

    def total(self) -> int:
        return int(self.durations().sum())

    def mean(self) -> float:
        return float(self.durations().mean()) if self.count else 0.0


class Tracer:
    """Spans keyed by name, plus the patches that feed them."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        # running child time of each open span; the bottom entry absorbs
        # the durations of top-level spans
        self._stack = [0]
        self._saved: list[tuple[object, str, bool, object]] = []

    def span(self, name: str, capacity: int = 0) -> Span:
        s = self.spans.get(name)
        if s is None:
            s = self.spans[name] = Span(capacity)
        return s

    def timed(self, name: str, fn, after=None):
        """Wrap fn in span ``name``; ``after(args, result)`` runs after each call.

        On an exception the duration is still recorded, ``after`` sees a
        result of None, and the exception propagates.
        """
        s = self.span(name)
        stack = self._stack
        dur, child, cap = s.dur, s.child, s.capacity
        ns = perf_counter_ns

        def wrapper(*args):
            result = None
            stack.append(0)
            t0 = ns()
            try:
                result = fn(*args)
                return result
            finally:
                d = ns() - t0
                c = stack.pop()
                stack[-1] += d
                i = s.count
                if i < cap:
                    dur[i] = d
                    child[i] = c
                else:
                    dur.append(d)
                    child.append(c)
                s.count = i + 1
                if after is not None:
                    after(args, result)

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper until ``restore``."""
        own = attr in vars(owner)
        original = getattr(owner, attr) if not own else vars(owner)[attr]
        self._saved.append((owner, attr, own, original))
        setattr(owner, attr, self.timed(name, original, after))

    def restore(self) -> None:
        """Undo every patch, newest first; attributes that were inherited are removed."""
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def nesting_violations(self) -> int:
        """Calls whose wrapped children took longer than the call itself."""
        return sum(int((s.self_times() < 0).sum()) for s in self.spans.values())
