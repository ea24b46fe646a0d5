"""Exact sliding-window reference used as ground truth in tests.

Deliberately space-hungry: it keeps the raw last n+m elements (or the
full distinct history when the slack is unbounded) plus count indexes
for O(1) classification.
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum


class Region(Enum):
    WINDOW = "window"  # among the last n elements
    SLACK = "slack"    # among the m elements before the window
    OUT = "out"        # older than n+m, or never seen


class WindowOracle:
    def __init__(self, n: int, m):
        if n < 1:
            raise ValueError("n must be >= 1")
        infinite = m == math.inf
        if not infinite and m < 1:
            raise ValueError("m must be >= 1 or math.inf")
        self.n = n
        self.m = m
        self._win = deque()
        self._win_counts: dict = {}
        self._infinite = infinite
        if infinite:
            self._history: set = set()
        else:
            self._full = deque()
            self._full_counts: dict = {}

    def push(self, x) -> None:
        self._win.append(x)
        self._win_counts[x] = self._win_counts.get(x, 0) + 1
        if len(self._win) > self.n:
            old = self._win.popleft()
            left = self._win_counts[old] - 1
            if left:
                self._win_counts[old] = left
            else:
                del self._win_counts[old]
        if self._infinite:
            self._history.add(x)
        else:
            self._full.append(x)
            self._full_counts[x] = self._full_counts.get(x, 0) + 1
            if len(self._full) > self.n + self.m:
                old = self._full.popleft()
                left = self._full_counts[old] - 1
                if left:
                    self._full_counts[old] = left
                else:
                    del self._full_counts[old]

    def classify(self, x) -> Region:
        if x in self._win_counts:
            return Region.WINDOW
        if self._infinite:
            return Region.SLACK if x in self._history else Region.OUT
        return Region.SLACK if x in self._full_counts else Region.OUT

    def window_distinct(self):
        """Distinct elements currently inside the window."""
        return self._win_counts.keys()
