"""One random history over every public path of a filter.

A hypothesis state machine builds a small filter, then interleaves
inserts, queries, save/load round trips (through bytes and through a
memoryview) and cuts to the eviction search budget, so that some
histories overflow. While the filter is usable, every answer equals the
generation-exact reference model and every element of the window
answers Yes; a save, a load and a second save give the same bytes.
After an overflow, every insert, query, save and inspection raises
UnrecoverableOverflow.
"""

import io

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from slidingbloom import INFINITE, SlidingFilter, UnrecoverableOverflow, dictionary, load_filter

from overflow_run import assert_refuses_every_use
from reference_model import ReferenceModel
from window_oracle import WindowOracle

# (n, m, epsilon, u): tables at the MIN_DICT_ELEMENTS floor; the last
# three fill enough of their cells to overflow at a search budget of 1-3
CONFIGS = [
    (12, 3, 0.25, 499),
    (20, INFINITE, 0.5, 211),
    (40, INFINITE, 0.25, 499),
    (50, 5, 0.25, 499),
    (60, 20, 2**-4, 2**64),
]
# elements are taken modulo the smaller of u and this
ELEMENTS = 4096
SEARCH_BUDGET = dictionary.MAX_SEARCH

element = st.integers(0, 2**16)


def saved(f) -> bytes:
    out = io.BytesIO()
    f.save(out)
    return out.getvalue()


class FilterHistory(RuleBasedStateMachine):
    @initialize(config=st.sampled_from(CONFIGS), seed=st.integers(0, 2**64 - 1))
    def build(self, config, seed):
        n, m, epsilon, u = config
        self.filter = SlidingFilter.create(n, m, epsilon, u=u, seed=seed)
        self.model = ReferenceModel(self.filter)
        self.oracle = WindowOracle(n, m)
        self.universe = min(u, ELEMENTS)
        self.overflowed = False

    def teardown(self):
        dictionary.MAX_SEARCH = SEARCH_BUDGET

    def _insert(self, x):
        x %= self.universe
        try:
            self.filter.insert(x)
        except UnrecoverableOverflow:
            self.overflowed = True
            return
        self.model.insert(x)
        self.oracle.push(x)

    @precondition(lambda self: not self.overflowed)
    @rule(x=element)
    def insert(self, x):
        self._insert(x)

    @precondition(lambda self: not self.overflowed)
    @rule(start=element, count=st.integers(1, 150), stride=st.integers(1, 97))
    def insert_run(self, start, count, stride):
        for i in range(count):
            if self.overflowed:
                break
            self._insert(start + i * stride)

    @precondition(lambda self: not self.overflowed)
    @rule(x=element)
    def query(self, x):
        x %= self.universe
        assert self.filter.query(x) == self.model.query(x)

    @precondition(lambda self: not self.overflowed)
    @rule(through_view=st.booleans())
    def save_and_load(self, through_view):
        blob = saved(self.filter)
        loaded = load_filter(memoryview(bytearray(blob)) if through_view else blob)
        assert saved(loaded) == blob
        self.filter = loaded

    @rule(budget=st.integers(1, 3))
    def lower_search_budget(self, budget):
        dictionary.MAX_SEARCH = min(dictionary.MAX_SEARCH, budget)

    @precondition(lambda self: self.overflowed)
    @rule(x=element)
    def use_after_overflow(self, x):
        assert_refuses_every_use(self.filter, x % self.universe)

    @invariant()
    def window_answered(self):
        if not self.overflowed:
            for w in self.oracle.window_distinct():
                assert self.filter.query(w)


FilterHistory.TestCase.settings = settings(max_examples=100, stateful_step_count=40)
TestFilterHistory = FilterHistory.TestCase


def test_history_with_an_overflow():
    # one fixed history through the machine's rules that is sure to
    # overflow, whatever histories the search above happens to draw
    machine = FilterHistory()
    try:
        machine.build(config=(60, 20, 2**-4, 2**64), seed=0)
        machine.insert_run(start=0, count=100, stride=1)
        machine.save_and_load(through_view=True)
        machine.window_answered()
        machine.lower_search_budget(budget=1)
        machine.insert_run(start=100, count=150, stride=1)
        assert machine.overflowed
        machine.use_after_overflow(x=7)
    finally:
        machine.teardown()
