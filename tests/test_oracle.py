from hypothesis import given, strategies as st

from slidingbloom import INFINITE

from window_oracle import Region, WindowOracle


def naive_classify(stream, n, m, x):
    window = stream[-n:]
    if x in window:
        return Region.WINDOW
    scope = stream if m == INFINITE else stream[-(n + int(m)):]
    return Region.SLACK if x in scope else Region.OUT


def test_push_then_window():
    o = WindowOracle(5, 3)
    o.push("a")
    assert o.classify("a") is Region.WINDOW


def test_element_slides_into_slack():
    n, m = 6, 1
    o = WindowOracle(n, m)
    o.push("a")
    for i in range(n):
        o.push(i)
    assert o.classify("a") is Region.SLACK


def test_element_slides_out():
    n, m = 4, 2
    o = WindowOracle(n, m)
    o.push("a")
    for i in range(n + m):
        o.push(i)
    assert o.classify("a") is Region.OUT
    assert o.classify("never") is Region.OUT


def test_infinite_slack_never_out_once_seen():
    o = WindowOracle(3, INFINITE)
    o.push("a")
    for i in range(100):
        o.push(i)
    assert o.classify("a") is Region.SLACK
    assert o.classify("b") is Region.OUT


def test_duplicates_keep_window_membership():
    o = WindowOracle(3, 2)
    for x in ("a", "b", "a", "c", "d"):
        o.push(x)
    # window = [a, c, d]
    assert o.classify("a") is Region.WINDOW
    assert o.classify("b") is Region.SLACK


def test_memory_bounded():
    o = WindowOracle(10, 5)
    for i in range(10_000):
        o.push(i % 7)
    assert len(o._win) <= 10
    assert len(o._full) <= 15


@given(st.lists(st.integers(0, 30), min_size=1, max_size=300),
       st.integers(1, 12),
       st.one_of(st.just(INFINITE), st.integers(1, 12)))
def test_differential_vs_naive(stream, n, m):
    o = WindowOracle(n, m)
    for x in stream:
        o.push(x)
    for x in range(31):
        assert o.classify(x) is naive_classify(stream, n, m, x)
    assert set(o.window_distinct()) == set(stream[-n:])
