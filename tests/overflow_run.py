"""Drive a filter to its first insert overflow and check what follows.

An insert whose eviction search finds no room is final: no element of
the window may answer No before it, and the filter refuses every use
after it.
"""

import io

import pytest

from slidingbloom import UnrecoverableOverflow, save_filter

from window_oracle import WindowOracle


def assert_window_answered(f, oracle) -> None:
    """Every distinct element of the oracle's window answers Yes."""
    missed = [w for w in oracle.window_distinct() if not f.query(w)]
    assert not missed, (f.steps, len(missed))


def run_to_overflow(create, stream, check_every):
    """Insert ``stream`` into ``create()`` until an insert raises.

    Every ``check_every`` inserts, and just before the failing insert,
    every distinct element of the window must answer Yes. The failing
    insert leaves a filter that answers nothing, so the state it served
    last is rebuilt by replaying the stream up to it; the replay must
    fail on the same element. Returns the index of the failing insert,
    its error, the refusing filter and a snapshot of the last state it
    served, or None if no insert failed.
    """
    f = create()
    oracle = WindowOracle(f.params.n, f.params.m)
    for t, x in enumerate(stream):
        try:
            f.insert(x)
        except UnrecoverableOverflow as exc:
            error = exc
            break
        oracle.push(x)
        if t % check_every == check_every - 1:
            assert_window_answered(f, oracle)
    else:
        return None
    assert (error.fp, error.tag) == (f.hash.eval(stream[t]), f.gen_label)
    assert f.steps == t

    replay = create()
    for x in stream[:t]:
        replay.insert(x)
    assert_window_answered(replay, oracle)
    last_served = io.BytesIO()
    save_filter(replay, last_served)
    with pytest.raises(UnrecoverableOverflow) as again:
        replay.insert(stream[t])
    assert (again.value.fp, again.value.tag) == (error.fp, error.tag)
    return t, error, f, last_served.getvalue()


def assert_refuses_every_use(f, x) -> None:
    """Every later insert, query, save and inspection of ``f`` raises
    UnrecoverableOverflow, and a refused save writes nothing."""
    target = io.BytesIO()
    for use in (lambda: f.insert(x), lambda: f.query(x), lambda: save_filter(f, target),
                f.active_count, f.bits_used, f.step_cost_stats):
        with pytest.raises(UnrecoverableOverflow):
            use()
    assert target.getvalue() == b""
