import gc
import io
import math
import sys
import tracemalloc

import pytest

from slidingbloom import (
    INFINITE,
    InsertOverflow,
    InvalidParams,
    LabelReuseViolation,
    SlidingFilter,
    UnrecoverableOverflow,
    WindowOracle,
    dictionary,
    never_stale,
)
from slidingbloom.prng import SplitMix64

from reference_model import CRITERION_6_CONFIGS, sweep_mismatches
from stream_patterns import all_same, burst_edges, distinct, random_pool, round_robin

U64 = 2**64


def test_fresh_filter_answers_no():
    f = SlidingFilter.create(100, 100, 2**-6, seed=1)
    assert not any(f.query(x) for x in range(50))


def test_insert_then_query_yes():
    f = SlidingFilter.create(100, 100, 2**-6, seed=1)
    f.insert(12345)
    assert f.query(12345)


def test_window_guarantee_at_exact_capacity():
    n = 64
    f = SlidingFilter.create(n, 8, 2**-6, seed=2)
    f.insert(9999)
    for x in range(n - 1):
        f.insert(x)
    assert f.query(9999)  # still the n-th most recent


def test_reinsert_refreshes_window():
    n = 60
    f = SlidingFilter.create(n, 10, 2**-6, seed=3)
    f.insert(4242)
    for x in range(n - 1):
        f.insert(x)
    f.insert(4242)
    for x in range(n - 1, 2 * (n - 1)):
        f.insert(x)
    assert f.query(4242)


def test_expired_element_fp_rate_monte_carlo():
    # after n+m fresh elements, an old element may answer Yes only with
    # probability <= eps; checked over independent (seed, x) trials
    n, m, eps = 64, 16, 2**-4
    trials, yes = 600, 0
    for seed in range(trials):
        f = SlidingFilter.create(n, m, eps, seed=seed)
        x = 10**9 + seed
        f.insert(x)
        for y in range(n + m):
            f.insert(seed * 10**6 + y)
        yes += f.query(x)
    limit = eps + 3 * math.sqrt(eps * (1 - eps) / trials)
    assert yes / trials <= limit, (yes / trials, limit)


def test_invalid_params_propagate():
    with pytest.raises(InvalidParams):
        SlidingFilter.create(100, 10, 0.001, u=1000, seed=0)


def test_insert_query_domain_checked():
    f = SlidingFilter.create(10, 10, 0.25, u=1000, seed=0)
    with pytest.raises(ValueError):
        f.insert(1000)
    with pytest.raises(ValueError):
        f.query(-1)


def test_determinism_same_seed_same_behavior():
    stream = random_pool(3000, 150, seed=9)
    answers = []
    for _ in range(2):
        f = SlidingFilter.create(100, 20, 2**-5, seed=77)
        run = []
        for x in stream:
            run.append(f.query(x))
            f.insert(x)
        answers.append(run)
    assert answers[0] == answers[1]


@pytest.mark.parametrize("pattern", ["random", "all_same", "round_robin", "burst"])
@pytest.mark.parametrize("m", [1, 25, INFINITE])
def test_no_false_negatives_vs_oracle(pattern, m):
    n, eps = 50, 2**-4
    if pattern == "random":
        stream = random_pool(2500, 2 * n, seed=4)
    elif pattern == "all_same":
        stream = all_same(2500)
    elif pattern == "round_robin":
        stream = round_robin(2500, n + 1)
    else:
        stream = burst_edges(2500, n, seed=5)
    f = SlidingFilter.create(n, m, eps, seed=6, debug=True)
    o = WindowOracle(n, m)
    for t, x in enumerate(stream):
        f.insert(x)
        o.push(x)
        if t % 23 == 0 or t == len(stream) - 1:
            for w in o.window_distinct():
                assert f.query(w), (pattern, m, t, w)
    f.dictionary.check_consistency()


def test_all_duplicates_keep_single_active_cell():
    f = SlidingFilter.create(40, 40, 2**-4, seed=8, debug=True)
    for _ in range(5000):
        f.insert(7)
    assert f.active_count() == 1
    assert f.query(7)


def test_soundness_envelope_exhaustive():
    # Yes implies a fingerprint collision with something in the last
    # n+g stream elements (u = p makes the check exhaustive)
    n, m, eps, u = 10, 5, 0.25, 101
    f = SlidingFilter.create(n, m, eps, u=u, seed=11)
    assert f.hash.p == u
    g = f.params.g
    ev = f.hash.eval
    stream = random_pool(150, u, seed=12)
    recent = []
    for x in stream:
        f.insert(x)
        recent.append(x)
        scope = recent[-(n + g):]
        scope_fps = {ev(y) for y in scope}
        for probe in range(u):
            if f.query(probe):
                assert ev(probe) in scope_fps


def test_active_count_bounded_by_capacity_law():
    n, m, eps = 100, 100, 2**-5
    f = SlidingFilter.create(n, m, eps, seed=13, debug=True)
    limit = (f.params.c + 1) * f.params.g
    for x in range(5000):
        f.insert(x)
        if x % 97 == 0:
            assert f.active_count() <= limit
    assert f.active_count() <= limit


def test_mode_equivalence_small_exhaustive():
    configs = [
        (12, 3, 0.25, 499, 700),
        (50, 50, 0.25, 499, 500),
        (20, INFINITE, 0.5, 211, 600),
    ]
    for n, m, eps, u, steps in configs:
        f = SlidingFilter.create(n, m, eps, u=u, seed=21, debug=True)
        assert sweep_mismatches(f, u, steps, stream_seed=n * 1000 + u) == 0, (n, m, eps)


def test_reference_model_sees_a_disabled_scanner(monkeypatch):
    # without the scanner, expired cells outlive their label and answer
    # Yes again once it is reused; criterion 6's sweeps, at half their
    # length, must see that on every configuration
    monkeypatch.setattr(dictionary.Dictionary, "scan_step", lambda self, k, stale: 0)
    for n, m, eps, u, steps in CRITERION_6_CONFIGS:
        f = SlidingFilter.create(n, m, eps, u=u, seed=6, debug=False)
        assert sweep_mismatches(f, u, steps // 2, stream_seed=u * 3 + n) > 0, (n, m, eps)


@pytest.mark.parametrize("n,m,eps,u", [
    (1, 1, 0.5, 8),        # smallest possible instance, scan width must stretch
    (2, 1, 0.5, 16),       # g=1 with tiny capacity
    (50, 50, 0.5, U64),    # c=1 boundary
    (40, 1, 2**-4, U64),   # c=n, g=1
])
def test_label_reuse_safety_degenerate(n, m, eps, u):
    f = SlidingFilter.create(n, m, eps, u=u, seed=31, debug=True)
    rng = SplitMix64(5)
    for _ in range(20_000):
        f.insert(rng.below(min(u, 4 * n + 8)))
    f.dictionary.check_consistency()


def test_scan_width_normally_two():
    f = SlidingFilter.create(1000, 1000, 2**-8, seed=0)
    assert f._scan_width == 2


def test_label_reuse_hook_fires_when_sabotaged():
    # a cell still carrying the incoming label must trip the debug hook
    # (driven via the boundary directly: the scanner would otherwise be
    # entitled to reclaim the planted stale cell first)
    f = SlidingFilter.create(20, 20, 0.25, seed=41, debug=True)
    doomed = (f.gen_label + 1) % f.params.gen_modulus
    f.dictionary.insert_or_update(99, doomed, never_stale)
    with pytest.raises(LabelReuseViolation):
        f._advance_label()


def test_space_report_structure():
    f = SlidingFilter.create(2**14, 2**14, 2**-8, seed=1)
    rep = f.bits_used()
    assert rep.total_bits == rep.dictionary_bits + rep.counters_and_hash_bits
    assert rep.counters_and_hash_bits <= 4 * 64  # four machine words for u <= 2^64
    assert rep.counters_and_hash_bits / rep.total_bits <= 0.01
    d = rep.dictionary
    assert d.total_bits == d.cells_total_bits + d.overhead_bits


def test_cost_report_bounds():
    f = SlidingFilter.create(500, 500, 2**-6, seed=2)
    for x in random_pool(8000, 700, seed=3):
        f.insert(x)
    for x in range(4000):
        f.query(x)
    cost = f.step_cost_stats()
    assert cost.query_cells_max <= 8
    assert cost.insert_cells_max_no_kicks <= 8 + 2
    assert cost.scan_width == 2
    assert cost.max_kick_chain < 500
    assert cost.inserts == 8000 and cost.queries == 4000
    assert cost.insert_cells_mean >= 2  # scan alone touches that much


def test_overflow_recovery_keeps_every_window_element(monkeypatch):
    # a short kick budget forces reseeded rebuilds; the element the failed
    # walk was carrying must survive each of them
    monkeypatch.setattr(dictionary, "MAX_KICKS", 30)
    n = m = 2000
    rebuilds = 0
    for seed in range(6):
        f = SlidingFilter.create(n, m, 2**-8, seed=seed)
        o = WindowOracle(n, m)
        rng = SplitMix64(seed + 100)
        seen = 0
        for t in range(12_000):
            x = rng.below(2**63)
            f.insert(x)
            o.push(x)
            if f.rebuilds != seen or t % 1000 == 999:
                seen = f.rebuilds
                missed = [w for w in o.window_distinct() if not f.query(w)]
                assert not missed, (seed, t, len(missed))
        f.dictionary.check_consistency()
        rebuilds += f.rebuilds
    assert rebuilds >= 6


def test_unrecoverable_overflow_refuses_further_use(monkeypatch):
    # a budget of 20 kicks also sinks the reseeded rebuilds: the element
    # the last walk carried is lost, so the filter must not keep serving
    monkeypatch.setattr(dictionary, "MAX_KICKS", 20)
    f = SlidingFilter.create(2000, 2000, 2**-8, seed=0)
    with pytest.raises(UnrecoverableOverflow) as info:
        for t in range(20_000):
            f.insert(t * 1000003 + 7)
    assert t == 2191 and isinstance(info.value, InsertOverflow)
    for use in (lambda: f.insert(t * 1000003 + 7), lambda: f.query(7),
                lambda: f.save(io.BytesIO())):
        with pytest.raises(UnrecoverableOverflow):
            use()


@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "7", None, 10**20 + 0.5])
def test_non_integer_elements_rejected_before_any_change(bad):
    f = SlidingFilter.create(50, 50, 2**-6, seed=3)
    for x in range(120):
        f.insert(x)
    before = io.BytesIO()
    f.save(before)
    with pytest.raises(TypeError):
        f.insert(bad)
    with pytest.raises(TypeError):
        f.query(bad)
    after = io.BytesIO()
    f.save(after)
    assert after.getvalue() == before.getvalue()


def test_resident_memory_bounded_after_first_label_cycle():
    # placement keeps no per-quotient-class state: 400k distinct inserts
    # over 22-bit quotients must not grow the heap once the filter is warm.
    # Tracing every allocation slows an insert about 30x, so the whole run
    # counts live allocator blocks (at most 512 bytes each) and a final
    # stretch is traced byte for byte.
    f = SlidingFilter.create(1000, INFINITE, 2**-20, seed=5)
    assert f.dictionary.quotient_bits >= 20
    rng = SplitMix64(17)
    cycle = f.params.gen_modulus * f.params.g
    traced = 2000
    for _ in range(cycle):
        f.insert(rng.below(2**64))
    gc.collect()
    blocks = sys.getallocatedblocks()
    for _ in range(400_000 - cycle - traced):
        f.insert(rng.below(2**64))
    gc.collect()
    assert (sys.getallocatedblocks() - blocks) * 512 < 2**20
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(traced):
            f.insert(rng.below(2**64))
        growth = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert growth < 16 * 1024, growth


def test_widest_quotients_round_trip():
    # eps = 2^-70 over a 100-bit universe: 72-bit quotients, wider than
    # any typed array, still insert, answer and snapshot exactly
    f = SlidingFilter.create(1000, 1000, 2**-70, u=2**100, seed=9)
    assert f.dictionary.quotient_bits == 72
    rng = SplitMix64(4)
    xs = [rng.below(2**100) for _ in range(3000)]
    for x in xs:
        f.insert(x)
    assert all(f.query(x) for x in xs[-1000:])
    assert not any(f.query(rng.below(2**100)) for _ in range(1000))
    g = SlidingFilter.load(io.BytesIO(_snapshot(f)))
    assert _snapshot(g) == _snapshot(f)
    assert all(g.query(x) for x in xs[-1000:])
    g.dictionary.check_consistency()


def _snapshot(f):
    buf = io.BytesIO()
    f.save(buf)
    return buf.getvalue()
