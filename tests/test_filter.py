import gc
import io
import math
import sys
import tracemalloc
from collections import Counter

import pytest

from slidingbloom import (
    BUCKET_SIZE,
    INFINITE,
    InsertOverflow,
    InvalidParams,
    SlidingFilter,
    derive,
    dictionary,
)
from slidingbloom.filter import MIN_DICT_ELEMENTS
from slidingbloom.prng import SplitMix64

from cell_audit import check_consistency, entries, never_stale
from checked_filter import CheckedFilter, LabelReuseViolation, is_active_tag
from overflow_run import assert_refuses_every_use, run_to_overflow
from reference_model import CRITERION_6_CONFIGS, sweep_mismatches
from stream_patterns import all_same, burst_edges, distinct, random_pool, round_robin
from window_oracle import WindowOracle

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
    f = CheckedFilter.create(n, m, eps, seed=6)
    o = WindowOracle(n, m)
    for t, x in enumerate(stream):
        f.insert(x)
        o.push(x)
        if t % 23 == 0 or t == len(stream) - 1:
            for w in o.window_distinct():
                assert f.query(w), (pattern, m, t, w)
    check_consistency(f.dictionary)


def test_all_duplicates_keep_single_active_cell():
    f = CheckedFilter.create(40, 40, 2**-4, seed=8)
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
    f = CheckedFilter.create(n, m, eps, seed=13)
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
        f = CheckedFilter.create(n, m, eps, u=u, seed=21)
        assert sweep_mismatches(f, u, steps, stream_seed=n * 1000 + u) == 0, (n, m, eps)


def test_reference_model_sees_a_disabled_scanner(monkeypatch):
    # without the scanner, expired cells outlive their label and answer
    # Yes again once it is reused; criterion 6's sweeps, at half their
    # length, must see that on every configuration
    monkeypatch.setattr(dictionary.Dictionary, "scan_step", lambda self, k, stale: 0)
    for n, m, eps, u, steps in CRITERION_6_CONFIGS:
        f = SlidingFilter.create(n, m, eps, u=u, seed=6)
        assert sweep_mismatches(f, u, steps // 2, stream_seed=u * 3 + n) > 0, (n, m, eps)


@pytest.mark.parametrize("n,m,eps,u", [
    (1, 1, 0.5, 8),        # smallest possible instance, scan width must stretch
    (2, 1, 0.5, 16),       # g=1 with tiny capacity
    (50, 50, 0.5, U64),    # c=1 boundary
    (40, 1, 2**-4, U64),   # c=n, g=1
])
def test_label_reuse_safety_degenerate(n, m, eps, u):
    f = CheckedFilter.create(n, m, eps, u=u, seed=31)
    rng = SplitMix64(5)
    for _ in range(20_000):
        f.insert(rng.below(min(u, 4 * n + 8)))
    check_consistency(f.dictionary)


def test_scan_width_normally_two():
    f = SlidingFilter.create(1000, 1000, 2**-8, seed=0)
    assert f._scan_width == 2


def test_label_reuse_hook_fires_when_sabotaged():
    # a cell still carrying the incoming label must trip the label check
    # (driven via the boundary directly: the scanner would otherwise be
    # entitled to reclaim the planted stale cell first)
    f = CheckedFilter.create(20, 20, 0.25, seed=41)
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


def queried_cells(f, xs):
    """The cells each query of xs reads, as its dictionary reports them."""
    cells = []
    for x in xs:
        f.query(x)
        cells.append(f.dictionary.last_op_cells)
    return cells


@pytest.mark.parametrize("case", ["none", "first-bucket", "mixed"])
def test_query_cost_fields_match_per_query_cells(case):
    # the query fields are derived from two counts; a reference built from
    # the cells each member call reports must give the same figures
    f = SlidingFilter.create(1000, 1000, 2**-8, seed=4)
    inserted = list(range(0, 3000, 3)) if case == "mixed" else [5, 50, 500]
    for x in inserted:
        f.insert(x)
    if case == "none":
        cells = []
    elif case == "first-bucket":
        # a lightly loaded dictionary puts each element in its first bucket
        cells = queried_cells(f, inserted * 3)
        assert set(cells) == {BUCKET_SIZE}
    else:
        cells = queried_cells(f, range(2000))
        assert set(cells) == {BUCKET_SIZE, 2 * BUCKET_SIZE}
    cost = f.step_cost_stats()
    fields = (cost.queries, cost.query_cells_max, cost.query_cells_mean)
    assert fields == (len(cells), max(cells, default=0),
                      sum(cells) / len(cells) if cells else 0.0)
    if case != "mixed":
        assert fields[1:] == ((BUCKET_SIZE, 4.0) if cells else (0, 0.0))


def test_cost_counts_start_at_construction_or_load():
    f = SlidingFilter.create(200, 100, 2**-6, seed=1)
    for x in range(700):
        f.insert(x)
    f.query(3)
    assert (f.step_cost_stats().inserts, f.step_cost_stats().queries) == (700, 1)
    blob = io.BytesIO()
    f.save(blob)
    g = SlidingFilter.load(blob.getvalue())
    assert (g.steps, g.gen_pos) == (700, 700 % g.params.g)
    cost = g.step_cost_stats()
    assert (cost.inserts, cost.insert_cells_mean, cost.queries, cost.query_cells_max) == (0, 0.0, 0, 0)
    for x in range(5):
        g.insert(x)
    g.query(3)
    assert (g.step_cost_stats().inserts, g.step_cost_stats().queries) == (5, 1)


def overflow_stream(seed, length=12_000):
    rng = SplitMix64(seed + 100)
    return [rng.below(2**63) for _ in range(length)]


def test_window_elements_answered_until_overflow(monkeypatch):
    # a short search budget makes an insert overflow; until it does, no
    # element of the window answers No, and after it the filter refuses
    # every use
    monkeypatch.setattr(dictionary, "MAX_SEARCH", 8)
    overflows = 0
    for seed in range(6):
        stream = overflow_stream(seed)
        run = run_to_overflow(
            lambda: SlidingFilter.create(2000, 2000, 2**-8, seed=seed), stream, check_every=500)
        if run is not None:
            t, _error, f, _served = run
            assert_refuses_every_use(f, stream[t])
            overflows += 1
    assert overflows >= 5


def test_unrecoverable_overflow_refuses_further_use(monkeypatch):
    # the element being inserted is lost, so the filter must not keep
    # serving: the failing insert and every later use raise
    monkeypatch.setattr(dictionary, "MAX_SEARCH", 6)
    stream = [t * 1000003 + 7 for t in range(20_000)]
    t, error, f, _served = run_to_overflow(
        lambda: SlidingFilter.create(2000, 2000, 2**-8, seed=0), stream, check_every=500)
    assert t == 2994 and isinstance(error, InsertOverflow)
    assert_refuses_every_use(f, stream[t])
    assert_refuses_every_use(f, 7)


def assert_counts_match_cells(f):
    """tag_count for every tag, occupancy and active_count against a
    sweep of the decoded cells; returns the swept per-tag counts."""
    d = f.dictionary
    swept = Counter(tag for _i, _fp, tag in entries(d))
    assert [d.tag_count(t) for t in range(d.tag_range)] == [swept[t] for t in range(d.tag_range)]
    assert d.occupancy() == sum(swept.values())
    assert f.active_count() == sum(k for t, k in swept.items() if is_active_tag(f, t))
    return swept


def test_on_demand_counts_match_a_sweep_of_the_cells():
    # the counts are sweeps of the cell planes; tag 0 is the case a plain
    # count of the tags gets wrong, since every empty cell carries tag 0
    f = SlidingFilter.create(500, 500, 2**-8, seed=4)
    rng = SplitMix64(8)
    stream = []
    fresh = zero_beside_empty = 0
    for t in range(6000):
        # every third element repeats one of the last 500: an update in place
        if t % 3 == 2:
            x = stream[-1 - rng.below(min(len(stream), 500))]
        else:
            x = rng.below(2**63)
            fresh += 1
        stream.append(x)
        f.insert(x)
        if t % 50 == 49:
            swept = assert_counts_match_cells(f)
            d = f.dictionary
            zero_beside_empty += swept[0] > 0 and d.occupancy() < d.capacity_cells
    assert zero_beside_empty > 0
    assert f.dictionary.max_kick_chain > 0
    # more distinct elements than cells, so cells were reclaimed, and
    # every label was reused
    assert fresh > f.dictionary.capacity_cells
    assert f.boundaries > 2 * f.params.gen_modulus

    # a save/load round trip keeps every count
    g = SlidingFilter.load(io.BytesIO(_snapshot(f)))
    assert assert_counts_match_cells(g) == swept


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
    # eps = 2^-61 over a 100-bit universe: 63-bit quotients in 8-byte
    # keys, the widest the key plane takes, cut into 6 tabulation
    # characters, still insert, answer and snapshot exactly
    f = SlidingFilter.create(1000, 1000, 2**-61, u=2**100, seed=9)
    d = f.dictionary
    assert d.quotient_bits == 63 and d._key_width == d._keys.itemsize == 8
    assert -(-d.quotient_bits // dictionary._MAX_CHAR_BITS) == 6
    rng = SplitMix64(4)
    xs = [rng.below(2**100) for _ in range(3000)]
    for x in xs:
        f.insert(x)
    assert all(f.query(x) for x in xs[-1000:])
    assert not any(f.query(rng.below(2**100)) for _ in range(1000))
    g = SlidingFilter.load(io.BytesIO(_snapshot(f)))
    assert _snapshot(g) == _snapshot(f)
    assert all(g.query(x) for x in xs[-1000:])
    check_consistency(g.dictionary)


def test_keys_wider_than_64_bits_refused():
    # eps = 2^-70 over a 100-bit universe would need 72-bit quotients
    with pytest.raises(InvalidParams, match="72-bit quotients .* raise epsilon or lower u"):
        SlidingFilter.create(1000, 1000, 2**-70, u=2**100)


def test_every_geometry_at_u_2_64_gets_keys_of_at_most_64_bits():
    # the CLI and the scripts fix u = 2^64, where n < eps*u keeps the
    # quotients far from the 64-bit key limit (a largest quotient below
    # 2^63 - 1). Checked at the smallest valid epsilon for each n, and a
    # few above it, from the cell count alone: no cell is allocated.
    widest = 0
    for n in [*range(1, 3001), *(10**k for k in range(4, 20))]:
        for factor in (1, 1.001, 1.5, 2, 3, 1000):
            epsilon = math.nextafter(n / U64 * factor, 1.0)
            if epsilon >= 1.0:
                continue
            for m in {1, n, INFINITE}:
                p = derive(n, m, epsilon, U64)
                cells = dictionary._capacity_cells(max(p.dict_capacity, MIN_DICT_ELEMENTS))
                q_max = (p.fp_range - 1) // (cells // BUCKET_SIZE)
                assert q_max < 2**63 - 1, (n, m, epsilon)
                widest = max(widest, (2 * q_max + 1).bit_length())
    assert widest == 62  # n = 1, epsilon just above 2^-64: 61-bit quotients


def _snapshot(f):
    buf = io.BytesIO()
    f.save(buf)
    return buf.getvalue()
