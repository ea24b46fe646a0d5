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
    load_filter,
    save_filter,
)
from slidingbloom.filter import MIN_DICT_ELEMENTS
from slidingbloom.prng import SplitMix64

from cell_audit import buckets_for, check_consistency, entries, never_stale, tag_count
from checked_filter import CheckedFilter, LabelReuseViolation, is_active_tag
from overflow_run import assert_refuses_every_use, run_to_overflow
from reference_model import CRITERION_6_CONFIGS, sweep_mismatches
from stream_patterns import all_same, burst_edges, distinct, random_pool, round_robin
from test_pinned_streams import STREAMS
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


def test_reference_model_agreement_small_exhaustive():
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
    d = f.dictionary
    assert (rep.capacity_cells, rep.cell_bits) == (d.capacity_cells, d.cell_bits)
    # every cell, plus the cursor, occupancy and seed words
    cap = rep.capacity_cells
    words = max(1, (cap - 1).bit_length()) + max(1, cap.bit_length()) + 64
    assert rep.dictionary_bits == cap * rep.cell_bits + words


@pytest.mark.parametrize("n, m, eps, pinned", [
    (10**5, INFINITE, 2**-10, (2322503, 2322354, 149, 19, 122224)),
    (10**4, 10**4, 2**-10, (232493, 232348, 145, 19, 12224)),
    (10**4, INFINITE, 2**-20, (350397, 350252, 145, 30, 11672)),
    (64, 64, 2**-10, (1888, 1750, 138, 19, 88)),
])
def test_space_totals_pinned(n, m, eps, pinned):
    # dedup prints the first two, so the notional layout must not move
    rep = SlidingFilter.create(n, m, eps, seed=1).bits_used()
    assert (rep.total_bits, rep.dictionary_bits, rep.counters_and_hash_bits,
            rep.cell_bits, rep.capacity_cells) == pinned


def test_cost_report_bounds():
    f = SlidingFilter.create(500, 500, 2**-6, seed=2)
    for x in random_pool(8000, 700, seed=3):
        f.insert(x)
    for x in range(4000):
        f.query(x)
    cost = f.step_cost_stats()
    assert cost.query_cells_max <= 8
    assert cost.insert_cells_max_no_kicks == 8 + 2
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


def inserted_cells(f, xs):
    """Insert xs into f; the cells and moves each insert reports."""
    d = f.dictionary
    cells, kicks = [], []
    for x in xs:
        f.insert(x)
        cells.append(f._scan_width + d.last_op_cells)
        kicks.append(d.last_op_kicks)
    return cells, kicks


def insert_cost_fields(f):
    cost = f.step_cost_stats()
    return (cost.inserts, cost.insert_cells_max, cost.insert_cells_max_no_kicks,
            cost.insert_cells_mean)


def reference_insert_fields(cells, kicks):
    plain = [c for c, k in zip(cells, kicks) if k == 0]
    return (len(cells), max(cells, default=0), max(plain, default=0),
            sum(cells) / len(cells) if cells else 0.0)


def test_insert_cost_fields_match_per_insert_cells():
    # the insert fields are derived from the dictionary's search counts; a
    # reference built from the cells each insert reports must give the
    # same figures, the mean bit for bit
    f = SlidingFilter.create(2000, INFINITE, 2**-8, seed=1)
    rng = SplitMix64(2)
    cells, kicks = inserted_cells(f, [rng.below(2**63) for _ in range(20000)])
    assert max(kicks) > 0  # the stream runs eviction searches
    assert insert_cost_fields(f) == reference_insert_fields(cells, kicks)
    blob = io.BytesIO()
    save_filter(f, blob)
    g = load_filter(blob.getvalue())
    assert insert_cost_fields(g) == reference_insert_fields([], []) == (0, 0, 0, 0.0)
    cells, kicks = inserted_cells(g, [rng.below(2**63) for _ in range(5000)])
    assert max(kicks) > 0
    assert insert_cost_fields(g) == reference_insert_fields(cells, kicks)


def test_cost_counts_start_at_construction_or_load():
    f = SlidingFilter.create(200, 100, 2**-6, seed=1)
    for x in range(700):
        f.insert(x)
    f.query(3)
    assert (f.step_cost_stats().inserts, f.step_cost_stats().queries) == (700, 1)
    blob = io.BytesIO()
    save_filter(f, blob)
    g = load_filter(blob.getvalue())
    assert (g.steps, g.gen_pos) == (700, 700 % g.params.g)
    cost = g.step_cost_stats()
    assert (cost.inserts, cost.insert_cells_mean, cost.queries, cost.query_cells_max) == (0, 0.0, 0, 0)
    for x in range(5):
        g.insert(x)
    g.query(3)
    assert (g.step_cost_stats().inserts, g.step_cost_stats().queries) == (5, 1)


def memo_case(f, x):
    """How an insert of x into f meets what f's last query remembered,
    read just before the insert: "none" (another element), "hit" (its
    cell, still there), "stale-freed" (its cell, stale and next in the
    scanner's way), "moved" (the cell no longer holds the key found),
    "miss" (not stored) or "miss-stored" (a miss, stored since)."""
    d = f.dictionary
    fp = f.hash.eval(x)
    probe_fp, _q, _r, _h, i, key = d._probe
    if probe_fp != fp:
        return "none"
    if i < 0:
        key1 = fp // d.num_buckets << 1
        b1, b2 = buckets_for(d, fp)
        stored = (key1 in d._keys[b1 * BUCKET_SIZE:(b1 + 1) * BUCKET_SIZE]
                  or key1 + 1 in d._keys[b2 * BUCKET_SIZE:(b2 + 1) * BUCKET_SIZE])
        return "miss-stored" if stored else "miss"
    if d._keys[i] != key:
        return "moved"
    if d._tags[i] in f._stale and (i - d._cursor) % d.capacity_cells < f._scan_width:
        return "stale-freed"
    return "hit"


def insert_fields(f):
    cost = f.step_cost_stats()
    return (f.steps, cost.inserts, cost.insert_cells_max, cost.insert_cells_max_no_kicks,
            cost.insert_cells_mean, cost.max_kick_chain, cost.scan_width)


class Twins:
    """Filter a takes every query and insert, its twin b the inserts only.

    After each insert both hold the same key and tag planes, step count
    and insert costs. ``cases`` counts how a's inserts met its memo, and
    ``elements`` maps the fingerprint of each inserted element to it.
    """

    def __init__(self, n, m, eps, seed):
        self.a = SlidingFilter.create(n, m, eps, seed=seed)
        self.b = SlidingFilter.create(n, m, eps, seed=seed)
        self.cases = Counter()
        self.elements = {}

    def insert(self, x):
        self.cases[memo_case(self.a, x)] += 1
        self.a.insert(x)
        self.b.insert(x)
        self.elements[self.a.hash.eval(x)] = x
        da, db = self.a.dictionary, self.b.dictionary
        assert da._keys == db._keys and da._tags == db._tags
        assert insert_fields(self.a) == insert_fields(self.b)


def stale_cell_freed_by_the_insert(tw, fresh, limit):
    """Query an element whose cell is stale and next in the scanner's
    way, then insert it: the insert's own scan step frees that cell."""
    x = next(fresh)
    tw.insert(x)
    for _ in range(limit):
        tw.a.query(x)
        if memo_case(tw.a, x) == "stale-freed":
            tw.insert(x)
            return
        if tw.a.dictionary._probe[4] < 0:
            # an insert that needed room in its bucket reclaimed it
            x = next(fresh)
            tw.insert(x)
        else:
            tw.insert(next(fresh))
    raise AssertionError("no stale cell met the scanner")


def remembered_cell_moved_by_eviction(tw, fresh, limit):
    """Query an element, insert another whose eviction search moves the
    first one's cell, then insert the first. A copy of b takes each
    candidate insert first, to show which live cells it moves; the
    element taken is one of an older generation, so a tag written to
    the wrong cell shows in the tag plane."""
    for _ in range(limit):
        y = next(fresh)
        b = tw.b
        ahead = load_filter(_snapshot(b))
        ahead.insert(y)
        after = ahead.dictionary._keys
        moved = [fp for i, fp, tag in entries(b.dictionary)
                 if tag not in b._stale and tag != b.gen_label
                 and after[i] != b.dictionary._keys[i]]
        if moved:
            x = tw.elements[moved[0]]
            tw.a.query(x)
            tw.insert(y)
            tw.insert(x)
            return
        tw.insert(y)
    raise AssertionError("no insert moved a live cell")


def missed_element_inserted_twice(tw, fresh, limit):
    """A query that misses, then two inserts of its element, where the
    second finds it stored beside an empty cell of its buckets: the memo
    still holds the miss, and only the key checks keep that insert from
    taking the empty cell."""
    for _ in range(limit):
        x = next(fresh)
        tw.a.query(x)
        missed = memo_case(tw.a, x) == "miss"
        tw.insert(x)
        d = tw.a.dictionary
        if missed and any(d._empty in d._keys[b * BUCKET_SIZE:(b + 1) * BUCKET_SIZE]
                          for b in buckets_for(d, tw.a.hash.eval(x))):
            tw.insert(x)
            return
    raise AssertionError("no missed element found room beside it")


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_query_then_insert_leaves_what_insert_alone_leaves(name):
    # an insert reuses the fingerprint, placement and cell its query
    # found; a twin that only inserts must end every step in the same
    # state, on the pinned streams (each element queried, then inserted)
    # and on three forced cases where the remembered cell is not there
    n, m, eps, seed, length, repeat_every = STREAMS[name]
    tw = Twins(n, m, eps, seed)
    rng = SplitMix64(seed + 1)
    fresh = iter(lambda: rng.below(2**63), None)
    recent = []
    for t in range(length):
        x = recent[rng.below(len(recent))] if t % repeat_every == repeat_every - 1 else next(fresh)
        tw.a.query(x)
        tw.insert(x)
        if len(recent) < n:
            recent.append(x)
        else:
            recent[t % n] = x
    cycle = tw.a.params.gen_modulus * tw.a.params.g
    stale_cell_freed_by_the_insert(tw, fresh, limit=3 * cycle)
    remembered_cell_moved_by_eviction(tw, fresh, limit=cycle)
    missed_element_inserted_twice(tw, fresh, limit=cycle)

    assert all(tw.cases[case] >= 1 for case in
               ("hit", "stale-freed", "moved", "miss", "miss-stored")), tw.cases
    assert tw.a.dictionary.max_kick_chain > 0
    check_consistency(tw.a.dictionary)


def test_int_subclass_never_takes_a_remembered_fingerprint():
    # an int subclass whose comparisons always lie: an insert must not
    # take the last query's fingerprint for it, nor for the int after it
    class Liar(int):
        __hash__ = int.__hash__

        def __eq__(self, other):
            return True

        def __ne__(self, other):
            return False

    f = SlidingFilter.create(100, 100, 2**-6, seed=1)
    f.query(7)
    f.insert(Liar(5))
    assert f.query(5)
    f.query(Liar(9))
    f.insert(11)
    assert f.query(11)


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
    assert [tag_count(d, t) for t in range(d.tag_range)] == [swept[t] for t in range(d.tag_range)]
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
    g = load_filter(io.BytesIO(_snapshot(f)))
    assert assert_counts_match_cells(g) == swept


@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "7", None, 10**20 + 0.5])
def test_non_integer_elements_rejected_before_any_change(bad):
    f = SlidingFilter.create(50, 50, 2**-6, seed=3)
    for x in range(120):
        f.insert(x)
    before = io.BytesIO()
    save_filter(f, before)
    with pytest.raises(TypeError):
        f.insert(bad)
    with pytest.raises(TypeError):
        f.query(bad)
    after = io.BytesIO()
    save_filter(f, after)
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
    g = load_filter(io.BytesIO(_snapshot(f)))
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
    save_filter(f, buf)
    return buf.getvalue()
