import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from slidingbloom import BUCKET_SIZE, Dictionary, InsertOverflow, InvalidParams, dictionary
from slidingbloom.prng import SplitMix64, derive_seed, splitmix64_block

from cell_audit import buckets_for, check_consistency, entries, never_stale, tag_count


def make(cap=100, fp_range=100_000, tag_range=16, seed=0):
    return Dictionary(element_capacity=cap, fp_range=fp_range, tag_range=tag_range, seed=seed)


def test_capacity_rounding():
    assert make(cap=9).capacity_cells == 16   # ceil(9/0.9)=10 -> next multiple of 8
    assert make(cap=1100).capacity_cells == 1224  # ceil(1100/0.9)=1223 -> 1224
    assert make(cap=1).capacity_cells == 8
    d = make(cap=720)
    assert d.capacity_cells * 9 >= d.element_capacity * 10  # load target respected


def test_fresh_dictionary_empty():
    d = make()
    assert d.occupancy() == 0
    for fp in (0, 1, 9999):
        assert d.member(fp, never_stale) is None


def test_insert_member_update_delete():
    d = make()
    d.insert_or_update(42, 3, never_stale)
    assert d.member(42, never_stale) == 3
    assert d.member(42, {3}) is None  # stale masking, cell untouched
    assert d.occupancy() == 1

    d.insert_or_update(42, 7, never_stale)
    assert d.occupancy() == 1
    assert d.member(42, never_stale) == 7

    # the only way a cell is freed: its tag goes stale and a scan passes
    assert d.scan_step(d.capacity_cells, {7}) == 1
    assert d.member(42, never_stale) is None
    assert d.scan_step(d.capacity_cells, {7}) == 0
    assert d.occupancy() == 0
    check_consistency(d)


def test_update_with_the_same_tag_keeps_the_counts():
    d = make()
    d.insert_or_update(42, 3, never_stale)
    d.insert_or_update(42, 3, never_stale)
    assert tag_count(d, 3) == 1 and d.occupancy() == 1
    check_consistency(d)


def test_match_in_bucket_2_is_updated_in_place():
    # an element that had to take its second bucket is found there even
    # once its first bucket has room: the update must not store it twice
    d = make(cap=60, fp_range=10**6, seed=9)
    rng = SplitMix64(4)
    while True:
        fp = rng.below(10**6)
        d.insert_or_update(fp, 1, never_stale)
        cell = next(i for i, f, _t in entries(d) if f == fp)
        b1, b2 = buckets_for(d, fp)
        if cell // BUCKET_SIZE == b2 != b1:
            break
    d.insert_or_update(fp, 2, never_stale)
    d.scan_step(d.capacity_cells, {1})  # empties fp's first bucket
    assert d.occupancy() == 1
    d.insert_or_update(fp, 3, never_stale)
    assert d.occupancy() == 1 and tag_count(d, 3) == 1
    assert [(i, f) for i, f, _t in entries(d)] == [(cell, fp)]
    check_consistency(d)


def test_scan_frees_a_stale_cell_beside_an_empty_one_while_0_is_stale():
    # an empty cell's tag is 0, so a window holding one always meets a
    # stale tag while 0 is stale; the occupied cell beside it must go
    d = make()
    d.insert_or_update(42, 0, never_stale)
    (cell, _fp, _tag), = entries(d)
    if cell:
        d.scan_step(cell, never_stale)
    assert d.scan_step(2, {0}) == 1
    assert d.occupancy() == 0 and tag_count(d, 0) == 0
    assert d.scan_step(2, {0}) == 0 and d.occupancy() == 0
    check_consistency(d)


def test_member_is_read_only_on_stale_hits():
    d = make()
    d.insert_or_update(42, 3, never_stale)
    assert d.member(42, set(range(d.tag_range))) is None
    assert d.occupancy() == 1  # still physically present
    assert d.member(42, never_stale) == 3


def test_stale_on_update_sets_fresh_tag():
    d = make()
    d.insert_or_update(7, 2, never_stale)
    d.insert_or_update(7, 5, {2})  # old tag stale at update time
    assert d.member(7, never_stale) == 5
    assert d.occupancy() == 1
    check_consistency(d)


def test_fill_to_load_target_many_seeds():
    # Monte Carlo: 0.9 load with distinct random fingerprints,
    # no overflow across 100 seeds
    for seed in range(100):
        d = make(cap=500, fp_range=10**9, tag_range=16, seed=seed)
        rng = SplitMix64(seed * 7 + 1)
        seen = set()
        while len(seen) < 500:
            fp = rng.below(10**9)
            if fp in seen:
                continue
            seen.add(fp)
            d.insert_or_update(fp, 1, never_stale)
        assert d.occupancy() == 500
    check_consistency(d)


def test_scan_step_fresh_and_stale():
    d = make(cap=50)
    freed = d.scan_step(2, never_stale)
    assert freed == 0
    assert d._cursor == 2

    d2 = make(cap=50)
    d2.insert_or_update(123, 9, never_stale)
    total = 0
    for _ in range(-(-d2.capacity_cells // 2)):
        total += d2.scan_step(2, {9})
    assert total == 1
    assert d2.member(123, never_stale) is None
    assert d2.occupancy() == 0


def test_scan_full_pass_reclaims_every_stale_cell():
    d = make(cap=200, fp_range=10**6, seed=3)
    rng = SplitMix64(11)
    fps = set()
    while len(fps) < 150:
        fps.add(rng.below(10**6))
    stale_tags = {2, 5}
    for i, fp in enumerate(fps):
        d.insert_or_update(fp, i % 8, never_stale)
    expected = sum(1 for i in range(150) if i % 8 in stale_tags)
    freed = 0
    for _ in range(-(-d.capacity_cells // 2)):
        freed += d.scan_step(2, stale_tags)
    assert freed == expected
    check_consistency(d)


def test_scan_cursor_wraps_and_counts_touched():
    d = make(cap=20)
    cap = d.capacity_cells
    d.scan_step(3, never_stale)
    for _ in range(cap):
        d.scan_step(3, never_stale)
    assert d._cursor == (3 * (cap + 1)) % cap


def test_scan_width_bounded_by_one_lap():
    d = make(cap=20)
    cap = d.capacity_cells
    d.insert_or_update(77, 4, never_stale)
    d.scan_step(5, never_stale)
    for k in (0, cap + 1):
        with pytest.raises(ValueError, match="scan width"):
            d.scan_step(k, {4})
        assert d._cursor == 5 and d.occupancy() == 1
    # the widest step laps the table once from wherever the cursor is
    assert d.scan_step(cap, {4}) == 1
    assert d._cursor == 5
    assert d.occupancy() == 0


def test_bounded_work_member_delete_insert():
    d = make(cap=300, fp_range=10**8, seed=5)
    rng = SplitMix64(2)
    for _ in range(250):
        d.insert_or_update(rng.below(10**8), 1, never_stale)
        # a path of k moves ends at depth k of the search: at most
        # 2 * BUCKET_SIZE**depth buckets at each depth were looked at
        depths = range(d.last_op_kicks + 1)
        assert d.last_op_cells <= BUCKET_SIZE * sum(2 * BUCKET_SIZE**k for k in depths)
    d.member(12345, never_stale)
    assert d.last_op_cells <= 2 * BUCKET_SIZE


def test_stale_cells_never_block_insert():
    # jam both candidate buckets of a fingerprint with stale entries,
    # then insert: reclamation must make room without a single kick
    d = make(cap=60, fp_range=10**6, seed=9)
    target = 555_000
    b1, b2 = buckets_for(d, target)

    def filled(bucket):
        return sum(1 for i, _fp, _t in entries(d) if i // BUCKET_SIZE == bucket)

    rng = SplitMix64(4)
    while filled(b1) < BUCKET_SIZE or filled(b2) < BUCKET_SIZE:
        fp = rng.below(10**6)
        if fp != target and {b1, b2} & set(buckets_for(d, fp)):
            d.insert_or_update(fp, 3, never_stale)
    d.insert_or_update(target, 1, {3})
    assert d.last_op_kicks == 0
    assert d.last_op_cells == 2 * BUCKET_SIZE
    assert d.member(target, never_stale) == 1
    check_consistency(d)


def test_insert_overflow_surfaces():
    # pathological direct-use case: more distinct fingerprints than cells
    d = make(cap=7, fp_range=10**9, seed=0)
    rng = SplitMix64(6)
    with pytest.raises(InsertOverflow):
        for _ in range(1000):
            d.insert_or_update(rng.below(10**9), 1, never_stale)


def test_bits_used_quotient_accounting():
    d = Dictionary(element_capacity=14, fp_range=32, tag_range=8, seed=0)
    cap = d.capacity_cells
    # every cell, plus the cursor, occupancy and seed words
    words = max(1, (cap - 1).bit_length()) + max(1, cap.bit_length()) + 64
    assert d.bits_used() == cap * d.cell_bits + words
    q_bits = ((32 - 1) // d.num_buckets).bit_length()
    assert d.cell_bits == 1 + q_bits + 1 + 3
    assert d.cell_bits < 1 + 5 + 3  # strictly smaller than full fingerprints


def test_bits_used_independent_of_content():
    d1 = make(cap=50)
    d2 = make(cap=50)
    rng = SplitMix64(8)
    for _ in range(45):
        d2.insert_or_update(rng.below(100_000), 2, never_stale)
    assert d1.bits_used() == d2.bits_used()


def test_quotient_decode_roundtrip():
    # the (q, side, bucket) encoding must reconstruct exactly the
    # fingerprints that went in
    d = make(cap=400, fp_range=123_457, seed=13)
    rng = SplitMix64(21)
    inserted = set()
    while len(inserted) < 360:
        fp = rng.below(123_457)
        inserted.add(fp)
        d.insert_or_update(fp, 1, never_stale)
    stored = {fp for _i, fp, _t in entries(d)}
    assert stored == inserted


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 999), st.integers(0, 7)),
                min_size=1, max_size=120))
def test_random_op_sequences_keep_invariants(ops):
    # op 1 expires one tag: a full scan frees exactly the cells carrying it
    d = Dictionary(element_capacity=64, fp_range=1000, tag_range=8, seed=1)
    live = {}
    for op, fp, tag in ops:
        if op == 0:
            if len(live) < 60:
                d.insert_or_update(fp, tag, never_stale)
                live[fp] = tag
        elif op == 1:
            expired = [f for f, t in live.items() if t == tag]
            assert d.scan_step(d.capacity_cells, {tag}) == len(expired)
            for f in expired:
                del live[f]
        else:
            got = d.member(fp, never_stale)
            assert got == live.get(fp)
    check_consistency(d)
    assert d.occupancy() == len(live)
    assert {f for _i, f, _t in entries(d)} == set(live)


def test_tabulation_block_matches_scalar_generator():
    # the vectorized table draw must be the scalar splitmix64 stream
    for seed in (0, 1, 2**63 + 5, 2**64 - 1):
        rng = SplitMix64(seed)
        assert splitmix64_block(seed, 300).tolist() == [rng.next64() for _ in range(300)]


@pytest.mark.parametrize("quotient_bits", [0, 5, 12, 13, 22, 24, 36, 63])
def test_tabulation_matches_its_tables(quotient_bits):
    # the unrolled one- and two-character forms agree with a plain loop
    # over the tables, each character at most 12 bits wide
    mix = dictionary._tabulation(7, quotient_bits)
    chars = max(1, -(-quotient_bits // 12))
    bits = -(-quotient_bits // chars)
    assert bits <= 12
    words = splitmix64_block(derive_seed(7, "tabulation"), chars << bits).tolist()
    rng = SplitMix64(quotient_bits)
    for _ in range(200):
        q = rng.below(1 << quotient_bits)
        h = 0
        for i in range(chars):
            h ^= words[(i << bits) + ((q >> (i * bits)) & ((1 << bits) - 1))]
        assert mix(q) == h


def test_placement_keeps_no_state_per_quotient_class():
    d = make(cap=100, fp_range=2**40)
    sizes = {k: len(v) for k, v in vars(d).items() if hasattr(v, "__len__")}
    rng = SplitMix64(3)
    for i in range(5000):
        d.member(rng.below(2**40), never_stale)
        d.insert_or_update(rng.below(2**40), i % 16, set(range(d.tag_range)) - {i % 16})
    assert {k: len(v) for k, v in vars(d).items() if hasattr(v, "__len__")} == sizes


def test_insert_overflow_carries_the_homeless_element(monkeypatch):
    monkeypatch.setattr(dictionary, "MAX_SEARCH", 5)
    d = make(cap=200, fp_range=10**9, seed=2)
    rng = SplitMix64(6)
    inserted = []
    with pytest.raises(InsertOverflow) as info:
        for _ in range(10_000):
            inserted.append(rng.below(10**9))
            d.insert_or_update(inserted[-1], len(inserted) % 7, never_stale)
    homeless = info.value
    stored = {fp: tag for _i, fp, tag in entries(d)}
    assert homeless.fp not in stored
    stored[homeless.fp] = homeless.tag
    assert set(stored) == set(inserted)
    assert all(stored[fp] == (i + 1) % 7 for i, fp in enumerate(inserted))
    check_consistency(d)  # occupancy after the overflow


def test_insert_overflow_leaves_every_cell_as_it_was():
    # more distinct fingerprints than cells: the search exhausts the
    # table without moving a cell, and the error carries the new element
    d = make(cap=7, fp_range=10**9, seed=0)
    rng = SplitMix64(6)
    with pytest.raises(InsertOverflow) as info:
        for i in range(1000):
            before = saved(d)
            fp, tag = rng.below(10**9), i % 16
            d.insert_or_update(fp, tag, never_stale)
    assert saved(d) == before
    assert (info.value.fp, info.value.tag) == (fp, tag)
    check_consistency(d)


# the widest fingerprint range a 300-element dictionary (84 buckets)
# takes: its largest quotient is 2**63 - 2, so its largest key
# 2**64 - 3 sits just below the empty key 2**64 - 1
WIDEST = 84 * (2**63 - 1)


def test_keys_wider_than_64_bits_refused():
    d = make(cap=300, fp_range=WIDEST)
    assert (d.num_buckets, d._q_max, d._key_width) == (84, 2**63 - 2, 8)
    for fp_range in (WIDEST + 1, 2**80):
        with pytest.raises(InvalidParams, match="64 bits: raise epsilon or lower u"):
            Dictionary(300, fp_range, 32, 4)
    # refused before any cell is allocated
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParams, match="^102-bit quotients"):
            make(cap=10**6, fp_range=2**120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def filled(fp_range=10**7, seed=5):
    d = make(cap=300, fp_range=fp_range, tag_range=32, seed=seed)
    rng = SplitMix64(seed)
    for i in range(260):
        d.insert_or_update(rng.below(fp_range), i % 20, never_stale)
    d.scan_step(37, {3})
    return d


def saved(d):
    """The dictionary's state as one blob, as a snapshot stores it."""
    return b"".join(d.to_buffers())


@pytest.mark.parametrize("fp_range", [10**3, 10**7, 10**12, WIDEST])
def test_codec_roundtrip(fp_range):
    # restored into a fresh dictionary built with the same seed, whose
    # placement decodes the stored cells
    d = filled(fp_range)
    blob = saved(d)
    e = make(cap=300, fp_range=fp_range, tag_range=32, seed=5)
    e.restore(blob)
    assert saved(e) == blob
    assert list(entries(e)) == list(entries(d))
    assert e._cursor == d._cursor
    assert e.occupancy() == d.occupancy()
    assert [tag_count(e, t) for t in range(e.tag_range)] == \
        [tag_count(d, t) for t in range(d.tag_range)]
    check_consistency(e)


def _cell_planes(d):
    header = 8  # the scan cursor
    return header, header + d.capacity_cells * d._key_width


def test_codec_range_checks():
    # WIDEST has 8-byte keys whose largest value lies just below the empty key
    for fp_range in (10**7, WIDEST):
        codec_range_checks(fp_range)


def codec_range_checks(fp_range):
    d = filled(fp_range)
    blob = saved(d)
    keys_at, tags_at = _cell_planes(d)
    occupied = next(i for i, _fp, _t in entries(d))
    free = next(i for i in range(d.capacity_cells) if d._keys[i] == d._empty)
    kw, tw = d._key_width, d._tag_width

    def patched(offset, value, width):
        b = bytearray(blob)
        b[offset:offset + width] = value.to_bytes(width, "little")
        return bytes(b)

    bad = {
        "cursor": patched(0, d.capacity_cells, 8),
        "tag": patched(tags_at + occupied * tw, d.tag_range, tw),
        "quotient": patched(keys_at + occupied * kw, 2 * (d._q_max + 1), kw),
        "empty tag": patched(tags_at + free * tw, 1, tw),
        "out-of-range tag in an empty cell": patched(tags_at + free * tw, d.tag_range, tw),
    }
    target = make(cap=300, fp_range=fp_range, tag_range=32, seed=5)
    before = saved(target)
    for what, data in bad.items():
        with pytest.raises(ValueError, match=what.split()[-1]):
            target.restore(data)
    for cut in (0, 10, keys_at, len(blob) - 1):
        with pytest.raises(ValueError):
            target.restore(blob[:cut])
    with pytest.raises(ValueError):  # another geometry: the planes have another length
        make(cap=400, fp_range=fp_range, tag_range=32, seed=5).restore(blob)
    assert saved(target) == before  # a refused restore changes nothing


@pytest.mark.parametrize("field, value", [("element_capacity", 0), ("fp_range", 0),
                                          ("tag_range", 1)])
def test_degenerate_geometry_refused(field, value):
    geometry = {"element_capacity": 100, "fp_range": 100_000, "tag_range": 16, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        Dictionary(seed=0, **geometry)
