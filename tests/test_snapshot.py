import io
import json
import mmap
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import slidingbloom.filter as filter_module
from slidingbloom import (
    INFINITE,
    SlidingFilter,
    SnapshotError,
    derive,
    dictionary,
    load_filter,
    save_filter,
    snapshot,
)
from slidingbloom.prng import MASK64, SplitMix64

from cell_audit import check_consistency, entries
from stream_patterns import random_pool


def roundtrip(f):
    buf = io.BytesIO()
    save_filter(f, buf)
    return buf.getvalue()


@pytest.mark.parametrize("m", [10, INFINITE])
def test_roundtrip_bit_exact(m):
    f = SlidingFilter.create(80, m, 2**-5, seed=17)
    for x in random_pool(1234, 300, seed=1):
        f.insert(x)
    blob = roundtrip(f)
    g = load_filter(blob)
    assert roundtrip(g) == blob
    assert g.params == f.params
    assert (g.gen_pos, g.gen_label, g.boundaries) == (f.gen_pos, f.gen_label, f.boundaries)
    for x in random_pool(500, 300, seed=2):
        f.insert(x)
        g.insert(x)
        assert f.query(x + 1) == g.query(x + 1)
    assert roundtrip(g) == roundtrip(f)


def test_behavior_preserved_after_reload():
    f = SlidingFilter.create(64, 16, 2**-6, seed=23)
    stream = random_pool(900, 200, seed=2)
    for x in stream[:600]:
        f.insert(x)
    g = load_filter(roundtrip(f))
    for x in stream[600:]:
        f.insert(x)
        g.insert(x)
        for probe in range(0, 200, 3):
            assert f.query(probe) == g.query(probe)
    assert roundtrip(f) == roundtrip(g)


def test_save_load_path(tmp_path):
    f = SlidingFilter.create(32, 8, 2**-4, seed=5)
    for x in range(100):
        f.insert(x)
    path = tmp_path / "filter.snap"
    f.save(str(path))
    g = SlidingFilter.load(str(path))
    assert roundtrip(f) == roundtrip(g)


def test_empty_filter_roundtrip():
    f = SlidingFilter.create(10, 10, 0.25, seed=0)
    g = load_filter(roundtrip(f))
    assert roundtrip(g) == roundtrip(f)
    assert not g.query(1)


def test_rejects_garbage():
    with pytest.raises(SnapshotError):
        load_filter(b"not a snapshot at all")
    f = SlidingFilter.create(10, 10, 0.25, seed=0)
    blob = roundtrip(f)
    with pytest.raises(SnapshotError):
        load_filter(blob[:-3])  # truncated
    mangled = bytearray(blob)
    mangled[9] = 0xFF  # version
    with pytest.raises(SnapshotError):
        load_filter(bytes(mangled))


@pytest.mark.parametrize("as_blob", [bytearray, memoryview, lambda b: memoryview(bytearray(b)),
                                     lambda b: np.frombuffer(b, dtype=np.uint8)],
                         ids=["bytearray", "memoryview", "bytearray-memoryview", "numpy"])
def test_load_reads_any_buffer(as_blob):
    f = busy_filter()
    blob = roundtrip(f)
    g = load_filter(as_blob(blob))
    assert roundtrip(g) == blob
    assert answers(g, PROBES) == answers(f, PROBES)


def test_load_reads_an_mmap(tmp_path):
    f = busy_filter()
    path = tmp_path / "filter.snap"
    f.save(path)
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
        g = load_filter(mapped)
    assert roundtrip(g) == roundtrip(f)
    assert answers(g, PROBES) == answers(f, PROBES)
    assert roundtrip(load_filter(path)) == roundtrip(f)  # a PathLike stays a path


def test_damaged_memoryview_refused():
    blob = bytearray(roundtrip(busy_filter()))
    blob[len(blob) // 2] ^= 0x10
    with pytest.raises(SnapshotError, match="checksum"):
        load_filter(memoryview(blob))
    with pytest.raises(SnapshotError, match="truncated"):
        load_filter(memoryview(blob)[:20])


def test_eviction_continues_identically_after_reload():
    # eviction keeps no state of its own: the reloaded cells alone make
    # every later eviction path the same
    f = SlidingFilter.create(200, 200, 2**-6, seed=3)
    rng = SplitMix64(0)
    for _ in range(2000):
        f.insert(rng.below(10**9))
    g = load_filter(roundtrip(f))
    assert f.dictionary.max_kick_chain > 0
    for _ in range(2000):
        x = rng.below(10**9)
        f.insert(x)
        g.insert(x)
    assert roundtrip(f) == roundtrip(g)


# byte offsets of the v4 layout (see the snapshot module docstring)
FLAGS, C, TAG_BITS = 10, 59, 107
# each stored derived field: its offset and width (fp_range: its low half)
DERIVED = {"c": (C, 8), "g": (67, 8), "n_prime": (75, 8), "fp_range": (83, 8),
           "gen_modulus": (99, 8), "tag_bits": (TAG_BITS, 1)}
STEPS, REBUILDS = 108, 116
DICT = 124
CURSOR, KEYS = DICT, DICT + 8


def reseal(body):
    """body followed by its valid checksum."""
    return bytes(body) + zlib.crc32(body).to_bytes(4, "little")


def resealed(blob, offset, value, width):
    """blob with one field overwritten and a valid checksum again."""
    body = bytearray(blob[:-4])
    body[offset:offset + width] = value.to_bytes(width, "little")
    return reseal(body)


def busy_filter():
    f = SlidingFilter.create(80, 20, 2**-6, seed=17)
    for x in random_pool(700, 300, seed=5):
        f.insert(x)
    return f


def test_resealed_blob_still_loads():
    f = busy_filter()
    blob = roundtrip(f)
    same = resealed(blob, STEPS, f.steps, 8)
    assert same == blob
    assert roundtrip(load_filter(same)) == blob


def test_version_1_refused():
    f = busy_filter()
    v1 = bytearray(roundtrip(f))
    v1[8:10] = (1).to_bytes(2, "little")
    with pytest.raises(SnapshotError, match="version 1"):
        load_filter(bytes(v1))


def test_version_2_refused():
    f = busy_filter()
    v2 = bytearray(roundtrip(f))
    v2[8:10] = (2).to_bytes(2, "little")
    with pytest.raises(SnapshotError, match="version 2"):
        load_filter(bytes(v2))


def test_version_3_refused():
    # version 3 stored a mode byte, the placement seed and the state of
    # the random eviction walk: its fields sit at other offsets
    v3 = bytearray(roundtrip(busy_filter()))
    v3[8:10] = (3).to_bytes(2, "little")
    with pytest.raises(SnapshotError, match="version 3"):
        load_filter(bytes(v3))


def test_single_bit_flips_fail_the_checksum():
    blob = roundtrip(busy_filter())
    for bit in range(10 * 8, len(blob) * 8, 97):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(SnapshotError):
            load_filter(bytes(flipped))


def test_generation_derived_from_steps():
    # v4 stores the stream position only; any value of it loads at the
    # generation it implies (v2 stored gen_pos and gen_label as well and
    # refused blobs where they disagreed with the counters)
    f = busy_filter()
    blob = roundtrip(f)
    g, modulus = f.params.g, f.params.gen_modulus
    for steps in (0, f.steps + 1, g * modulus * 7 + 3, 2**64 - 1):
        h = load_filter(resealed(blob, STEPS, steps, 8))
        assert h.steps == steps
        assert (h.boundaries, h.gen_pos) == divmod(steps, g)
        assert h.gen_label == steps // g % modulus
        for x in range(2 * g):
            h.insert(x)
        assert all(h.query(x) for x in range(2 * g))


def test_steps_beyond_u64_refused_on_save(tmp_path):
    stepped = load_filter(resealed(roundtrip(busy_filter()), STEPS, 2**64 - 1, 8))
    stepped.insert(1)
    assert stepped.steps == 2**64
    # u is stored as two u64 halves: 2**128 leaves a high half of 2**64
    wide = SlidingFilter.create(80, 20, 2**-6, u=2**128, seed=17)
    for f in (stepped, wide):
        # refused before the first write: nothing reaches the target
        target = io.BytesIO()
        with pytest.raises(SnapshotError, match="64-bit"):
            save_filter(f, target)
        assert target.getvalue() == b""
        path = tmp_path / "refused.snap"
        with pytest.raises(SnapshotError, match="64-bit"):
            save_filter(f, path)
        assert not path.exists()


def test_widest_universe_round_trip():
    # u = 2**128 - 1 stores a high u64 half of all ones
    f = SlidingFilter.create(80, 20, 2**-6, u=2**128 - 1, seed=17)
    rng = SplitMix64(8)
    xs = [rng.below(2**128 - 1) for _ in range(300)]
    for x in xs:
        f.insert(x)
    blob = roundtrip(f)
    g = load_filter(blob)
    assert g.params == f.params and g.params.u == 2**128 - 1
    assert roundtrip(g) == blob
    assert all(g.query(x) for x in xs[-80:])


def test_save_copies_no_cells():
    # the planes reach the target as views of the live cells: the save
    # allocates far less than the smaller plane
    f = SlidingFilter.create(20_000, 20_000, 2**-10, seed=3)
    rng = SplitMix64(1)
    for _ in range(20_000):
        f.insert(rng.below(2**64))
    d = f.dictionary
    tag_plane = d.capacity_cells * d._tag_width

    class CountingSink:
        written = 0

        def write(self, data):
            self.written += memoryview(data).nbytes

    sink = CountingSink()
    tracemalloc.start()
    try:
        save_filter(f, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written == len(roundtrip(f))
    assert peak < tag_plane // 4, (peak, tag_plane)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_u64_taken_modulo(seed):
    # the filter answers and saves exactly as the seed modulo 2**64
    f = SlidingFilter.create(80, 20, 2**-6, seed=seed)
    same = SlidingFilter.create(80, 20, 2**-6, seed=seed % 2**64)
    for x in random_pool(700, 300, seed=5):
        f.insert(x)
        same.insert(x)
    blob = roundtrip(f)
    assert blob == roundtrip(same)
    assert roundtrip(load_filter(blob)) == blob


def test_header_fields_range_checked():
    blob = roundtrip(busy_filter())
    with pytest.raises(SnapshotError, match="flags"):
        load_filter(resealed(blob, FLAGS, 2, 1))
    with pytest.raises(SnapshotError, match="infinite-slack"):
        load_filter(resealed(blob, FLAGS, 1, 1))  # m = 20 stays stored
    with pytest.raises(SnapshotError, match="parameters invalid"):
        load_filter(resealed(blob, C, 7, 8))  # c = 6 with g = 14: c no longer fits
    with pytest.raises(SnapshotError, match="too short"):
        load_filter(reseal(blob[:KEYS]))  # no cells: the constructor never runs


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("name", DERIVED)
def test_resealed_derived_field_refused(name, delta):
    f = busy_filter()
    offset, width = DERIVED[name]
    forged = resealed(roundtrip(f), offset, getattr(f.params, name) + delta, width)
    with pytest.raises(SnapshotError, match=f"parameters invalid: stored {name}="):
        load_filter(forged)


def test_forged_fp_range_refused_before_it_loses_the_window():
    # fp_range sets the range of the fingerprint hash: a filter loaded
    # with fp_range + 1 hashes its window elements to other fingerprints
    # and answers No for nearly all of them
    f = SlidingFilter.create(1000, 1000, 2**-10, seed=17)
    rng = SplitMix64(3)
    stream = [rng.below(2**64) for _ in range(3000)]
    for x in stream:
        f.insert(x)
    window = stream[-1000:]
    assert all(f.query(x) for x in window)
    forged = resealed(roundtrip(f), DERIVED["fp_range"][0], f.params.fp_range + 1, 8)
    try:
        g = load_filter(forged)
    except SnapshotError as exc:
        assert "stored fp_range=" in str(exc)
    else:
        missed = sum(not g.query(x) for x in window)
        pytest.fail(f"fp_range + 1 loaded, and {missed} of {len(window)} window elements "
                    f"answer No")


def test_geometry_with_keys_over_64_bits_refused(monkeypatch):
    # eps = 2^-70 over a 100-bit universe needs 72-bit quotients: a blob
    # asking for it, with every derived field as derive gives it and a
    # dictionary section as long as 10-byte keys and 1-byte tags make
    # it, is refused by the constructor before a cell is allocated
    p = derive(1000, 1000, 2**-70, 2**100)
    header = snapshot._HEADER.pack(
        snapshot.MAGIC, snapshot.VERSION, 0, p.n, p.m, p.epsilon, p.u & MASK64, p.u >> 64,
        9, p.c, p.g, p.n_prime, p.fp_range & MASK64, p.fp_range >> 64, p.gen_modulus,
        p.tag_bits, 0, 0)
    cells = dictionary._capacity_cells(p.dict_capacity)
    blob = reseal(header + bytes(8 + cells * (10 + 1)))
    monkeypatch.setattr(dictionary, "array", None)  # any allocation would raise TypeError
    with pytest.raises(SnapshotError, match="parameters invalid: 72-bit quotients"):
        load_filter(blob)


def test_cell_fields_range_checked():
    f = busy_filter()
    d = f.dictionary
    blob = roundtrip(f)
    kw, tw = d._key_width, d._tag_width
    tags = KEYS + d.capacity_cells * kw
    occupied = next(i for i, _fp, _t in entries(d))
    free = next(i for i in range(d.capacity_cells) if d._keys[i] == d._empty)
    with pytest.raises(SnapshotError, match="cursor"):
        load_filter(resealed(blob, CURSOR, d.capacity_cells, 8))
    with pytest.raises(SnapshotError, match="tag"):
        load_filter(resealed(blob, tags + occupied * tw, f.params.gen_modulus, tw))
    with pytest.raises(SnapshotError, match="quotient"):
        load_filter(resealed(blob, KEYS + occupied * kw, 2 << d.quotient_bits, kw))
    with pytest.raises(SnapshotError, match="nonzero tag in an empty cell"):
        load_filter(resealed(blob, tags + free * tw, 1, tw))
    body = blob[:-4]
    for section in (body[:-1], body + b"\0"):
        with pytest.raises(SnapshotError, match="section"):
            load_filter(reseal(section))


def test_load_derives_hash_and_tables_once(monkeypatch):
    calls = {"hash": 0, "tables": 0}

    def counted(key, real):
        def call(*args):
            calls[key] += 1
            return real(*args)
        return call

    monkeypatch.setattr(filter_module, "new_hash", counted("hash", filter_module.new_hash))
    monkeypatch.setattr(dictionary, "_tabulation", counted("tables", dictionary._tabulation))
    plain = (GOLDEN / "snapshot_v4_plain.bin").read_bytes()
    for blob in (roundtrip(busy_filter()), plain):
        calls.update(hash=0, tables=0)
        assert roundtrip(load_filter(blob)) == blob
        assert calls == {"hash": 1, "tables": 1}


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["plain"])
def test_golden_v4_blobs(name):
    # committed v4 snapshots (recipes in snapshot_v4.json; the answers are
    # those the same recipes gave as version 3 blobs): a change to derive,
    # the tabulation tables or the seed labels that would reinterpret
    # saved filters changes these answers or these bytes
    meta = json.loads((GOLDEN / "snapshot_v4.json").read_text())[name]
    blob = (GOLDEN / meta["file"]).read_bytes()
    f = load_filter(blob)
    assert f.steps == meta["steps"]
    assert "".join("1" if f.query(x) else "0" for x in meta["probes"]) == meta["answers"]
    check_consistency(f.dictionary)
    assert roundtrip(f) == blob


def test_nonzero_rebuilds_refused_before_construction(monkeypatch):
    # the rebuild count is a reserved field that must hold 0: a filter
    # that rebuilt placed its cells under a seed this build no longer
    # derives, so its blob is refused before any filter is built
    plain = roundtrip(busy_filter())
    assert plain[REBUILDS:REBUILDS + 8] == bytes(8)

    def constructed(*args):
        raise AssertionError("the constructor ran")

    monkeypatch.setattr(SlidingFilter, "__init__", constructed)
    rebuilt = (GOLDEN / "snapshot_v4_rebuilt.bin").read_bytes()
    for blob in (rebuilt, resealed(plain, REBUILDS, 1, 8)):
        with pytest.raises(SnapshotError, match="reserved field rebuilds"):
            load_filter(blob)


def answers(f, probes):
    return [f.query(x) for x in probes]


PROBES = list(range(300)) + list(range(10**6, 10**6 + 100))
FUZZ = busy_filter()
FUZZ_BLOB = roundtrip(FUZZ)
FUZZ_ANSWERS = answers(FUZZ, PROBES)


@given(st.integers(0, len(FUZZ_BLOB) - 1))
def test_fuzz_truncated(cut):
    with pytest.raises(SnapshotError):
        load_filter(FUZZ_BLOB[:cut])


@given(st.lists(st.integers(0, 8 * len(FUZZ_BLOB) - 1), min_size=1, max_size=6))
def test_fuzz_bit_flips_refused_or_harmless(bits):
    blob = bytearray(FUZZ_BLOB)
    for bit in bits:
        blob[bit // 8] ^= 1 << (bit % 8)
    try:
        g = load_filter(bytes(blob))
    except SnapshotError:
        return
    assert answers(g, PROBES) == FUZZ_ANSWERS


@given(st.integers(10, len(FUZZ_BLOB) - 5), st.integers(0, 255))
def test_fuzz_resealed_bytes_refused_or_usable(offset, value):
    # damage behind a valid checksum never escapes as anything but
    # SnapshotError, and whatever loads keeps working; a changed byte of
    # a stored derived field (c through tag_bits) is always refused
    blob = resealed(FUZZ_BLOB, offset, value, 1)
    try:
        g = load_filter(blob)
    except SnapshotError:
        return
    assert blob == FUZZ_BLOB or not C <= offset <= TAG_BITS
    for x in random_pool(200, 400, seed=offset):
        g.insert(x)
        g.query(x + 1)
