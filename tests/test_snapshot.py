import io
import zlib

import pytest
from hypothesis import given, strategies as st

from slidingbloom import INFINITE, SlidingFilter, SnapshotError, load_filter, save_filter
from slidingbloom.prng import SplitMix64

from stream_patterns import random_pool


def roundtrip(f):
    buf = io.BytesIO()
    save_filter(f, buf)
    return buf.getvalue()


@pytest.mark.parametrize("m", [10, INFINITE])
@pytest.mark.parametrize("mode", ["deamortized", "amortized"])
def test_roundtrip_bit_exact(m, mode):
    f = SlidingFilter.create(80, m, 2**-5, seed=17, mode=mode)
    for x in random_pool(1234, 300, seed=1):
        f.insert(x)
    blob = roundtrip(f)
    g = load_filter(blob)
    assert roundtrip(g) == blob
    assert g.mode == mode and g.params == f.params
    assert g.gen_pos == f.gen_pos and g.gen_label == f.gen_label


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


def test_rng_state_travels():
    # the cuckoo walk must continue from the serialized state, not restart
    f = SlidingFilter.create(200, 200, 2**-6, seed=3)
    rng = SplitMix64(0)
    for _ in range(2000):
        f.insert(rng.below(10**9))
    g = load_filter(roundtrip(f))
    assert g.dictionary._walk.state == f.dictionary._walk.state
    for _ in range(2000):
        x = rng.below(10**9)
        f.insert(x)
        g.insert(x)
    assert roundtrip(f) == roundtrip(g)


# byte offsets of the v2 layout (see the snapshot module docstring)
GEN_POS, GEN_LABEL, STEPS, BOUNDARIES = 141, 149, 157, 165
DICT = 189
CURSOR, OCCUPANCY, KEY_WIDTH, TAG_WIDTH, KEYS = DICT + 33, DICT + 41, DICT + 57, DICT + 58, DICT + 59


def resealed(blob, offset, value, width):
    """blob with one field overwritten and a valid checksum again."""
    body = bytearray(blob[:-4])
    body[offset:offset + width] = value.to_bytes(width, "little")
    return bytes(body) + zlib.crc32(body).to_bytes(4, "little")


def busy_filter():
    f = SlidingFilter.create(80, 20, 2**-6, seed=17)
    for x in random_pool(700, 300, seed=5):
        f.insert(x)
    return f


def test_resealed_blob_still_loads():
    f = busy_filter()
    blob = roundtrip(f)
    same = resealed(blob, GEN_POS, f.gen_pos, 8)
    assert same == blob
    assert roundtrip(load_filter(same)) == blob


def test_version_1_refused():
    f = busy_filter()
    v1 = bytearray(roundtrip(f))
    v1[8:10] = (1).to_bytes(2, "little")
    with pytest.raises(SnapshotError, match="version 1"):
        load_filter(bytes(v1))


def test_single_bit_flips_fail_the_checksum():
    blob = roundtrip(busy_filter())
    for bit in range(10 * 8, len(blob) * 8, 97):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(SnapshotError):
            load_filter(bytes(flipped))


def test_generation_fields_range_checked():
    f = busy_filter()
    blob = roundtrip(f)
    g, modulus = f.params.g, f.gen_modulus
    # once loaded and only failing on the first insert (label) or never
    # advancing its generation again (position)
    for offset, value in [(GEN_POS, g), (GEN_POS, g + 5), (GEN_LABEL, modulus),
                          (GEN_LABEL, 2**40)]:
        with pytest.raises(SnapshotError, match="outside"):
            load_filter(resealed(blob, offset, value, 8))
    with pytest.raises(SnapshotError, match="counters"):
        load_filter(resealed(blob, STEPS, f.steps + 1, 8))
    with pytest.raises(SnapshotError, match="counters"):
        load_filter(resealed(blob, GEN_LABEL, (f.gen_label + 1) % modulus, 8))


def test_cell_fields_range_checked():
    f = busy_filter()
    d = f.dictionary
    blob = roundtrip(f)
    kw, tw = d._key_width, d._tag_width
    tags = KEYS + d.capacity_cells * kw
    occupied = next(i for i, _fp, _t in d.entries())
    with pytest.raises(SnapshotError, match="cursor"):
        load_filter(resealed(blob, CURSOR, d.capacity_cells, 8))
    with pytest.raises(SnapshotError, match="tag"):
        load_filter(resealed(blob, tags + occupied * tw, f.gen_modulus, tw))
    with pytest.raises(SnapshotError, match="quotient"):
        load_filter(resealed(blob, KEYS + occupied * kw, 2 << d.quotient_bits, kw))
    with pytest.raises(SnapshotError, match="occupancy"):
        load_filter(resealed(blob, OCCUPANCY, d.occupancy() - 1, 8))
    with pytest.raises(SnapshotError):
        load_filter(resealed(blob, KEY_WIDTH, kw + 1, 1))


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
    # SnapshotError, and whatever loads keeps working
    try:
        g = load_filter(resealed(FUZZ_BLOB, offset, value, 1))
    except SnapshotError:
        return
    for x in random_pool(200, 400, seed=offset):
        g.insert(x)
        g.query(x + 1)
