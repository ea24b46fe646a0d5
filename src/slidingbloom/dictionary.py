"""Fixed-capacity bucketized cuckoo dictionary with per-entry tags.

Cells live in one flat scan order and are grouped into buckets of
BUCKET_SIZE. A fingerprint fp splits as (q, r) = divmod(fp, num_buckets)
and may occupy only two buckets, one per side:

    side s:  (A_s * r + mix_s(q)) % num_buckets      s in {1, 2}

where A_1, A_2 are seeded multipliers coprime to num_buckets (hence
invertible) and mix_1, mix_2 are seeded functions of q. A cell
therefore stores just (q, side, tag): the bucket index it sits in plus
the side invert the affine map and reconstruct fp exactly, so the
structure is lossless while storing far fewer bits per cell than the
full fingerprint.

The placement shape is load-bearing: fingerprints arrive from a linear
hash, so streams of consecutive elements produce arithmetic
progressions of fingerprints. Placing by r directly would funnel those
into clustered buckets, and even one shared offset per quotient class
produces ladders of parallel bucket pairs, which can disconnect the
cuckoo graph and strand insertions away from the remaining free cells.
Two independent affine maps give every fingerprint an edge of its own.

The two mixes come from simple tabulation hashing (Patrascu and Thorup,
*The Power of Simple Tabulation Hashing*): q is cut into the fewest
equal characters of at most 12 bits, each character indexes its own
table of seeded 64-bit words, and the XOR h of the looked-up words
gives both mixes as its two lowest digits in base num_buckets,
mix_1 = h mod nb and mix_2 = (h div nb) mod nb (nearly uniform and
independent while nb**2 is far below 2**64). A quotient of up to 12
bits thus gets a fully random table. The tables are drawn once from
the placement seed; their size depends only on the quotient width
(4096 words for 12-bit quotients, 2 x 2048 for 22-bit ones), so
placement keeps no state per quotient class.

Storage is typed. A cell holds one key 2q + side - 1 in an unsigned
``array.array`` (a Python list once keys outgrow 64 bits), with the
all-ones value of the key width marking an empty cell, and one tag in
a second typed array. An empty cell's tag is 0. ``to_bytes`` and
``restore`` move the state that cannot be derived from the constructor
arguments (placement seed, walk state, scan cursor and the cells) in
bulk, range-checking it on the way in.

Staleness is the caller's notion: every operation takes ``stale``, the
set of tags that are stale now (a ``set`` or ``frozenset`` of ints; the
caller keeps it up to date and may change it between calls). An insert
reclaims the stale cells of a bucket only when it needs room there,
i.e. when a candidate bucket or a kick target has no empty cell, so
logically-dead cells never block an insert; everything else is left to
the scanner (``scan_step``). Before the reclaim loop runs on such a
full bucket, one membership test per cell, which allocates nothing,
decides whether any of its tags is stale, and the loop runs only when
one is. ``member`` is read-only: it filters stale hits out of its
answer but leaves them in place.

Geometry and policy: BUCKET_SIZE = 4, two bucket choices, random-walk
eviction capped at MAX_KICKS = 500, cell count sized for a 0.9 load
at element capacity (rounded up to a whole number of bucket pairs).
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from math import gcd

import numpy as np

from .prng import SplitMix64, derive_seed, splitmix64, splitmix64_block

# the stale pre-checks in insert_or_update are unrolled for 4 cells
BUCKET_SIZE = 4
MAX_KICKS = 500
# load target 0.9, kept as a ratio of integers so capacity math is exact
_LOAD_NUM, _LOAD_DEN = 9, 10

# simple tabulation: the widest character of q, in bits
_MAX_CHAR_BITS = 12

# unsigned array typecode for each item width in bytes
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}

# to_bytes header: placement_seed, walk_state, cursor
_HEADER = struct.Struct("<QQQ")


class InsertOverflow(RuntimeError):
    """Random-walk insertion ran out of kicks.

    Signals an unlucky placement seed (made negligible by the load
    target). The walk ends carrying one element that is in no cell: its
    fingerprint and tag are ``fp`` and ``tag``. The owner should rebuild
    with a fresh seed, reinserting that element, rather than continue.
    """

    def __init__(self, message: str, fp: int | None = None, tag: int | None = None):
        super().__init__(message)
        self.fp = fp
        self.tag = tag


# the stale set of a caller to whom no tag is ever stale
never_stale = frozenset()


def _capacity_cells(element_capacity: int) -> int:
    """Cells for a 0.9 load at element capacity, in whole bucket pairs."""
    need = -(-element_capacity * _LOAD_DEN // _LOAD_NUM)  # ceil(cap / 0.9)
    block = 2 * BUCKET_SIZE
    return ((need + block - 1) // block) * block


def _width(max_value: int) -> int:
    """Bytes per item to hold values up to max_value: 1, 2, 4, 8, then exact."""
    need = max(1, (max_value.bit_length() + 7) // 8)
    for width in (1, 2, 4, 8):
        if need <= width:
            return width
    return need


def _tabulation(placement_seed: int, quotient_bits: int):
    """Simple tabulation hash of quotients of the given width, as a callable.

    The quotient is cut into the fewest equal characters of at most
    _MAX_CHAR_BITS bits; table i maps character i to a 64-bit word, the
    words being the splitmix64 stream of a seed derived from the
    placement seed. One and two characters are unrolled, since every
    placement pays for this call.
    """
    chars = max(1, -(-quotient_bits // _MAX_CHAR_BITS))
    bits = -(-quotient_bits // chars)
    size = 1 << bits
    words = splitmix64_block(derive_seed(placement_seed, "tabulation"), chars * size)
    tables = [array(_TYPECODES[8], words[i * size:(i + 1) * size].tobytes())
              for i in range(chars)]
    if chars == 1:
        return tables[0].__getitem__
    mask = size - 1
    if chars == 2:
        low, high = tables
        return lambda q: low[q & mask] ^ high[q >> bits]

    def mix(q: int) -> int:
        h = 0
        for table in tables:
            h ^= table[q & mask]
            q >>= bits
        return h

    return mix


@dataclass(frozen=True)
class DictSpaceReport:
    """Itemized notional bit layout of one dictionary."""

    capacity_cells: int
    cell_bits: int
    cells_total_bits: int
    cursor_bits: int
    occupancy_bits: int
    seed_bits: int
    walk_state_bits: int
    overhead_bits: int
    total_bits: int


class Dictionary:
    """Cuckoo-hashed store of fingerprint -> tag with ordered cell scanning."""

    def __init__(
        self,
        element_capacity: int,
        fp_range: int,
        tag_bits: int,
        seed: int,
        tag_range: int | None = None,
    ):
        if element_capacity < 1:
            raise ValueError("element_capacity must be >= 1")
        if fp_range < 1:
            raise ValueError("fp_range must be >= 1")
        if tag_bits < 1:
            raise ValueError("tag_bits must be >= 1")

        self.capacity_cells = _capacity_cells(element_capacity)
        self.num_buckets = self.capacity_cells // BUCKET_SIZE
        self.element_capacity = element_capacity
        self.fp_range = fp_range
        self.tag_bits = tag_bits
        self.tag_range = tag_range if tag_range is not None else 1 << tag_bits

        # keys 2q + side - 1 run up to 2*q_max + 1; the all-ones value of
        # the key width stays above them and marks an empty cell
        self._q_max = (fp_range - 1) // self.num_buckets
        self._key_width = _width(2 * self._q_max + 2)
        self._empty = (1 << (8 * self._key_width)) - 1
        self._tag_width = _width(self.tag_range - 1)
        code = _TYPECODES.get(self._key_width)
        if code is None:
            self._keys = [self._empty] * self.capacity_cells
        else:
            self._keys = array(code, [self._empty]) * self.capacity_cells
        self._tags = array(_TYPECODES[self._tag_width], [0]) * self.capacity_cells

        self._placement_seed = derive_seed(seed, "bucket-placement")
        self._init_placement()
        self._walk = SplitMix64(derive_seed(seed, "cuckoo-walk"))

        self._cursor = 0
        self._occupancy = 0
        self._tag_counts = [0] * self.tag_range

        # per-operation instrumentation (cells counted bucket-granular)
        self.last_op_cells = 0
        self.last_op_kicks = 0
        self.max_kick_chain = 0

    # -- placement ---------------------------------------------------------

    def _init_placement(self) -> None:
        """Derive the affine multipliers and mix tables from the placement seed."""
        nb = self.num_buckets
        rng = SplitMix64(splitmix64(self._placement_seed))

        def draw_unit() -> int:
            while True:
                a = 1 + rng.below(nb - 1)
                if gcd(a, nb) == 1:
                    return a

        a1 = draw_unit()
        a2 = draw_unit()
        while nb >= 4 and a2 == a1:
            a2 = draw_unit()
        self._mult1 = a1
        self._mult2 = a2
        self._inv1 = pow(a1, -1, nb)
        self._inv2 = pow(a2, -1, nb)
        # q -> h, whose lowest two base-nb digits are the two mixes
        self._mix = _tabulation(self._placement_seed, self._q_max.bit_length())

    def buckets_for(self, fp: int) -> tuple[int, int]:
        """The two candidate buckets of a fingerprint (side 1, side 2)."""
        nb = self.num_buckets
        q, r = divmod(fp, nb)
        h = self._mix(q)
        return (self._mult1 * r + h) % nb, (self._mult2 * r + h // nb) % nb

    def _fingerprint(self, key: int, bucket: int) -> int:
        """Invert the placement map of the key's side: the fp it stands for in bucket."""
        q = key >> 1
        h = self._mix(q)
        if key & 1:
            r = (bucket - h // self.num_buckets) * self._inv2 % self.num_buckets
        else:
            r = (bucket - h) * self._inv1 % self.num_buckets
        return q * self.num_buckets + r

    # -- core operations ----------------------------------------------------

    def member(self, fp: int, stale) -> int | None:
        """Tag stored for fp, or None if absent or stale. Read-only."""
        nb = self.num_buckets
        q, r = divmod(fp, nb)
        h = self._mix(q)
        keys = self._keys
        key = q << 1
        base = (self._mult1 * r + h) % nb * BUCKET_SIZE
        cells = keys[base:base + BUCKET_SIZE]
        if key in cells:
            self.last_op_cells = BUCKET_SIZE
            t = self._tags[base + cells.index(key)]
            return None if t in stale else t
        key += 1
        base = (self._mult2 * r + h // nb) % nb * BUCKET_SIZE
        cells = keys[base:base + BUCKET_SIZE]
        self.last_op_cells = 2 * BUCKET_SIZE
        if key in cells:
            t = self._tags[base + cells.index(key)]
            return None if t in stale else t
        return None

    def insert_or_update(self, fp: int, tag: int, stale) -> None:
        """Set fp's tag, inserting if needed.

        Stale cells of a bucket (those whose tag is in ``stale``) are
        reclaimed only when the bucket has no empty cell. Raises
        InsertOverflow, carrying the element left without a cell, if the
        random walk exceeds MAX_KICKS.
        """
        nb = self.num_buckets
        q, r = divmod(fp, nb)
        h = self._mix(q)
        keys = self._keys
        tags = self._tags
        counts = self._tag_counts
        self.last_op_cells = 2 * BUCKET_SIZE
        self.last_op_kicks = 0

        key1 = q << 1
        key2 = key1 + 1
        b1 = (self._mult1 * r + h) % nb
        b2 = (self._mult2 * r + h // nb) % nb
        base1 = b1 * BUCKET_SIZE
        base2 = b2 * BUCKET_SIZE
        cells1 = keys[base1:base1 + BUCKET_SIZE]
        cells2 = keys[base2:base2 + BUCKET_SIZE]

        if key1 in cells1:
            i = base1 + cells1.index(key1)
        elif key2 in cells2:
            i = base2 + cells2.index(key2)
        else:
            i = -1
        if i >= 0:
            counts[tags[i]] -= 1
            counts[tag] += 1
            tags[i] = tag
            return

        empty = self._empty
        if empty in cells1:
            i, key = base1 + cells1.index(empty), key1
        elif empty in cells2:
            i, key = base2 + cells2.index(empty), key2
        # both buckets are full, so a stale tag marks a cell to reclaim
        elif (tags[base1] in stale or tags[base1 + 1] in stale
              or tags[base1 + 2] in stale or tags[base1 + 3] in stale):
            self._reclaim(base1, base1 + BUCKET_SIZE, stale)
            i, key = keys.index(empty, base1, base1 + BUCKET_SIZE), key1
        elif (tags[base2] in stale or tags[base2 + 1] in stale
              or tags[base2 + 2] in stale or tags[base2 + 3] in stale):
            self._reclaim(base2, base2 + BUCKET_SIZE, stale)
            i, key = keys.index(empty, base2, base2 + BUCKET_SIZE), key2
        if i >= 0:
            keys[i] = key
            tags[i] = tag
            counts[tag] += 1
            self._occupancy += 1
            return

        # both candidate buckets full of live cells: random-walk eviction;
        # the carried element enters a bucket on a known side and swaps
        # with a random victim, which then walks to its other side. One
        # 64-bit draw picks the side (bit 0) and 31 victims (two bits each).
        # A kick only moves tags between cells, so the per-tag counts
        # change once, when the walk ends
        next64 = self._walk.next64
        mult1, mult2, inv1, inv2 = self._mult1, self._mult2, self._inv1, self._inv2
        mix = self._mix
        word = next64()
        if word & 1 == 0:
            cur_b, cur_key = b1, key1
        else:
            cur_b, cur_key = b2, key2
        cur_tag = tag
        touched = 2 * BUCKET_SIZE
        for kick in range(1, MAX_KICKS + 1):
            slot = kick & 31
            if not slot:
                word = next64()
            victim = cur_b * BUCKET_SIZE + (word >> 2 * slot & 3)
            v_key = keys[victim]
            v_tag = tags[victim]
            keys[victim] = cur_key
            tags[victim] = cur_tag

            h = mix(v_key >> 1)
            if v_key & 1:
                v_r = (cur_b - h // nb) * inv2 % nb
                cur_b = (mult1 * v_r + h) % nb
            else:
                v_r = (cur_b - h) * inv1 % nb
                cur_b = (mult2 * v_r + h // nb) % nb
            cur_key = v_key ^ 1
            cur_tag = v_tag

            base = cur_b * BUCKET_SIZE
            touched += BUCKET_SIZE
            cells = keys[base:base + BUCKET_SIZE]
            if empty in cells:
                i = base + cells.index(empty)
            elif (tags[base] in stale or tags[base + 1] in stale
                  or tags[base + 2] in stale or tags[base + 3] in stale):
                self._reclaim(base, base + BUCKET_SIZE, stale)
                i = keys.index(empty, base, base + BUCKET_SIZE)
            else:
                continue
            keys[i] = cur_key
            tags[i] = cur_tag
            counts[tag] += 1
            self._occupancy += 1
            self.last_op_cells = touched
            self.last_op_kicks = kick
            if kick > self.max_kick_chain:
                self.max_kick_chain = kick
            return

        # the new tag entered a cell and the carried element's tag left one
        counts[tag] += 1
        counts[cur_tag] -= 1
        self.last_op_cells = touched
        self.last_op_kicks = MAX_KICKS
        self.max_kick_chain = max(self.max_kick_chain, MAX_KICKS)
        raise InsertOverflow(
            f"no placement for fingerprint {fp} after {MAX_KICKS} kicks "
            f"(occupancy {self._occupancy}/{self.capacity_cells})",
            self._fingerprint(cur_key, cur_b), cur_tag,
        )

    def _reclaim(self, start: int, stop: int, stale) -> int:
        """Free every occupied cell in [start, stop) whose tag is in
        ``stale``; returns how many."""
        tags = self._tags
        freed = 0
        for i in range(start, stop):
            t = tags[i]
            if t in stale and self._keys[i] != self._empty:
                self._keys[i] = self._empty
                tags[i] = 0
                self._tag_counts[t] -= 1
                freed += 1
        self._occupancy -= freed
        return freed

    def scan_step(self, k: int, stale) -> int:
        """Advance the scan cursor over k cells, freeing every occupied
        cell whose tag is in ``stale``.

        Returns the number of cells freed. k must lie in [1,
        capacity_cells]; any ceil(capacity_cells/k) consecutive calls
        visit every cell at least once.
        """
        cap = self.capacity_cells
        if not 1 <= k <= cap:
            raise ValueError(f"scan width {k} outside [1, {cap}]")
        cur = self._cursor
        stop = cur + k
        if stop < cap:
            freed = self._reclaim(cur, stop, stale)
        else:
            stop -= cap
            freed = self._reclaim(cur, cap, stale) + self._reclaim(0, stop, stale)
        self._cursor = stop
        self.last_op_cells = k
        return freed

    # -- accounting and introspection ----------------------------------------

    def occupancy(self) -> int:
        """Occupied cells, including stale ones not yet reclaimed."""
        return self._occupancy

    def tag_count(self, tag: int) -> int:
        """Occupied cells currently carrying this tag (stale included)."""
        return self._tag_counts[tag]

    @property
    def quotient_bits(self) -> int:
        return self._q_max.bit_length()

    def bits_used(self) -> DictSpaceReport:
        """Notional packed size of the structure, itemized: an occupied
        flag, the quotient, the side bit and the tag per cell, plus the
        cursor, occupancy, seed and walk-state words."""
        cell_bits = 1 + self.quotient_bits + 1 + self.tag_bits
        cells_total = self.capacity_cells * cell_bits
        cursor_bits = max(1, (self.capacity_cells - 1).bit_length())
        occupancy_bits = max(1, self.capacity_cells.bit_length())
        seed_bits = 64
        walk_state_bits = 64
        overhead = cursor_bits + occupancy_bits + seed_bits + walk_state_bits
        return DictSpaceReport(
            capacity_cells=self.capacity_cells,
            cell_bits=cell_bits,
            cells_total_bits=cells_total,
            cursor_bits=cursor_bits,
            occupancy_bits=occupancy_bits,
            seed_bits=seed_bits,
            walk_state_bits=walk_state_bits,
            overhead_bits=overhead,
            total_bits=cells_total + overhead,
        )

    def entries(self):
        """Yield (cell_index, fingerprint, tag) for every occupied cell."""
        empty = self._empty
        for i, key in enumerate(self._keys):
            if key != empty:
                yield i, self._fingerprint(key, i // BUCKET_SIZE), self._tags[i]

    def check_consistency(self) -> None:
        """Full-sweep structural audit (tests and debug use only)."""
        seen: dict[int, int] = {}
        occupied = 0
        counts = [0] * len(self._tag_counts)
        for i, fp, tag in self.entries():
            occupied += 1
            counts[tag] += 1
            if fp in seen:
                raise AssertionError(f"duplicate fingerprint {fp} in cells {seen[fp]} and {i}")
            seen[fp] = i
            b = i // BUCKET_SIZE
            if b not in self.buckets_for(fp):
                raise AssertionError(f"cell {i} outside candidate buckets of fp {fp}")
        if occupied != self._occupancy:
            raise AssertionError(f"occupancy counter {self._occupancy} != swept {occupied}")
        if counts != self._tag_counts:
            raise AssertionError("per-tag counts out of sync with cells")

    # -- bulk codec -------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The state ``restore`` reads back, little-endian: the placement
        seed, walk state and scan cursor (u64 each), then the key and tag
        planes.

        Planes hold capacity_cells items of key_width and tag_width
        bytes, in cell order. Geometry, widths, occupancy and tag counts
        follow from the constructor arguments and the cells, so they are
        not written.
        """
        header = _HEADER.pack(self._placement_seed, self._walk.state, self._cursor)
        if isinstance(self._keys, list):
            key_plane = b"".join(k.to_bytes(self._key_width, "little") for k in self._keys)
        else:
            key_plane = _little_endian(self._keys)
        return header + key_plane + _little_endian(self._tags)

    def restore(self, data) -> None:
        """Replace the whole state with ``to_bytes`` output, all of ``data``,
        from a dictionary built with the same constructor arguments.

        Raises ValueError, leaving the dictionary unchanged, on a length
        mismatch, a cursor or tag out of range, a quotient above the
        fingerprint range, or a nonzero tag in an empty cell. Structural
        invariants that need a full decode (no duplicates) are left to
        ``check_consistency``. The placement tables are drawn again only
        if the placement seed differs from this dictionary's.
        """
        data = memoryview(data).cast("B")
        cap, key_width, tag_width = self.capacity_cells, self._key_width, self._tag_width
        key_end = _HEADER.size + cap * key_width
        if len(data) != key_end + cap * tag_width:
            raise ValueError(f"dictionary section holds {len(data)} bytes, "
                             f"expected {key_end + cap * tag_width}")
        placement_seed, walk_state, cursor = _HEADER.unpack_from(data)
        if cursor >= cap:
            raise ValueError(f"scan cursor {cursor} outside [0, {cap})")

        key_plane = data[_HEADER.size:key_end]
        if isinstance(self._keys, list):
            keys = [int.from_bytes(key_plane[i:i + key_width], "little")
                    for i in range(0, len(key_plane), key_width)]
            occupied = np.fromiter((k != self._empty for k in keys), dtype=bool, count=cap)
            top = max((k for k in keys if k != self._empty), default=0)
        else:
            plane = np.frombuffer(key_plane, dtype=f"<u{key_width}")
            occupied = plane != self._empty
            top = int(plane[occupied].max()) if occupied.any() else 0
            keys = array(self._keys.typecode, plane.astype(f"=u{key_width}").tobytes())
        if top >> 1 > self._q_max:
            raise ValueError(f"quotient {top >> 1} outside [0, {self._q_max}]")
        tags = np.frombuffer(data[key_end:], dtype=f"<u{tag_width}")
        live_tags = tags[occupied]
        if live_tags.size and int(live_tags.max()) >= self.tag_range:
            raise ValueError(f"tag {int(live_tags.max())} outside [0, {self.tag_range})")
        if tags[~occupied].any():
            raise ValueError("nonzero tag in an empty cell")

        if placement_seed != self._placement_seed:
            self._placement_seed = placement_seed
            self._init_placement()
        self._walk.state = walk_state
        self._cursor = cursor
        self._keys = keys
        self._tags = array(self._tags.typecode, tags.astype(f"=u{tag_width}").tobytes())
        self._occupancy = live_tags.size
        self._tag_counts = np.bincount(live_tags.astype(np.int64),
                                       minlength=self.tag_range).tolist()


def _little_endian(items: array) -> bytes:
    if sys.byteorder == "big":
        items = array(items.typecode, items)
        items.byteswap()
    return items.tobytes()
