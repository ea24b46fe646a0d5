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
``array.array`` of 1, 2, 4 or 8 bytes per item, with the all-ones value
of the key width marking an empty cell, and one tag in a second typed
array. A geometry whose keys would need more than 64 bits (a largest
quotient of 2**63 - 1 or more, which takes epsilon below about 2**-61
and so a universe above 2**64) is refused with InvalidParams before
any cell is allocated. An empty cell's tag is 0. ``to_buffers`` and
``restore`` move the state that cannot be derived from the constructor
arguments (the scan cursor and the cells) in bulk, range-checking it
on the way in. Every bulk pass sees a typed array through one numpy
view (``_plane``); the codec converts it to and from the little-endian
dtype ``<uN`` (N the width in bytes), which is the same array on a
little-endian host. Nothing is counted as cells change; ``occupancy``
and ``live_count`` sweep the planes on demand, so no update pays for
them.

Staleness is the caller's notion: every operation takes ``stale``, the
set of tags that are stale now (a ``set`` or ``frozenset`` of ints; the
caller keeps it up to date and may change it between calls). An insert
reclaims the stale cells of a bucket only when it needs room there,
i.e. when a candidate bucket or an eviction target has no empty cell, so
logically-dead cells never block an insert; everything else is left to
the scanner (``scan_step``). Before the reclaim loop runs on such a
full bucket, one membership test per cell, which allocates nothing,
decides whether any of its tags is stale, and the loop runs only when
one is. ``member`` is read-only: it filters stale hits out of its
answer but leaves them in place. An insert or a lookup computes bucket
2 only after bucket 1 misses its key.

``member`` remembers its probe in one tuple: the fingerprint, its
placement inputs (q, r, h) and the index and key of the cell it found,
or -1 for both on a miss. An ``insert_or_update`` of the same
fingerprint takes q, r and h from it instead of computing them, and
writes the tag straight into the found cell if that cell still holds
the key; a cell's bucket and key determine its fingerprint, so that is
the cell the full probe would update. Otherwise (a miss, or a cell
freed or moved since) it runs the full probe, key checks included.

When both candidate buckets are full of live cells, a breadth-first
search over the other buckets of the cells met finds the nearest
bucket with room, and the cells on the path to it each move one step
(the practical form of de-amortized cuckoo hashing; Fan, Andersen and
Kaminsky, MemC3, NSDI 2013). Nothing moves before a path is found, and
no random choice is made, so the cells are a function of the insert
sequence and the seed alone. A search step finds a cell's other bucket
with one product by a precomputed cross multiplier, A_1/A_2 or A_2/A_1.

Geometry and policy: BUCKET_SIZE = 4, two bucket choices, eviction
search capped at MAX_SEARCH = 200 visited buckets, cell count sized
for a 0.9 load at element capacity (rounded up to a whole number of
bucket pairs).
"""

from __future__ import annotations

import struct
from array import array
from math import gcd

import numpy as np

from .params import InvalidParams
from .prng import SplitMix64, derive_seed, splitmix64, splitmix64_block

# the stale pre-checks in insert_or_update are unrolled for 4 cells
BUCKET_SIZE = 4
MAX_SEARCH = 200
# load target 0.9, kept as a ratio of integers so capacity math is exact
_LOAD_NUM, _LOAD_DEN = 9, 10

# simple tabulation: the widest character of q, in bits
_MAX_CHAR_BITS = 12

# unsigned array typecode for each item width in bytes
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}

# to_buffers header: the scan cursor
_HEADER = struct.Struct("<Q")


class InsertOverflow(RuntimeError):
    """No eviction path within the search budget.

    Signals an unlucky placement seed (made negligible by the load
    target). No cell has changed, and the element to insert, in no
    cell, has fingerprint ``fp`` and tag ``tag``. ``SlidingFilter``
    treats it as final and refuses all further use, since it could
    otherwise answer No for that element.
    """

    def __init__(self, message: str, fp: int | None = None, tag: int | None = None):
        super().__init__(message)
        self.fp = fp
        self.tag = tag


def _capacity_cells(element_capacity: int) -> int:
    """Cells for a 0.9 load at element capacity, in whole bucket pairs."""
    need = -(-element_capacity * _LOAD_DEN // _LOAD_NUM)  # ceil(cap / 0.9)
    block = 2 * BUCKET_SIZE
    return ((need + block - 1) // block) * block


def _width(max_value: int) -> int:
    """Bytes per item to hold values up to max_value below 2**64: 1, 2, 4 or 8."""
    return next(width for width in (1, 2, 4, 8) if max_value < 1 << 8 * width)


def _tabulation(placement_seed: int, quotient_bits: int):
    """Simple tabulation hash of quotients of the given width, as a callable.

    The quotient is cut into the fewest equal characters of at most
    _MAX_CHAR_BITS bits; table i maps character i to a 64-bit word, the
    words being the splitmix64 stream of a seed derived from the
    placement seed, table i taking its i-th block of 2**bits words. The
    stream is drawn straight into the buffer of one typed array, the
    single table when there is one character; with more, each table is
    a slice of it. One and two characters are unrolled, since every
    placement pays for this call.
    """
    chars = max(1, -(-quotient_bits // _MAX_CHAR_BITS))
    bits = -(-quotient_bits // chars)
    size = 1 << bits
    words = array(_TYPECODES[8], [0]) * (chars * size)
    splitmix64_block(derive_seed(placement_seed, "tabulation"), chars * size, out=_plane(words))
    if chars == 1:
        return words.__getitem__
    tables = [words[i * size:(i + 1) * size] for i in range(chars)]
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


class Dictionary:
    """Cuckoo-hashed store of fingerprint -> tag with ordered cell scanning."""

    def __init__(
        self,
        element_capacity: int,
        fp_range: int,
        tag_range: int,
        seed: int,
    ):
        if element_capacity < 1:
            raise ValueError("element_capacity must be >= 1")
        if fp_range < 1:
            raise ValueError("fp_range must be >= 1")
        if tag_range < 2:
            raise ValueError("tag_range must be >= 2")

        self.capacity_cells = _capacity_cells(element_capacity)
        self.num_buckets = self.capacity_cells // BUCKET_SIZE
        self.element_capacity = element_capacity
        self.fp_range = fp_range
        self.tag_range = tag_range
        self.tag_bits = (tag_range - 1).bit_length()

        # keys 2q + side - 1 run up to 2*q_max + 1; the all-ones value of
        # the key width stays above them and marks an empty cell, so
        # 64-bit keys hold quotients up to 2**63 - 2
        self._q_max = (fp_range - 1) // self.num_buckets
        if self._q_max >= 2**63 - 1:
            raise InvalidParams(f"{self._q_max.bit_length()}-bit quotients need cell keys "
                                f"wider than 64 bits: raise epsilon or lower u")
        self._key_width = _width(2 * self._q_max + 2)
        self._empty = (1 << (8 * self._key_width)) - 1
        self._tag_width = _width(self.tag_range - 1)
        self._keys = array(_TYPECODES[self._key_width], [self._empty]) * self.capacity_cells
        self._tags = array(_TYPECODES[self._tag_width], [0]) * self.capacity_cells

        # the affine multipliers and the mix tables, from the placement seed
        nb = self.num_buckets
        placement_seed = derive_seed(seed, "bucket-placement")
        rng = SplitMix64(splitmix64(placement_seed))

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
        # the cross multipliers of the eviction search: A_1 / A_2 and A_2 / A_1
        self._cross12 = a1 * pow(a2, -1, nb) % nb
        self._cross21 = a2 * pow(a1, -1, nb) % nb
        # q -> h, whose lowest two base-nb digits are the two mixes
        self._mix = _tabulation(placement_seed, self._q_max.bit_length())

        self._cursor = 0

        # instrumentation of the last member or insert_or_update (cells
        # counted bucket-granular; a kick is one cell moved along an
        # eviction path); scan_step writes none, its caller knows k
        self.last_op_cells = 0
        self.last_op_kicks = 0
        self.max_kick_chain = 0
        # member calls that looked in the second bucket too
        self.second_probes = 0
        # the last member call's probe, for an insert_or_update of the
        # same fp: (fp, q, r, h, i, key), its placement inputs and the
        # index and key of the cell it found, i = key = -1 on a miss. One
        # attribute store writes it, so queries running at the same time
        # never leave one query's fp beside another's cell. No
        # fingerprint is negative, so this first one matches none.
        self._probe = (-1, 0, 0, 0, -1, -1)

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
            i = base + cells.index(key)
            self._probe = (fp, q, r, h, i, key)
            t = self._tags[i]
            return None if t in stale else t
        key += 1
        base = (self._mult2 * r + h // nb) % nb * BUCKET_SIZE
        cells = keys[base:base + BUCKET_SIZE]
        self.last_op_cells = 2 * BUCKET_SIZE
        self.second_probes += 1
        if key in cells:
            i = base + cells.index(key)
            self._probe = (fp, q, r, h, i, key)
            t = self._tags[i]
            return None if t in stale else t
        self._probe = (fp, q, r, h, -1, -1)
        return None

    def insert_or_update(self, fp: int, tag: int, stale) -> None:
        """Set fp's tag, inserting if needed.

        Stale cells of a bucket (those whose tag is in ``stale``) are
        reclaimed only when the bucket has no empty cell. Raises
        InsertOverflow, carrying fp and tag and leaving every cell as it
        was, if no eviction path is found within MAX_SEARCH buckets.
        """
        nb = self.num_buckets
        keys = self._keys
        tags = self._tags
        # an update in place reports both buckets, whichever path found it
        self.last_op_cells = 2 * BUCKET_SIZE
        self.last_op_kicks = 0
        probe = self._probe
        if probe[0] == fp:
            # q, r and h are a function of fp alone, so never stale. A
            # cell's bucket and key determine its fingerprint, so a cell
            # that still holds the key found there holds fp: it is the
            # cell the key checks below would update, as the cells hold
            # no fingerprint twice. A miss (key -1, which no unsigned
            # cell holds) never skips those checks: after query, insert,
            # insert of one element, the second insert would otherwise
            # store its fingerprint a second time.
            _fp, q, r, h, i, key = probe
            if keys[i] == key:
                tags[i] = tag
                return
        else:
            q, r = divmod(fp, nb)
            h = self._mix(q)

        key1 = q << 1
        b1 = (self._mult1 * r + h) % nb
        base1 = b1 * BUCKET_SIZE
        cells1 = keys[base1:base1 + BUCKET_SIZE]
        if key1 in cells1:
            tags[base1 + cells1.index(key1)] = tag
            return
        key2 = key1 + 1
        b2 = (self._mult2 * r + h // nb) % nb
        base2 = b2 * BUCKET_SIZE
        cells2 = keys[base2:base2 + BUCKET_SIZE]
        if key2 in cells2:
            tags[base2 + cells2.index(key2)] = tag
            return

        empty = self._empty
        i = -1
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
            return

        # both candidate buckets full of live cells: search breadth-first,
        # from each cell of a visited bucket to its other bucket, for one
        # with an empty or stale cell, within MAX_SEARCH visited buckets
        # (the roots included). A bucket enters the search once: a path
        # through it twice would move a cell twice and duplicate it.
        # Nothing moves until the path is found; then each of its cells
        # moves one step, from the free end back to the root bucket.
        cross12, cross21 = self._cross12, self._cross21
        mix = self._mix
        # (bucket, index of the entry the moving cell comes from, that cell)
        path = [(b1, -1, -1), (b2, -1, -1)]
        seen = {b1, b2}
        j = 0
        while j < len(path) and j < MAX_SEARCH:
            b = path[j][0]
            for src in range(b * BUCKET_SIZE, (b + 1) * BUCKET_SIZE):
                key = keys[src]
                h = mix(key >> 1)
                if key & 1:
                    alt = (cross12 * (b - h // nb) + h) % nb
                else:
                    alt = (cross21 * (b - h) + h // nb) % nb
                if alt in seen:
                    continue
                seen.add(alt)
                path.append((alt, j, src))
                base = alt * BUCKET_SIZE
                cells = keys[base:base + BUCKET_SIZE]
                if empty in cells:
                    i = base + cells.index(empty)
                elif (tags[base] in stale or tags[base + 1] in stale
                      or tags[base + 2] in stale or tags[base + 3] in stale):
                    self._reclaim(base, base + BUCKET_SIZE, stale)
                    i = keys.index(empty, base, base + BUCKET_SIZE)
                else:
                    continue

                moves = 0
                while src >= 0:
                    keys[i] = keys[src] ^ 1
                    tags[i] = tags[src]
                    i = src
                    moves += 1
                    _b, j, src = path[j]
                keys[i] = key1 if i // BUCKET_SIZE == b1 else key2
                tags[i] = tag
                self.last_op_cells = len(path) * BUCKET_SIZE
                self.last_op_kicks = moves
                if moves > self.max_kick_chain:
                    self.max_kick_chain = moves
                return
            j += 1

        self.last_op_cells = len(path) * BUCKET_SIZE
        raise InsertOverflow(
            f"no placement for fingerprint {fp} within {MAX_SEARCH} buckets "
            f"(occupancy {self.occupancy()}/{self.capacity_cells})",
            fp, tag,
        )

    def _reclaim(self, start: int, stop: int, stale) -> int:
        """Free every occupied cell in [start, stop) whose tag is in
        ``stale``; returns how many."""
        tags = self._tags
        freed = 0
        for i in range(start, stop):
            if tags[i] in stale and self._keys[i] != self._empty:
                self._keys[i] = self._empty
                tags[i] = 0
                freed += 1
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
        return freed

    # -- accounting and introspection ----------------------------------------

    def occupancy(self) -> int:
        """Occupied cells, including stale ones not yet reclaimed: one
        sweep of the key plane, on demand."""
        return int(np.count_nonzero(_plane(self._keys) != self._empty))

    def live_count(self, stale) -> int:
        """Occupied cells whose tag is not in ``stale``: one sweep of the
        key and tag planes, on demand."""
        is_stale = np.zeros(self.tag_range, dtype=bool)
        is_stale[np.fromiter(stale, dtype=np.intp, count=len(stale))] = True
        occupied = _plane(self._keys) != self._empty
        return int(np.count_nonzero(occupied & ~is_stale[_plane(self._tags)]))

    @property
    def quotient_bits(self) -> int:
        return self._q_max.bit_length()

    @property
    def cell_bits(self) -> int:
        """Notional packed bits per cell: an occupied flag, the quotient,
        the side bit and the tag."""
        return 1 + self.quotient_bits + 1 + self.tag_bits

    def bits_used(self) -> int:
        """Notional packed size of the structure: every cell, plus the
        cursor, occupancy and seed words."""
        cap = self.capacity_cells
        return (cap * self.cell_bits + max(1, (cap - 1).bit_length())
                + max(1, cap.bit_length()) + 64)

    # -- bulk codec -------------------------------------------------------------

    def to_buffers(self) -> tuple:
        """The state ``restore`` reads back, little-endian, as three
        buffers: the scan cursor (u64), the key plane and the tag plane.

        Planes hold capacity_cells items of key_width and tag_width
        bytes, in cell order. Geometry, widths and occupancy follow from
        the constructor arguments and the cells, so they are not written.
        Each plane is the live array as a numpy array of dtype ``<uN``
        (N the width in bytes: 1, 2, 4 or 8): on a little-endian host a
        view, not a copy, so it is valid only until the next update; on
        a big-endian host numpy converts it to a byteswapped copy.
        """
        return (_HEADER.pack(self._cursor),
                _plane(self._keys).astype(f"<u{self._key_width}", copy=False),
                _plane(self._tags).astype(f"<u{self._tag_width}", copy=False))

    def restore(self, data) -> None:
        """Replace the whole state with ``to_buffers`` output joined into
        ``data``, all of it, from a dictionary built with the same
        constructor arguments.

        Raises ValueError, leaving the dictionary unchanged, on a length
        mismatch, a cursor or tag out of range, a quotient above the
        fingerprint range, or a nonzero tag in an empty cell. Structural
        invariants that need a full decode (no duplicates, every cell in
        a candidate bucket of its fingerprint) are not checked.

        The planes are checked by counting over whole arrays: keys above
        the largest in-range key must all be empty keys, the largest tag
        must be below tag_range, and no empty cell may carry a tag. No
        count is kept: the occupancy is swept from the key plane on
        demand. Only a refusal looks for the offending value. Each plane,
        read as a numpy array of dtype ``<uN`` without a copy, is then
        assigned once into a numpy view of the array the constructor
        allocated, which converts the byte order where the host's
        differs.
        """
        data = memoryview(data).cast("B")
        cap, key_width, tag_width = self.capacity_cells, self._key_width, self._tag_width
        key_end = _HEADER.size + cap * key_width
        if len(data) != key_end + cap * tag_width:
            raise ValueError(f"dictionary section holds {len(data)} bytes, "
                             f"expected {key_end + cap * tag_width}")
        (cursor,) = _HEADER.unpack_from(data)
        if cursor >= cap:
            raise ValueError(f"scan cursor {cursor} outside [0, {cap})")

        key_plane, tag_plane = data[_HEADER.size:key_end], data[key_end:]
        empty, top_key = self._empty, 2 * self._q_max + 1
        plane = np.frombuffer(key_plane, dtype=f"<u{key_width}")
        vacant = plane == empty
        vacancies = int(np.count_nonzero(vacant))
        # the empty key is the largest value of its width, so the keys
        # above top_key are the empty ones unless a quotient is too large
        if np.count_nonzero(plane > top_key) != vacancies:
            top = int(plane[~vacant].max())
            raise ValueError(f"quotient {top >> 1} outside [0, {self._q_max}]")
        tags = np.frombuffer(tag_plane, dtype=f"<u{tag_width}")
        if int(tags.max()) >= self.tag_range:
            live_top = int(tags[~vacant].max(initial=0))
            if live_top >= self.tag_range:
                raise ValueError(f"tag {live_top} outside [0, {self.tag_range})")
        if np.logical_and(tags, vacant).any():
            raise ValueError("nonzero tag in an empty cell")

        self._cursor = cursor
        _plane(self._keys)[:] = plane
        _plane(self._tags)[:] = tags


def _plane(items: array) -> np.ndarray:
    """A typed array as a numpy array of its native dtype: a view, not a copy."""
    return np.frombuffer(items, dtype=items.typecode)
