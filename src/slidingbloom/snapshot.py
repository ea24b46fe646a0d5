"""Versioned binary snapshots of a filter.

A snapshot holds only what a filter cannot derive: the user inputs and
the derived parameters (checked by ``FilterParams.validate``), the
seed, the stream position, the rebuild count, and the dictionary's
scan cursor and cells. Every field up to the dictionary section is
declared once, by the struct format ``_HEADER`` ("<8sHBQQdQQQQQQQQQBQQ":
little-endian, no padding, 124 bytes), in this order:

    magic              8s    b"SBFSNAP1"
    version            H     u16 (currently 4)
    flags              B     u8 (bit0: slack m is infinite)
    n                  Q     u64
    m                  Q     u64 (0 when infinite)
    epsilon            d     f64 (IEEE 754 bit pattern)
    u                  QQ    u128, as its low u64 half then its high one
    seed               Q     u64
    c, g, n_prime      QQQ   u64 each
    fp_range           QQ    u128, low half first
    gen_modulus        Q     u64
    tag_bits           B     u8
    steps              Q     u64 (elements inserted so far)
    rebuilds           Q     u64

A u128 split low half first has exactly the bytes of the little-endian
u128. The dictionary section follows, up to the trailer
(``Dictionary.to_buffers``): the cursor as u64, then the key plane and
the tag plane, capacity_cells little-endian items each, of key_width
and tag_width bytes (numpy dtype ``<uN`` up to 8 bytes). The trailer is
a u32, zlib.crc32 of every byte before it.

Loading builds the filter through its constructor, which derives the
hash, the scan width and the dictionary's geometry and cell widths, then
resumes it at ``steps`` (generation position, boundary count and label
follow) with the stored dictionary state (the occupancy follows from the
cells; no per-tag counts are kept). The dictionary is constructed for
the stored rebuild count, whose seed label derives its placement, so a
filter that rebuilt draws its placement tables once. The blob is read
through memoryviews: the checksummed body and the cells are not copied.
The key and tag planes are range-checked with whole-array counts and
assigned once into numpy views of the arrays the constructor allocated,
which converts the byte order on a big-endian host. A key is
2q + side - 1, q being the in-bucket quotient of the fingerprint;
together with the cell's position it reconstructs the fingerprint
exactly, so a round trip is bit-exact and the reloaded filter continues
the stream identically (instrumentation counters start fresh). An
all-ones key marks an empty cell, whose tag is 0.

Saving packs the header in one call, then writes it, the cursor, the
key plane, the tag plane and the trailer, with a running CRC32. The
typed planes are numpy arrays of dtype ``<uN``: on a little-endian host
they are views of the live arrays, so a save copies no cells. The pack
checks every fixed-width field; a value that does not fit, such as a
stream position of 2**64 or a universe of 2**128, raises SnapshotError.
It runs before the first write, so a refused save writes nothing.

Loading checks the magic, the version, the length and the trailer,
unpacks the header in one call, then checks every stored field: flags
in range, m = 0 when the slack is infinite, the parameters valid, the
dictionary section exactly as long as the parameters make it, and the
scan cursor, the tags and the quotients in range, with a zero tag in
every empty cell. A blob that fails any check raises SnapshotError.
Versions 1 to 3 are refused: version 1 cells were placed by an earlier
placement function, version 2 stored derived fields in other places,
and version 3 stored a mode byte, the dictionary's placement seed and
the state of a random eviction walk that no longer exists.

Integrity scope: the CRC32 catches accidental damage, such as a flipped
bit or a truncated file. It is not a signature. A blob resealed with a
fresh CRC after a change to ``steps`` or to a cell is a forgery that no
unkeyed format can refuse: it loads if every field is in range, and
answers as the forged state says.
"""

from __future__ import annotations

import struct
import zlib

from .filter import SlidingFilter
from .params import INFINITE, FilterParams, InvalidParams
from .prng import MASK64

MAGIC = b"SBFSNAP1"
VERSION = 4
# every field up to the dictionary section; a u128 is two u64 halves, low first
_HEADER = struct.Struct("<8sHBQQdQQQQQQQQQBQQ")
_CRC = struct.Struct("<I")


class SnapshotError(ValueError):
    """Malformed, truncated, or out-of-range snapshot data."""


def _encode(f: SlidingFilter) -> tuple:
    """The snapshot up to its trailer, as buffers: every field up to the
    dictionary section, then ``Dictionary.to_buffers`` (the cursor, the
    key plane and the tag plane, the planes views of the live cells on a
    little-endian host). Raises before anything is written.
    """
    p = f.params
    infinite = p.m == INFINITE
    try:
        header = _HEADER.pack(
            MAGIC, VERSION, 1 if infinite else 0, p.n, 0 if infinite else p.m,
            p.epsilon, p.u & MASK64, p.u >> 64, f.seed, p.c, p.g, p.n_prime,
            p.fp_range & MASK64, p.fp_range >> 64, p.gen_modulus, p.tag_bits,
            f.steps, f.rebuilds,
        )
    except struct.error as exc:
        raise SnapshotError(f"a field exceeds its snapshot width (64-bit; 128-bit for "
                            f"u and fp_range; 8-bit for tag_bits): {exc}") from None
    return (header, *f.dictionary.to_buffers())


def _decode(data: bytes) -> SlidingFilter:
    if data[:8] != MAGIC:
        raise SnapshotError("bad magic")
    version = int.from_bytes(data[8:10], "little")
    if version != VERSION:
        raise SnapshotError(f"unsupported snapshot version {version} (this build reads "
                            f"version {VERSION} only)")
    if len(data) < _HEADER.size + _CRC.size:
        raise SnapshotError("truncated snapshot")
    body, (crc,) = memoryview(data)[:-_CRC.size], _CRC.unpack(data[-_CRC.size:])
    if zlib.crc32(body) != crc:
        raise SnapshotError("checksum mismatch: snapshot is corrupted or truncated")
    (_magic, _version, flags, n, m_raw, epsilon, u_low, u_high, seed, c, g, n_prime,
     fp_low, fp_high, gen_modulus, tag_bits, steps, rebuilds) = _HEADER.unpack_from(body)
    if flags > 1:
        raise SnapshotError(f"flags {flags} out of range")
    if flags and m_raw:
        raise SnapshotError(f"slack {m_raw} stored for an infinite-slack filter")
    cells = body[_HEADER.size:]

    params = FilterParams(
        n=n, m=INFINITE if flags else m_raw, epsilon=epsilon, u=u_high << 64 | u_low,
        c=c, g=g, n_prime=n_prime, fp_range=fp_high << 64 | fp_low,
        gen_modulus=gen_modulus, tag_bits=tag_bits,
    )
    # every element the dictionary is sized for needs a cell of at least
    # two bytes; checked before the constructor allocates the cells
    if len(cells) < 2 * params.dict_capacity:
        raise SnapshotError(f"dictionary section of {len(cells)} bytes is too short "
                            f"for element capacity {params.dict_capacity}")
    try:
        f = SlidingFilter._rebuilt(params, seed, rebuilds)
    except InvalidParams as exc:
        raise SnapshotError(f"snapshot parameters invalid: {exc}") from None
    try:
        f.restore(steps, cells)
    except ValueError as exc:
        raise SnapshotError(f"snapshot cells invalid: {exc}") from None
    return f


def save_filter(f: SlidingFilter, target) -> None:
    """Write a snapshot to a binary file object or a filesystem path.

    The header, the cursor and the two cell planes are written as they
    are, with a running CRC32, and the trailer after them; the planes are not copied
    on a little-endian host. A refused save writes nothing (and opens no
    file).
    """
    parts = _encode(f)
    if hasattr(target, "write"):
        _write(parts, target)
    else:
        with open(target, "wb") as fh:
            _write(parts, fh)


def _write(parts, out) -> None:
    crc = 0
    for part in parts:
        out.write(part)
        crc = zlib.crc32(part, crc)
    out.write(_CRC.pack(crc))


def load_filter(source) -> SlidingFilter:
    """Rebuild a filter from a snapshot file object, path, or bytes."""
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    elif hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    return _decode(data)
