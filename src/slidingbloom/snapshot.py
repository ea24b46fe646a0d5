"""Versioned binary snapshots of a filter.

A snapshot holds only what a filter cannot derive: the user inputs and
the derived parameters (checked by ``FilterParams.validate``), the
seed, the stream position, the rebuild count, and the dictionary's
placement seed, walk state, scan cursor and cells. Field order (all
integers little-endian, fixed widths):

    magic              b"SBFSNAP1"
    version            u16   (currently 3)
    mode               u8    (always 0; 1 was the retired amortized mode)
    flags              u8    (bit0: slack m is infinite)
    n                  u64
    m                  u64   (0 when infinite)
    epsilon            f64   (IEEE 754 bit pattern)
    u                  u128
    seed               u64
    c, g, n_prime      u64 each
    fp_range           u128
    gen_modulus        u64
    tag_bits           u8
    steps              u64   (elements inserted so far)
    rebuilds           u64
    dictionary         the rest up to the trailer: ``Dictionary.to_bytes``
                       (placement_seed u64, walk_state u64, cursor u64,
                        then capacity_cells keys of key_width bytes and
                        capacity_cells tags of tag_width bytes)
    crc32              u32   (zlib.crc32 of every byte before it)

Loading builds the filter through its constructor, which derives the
hash, the scan width and the dictionary's geometry and cell widths, then
resumes it at ``steps`` (generation position, boundary count and label
follow) with the stored dictionary state (occupancy and per-tag counts
follow from the cells). A key is 2q + side - 1, q being the in-bucket
quotient of the fingerprint; together with the cell's position it
reconstructs the fingerprint exactly, so a round trip is bit-exact and
the reloaded filter continues the stream identically (instrumentation
counters start fresh). An all-ones key marks an empty cell, whose tag
is 0.

Loading checks the magic, the version, the length and the trailer,
then every stored field: mode 0 and flags in range, m = 0 when the slack
is infinite, the parameters valid, the dictionary section exactly as
long as the parameters make it, and the scan cursor, the tags and the
quotients in range, with a zero tag in every empty cell. A blob that
fails any check raises SnapshotError. Versions 1 and 2 are refused:
version 1 cells were placed by an earlier placement function, and
version 2 stored derived fields in other places. So is a mode byte of 1:
it marked a filter of the retired amortized mode, whose labels cycle
with another modulus.
"""

from __future__ import annotations

import io
import struct
import zlib

from .filter import SlidingFilter
from .params import INFINITE, FilterParams, InvalidParams

MAGIC = b"SBFSNAP1"
VERSION = 3
_U64_MAX = (1 << 64) - 1
_U128_MAX = (1 << 128) - 1
_CRC = struct.Struct("<I")


class SnapshotError(ValueError):
    """Malformed, truncated, or out-of-range snapshot data."""


def _u(value: int, width: int) -> bytes:
    return int(value).to_bytes(width, "little")


class _Reader:
    def __init__(self, data: bytes, start: int = 0):
        self._data = data
        self._pos = start

    def take(self, width: int) -> int:
        return int.from_bytes(self.take_bytes(width), "little")

    def take_bytes(self, width: int) -> bytes:
        raw = self._data[self._pos:self._pos + width]
        if len(raw) != width:
            raise SnapshotError("truncated snapshot")
        self._pos += width
        return raw

    def rest(self) -> bytes:
        return self._data[self._pos:]


def _encode(f: SlidingFilter) -> bytes:
    p = f.params
    if p.u > _U128_MAX or p.fp_range > _U128_MAX:
        raise SnapshotError("parameters exceed the 128-bit snapshot field width")
    if f.steps > _U64_MAX or f.rebuilds > _U64_MAX:
        raise SnapshotError(f"stream position {f.steps} or rebuild count {f.rebuilds} "
                            f"exceeds the 64-bit snapshot field width")

    out = io.BytesIO()
    out.write(MAGIC)
    out.write(_u(VERSION, 2))
    out.write(_u(0, 1))  # mode byte
    infinite = p.m == INFINITE
    out.write(_u(1 if infinite else 0, 1))
    out.write(_u(p.n, 8))
    out.write(_u(0 if infinite else p.m, 8))
    out.write(struct.pack("<d", p.epsilon))
    out.write(_u(p.u, 16))
    out.write(_u(f.seed, 8))
    out.write(_u(p.c, 8))
    out.write(_u(p.g, 8))
    out.write(_u(p.n_prime, 8))
    out.write(_u(p.fp_range, 16))
    out.write(_u(p.gen_modulus, 8))
    out.write(_u(p.tag_bits, 1))
    out.write(_u(f.steps, 8))
    out.write(_u(f.rebuilds, 8))
    out.write(f.dictionary.to_bytes())
    out.write(_CRC.pack(zlib.crc32(out.getbuffer())))
    return out.getvalue()


def _decode(data: bytes) -> SlidingFilter:
    r = _Reader(data)
    if r.take_bytes(8) != MAGIC:
        raise SnapshotError("bad magic")
    version = r.take(2)
    if version != VERSION:
        raise SnapshotError(f"unsupported snapshot version {version} (this build reads "
                            f"version {VERSION} only)")
    if len(data) < 10 + _CRC.size:
        raise SnapshotError("truncated snapshot")
    body, (crc,) = data[:-_CRC.size], _CRC.unpack(data[-_CRC.size:])
    if zlib.crc32(body) != crc:
        raise SnapshotError("checksum mismatch: snapshot is corrupted or truncated")
    r = _Reader(body, start=10)
    mode_code = r.take(1)
    flags = r.take(1)
    if mode_code:
        raise SnapshotError(f"mode {mode_code} refused: only mode 0 is supported")
    if flags > 1:
        raise SnapshotError(f"flags {flags} out of range")
    n = r.take(8)
    m_raw = r.take(8)
    (epsilon,) = struct.unpack("<d", r.take_bytes(8))
    u = r.take(16)
    seed = r.take(8)
    c = r.take(8)
    g = r.take(8)
    n_prime = r.take(8)
    fp_range = r.take(16)
    gen_modulus = r.take(8)
    tag_bits = r.take(1)
    if flags and m_raw:
        raise SnapshotError(f"slack {m_raw} stored for an infinite-slack filter")

    steps = r.take(8)
    rebuilds = r.take(8)
    cells = r.rest()

    params = FilterParams(
        n=n, m=INFINITE if flags else m_raw, epsilon=epsilon, u=u,
        c=c, g=g, n_prime=n_prime, fp_range=fp_range,
        gen_modulus=gen_modulus, tag_bits=tag_bits,
    )
    # every element the dictionary is sized for needs a cell of at least
    # two bytes; checked before the constructor allocates the cells
    if len(cells) < 2 * params.dict_capacity:
        raise SnapshotError(f"dictionary section of {len(cells)} bytes is too short "
                            f"for element capacity {params.dict_capacity}")
    try:
        f = SlidingFilter(params, seed)
    except InvalidParams as exc:
        raise SnapshotError(f"snapshot parameters invalid: {exc}") from None
    try:
        f.restore(steps, rebuilds, cells)
    except ValueError as exc:
        raise SnapshotError(f"snapshot cells invalid: {exc}") from None
    return f


def save_filter(f: SlidingFilter, target) -> None:
    """Write a snapshot to a binary file object or a filesystem path."""
    blob = _encode(f)
    if hasattr(target, "write"):
        target.write(blob)
    else:
        with open(target, "wb") as fh:
            fh.write(blob)


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
