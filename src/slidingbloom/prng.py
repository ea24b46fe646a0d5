"""Deterministic seeding and mixing utilities.

Every piece of internal randomness (hash multiplier draw, bucket
placement multipliers and tabulation tables) flows through splitmix64,
so a run is reproducible from one integer seed on any platform. All of
it is drawn when a filter or dictionary is built, so no generator state
outlives construction and snapshots store none. The generator identity
is part of the reproducibility contract documented in the README.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(x: int) -> int:
    """One splitmix64 output step, usable as a stateless 64-bit mixer."""
    x = (x + _GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def splitmix64_block(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of ``SplitMix64(seed)``, computed as one uint64 array."""
    x = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(seed & MASK64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash. Used for label separation and CLI token hashing."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & MASK64
    return h


def derive_seed(seed: int, label: str) -> int:
    """Domain-separated child seed: independent streams per label."""
    return splitmix64((seed & MASK64) ^ fnv1a64(label.encode("utf-8")))


class SplitMix64:
    """Seedable PRNG whose whole state is one 64-bit integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        s = self.state
        self.state = (s + _GAMMA) & MASK64
        return splitmix64(s)

    def below(self, n: int) -> int:
        """Uniform draw from [0, n) by rejection (no modulo bias).

        Works for any positive n, including beyond 2**64: draws just
        enough 64-bit words, truncates to the bit width of n-1, and
        rejects overshoots (acceptance probability > 1/2).
        """
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        words = (k + 63) // 64
        shift = words * 64 - k
        while True:
            v = 0
            for _ in range(words):
                v = (v << 64) | self.next64()
            v >>= shift
            if v < n:
                return v
