"""Multiply-then-reduce universal hashing over a prime field.

h(x) = ((a * x) mod p) mod range_size with p prime, a in [1, p-1].
Two properties carry the whole error analysis downstream:

* pairwise collisions: for any fixed x != y, at most a 2/range_size
  fraction of multipliers a collide them;
* exact bin balance when u = p: a*x mod p permutes [0, p), so every
  output value has floor(p/range_size) or ceil(p/range_size)
  preimages, which makes the worst-case false-positive census bound
  hold with certainty rather than in expectation.

p is chosen as the smallest prime >= max(u, range_size); requiring
p >= range_size (not just p >= u) is what makes the bin-balance
property exact when a test harness sets u = p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .prng import SplitMix64, derive_seed

# Deterministic Miller-Rabin witness set, exact for all n < 3.3e24
# (covers anything a 64-bit universe can produce); is_prime also
# trial-divides by these primes before the test.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=256)
def next_prime(n: int) -> int:
    """Smallest prime >= n.

    Memoized: every filter construction asks for the prime above the
    same few universe sizes, and the Miller-Rabin search dominated it.
    """
    if n <= 2:
        return 2
    cand = n | 1
    while not is_prime(cand):
        cand += 2
    return cand


@dataclass(frozen=True)
class UniversalHash:
    p: int
    a: int
    range_size: int

    def __post_init__(self):
        if self.range_size < 1:
            raise ValueError("range_size must be >= 1")
        if not 1 <= self.a < self.p:
            raise ValueError("multiplier a must lie in [1, p-1]")

    def eval(self, x: int) -> int:
        """((a*x) mod p) mod range_size; exact for arbitrary precision."""
        return ((self.a * x) % self.p) % self.range_size


def new_hash(u: int, range_size: int, seed: int) -> UniversalHash:
    """Deterministically sample a hash for universe [0, u) and the given range.

    Same (u, range_size, seed) always yields the same (p, a).
    """
    if u < 2:
        raise ValueError("universe size must be >= 2")
    if range_size < 1:
        raise ValueError("range_size must be >= 1")
    p = next_prime(max(u, range_size))
    rng = SplitMix64(derive_seed(seed, "universal-hash-multiplier"))
    a = 1 + rng.below(p - 1)
    return UniversalHash(p=p, a=a, range_size=range_size)

