from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slidingbloom import SlidingFilter
from slidingbloom.hashing import UniversalHash, is_prime, new_hash, next_prime
from slidingbloom.prng import MASK64, SplitMix64, derive_seed, fnv1a64, splitmix64


def collision_prob_check(p, range_size, x, y):
    """Exact fraction of multipliers a in [1, p-1] with
    ((a*x) % p) % range_size == ((a*y) % p) % range_size, by enumeration."""
    collisions = sum(((a * x) % p) % range_size == ((a * y) % p) % range_size
                     for a in range(1, p))
    return Fraction(collisions, p - 1)


def test_prime_search():
    assert next_prime(2) == 2
    assert next_prime(14) == 17
    assert next_prime(17) == 17
    assert next_prime(120) == 127
    assert next_prime(10**6) == 1_000_003
    assert is_prime(2**61 - 1)
    assert not is_prime(2**64)
    assert next_prime(2**64) == 18446744073709551629


# the least strong pseudoprimes to the first 12 and 13 prime bases
# (Sorenson and Webster), each a product of two primes
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_strong_pseudoprimes_to_the_first_13_bases_are_composite():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI_12) and not is_prime(PSI_13)
    assert next_prime(PSI_12) == 318665857834031151167483
    assert next_prime(PSI_13) == 3317044064679887385962123
    assert SlidingFilter.create(100, 100, 0.01, u=PSI_12).hash.p == 318665857834031151167483


@pytest.mark.parametrize("n", [1, 0, -1, -7])
def test_nothing_below_two_is_prime(n):
    assert not is_prime(n)


def test_prime_search_memoized():
    next_prime(2**64)
    hits = next_prime.cache_info().hits
    assert new_hash(2**64, 10**6, 7).p == 18446744073709551629
    assert next_prime.cache_info().hits == hits + 1


def test_new_hash_modulus_choice():
    h = new_hash(17, 5, seed=1)
    assert h.p == 17 and 1 <= h.a <= 16
    h = new_hash(100, 120, seed=1)
    assert h.p == 127  # smallest prime >= max(u, range)


def test_new_hash_deterministic():
    a = new_hash(2**64, 10**6, 42)
    b = new_hash(2**64, 10**6, 42)
    assert (a.p, a.a) == (b.p, b.a)
    c = new_hash(2**64, 10**6, 43)
    assert (a.p, a.a) != (c.p, c.a)


def test_eval_reference_values():
    assert UniversalHash(p=17, a=3, range_size=5).eval(7) == 4
    assert UniversalHash(p=13, a=1, range_size=13).eval(5) == 5
    assert UniversalHash(p=13, a=5, range_size=4).eval(0) == 0


def test_multiplier_domain():
    with pytest.raises(ValueError):
        UniversalHash(p=13, a=0, range_size=4)
    with pytest.raises(ValueError):
        UniversalHash(p=13, a=13, range_size=4)


@pytest.mark.parametrize("range_size", [0, -1])
def test_empty_range_refused(range_size):
    with pytest.raises(ValueError, match="range_size must be >= 1"):
        UniversalHash(p=13, a=3, range_size=range_size)


@pytest.mark.parametrize("n", [0, -1, -(2**70)])
def test_draw_from_an_empty_range_refused(n):
    with pytest.raises(ValueError, match="needs n >= 1"):
        SplitMix64(1).below(n)


def test_collision_check_full_range_is_injective():
    # with range == p the reduction is a permutation, no pair collides
    for x in range(13):
        for y in range(x + 1, 13):
            assert collision_prob_check(13, 13, x, y) == 0


def test_collision_check_reference_values():
    # frozen from independent enumeration
    assert collision_prob_check(13, 4, 1, 2) == Fraction(1, 6)
    assert collision_prob_check(101, 10, 3, 77) == Fraction(1, 10)
    assert collision_prob_check(13, 4, 1, 2) <= Fraction(2, 4)
    assert collision_prob_check(101, 10, 3, 77) <= Fraction(2, 10)


@pytest.mark.parametrize("p,range_size", [(13, 2), (13, 5), (31, 4), (101, 10), (101, 64)])
def test_universality_exhaustive_small(p, range_size):
    bound = Fraction(2, range_size)
    for x in range(p):
        for y in range(x + 1, p):
            assert collision_prob_check(p, range_size, x, y) <= bound


@pytest.mark.parametrize("p,range_size", [(251, 4), (251, 16), (509, 8)])
def test_universality_exhaustive_vectorized(p, range_size):
    # all multipliers at once per pair, via one p x p collision-count table
    counts = np.zeros((p, p), dtype=np.int32)
    xs = np.arange(p, dtype=np.int64)
    for a in range(1, p):
        h = (a * xs) % p % range_size
        counts += h[:, None] == h[None, :]
    limit = 2 * (p - 1) // range_size + (1 if (2 * (p - 1)) % range_size else 0)
    off_diag = counts[~np.eye(p, dtype=bool)]
    assert off_diag.max() <= 2 * (p - 1) / range_size
    assert limit >= off_diag.max()  # same bound, integer form


@pytest.mark.parametrize("p,range_size", [(17, 5), (251, 7), (251, 251), (10007, 100)])
def test_bin_balance_exact(p, range_size):
    # u = p: every output value has floor(p/R) or ceil(p/R) preimages
    lo, hi = p // range_size, -(-p // range_size)
    xs = np.arange(p, dtype=np.int64)
    if p <= 251:
        multipliers = range(1, p)
    else:
        multipliers = range(1, p, 397)  # sampled; exhaustive is criterion-7 territory
    for a in multipliers:
        sizes = np.bincount((a * xs) % p % range_size, minlength=range_size)
        assert sizes.min() >= lo and sizes.max() <= hi


@given(st.integers(0, 10006), st.integers(1, 3))
def test_eval_pure_and_in_range(x, widen):
    h = new_hash(10007, 10007 // widen, seed=5)
    assert 0 <= h.eval(x) < h.range_size
    assert h.eval(x) == h.eval(x)


@given(seed=st.integers(0, 2**70), label=st.text())
def test_derive_seed_is_splitmix_of_seed_and_label_hash(seed, label):
    # the label's FNV-1a word is memoized; a repeated call must not change
    # what the first one derived
    want = splitmix64((seed & MASK64) ^ fnv1a64(label.encode("utf-8")))
    assert derive_seed(seed, label) == want
    assert derive_seed(seed, label) == want
