import math
from collections import namedtuple
from dataclasses import astuple, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slidingbloom import INFINITE, FilterParams, InvalidParams, derive
from slidingbloom.params import _ceil_log2_inv, _check_nme

from space_sweep import bound_bits

U64 = 2**64


def test_derive_reference_values():
    p = derive(1000, 1000, 2**-10, U64)
    assert (p.c, p.g, p.n_prime, p.fp_range, p.gen_modulus, p.tag_bits) == (
        10, 100, 1100, 1_126_400, 23, 5)

    p = derive(1000, 10, 2**-4, U64)
    assert (p.c, p.g, p.n_prime, p.fp_range, p.gen_modulus, p.tag_bits) == (
        100, 10, 1010, 16_160, 203, 8)

    p = derive(1000, INFINITE, 0.5, U64)
    assert (p.c, p.g, p.n_prime, p.gen_modulus) == (1, 1000, 2000, 5)


def test_upper_bound_reference_values():
    assert bound_bits(1024, INFINITE, 2**-8) == 1024 * 8 + 1024 * 3
    assert bound_bits(1024, 1, 0.5) == 1024 * 1 + 1024 * 10
    assert bound_bits(100, 100, 2**-16) == 100 * 16 + 100 * 4


def test_lower_bound_reference_values():
    assert bound_bits(1024, INFINITE, 2**-8) == 11264
    assert bound_bits(1024, 1024, 2**-8) == 11264  # log2(n/m)=0 < loglog=3
    assert bound_bits(2048, 2, 2**-4) == 2048 * 4 + 2048 * 10


@pytest.mark.parametrize("bad", [
    dict(n=0, m=1, epsilon=0.1, u=U64),
    dict(n=-3, m=1, epsilon=0.1, u=U64),
    dict(n=10, m=0, epsilon=0.1, u=U64),
    dict(n=10, m=1, epsilon=0.0, u=U64),
    dict(n=10, m=1, epsilon=1.0, u=U64),
    dict(n=10, m=1, epsilon=-0.5, u=U64),
    dict(n=100, m=1, epsilon=0.001, u=1000),  # n >= epsilon*u
    dict(n=10, m=1, epsilon=0.1, u=1),
])
def test_derive_rejects(bad):
    with pytest.raises(InvalidParams):
        derive(**bad)


def test_n_equal_epsilon_u_rejected():
    # boundary must be strict; 0.125 is exact in binary so eps*u == n
    with pytest.raises(InvalidParams):
        derive(100, 10, 0.125, 800)
    derive(100, 10, 0.125, 801)


def test_derive_deterministic():
    a = derive(777, 13, 0.03, U64)
    b = derive(777, 13, 0.03, U64)
    assert a == b


def test_fp_range_exact_for_awkward_epsilon():
    # 0.1 is not a binary fraction; R must be the exact ceiling w.r.t.
    # the binary value of epsilon
    p = derive(1000, 100, 0.1, U64)
    eps = Fraction(0.1)
    assert p.fp_range == -(-p.n_prime * eps.denominator // eps.numerator)
    assert Fraction(p.fp_range) >= p.n_prime / eps


@given(
    n=st.integers(1, 50_000),
    m=st.one_of(st.just(INFINITE), st.integers(1, 100_000)),
    eps_pow=st.integers(1, 30),
)
def test_derive_invariants(n, m, eps_pow):
    epsilon = 2.0**-eps_pow
    params = derive(n, m, epsilon, U64)
    assert 1 <= params.c <= n
    assert params.g * params.c >= n
    if m != INFINITE:
        assert params.g <= m
    assert params.n_prime == n + params.g
    assert params.fp_range >= params.n_prime / epsilon
    assert params.gen_modulus == 2 * params.c + 3
    assert 2**params.tag_bits >= params.gen_modulus
    assert params.dict_capacity >= params.n_prime
    assert params.dict_capacity == (params.c + 1) * params.g


@given(
    n=st.integers(1, 10_000),
    m=st.one_of(st.just(INFINITE), st.integers(1, 20_000)),
    epsilon=st.floats(1e-9, 0.999),
)
def test_bounds_ordering(n, m, epsilon):
    # finite slack only adds a candidate to the max-term
    bound = bound_bits(n, m, epsilon)
    assert bound >= bound_bits(n, INFINITE, epsilon)
    assert bound >= n * math.log2(1 / epsilon) - 1e-9


def test_bound_monotone_grid():
    ns = [64, 256, 1024, 4096]
    ms = [1, 4, 64, 1024, INFINITE]
    eps = [2**-2, 2**-6, 2**-10, 2**-14]
    for m in ms:
        for e in eps:
            vals = [bound_bits(n, m, e) for n in ns]
            assert vals == sorted(vals)  # non-decreasing in n
    for n in ns:
        for e in eps:
            vals = [bound_bits(n, m, e) for m in ms if m != INFINITE]
            assert vals == sorted(vals, reverse=True)  # non-increasing in m
    for n in ns:
        for m in ms:
            vals = [bound_bits(n, m, e) for e in eps]
            assert vals == sorted(vals)  # non-increasing in epsilon (eps shrinking)


@given(n=st.integers(2, 20_000), eps_pow=st.integers(1, 20))
def test_large_slack_equals_infinite(n, eps_pow):
    epsilon = 2.0**-eps_pow
    level = math.log2(1 / epsilon)
    m = max(1, math.ceil(n / level))
    assert bound_bits(n, m, epsilon) == pytest.approx(bound_bits(n, INFINITE, epsilon))


# -- the integer checks against the exact rational formulas they replaced --

def fraction_ceil_log2_inv(epsilon):
    frac = Fraction(epsilon)
    level = 0
    while (frac.numerator << level) < frac.denominator:
        level += 1
    return level


# every field of a FilterParams, inputs first, in declaration order
Fields = namedtuple("Fields", "n m epsilon u c g n_prime fp_range gen_modulus tag_bits")


def fraction_validate(p):
    """The checks derive's integer formulas must pass, written with
    Fraction (the n, m and epsilon checks are shared code)."""
    _check_nme(p.n, p.m, p.epsilon)
    if not isinstance(p.u, int) or p.u < 2:
        raise InvalidParams(f"universe size u must be an integer >= 2, got {p.u!r}")
    eps = Fraction(p.epsilon)
    if Fraction(p.n) >= eps * p.u:
        raise InvalidParams(f"need n < epsilon*u, got n={p.n}, epsilon*u={float(eps * p.u):.6g}")
    if not (1 <= p.c <= p.n):
        raise InvalidParams(f"c={p.c} outside [1, n]")
    if p.g * p.c < p.n:
        raise InvalidParams(f"g*c={p.g * p.c} < n={p.n}")
    if p.m != INFINITE and p.g > p.m:
        raise InvalidParams(f"generation size g={p.g} exceeds slack m={p.m}")
    if p.n_prime != p.n + p.g:
        raise InvalidParams("n_prime != n + g")
    if Fraction(p.fp_range) < Fraction(p.n_prime) / eps:
        raise InvalidParams("fingerprint range below n_prime/epsilon")
    if p.gen_modulus != 2 * p.c + 3:
        raise InvalidParams("generation modulus != 2c + 3")
    if (1 << p.tag_bits) < p.gen_modulus:
        raise InvalidParams("tag_bits too small for generation modulus")


def fraction_derive(n, m, epsilon, u):
    _check_nme(n, m, epsilon)
    eps = Fraction(epsilon)
    c = max(fraction_ceil_log2_inv(epsilon), 1 if m == INFINITE else -(-n // m))
    c = min(max(c, 1), n)
    g = -(-n // c)
    n_prime = n + g
    params = Fields(
        n=n, m=m, epsilon=epsilon, u=u, c=c, g=g, n_prime=n_prime,
        fp_range=-(-n_prime * eps.denominator // eps.numerator),
        gen_modulus=2 * c + 3, tag_bits=(2 * c + 2).bit_length(),
    )
    fraction_validate(params)
    return params


def derived_fields(n, m, epsilon, u):
    return Fields(*astuple(derive(n, m, epsilon, u)))


def outcome(call, *args):
    """What a call returns, or the message of the InvalidParams it raises."""
    try:
        return call(*args)
    except InvalidParams as exc:
        return f"refused: {exc}"


EPSILONS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(1, 60).map(lambda k: 2.0 ** -k),
    st.fractions(0, 1).filter(lambda f: 0 < f < 1).map(float),
)
UNIVERSES = st.one_of(st.integers(2, 10**6), st.integers(2, 2**130))
SLACKS = st.one_of(st.just(INFINITE), st.integers(1, 10**6))


@given(epsilon=EPSILONS)
def test_ceil_log2_inv_matches_fraction_formula(epsilon):
    assert _ceil_log2_inv(epsilon) == fraction_ceil_log2_inv(epsilon)


@given(n=st.integers(1, 10**6), m=SLACKS, epsilon=EPSILONS, u=UNIVERSES)
def test_derive_matches_fraction_formulas(n, m, epsilon, u):
    assert outcome(derived_fields, n, m, epsilon, u) == outcome(fraction_derive, n, m, epsilon, u)


@given(odd=st.integers(0, 500).map(lambda k: 2 * k + 1), j=st.integers(1, 70),
       t=st.integers(1, 1000))
def test_exact_boundaries_match_fraction_formulas(odd, j, t):
    # epsilon = odd / 2**j, exact in binary once odd < 2**j
    if odd >= 1 << j:
        odd = (1 << j) - 1
    epsilon = odd / 2**j
    # n == epsilon * u exactly: refused; one more universe element: accepted
    n, u = odd * t, t << j
    for universe in (u - 1, u, u + 1):
        got = outcome(derived_fields, n, INFINITE, epsilon, universe)
        assert got == outcome(fraction_derive, n, INFINITE, epsilon, universe)
        assert isinstance(got, str) == (universe <= u)
    # n_prime / epsilon an integer: fp_range is exactly that integer
    p = derive(odd * t, INFINITE, epsilon, 2**200)
    exact = p.n_prime * 2**j
    if exact % odd == 0:
        assert p.fp_range == exact // odd
        assert derived_fields(odd * t, INFINITE, epsilon, 2**200) == \
            fraction_derive(odd * t, INFINITE, epsilon, 2**200)


def test_derived_fields_cannot_be_passed_in():
    p = FilterParams(1000, 1000, 2**-10, U64)
    assert p == derive(1000, 1000, 2**-10, U64)
    with pytest.raises(TypeError):
        FilterParams(1000, 1000, 2**-10, U64, c=11)
    with pytest.raises(ValueError):
        replace(p, fp_range=p.fp_range + 1)
    with pytest.raises(InvalidParams, match="universe"):
        replace(p, u=1)
    assert replace(p, n=500) == derive(500, 1000, 2**-10, U64)


# -- epsilon is a real number, every field derived from its float value --

@pytest.mark.parametrize("epsilon", [Fraction(1, 3), Fraction(1, 10), Decimal("0.1"),
                                     Decimal(1) / Decimal(3), np.float32(0.1), np.float64(0.1)])
def test_exact_epsilon_gives_the_params_of_its_float(epsilon):
    p = derive(100, 10, epsilon, 2**64)
    assert p == derive(100, 10, float(epsilon), 2**64)
    assert type(p.epsilon) is float


@pytest.mark.parametrize("epsilon", ["0.1", b"0.1", bytearray(b"0.1"), None, 1j])
def test_epsilon_must_be_a_real_number(epsilon):
    with pytest.raises(InvalidParams, match="epsilon"):
        derive(100, 10, epsilon, 2**64)
    with pytest.raises(InvalidParams, match="epsilon"):
        bound_bits(100, 10, epsilon)
