"""Parameter derivation and space-bound formulas.

Every structural quantity of the filter is a pure function of the four
user inputs: window size n, slackness m (possibly infinite), error
bound epsilon, and universe size u. The analysis behind the formulas
works with reals; ceilings are applied so that each derived inequality
still holds for integers. The unbounded-slack case is represented by
``math.inf`` (exposed as INFINITE), never by an integer sentinel.

epsilon may be any real number that ``float`` accepts (an ``int``,
``float``, ``Fraction``, ``Decimal`` or numpy scalar; never a string).
Every field is derived from its float value, the value stored, and the
checks compare integers: the float is the ratio num/den of two integers
(``float.as_integer_ratio``), so n < epsilon*u reads n*den < num*u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INFINITE = math.inf


class InvalidParams(ValueError):
    """The inputs violate a precondition of the construction."""


def _is_infinite(m) -> bool:
    return m == INFINITE


def _ceil_log2_inv(epsilon: float) -> int:
    # Smallest L with 2**L >= 1/epsilon, computed exactly from the
    # binary value of epsilon (float log2 can land on the wrong side of
    # an integer boundary): num * 2**L >= den holds exactly when the
    # integer 2**L reaches ceil(den/num).
    num, den = float(epsilon).as_integer_ratio()
    return (-(-den // num) - 1).bit_length()


def _check_nme(n, m, epsilon) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParams(f"window size n must be a positive integer, got {n!r}")
    if not _is_infinite(m):
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise InvalidParams(f"slack m must be a positive integer or INFINITE, got {m!r}")
    # float() would parse a string: refuse text before it gets the chance
    try:
        eps_ok = not isinstance(epsilon, (str, bytes, bytearray)) and 0.0 < float(epsilon) < 1.0
    except (TypeError, ValueError):
        eps_ok = False
    if not eps_ok:
        raise InvalidParams(f"epsilon must be a real number strictly in (0, 1), got {epsilon!r}")


@dataclass(frozen=True)
class FilterParams:
    """All derived structural quantities for one filter instance.

    n, m, epsilon, u: the user inputs.
    c: generation trade-off parameter in [1, n].
    g: generation capacity, ceil(n / c) stream positions per label.
    n_prime: nominal element capacity, n + g.
    fp_range: fingerprint space size, ceil(n_prime / epsilon).
    gen_modulus: label counter modulus, 2c + 3.
    tag_bits: bits per stored generation tag, ceil(log2(gen_modulus)).
    """

    n: int
    m: int | float
    epsilon: float
    u: int
    c: int
    g: int
    n_prime: int
    fp_range: int
    gen_modulus: int
    tag_bits: int

    @property
    def dict_capacity(self) -> int:
        """Element capacity the dictionary is sized for.

        (c+1)*g, which equals n_prime whenever c divides n. With ragged
        division the stream can legitimately keep up to (c+1)*g
        fingerprints live at once, so sizing for n_prime alone would be
        an overflow hazard.
        """
        return max(self.n_prime, (self.c + 1) * self.g)

    def validate(self) -> None:
        _check_nme(self.n, self.m, self.epsilon)
        if not isinstance(self.u, int) or self.u < 2:
            raise InvalidParams(f"universe size u must be an integer >= 2, got {self.u!r}")
        num, den = float(self.epsilon).as_integer_ratio()
        if self.n * den >= num * self.u:
            raise InvalidParams(
                f"need n < epsilon*u, got n={self.n}, epsilon*u={num * self.u / den:.6g}"
            )
        if not (1 <= self.c <= self.n):
            raise InvalidParams(f"c={self.c} outside [1, n]")
        if self.g * self.c < self.n:
            raise InvalidParams(f"g*c={self.g * self.c} < n={self.n}")
        if not _is_infinite(self.m) and self.g > self.m:
            raise InvalidParams(f"generation size g={self.g} exceeds slack m={self.m}")
        if self.n_prime != self.n + self.g:
            raise InvalidParams("n_prime != n + g")
        if self.fp_range * num < self.n_prime * den:
            raise InvalidParams("fingerprint range below n_prime/epsilon")
        if self.gen_modulus != 2 * self.c + 3:
            raise InvalidParams("generation modulus != 2c + 3")
        if (1 << self.tag_bits) < self.gen_modulus:
            raise InvalidParams("tag_bits too small for generation modulus")


def derive(n: int, m, epsilon: float, u: int) -> FilterParams:
    """Derive all structural parameters from (n, m, epsilon, u).

    c = max(ceil(log2(1/epsilon)), ceil(n/m)), clamped to [1, n]. The
    second term keeps g = ceil(n/c) <= m so expired-but-present
    elements always fall inside the slack zone. Every field follows from
    float(epsilon), the value stored.
    """
    _check_nme(n, m, epsilon)
    epsilon = float(epsilon)
    num, den = epsilon.as_integer_ratio()

    slack_term = 1 if _is_infinite(m) else -(-n // m)
    c = max(_ceil_log2_inv(epsilon), slack_term)
    c = min(max(c, 1), n)
    g = -(-n // c)
    n_prime = n + g
    fp_range = -(-n_prime * den // num)
    gen_modulus = 2 * c + 3
    tag_bits = (gen_modulus - 1).bit_length()

    params = FilterParams(
        n=n,
        m=m,
        epsilon=epsilon,
        u=u,
        c=c,
        g=g,
        n_prime=n_prime,
        fp_range=fp_range,
        gen_modulus=gen_modulus,
        tag_bits=tag_bits,
    )
    params.validate()
    return params


def upper_bound_bits(n: int, m, epsilon: float) -> float:
    """Leading terms of the achievable space: n*log2(1/eps) + n*max-term.

    The max-term is max(log2(n/m), log2(log2(1/eps))) floored at zero;
    for infinite m the log2(n/m) term drops out. Multiplicative
    (1+o(1)) factors and additive O(n) corrections are not computable
    and are intentionally omitted.
    """
    _check_nme(n, m, epsilon)
    level = math.log2(1.0 / float(epsilon))
    candidates = [0.0, math.log2(level)]
    if not _is_infinite(m):
        candidates.append(math.log2(n / m))
    return n * level + n * max(candidates)


def lower_bound_bits(n: int, m, epsilon: float) -> float:
    """Leading terms of the space lower bound (the -O(n) slack omitted).

    Shares its leading terms with upper_bound_bits by construction, so
    the two functions agree exactly; they are kept separate because
    callers compare measured space against each side differently.
    """
    return upper_bound_bits(n, m, epsilon)
