"""Parameter derivation.

Every structural quantity of the filter is a pure function of the four
user inputs: window size n, slackness m (possibly infinite), error
bound epsilon, and universe size u. It is computed in one place, when a
``FilterParams`` is built from those inputs. The analysis behind the
formulas works with reals; ceilings are applied so that each derived
inequality still holds for integers. The unbounded-slack case is
represented by ``math.inf`` (exposed as INFINITE), never by an integer
sentinel.

epsilon may be any real number that ``float`` accepts (an ``int``,
``float``, ``Fraction``, ``Decimal`` or numpy scalar; never a string).
Every field is derived from its float value, the value stored, and the
checks compare integers: the float is the ratio num/den of two integers
(``float.as_integer_ratio``), so n < epsilon*u reads n*den < num*u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """All structural quantities of one filter, built from its user inputs.

    n, m, epsilon, u: the user inputs, checked; epsilon is stored as its
    float value. The rest is derived from them, never passed in, so no
    instance holds a field that the formulas below would not give:

    c: generation trade-off parameter, max(ceil(log2(1/epsilon)),
       ceil(n/m)) capped at n (both terms are at least 1); the second
       term keeps g <= m, so expired-but-present elements always fall
       inside the slack zone.
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
    c: int = field(init=False)
    g: int = field(init=False)
    n_prime: int = field(init=False)
    fp_range: int = field(init=False)
    gen_modulus: int = field(init=False)
    tag_bits: int = field(init=False)

    def __post_init__(self) -> None:
        n, m, u = self.n, self.m, self.u
        _check_nme(n, m, self.epsilon)
        if not isinstance(u, int) or u < 2:
            raise InvalidParams(f"universe size u must be an integer >= 2, got {u!r}")
        epsilon = float(self.epsilon)
        num, den = epsilon.as_integer_ratio()
        if n * den >= num * u:
            raise InvalidParams(f"need n < epsilon*u, got n={n}, epsilon*u={num * u / den:.6g}")

        c = max(_ceil_log2_inv(epsilon), 1 if _is_infinite(m) else -(-n // m))
        c = min(c, n)
        g = -(-n // c)
        n_prime = n + g
        gen_modulus = 2 * c + 3
        # frozen: the derived fields are set once, here, past __setattr__
        self.__dict__.update(epsilon=epsilon, c=c, g=g, n_prime=n_prime,
                             fp_range=-(-n_prime * den // num), gen_modulus=gen_modulus,
                             tag_bits=(gen_modulus - 1).bit_length())

    @property
    def dict_capacity(self) -> int:
        """Element capacity the dictionary is sized for: (c+1)*g.

        It equals n_prime whenever c divides n. With ragged division the
        stream can legitimately keep up to (c+1)*g fingerprints live at
        once, so sizing for n_prime alone would be an overflow hazard.
        It is never below n_prime: g = ceil(n/c) gives c*g >= n, so
        (c+1)*g >= n + g = n_prime.
        """
        return (self.c + 1) * self.g


def derive(n: int, m, epsilon: float, u: int) -> FilterParams:
    """Check (n, m, epsilon, u) and derive every structural parameter
    from them (see ``FilterParams``); raises InvalidParams."""
    return FilterParams(n, m, epsilon, u)

