"""Number-theoretic predicates shared by every other module.

All arithmetic is plain Python integers, hence arbitrary precision; lattice
comparisons elsewhere multiply three exponents together and must not wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError

__all__ = ["Triple", "is_pairwise_coprime", "quarter_genus_is_odd"]


@dataclass(frozen=True, order=True)
class Triple:
    """An exponent triple (p, q, r) naming the Milnor fiber of x^p + y^q + z^r.

    The triple is kept in the order the user gave it; sortedness is checked
    by the certifier where a theorem requires it, never imposed here.
    """

    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        for name, value in (("p", self.p), ("q", self.q), ("r", self.r)):
            if not isinstance(value, int) or value < 2:
                raise PreconditionError(f"exponent {name} must be an integer >= 2, got {value!r}")


def is_pairwise_coprime(t: Triple) -> bool:
    """True iff gcd(p,q) = gcd(q,r) = gcd(p,r) = 1.

    >>> is_pairwise_coprime(Triple(2, 3, 7))
    True
    >>> is_pairwise_coprime(Triple(2, 4, 7))
    False
    """
    return (
        math.gcd(t.p, t.q) == 1
        and math.gcd(t.q, t.r) == 1
        and math.gcd(t.p, t.r) == 1
    )


def quarter_genus_is_odd(q: int, r: int) -> bool:
    """Whether (q-1)(r-1)/4 is odd, for odd coprime q, r >= 3.

    (q-1)(r-1)/2 is the slice genus of the torus knot T(q,r); for odd q and r
    the genus is even and the quantity tested here is its half.  This parity
    is the single hypothesis of the direct certification route.  Writing
    q - 1 = 2a and r - 1 = 2b, the quarter genus is ab, which is odd exactly
    when a and b are, that is when q = r = 3 (mod 4); so the smallest pair
    with q, r > 3 is (7, 11).

    >>> all(quarter_genus_is_odd(q, r) == (q % 4 == r % 4 == 3)
    ...     for q in range(3, 60, 2) for r in range(3, 60, 2) if math.gcd(q, r) == 1)
    True
    >>> quarter_genus_is_odd(3, 7)
    True
    >>> quarter_genus_is_odd(3, 11)
    True
    >>> quarter_genus_is_odd(3, 5)
    False
    >>> quarter_genus_is_odd(5, 7)
    False
    """
    for name, value in (("q", q), ("r", r)):
        if not isinstance(value, int) or value < 3:
            raise PreconditionError(f"{name} must be an integer >= 3, got {value!r}")
        if value % 2 == 0:
            raise PreconditionError(f"{name} must be odd, got {value}")
    if math.gcd(q, r) != 1:
        raise PreconditionError(f"q and r must be coprime, got gcd({q}, {r}) = {math.gcd(q, r)}")
    # q, r odd makes (q-1)(r-1) divisible by 4 exactly.
    return ((q - 1) * (r - 1) // 4) % 2 == 1
