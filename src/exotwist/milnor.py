"""Intersection-form invariants of the Brieskorn-Pham Milnor fiber M_c(p,q,r).

The second cohomology of the fiber carries a symmetric intersection form of
rank mu = (p-1)(q-1)(r-1).  Its inertia (b+, b-, nullity) is Brieskorn's
(1966) lattice-point count: each triple (i,j,k) with 1 <= i <= p-1,
1 <= j <= q-1, 1 <= k <= r-1 contributes an eigenvector whose sign is read
off from s = i/p + j/q + k/r modulo 2:

    s mod 2 in (0,1)  ->  positive eigenvalue
    s mod 2 in (1,2)  ->  negative eigenvalue
    s integral        ->  null vector

The involution (i,j,k) -> (p-i, q-j, r-k) sends s to 3 - s, so b+ is twice
the number of points with s < 1 and the nullity twice the number with s = 1.
With the exponents sorted to a <= b <= c, fix (i,j) and put
v = ab - ib - ja.  Points with s <= 1 need v > 0; then s < 1 holds for the
floor((cv-1)/ab) smallest k, and s = 1 for one k exactly when ab | cv:

    b+      = 2 * sum over v > 0 of floor((cv-1)/ab)
    nullity = 2 * #{v > 0 : ab | cv}

The offsets v depend on (a, b) only, so a scan computes them once and counts
all the c values of a (p, q) pair in one pass over the products c*v, in
blocks of at most _BLOCK of them.  The sums run in numpy int64 while
max(c)*ab < 2**62, and in numpy object dtype (exact Python integers) above
it.

The boundary of the fiber inherits a canonical contact structure; its d3
invariant is the exact rational -sigma/4 - b+ - 1/2 = (-sigma - 4b+ - 2)/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, PreconditionError

__all__ = ["MilnorInvariants", "milnor_number", "positive_offsets", "offsets_count",
           "brieskorn_count", "checked_inertia", "from_counts", "d3_text", "invariants",
           "b_plus_via_lemma"]

# int64 guard: c*v < c*ab bounds every intermediate of the offsets kernel.
_INT64_GUARD = 2**62

# Most products c*v the offsets kernel holds at once (64 KiB of int64 per
# temporary), so a task of a large box stays small and in cache.
_BLOCK = 1 << 13


def _validate_exponents(p: int, q: int, r: int) -> None:
    for name, value in (("p", p), ("q", q), ("r", r)):
        if not isinstance(value, int) or value < 2:
            raise PreconditionError(f"exponent {name} must be an integer >= 2, got {value!r}")


@dataclass(frozen=True)
class MilnorInvariants:
    """Inertia of the intersection form plus the boundary d3 invariant.

    mu = sigma_plus + sigma_minus + nullity is the second Betti number;
    sigma_plus and sigma_minus are b+ and b-.
    """

    mu: int
    sigma_plus: int
    sigma_minus: int
    nullity: int
    sigma: int
    d3: Fraction


def milnor_number(p: int, q: int, r: int) -> int:
    """Milnor number (p-1)(q-1)(r-1) of the singularity x^p + y^q + z^r.

    >>> milnor_number(2, 3, 5)
    8
    >>> milnor_number(2, 3, 7)
    12
    """
    _validate_exponents(p, q, r)
    return (p - 1) * (q - 1) * (r - 1)


def positive_offsets(a: int, b: int) -> np.ndarray:
    """The positive values of ab - ib - ja over 1 <= i < a, 1 <= j < b.

    >>> positive_offsets(3, 4).tolist()
    [5, 2, 1]
    """
    dtype = np.int64 if a * b < _INT64_GUARD else object
    i = np.arange(1, a, dtype=dtype) * b
    j = np.arange(1, b, dtype=dtype) * a
    v = (a * b - np.add.outer(i, j)).ravel()
    return v[v > 0]


def offsets_count(a: int, b: int, cs, v: np.ndarray) -> tuple[list[int], list[int]]:
    """(b+ values, nullity values) of M_c(a,b,c) for each c in cs, from
    v = positive_offsets(a, b).

    Exact in any order of the exponents; a <= b <= c keeps v shortest.  Each
    block of the c values is one numpy pass over its products c*v.

    >>> offsets_count(2, 3, [7, 11, 13], positive_offsets(2, 3))
    ([2, 2, 4], [0, 0, 0])
    """
    ab = a * b
    exact = max(cs) * ab >= _INT64_GUARD
    c = np.array(cs, dtype=object if exact else np.int64)
    if exact:
        v = v.astype(object)
    b_plus: list[int] = []
    nullity: list[int] = []
    step = max(1, _BLOCK // max(1, len(v)))
    for start in range(0, len(c), step):
        cv = c[start:start + step, None] * v
        quo = cv // ab
        # floor((cv-1)/ab) = cv//ab, less one where ab | cv
        hits = np.add.reduce(cv == quo * ab, axis=1).tolist()
        sums = np.add.reduce(quo, axis=1).tolist()
        b_plus += [2 * (s - h) for s, h in zip(sums, hits)]
        nullity += [2 * h for h in hits]
    return b_plus, nullity


def brieskorn_count(p: int, q: int, r: int) -> tuple[int, int, int]:
    """(sigma_plus, sigma_minus, nullity) of the intersection form of M_c(p,q,r).

    Symmetric in the exponents: the offsets kernel runs on the sorted
    exponents a <= b <= c at a cost of O(ab).

    >>> brieskorn_count(2, 2, 3)
    (0, 2, 0)
    >>> brieskorn_count(2, 3, 5)
    (0, 8, 0)
    >>> brieskorn_count(2, 3, 7)
    (2, 10, 0)
    """
    _validate_exponents(p, q, r)
    a, b, c = sorted((p, q, r))
    (sigma_plus,), (nullity,) = offsets_count(a, b, [c], positive_offsets(a, b))
    return sigma_plus, (a - 1) * (b - 1) * (c - 1) - sigma_plus - nullity, nullity


def _d3(sigma: int, sigma_plus: int) -> Fraction:
    return Fraction(-sigma - 4 * sigma_plus - 2, 4)


def d3_text(sigma: int, sigma_plus: int) -> str:
    """str() of the d3 Fraction, reduced from the integers alone.

    >>> d3_text(-8, 2), d3_text(-8, 0), d3_text(-6, 2)
    ('-1/2', '3/2', '-1')
    """
    num = -sigma - 4 * sigma_plus - 2
    g = math.gcd(num, 4)
    return str(num // g) if g == 4 else f"{num // g}/{4 // g}"


def checked_inertia(p: int, q: int, r: int, sigma_plus: int, nullity: int) -> tuple:
    """(mu, sigma_plus, sigma_minus, nullity, sigma) from the positive-part
    and null counts.  sigma_minus is forced by mu; a negative remainder means
    the counts cannot belong to M_c(p,q,r).

    >>> checked_inertia(2, 3, 7, 2, 0)
    (12, 2, 10, 0, -8)
    """
    mu = (p - 1) * (q - 1) * (r - 1)
    sigma_minus = mu - sigma_plus - nullity
    if sigma_plus < 0 or nullity < 0 or sigma_minus < 0:
        raise ConsistencyError(
            f"counts (sigma_plus={sigma_plus}, nullity={nullity}) incompatible with "
            f"mu = {mu} for ({p}, {q}, {r})"
        )
    return mu, sigma_plus, sigma_minus, nullity, sigma_plus - sigma_minus


def from_counts(p: int, q: int, r: int, sigma_plus: int, nullity: int) -> MilnorInvariants:
    """Assemble an invariant record from the positive-part and null counts,
    checked as in checked_inertia.

    >>> from_counts(2, 3, 7, 2, 0).sigma
    -8
    """
    _validate_exponents(p, q, r)
    inertia = checked_inertia(p, q, r, sigma_plus, nullity)
    return MilnorInvariants(*inertia, d3=_d3(inertia[4], sigma_plus))


def invariants(p: int, q: int, r: int) -> MilnorInvariants:
    """Assemble the full invariant record for M_c(p,q,r).

    >>> inv = invariants(2, 3, 5)
    >>> (inv.mu, inv.sigma, inv.sigma_plus, inv.d3)
    (8, -8, 0, Fraction(3, 2))
    >>> invariants(2, 3, 7).d3
    Fraction(-1, 2)
    """
    sigma_plus, _, nullity = brieskorn_count(p, q, r)
    return from_counts(p, q, r, sigma_plus, nullity)


def b_plus_via_lemma(q: int, r: int) -> int:
    """b+ of M_c(2,q,r) by the genus route: g(T(q,r)) + sigma(T(q,r))/2.

    sigma comes from the Gordon-Litherland-Murasugi recursion, not from the
    lattice count, so the two routes to b+ are independent; the certifier
    asserts they agree.  Requires odd coprime q, r >= 3.

    >>> b_plus_via_lemma(3, 7)
    2
    >>> b_plus_via_lemma(3, 5)
    0
    """
    for name, value in (("q", q), ("r", r)):
        if not isinstance(value, int) or value < 3 or value % 2 == 0:
            raise PreconditionError(f"{name} must be an odd integer >= 3, got {value!r}")
    # local import: torus_knot depends on this module for the count route
    from .torus_knot import knot_signature_glm, slice_genus

    return slice_genus(q, r) + knot_signature_glm(q, r) // 2
