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

The offsets v depend on (a, b) only, so a scan computes them once and reuses
them for every c.  The sums run in numpy int64 while c*ab < 2**62, and in
numpy object dtype (exact Python integers) above it.

The boundary of the fiber inherits a canonical contact structure; its d3
invariant is the exact rational -sigma/4 - b+ - 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, PreconditionError

__all__ = [
    "MilnorInvariants",
    "milnor_number",
    "positive_offsets",
    "offsets_count",
    "brieskorn_count",
    "from_counts",
    "invariants",
    "b_plus_via_lemma",
]

# int64 guard: c*v < c*ab bounds every intermediate of the offsets kernel.
_INT64_GUARD = 2**62


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


def offsets_count(a: int, b: int, c: int, v: np.ndarray) -> tuple[int, int]:
    """(b+, nullity) of M_c(a,b,c) from v = positive_offsets(a, b).

    Exact in any order of the exponents; a <= b <= c keeps v shortest.

    >>> offsets_count(2, 3, 7, positive_offsets(2, 3))
    (2, 0)
    """
    ab = a * b
    if c * ab >= _INT64_GUARD:
        v = v.astype(object)
    cv = c * v
    return 2 * int(((cv - 1) // ab).sum()), 2 * int(np.count_nonzero(cv % ab == 0))


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
    sigma_plus, nullity = offsets_count(a, b, c, positive_offsets(a, b))
    return sigma_plus, (a - 1) * (b - 1) * (c - 1) - sigma_plus - nullity, nullity


def _d3(sigma: int, sigma_plus: int) -> Fraction:
    return Fraction(-sigma, 4) - sigma_plus - Fraction(1, 2)


def from_counts(p: int, q: int, r: int, sigma_plus: int, nullity: int) -> MilnorInvariants:
    """Assemble an invariant record from the positive-part and null counts.

    sigma_minus is forced by mu; a negative remainder means the supplied
    counts cannot belong to M_c(p,q,r).

    >>> from_counts(2, 3, 7, 2, 0).sigma
    -8
    """
    mu = milnor_number(p, q, r)
    sigma_minus = mu - sigma_plus - nullity
    if sigma_plus < 0 or nullity < 0 or sigma_minus < 0:
        raise ConsistencyError(
            f"counts (sigma_plus={sigma_plus}, nullity={nullity}) incompatible with "
            f"mu = {mu} for ({p}, {q}, {r})"
        )
    sigma = sigma_plus - sigma_minus
    return MilnorInvariants(
        mu=mu,
        sigma_plus=sigma_plus,
        sigma_minus=sigma_minus,
        nullity=nullity,
        sigma=sigma,
        d3=_d3(sigma, sigma_plus),
    )


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

    Independent of reading b+ off the lattice count directly; the certifier
    asserts the two routes agree.  Requires odd coprime q, r >= 3.

    >>> b_plus_via_lemma(3, 7)
    2
    >>> b_plus_via_lemma(3, 5)
    0
    """
    for name, value in (("q", q), ("r", r)):
        if not isinstance(value, int) or value < 3 or value % 2 == 0:
            raise PreconditionError(f"{name} must be an odd integer >= 3, got {value!r}")
    # local import: torus_knot depends on this module for the count route
    from .torus_knot import knot_signature_count, slice_genus

    g = slice_genus(q, r)
    sigma = knot_signature_count(q, r)
    if sigma % 2 != 0:
        raise ConsistencyError(f"odd knot signature {sigma} for T({q},{r}); count is defective")
    return g + sigma // 2
