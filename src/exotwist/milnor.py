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
it.  numpy is imported by the kernel itself, so only a count loads it.  A
count of more than _MAX_TERMS offsets is refused (UnsupportedInputError)
before anything is allocated.

For pairwise-coprime exponents the same lattice points have Mordell's
closed-form count (1951), and sigma = b+ - b- follows from Dedekind sums
(Hirzebruch-Zagier 1974; Rademacher-Grosswald 1972).  With
U(h,k) = 12k*s(h,k), an integer, reciprocity gives
h*U(h,k) + k*U(k,h) = h^2 + k^2 + 1 - 3hk and U(k,h) = U(k mod h, h), so U
runs like Euclid's algorithm down to U(0,1) = 0, and

    sigma = -1 + [1 - (pqr)^2 + (pq)^2 + (qr)^2 + (pr)^2
                  - qr*U(qr mod p, p) - pr*U(pr mod q, q) - pq*U(pq mod r, r)] / (3pqr)

in O(log pqr) integer steps, every division checked to be exact.  The nullity
is 0 then.  invariants() takes sigma from this route for pairwise-coprime
triples, with b+ = (mu + sigma)/2, and counts the others; their nullity is
checked against Milnor-Orlik's closed form (Topology 9, 1970), the first
Betti number of the link:

    nullity = 2 + pqr/lcm(p,q,r) - gcd(p,q) - gcd(q,r) - gcd(p,r)

For pairwise-coprime exponents sigma has a second closed form, from the
star-shaped resolution graph of the singularity; it shares no step with
Dedekind sums or the count.  The link is Seifert-fibred with one
exceptional fibre of multiplicity a over each a in (p, q, r)
(Neumann-Raymond, Seifert manifolds, plumbing, mu-invariant and orientation
reversing maps, LNM 664, 1978): with n = pqr, nu = (n/a) mod a and
omega = -nu^(-1) mod a.  Each fibre is a leg a/omega = [b_1, ..., b_s]
(Hirzebruch-Jung), expanded by (x, y) <- (y, ceil(x/y)*y - x) from
(a, omega), with z_1 = 1, z_{j+1} = b_j*z_j - z_{j-1} (z_0 = 0); a run of
b = 2 from (x, y), with d = x - y, lasts floor(y/d) steps and adds nothing
to the sums, so a leg takes O(log a) steps.  A leg is the integers
W = omega + 1 - a, C = Y, D = Y + Z - a*Sb and its vertex count s, where
Sb = sum(b - 2), Y = sum y*(b - 2) and Z = sum z*(b - 2).  Then, every
division checked to be exact,

    e0 = (1 + sum omega*n/a) / n          (the centre's self-intersection is -e0)
    k0 = sum W*n/a - n*(e0 - 2)           (K's coefficient on the centre, times n)
    K^2 = k0*(e0 - 2) + sum (k0*C + D)/a
    p_g = (mu - K^2 - S) / 12,  S = 1 + sum s

by Laufer's mu = 12 p_g + K^2 + chi(E) - 1 (Proc. Symp. Pure Math. 30, 1977),
and sigma = 4 p_g - mu by Durfee-Steenbrink's b+ + nullity = 2 p_g
(Math. Ann. 232, 1978) with nullity 0.

Where each number of a certificate comes from:

  invariants() (and certify): sigma by dedekind_sigma on pairwise-coprime
      triples; otherwise b+ and the nullity by brieskorn_count, the nullity
      checked against Milnor-Orlik.
  a scan's pairwise-coprime row: sigma by memoised_dedekind_sigma
      (U(h, k) memoised), checked against resolution_sigma (legs memoised
      by (nu, a)); b+ = (mu + sigma)/2, nullity 0.  The scan empties both
      memos when it ends.
  a scan's other row (only with --all): b+ and the nullity by one batched
      offsets_count per (p, q) task, the nullity checked against
      Milnor-Orlik; the same batch recounts the task's first
      pairwise-coprime row as a spot check of the kernel.

The boundary of the fiber inherits a canonical contact structure; its d3
invariant is the exact rational -sigma/4 - b+ - 1/2 = (-sigma - 4b+ - 2)/4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, PreconditionError, UnsupportedInputError

__all__ = ["MilnorInvariants", "milnor_number", "positive_offsets", "offsets_count",
           "brieskorn_count", "dedekind_sigma", "memoised_dedekind_sigma",
           "resolution_sigma", "clear_memos", "checked_inertia", "from_counts", "d3_text",
           "invariants", "b_plus_via_lemma"]

# int64 guard: c*v < c*ab bounds every intermediate of the offsets kernel.
_INT64_GUARD = 2**62

# Most offsets (a-1)(b-1) a count may hold: 128 MiB of int64 per array.  A
# q, r <= 200 box needs at most 4*10^4.
_MAX_TERMS = 1 << 24

# Most entries each of the scan's memos holds, the least recently used going
# first, so a scan's memory does not grow with its box.  The q, r <= 200 box needs 12,231.
_MEMO_ENTRIES = 1 << 16

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

    Raises UnsupportedInputError, before allocating, when (a-1)(b-1)
    exceeds _MAX_TERMS.

    >>> positive_offsets(3, 4).tolist()
    [5, 2, 1]
    """
    terms = (a - 1) * (b - 1)
    if terms > _MAX_TERMS:
        raise UnsupportedInputError(
            f"lattice count over exponents ({a}, {b}) needs {terms} terms, "
            f"more than the {_MAX_TERMS} it may hold in memory"
        )
    import numpy as np

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
    import numpy as np

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
    exponents a <= b <= c at a cost of O(ab), and refuses (a-1)(b-1) past
    _MAX_TERMS.

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


def _dedekind_u(h: int, k: int) -> int:
    """U(h,k) = 12k*s(h,k) for coprime h, k >= 1, by reciprocity."""
    chain = []
    h %= k
    while h:
        chain.append((h, k))
        h, k = k % h, h
    if k != 1:
        raise PreconditionError(f"Dedekind sum needs coprime arguments, got gcd {k}")
    u = 0
    for h, k in reversed(chain):
        u, rem = divmod(h * h + k * k + 1 - 3 * h * k - k * u, h)
        if rem:
            raise ConsistencyError(f"12k*s(h,k) is not an integer at (h, k) = ({h}, {k})")
    return u


def dedekind_sigma(p: int, q: int, r: int) -> int:
    """sigma of M_c(p,q,r) for pairwise-coprime exponents, by Dedekind sums.

    The closed form in the module docstring; O(log) integer steps, no count.

    >>> dedekind_sigma(2, 3, 7), dedekind_sigma(7, 2, 3), dedekind_sigma(3, 4, 5)
    (-8, -8, -16)
    """
    _validate_exponents(p, q, r)
    n = p * q * r
    total = 1 - n * n + (p * q) ** 2 + (q * r) ** 2 + (p * r) ** 2
    for m, k in ((q * r, p), (p * r, q), (p * q, r)):
        total -= m * _dedekind_u(m, k)
    quo, rem = divmod(total, 3 * n)
    if rem:
        raise ConsistencyError(f"Dedekind-sum sigma of ({p}, {q}, {r}) is not an integer")
    return quo - 1


def _leg(nu: int, a: int) -> tuple[int, int, int, int, int]:
    """(omega, W, C, D, s) of the resolution leg of a fibre of multiplicity a
    with nu = (n/a) mod a, as in the module docstring."""
    omega = -pow(nu, -1, a) % a
    x, y = a, omega
    z_prev, z = 0, 1
    s = sb = big_y = big_z = 0
    while y:
        d = x - y
        if d <= y:  # a run of b = 2, all of it in one step
            t, dz = y // d, z - z_prev
            x, y = y - (t - 1) * d, y - t * d
            z_prev, z = z + (t - 1) * dz, z + t * dz
            s += t
            continue
        b = -(-x // y)
        s, sb, big_y, big_z = s + 1, sb + b - 2, big_y + y * (b - 2), big_z + z * (b - 2)
        x, y = y, b * y - x
        z_prev, z = z, b * z - z_prev
    return omega, omega + 1 - a, big_y, big_y + big_z - a * sb, s


# The scan's memos, one per closed form: U(h, k) of the Dedekind sums and the
# resolution legs by (nu, a).  scan._run empties both when a scan ends; the
# library dedekind_sigma and invariants() use neither.
_memo_u = functools.lru_cache(maxsize=_MEMO_ENTRIES)(_dedekind_u)
_memo_leg = functools.lru_cache(maxsize=_MEMO_ENTRIES)(_leg)


def clear_memos() -> None:
    """Empty the memos of memoised_dedekind_sigma and resolution_sigma."""
    _memo_u.cache_clear()
    _memo_leg.cache_clear()


def memoised_dedekind_sigma(p: int, q: int, r: int) -> int:
    """dedekind_sigma(p, q, r), each U(h, k) memoised by (h mod k, k).

    Does not validate its exponents: the caller passes pairwise-coprime
    integers >= 2.

    >>> memoised_dedekind_sigma(3, 4, 5)
    -16
    """
    qr, pr, pq = q * r, p * r, p * q
    n = pq * r
    total = 1 - n * n + pq * pq + qr * qr + pr * pr
    for m, k in ((qr, p), (pr, q), (pq, r)):
        total -= m * _memo_u(m % k, k)
    quo, rem = divmod(total, 3 * n)
    if rem:
        raise ConsistencyError(f"Dedekind-sum sigma of ({p}, {q}, {r}) is not an integer")
    return quo - 1


def resolution_sigma(p: int, q: int, r: int) -> int:
    """sigma of M_c(p,q,r) for pairwise-coprime exponents, by the resolution
    graph of the module docstring, each leg memoised by (nu, a); O(log)
    integer steps.

    Does not validate its exponents: the caller passes pairwise-coprime
    integers >= 2.

    >>> resolution_sigma(2, 3, 7), resolution_sigma(7, 2, 3), resolution_sigma(3, 4, 5)
    (-8, -8, -16)
    """
    qr, pr, pq = q * r, p * r, p * q
    n = pq * r
    o_p, w_p, c_p, d_p, s_p = _memo_leg(qr % p, p)
    o_q, w_q, c_q, d_q, s_q = _memo_leg(pr % q, q)
    o_r, w_r, c_r, d_r, s_r = _memo_leg(pq % r, r)
    e0, rem = divmod(1 + o_p * qr + o_q * pr + o_r * pq, n)
    k0 = w_p * qr + w_q * pr + w_r * pq - n * (e0 - 2)
    k_p, rem_p = divmod(k0 * c_p + d_p, p)
    k_q, rem_q = divmod(k0 * c_q + d_q, q)
    k_r, rem_r = divmod(k0 * c_r + d_r, r)
    k_square = k0 * (e0 - 2) + k_p + k_q + k_r
    mu = (p - 1) * (q - 1) * (r - 1)
    p_g, rem_g = divmod(mu - k_square - 1 - s_p - s_q - s_r, 12)
    if rem or rem_p or rem_q or rem_r or rem_g:
        raise ConsistencyError(f"resolution-graph sigma of ({p}, {q}, {r}) is not an integer")
    return 4 * p_g - mu


def _link_b1(p: int, q: int, r: int) -> int:
    """Milnor-Orlik's first Betti number of the link, the nullity of the form.

    >>> _link_b1(2, 3, 7), _link_b1(4, 6, 8), _link_b1(3, 3, 3)
    (0, 2, 2)
    """
    return 2 + p * q * r // math.lcm(p, q, r) - math.gcd(p, q) - math.gcd(q, r) - math.gcd(p, r)


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
    return _record(checked_inertia(p, q, r, sigma_plus, nullity))


def _record(inertia: tuple) -> MilnorInvariants:
    return MilnorInvariants(*inertia, d3=_d3(inertia[4], inertia[1]))


def invariants(p: int, q: int, r: int) -> MilnorInvariants:
    """Assemble the full invariant record for M_c(p,q,r).

    Pairwise-coprime triples take sigma from dedekind_sigma, with nullity 0
    and b+ = (mu + sigma)/2, and import no numpy.  Other triples are counted
    by brieskorn_count, whose nullity must match Milnor-Orlik's closed form.
    Whichever of the two runs validates the exponents, once per call.

    >>> inv = invariants(2, 3, 5)
    >>> (inv.mu, inv.sigma, inv.sigma_plus, inv.d3)
    (8, -8, 0, Fraction(3, 2))
    >>> invariants(2, 3, 7).d3
    Fraction(-1, 2)
    >>> invariants(3, 3, 3).nullity
    2
    """
    try:
        gcds = math.gcd(p, q), math.gcd(q, r), math.gcd(p, r)
    except TypeError:  # a non-integer exponent, which brieskorn_count refuses
        gcds = None
    if gcds == (1, 1, 1):
        mu_plus_sigma = dedekind_sigma(p, q, r) + (p - 1) * (q - 1) * (r - 1)
        if mu_plus_sigma % 2:
            raise ConsistencyError(f"Dedekind-sum sigma of ({p}, {q}, {r}) has the wrong parity")
        return _record(checked_inertia(p, q, r, mu_plus_sigma // 2, 0))
    sigma_plus, _, nullity = brieskorn_count(p, q, r)
    link_b1 = 2 + p * q * r // math.lcm(p, q, r) - sum(gcds)
    if nullity != link_b1:
        raise ConsistencyError(
            f"nullity of ({p}, {q}, {r}) disagrees between count ({nullity}) and "
            f"Milnor-Orlik ({link_b1})"
        )
    return _record(checked_inertia(p, q, r, sigma_plus, nullity))


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
