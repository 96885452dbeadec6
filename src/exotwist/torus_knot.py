"""Torus knot T(q,r): slice genus and signature by three independent routes.

Route one builds the fiber surface of the positive braid (s1 s2 ... s_{q-1})^r
by Seifert's algorithm and takes the signature of the symmetrized Seifert
form V + V^T.  Route two reads the same number off the Brieskorn lattice count
of the double branched cover M(2,q,r).  Route three is the recursion of
Gordon, Litherland and Murasugi (Canad. J. Math. 33, 1981, Thm 5.2), with
its runs of repeated steps summed in closed form, so that it takes
O(log max(q, r)) steps.  They must agree; the library treats any
disagreement as a defect, not as data.

The signature of V + V^T is read off its inertia, computed by symmetric
elimination in integers alone (fraction-free, after Bareiss 1968).  Splitting
off a pivot p of a symmetric S leaves In(S) = In(p) + In(S/p), with S/p the
Schur complement.  Each row of the shrinking complement is a sparse
{column: value} dict known only up to its own positive factor.  That factor
never matters: a pivot's sign, the zero pattern and the ratios within a row
are those of the true complement, and they are all the elimination reads.
Pivoting on row i turns each row k that meets it into
sign(p)*(p*row_k - row_k[i]*row_i), a positive multiple of row k of S/p,
then divides it by its content gcd so the entries stay small.  Pivots go
strictly in order: a zero pivot i pairs with its nearest column m as the
block [[0, b], [b, d]], whose determinant -b^2 < 0 makes one positive and
one negative square (Bunch-Kaufman 1977).  A row that vanishes is a kernel
vector and counts toward the nullity.

So the counts after the first k rows are the inertia of the leading k x k
block, unless a 2x2 block straddles k.  The bricks of (s1 ... s_{q-1})^r,
ordered by top position, are the first (q-1)(r-1) bricks of the same braid
to any power R > r, and a linking number depends only on its two bricks, so
V(q,r) is the leading block of V(q,R): one elimination for the largest r
gives sigma(T(q,r)) for every smaller r.  A knot's block is nonsingular (its
determinant is odd), so no 2x2 block straddles its bound: if one did, the
block's Schur complement would have a zero row.  V + V^T has bandwidth q - 1,
and pivots taken in order keep the fill inside the band: about n*(q-1)^2
integer operations for dimension n = (q-1)(R-1).

Sign convention: positive (right-handed) torus knots have negative signature,
so the trefoil T(2,3) has signature -2.  The convention is locked by the
pinned Seifert matrix [[-1, 1], [0, -1]] of the trefoil.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import gcd as _gcd
from math import lcm as _lcm

from .errors import (
    ConsistencyError,
    DimensionLimitError,
    PreconditionError,
    UnsupportedInputError,
)
from .milnor import brieskorn_count

__all__ = ["BraidWord", "SeifertMatrix", "SignatureResult", "slice_genus", "torus_braid",
           "seifert_matrix", "symmetric_signature", "seifert_signatures", "knot_signature_seifert",
           "knot_signature_count", "knot_signature_glm", "DEFAULT_SEIFERT_DIM_LIMIT"]

# Default cap on the symmetrized-form dimension n = 2g = (q-1)(r-1) of the
# largest r; its one banded elimination, about n*w^2 integer operations for
# bandwidth w = q-1, serves every smaller r.  The count serves beyond the cap.
DEFAULT_SEIFERT_DIM_LIMIT = 600


@dataclass(frozen=True)
class BraidWord:
    """A positive braid word; letters are generator indices in [1, strands-1]."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise PreconditionError(f"braid needs at least 2 strands, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for x in self.letters:
            if not isinstance(x, int) or not 1 <= x <= self.strands - 1:
                raise PreconditionError(
                    f"letter {x!r} outside generator range [1, {self.strands - 1}]"
                )

    def components(self) -> int:
        """Number of components of the braid closure (cycles of the permutation)."""
        perm = list(range(self.strands))
        for x in self.letters:
            perm[x - 1], perm[x] = perm[x], perm[x - 1]
        seen = [False] * self.strands
        cycles = 0
        for start in range(self.strands):
            if not seen[start]:
                cycles += 1
                pos = start
                while not seen[pos]:
                    seen[pos] = True
                    pos = perm[pos]
        return cycles


@dataclass(frozen=True)
class SeifertMatrix:
    n: int
    entries: list[list[int]]


@dataclass(frozen=True)
class SignatureResult:
    signature: int
    nullity: int
    positive_count: int
    negative_count: int


def _require_coprime(q: int, r: int) -> None:
    for name, value in (("q", q), ("r", r)):
        if not isinstance(value, int) or value < 2:
            raise PreconditionError(f"{name} must be an integer >= 2, got {value!r}")
    if _gcd(q, r) != 1:
        raise PreconditionError(f"q, r must be coprime, got gcd({q}, {r}) = {_gcd(q, r)}")


def slice_genus(q: int, r: int) -> int:
    """Slice genus (q-1)(r-1)/2 of the torus knot T(q,r).

    >>> slice_genus(3, 7)
    6
    >>> slice_genus(2, 3)
    1
    """
    _require_coprime(q, r)
    return (q - 1) * (r - 1) // 2


def torus_braid(q: int, r: int) -> BraidWord:
    """The q-strand braid (s1 s2 ... s_{q-1})^r, whose closure is T(q,r).

    >>> torus_braid(2, 3).letters
    (1, 1, 1)
    >>> torus_braid(3, 2).letters
    (1, 2, 1, 2)
    """
    for name, value in (("q", q), ("r", r)):
        if not isinstance(value, int) or value < 2:
            raise PreconditionError(f"{name} must be an integer >= 2, got {value!r}")
    return BraidWord(strands=q, letters=tuple(j for _ in range(r) for j in range(1, q)))


def seifert_matrix(b: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the surface Seifert's algorithm builds from a
    positive braid closure.

    The surface has one disc per strand and one positively half-twisted band
    per letter.  A homology basis is given by "bricks": for each column j
    (the gap between strands j and j+1), each pair of bands at consecutive
    letter positions t0 < t1 bounds a loop through those two bands.  Linking
    numbers of pushed-off loops follow the standard combinatorics of the
    brick diagram.  With bricks ordered by top position, the matrix is upper
    triangular with -1 diagonal:

      - a brick links the brick stacked directly below it in its own column
        (they share a band) with +1;
      - bricks in adjacent columns link iff their letter intervals strictly
        interleave; the sign is +1 when the later brick sits one column to
        the right, -1 when it sits one column to the left.

    >>> seifert_matrix(torus_braid(2, 3)).entries
    [[-1, 1], [0, -1]]
    """
    rows = _seifert_rows(b)
    n = len(rows)
    entries = [[0] * n for _ in range(n)]
    for x, row in enumerate(rows):
        for y, value in row.items():
            entries[x][y] = value
    return SeifertMatrix(n=n, entries=entries)


def _seifert_rows(b: BraidWord) -> list[dict[int, int]]:
    """The nonzero entries of seifert_matrix(b), row by row."""
    if b.components() != 1:
        raise UnsupportedInputError(
            f"braid closure has {b.components()} components; only knots are supported"
        )
    occurrences: dict[int, list[int]] = {}
    for pos, letter in enumerate(b.letters):
        occurrences.setdefault(letter, []).append(pos)
    # brick = (column, top position, bottom position)
    bricks = [
        (col, t0, t1)
        for col, occ in occurrences.items()
        for t0, t1 in zip(occ, occ[1:])
    ]
    bricks.sort(key=lambda brick: brick[1])  # tops are distinct letter positions
    if len(bricks) != len(b.letters) - b.strands + 1:
        raise ConsistencyError("brick count disagrees with the surface Betti number")
    index_by_col: dict[int, tuple[list[int], list[int]]] = {}
    for idx, (col, t0, _) in enumerate(bricks):
        tops, idxs = index_by_col.setdefault(col, ([], []))
        tops.append(t0)
        idxs.append(idx)
    # per-column brick lists are already sorted by top (bricks was sorted)
    rows = []
    for x, (col, t0, t1) in enumerate(bricks):
        row = {x: -1}
        tops, idxs = index_by_col[col]
        pos = bisect_left(tops, t1)
        if pos < len(tops) and tops[pos] == t1:
            row[idxs[pos]] = 1  # shares the band at t1
        for neighbor, sign in ((col + 1, 1), (col - 1, -1)):
            if neighbor not in index_by_col:
                continue
            ntops, nidxs = index_by_col[neighbor]
            lo = bisect_right(ntops, t0)
            hi = bisect_left(ntops, t1)
            for k in range(lo, hi):  # u0 strictly inside (t0, t1)
                y = nidxs[k]
                if bricks[y][2] > t1:  # u1 beyond t1: strict interleaving
                    row[y] = sign
        rows.append(row)
    return rows


def _combine(scale: int, row: dict[int, int], terms) -> dict[int, int]:
    """scale*row - sum(f*other for f, other in terms) without zero entries,
    divided by its content gcd.  Reuses row."""
    out = {t: scale * v for t, v in row.items()} if scale != 1 else row
    for f, other in terms:
        for t, v in other.items():
            x = out.get(t, 0) - f * v
            if x:
                out[t] = x
            else:
                out.pop(t, None)
    g = _gcd(*out.values())
    return out if g == 1 else {t: v // g for t, v in out.items()}


def _inertia(rows: dict[int, dict[int, int]], bounds) -> dict[int, tuple | None]:
    """(positive, negative, null) counts of the leading k x k block of the
    symmetric form whose row i is rows[i], a dict of its nonzero entries
    keyed by column, for each k in bounds; None where a 2x2 pivot straddles k.

    Rows are keyed 0..n-1 and may carry their own positive factors; see the
    module docstring for the steps.  The dict is consumed.
    """
    n = len(rows)
    pos = neg = null = 0
    marks: dict[int, tuple | None] = {}
    for i in range(n + 1):
        if i in bounds:  # rows before i are eliminated; a row past it is a mate
            marks[i] = (pos, neg, null) if len(rows) == n - i else None
        row = rows.pop(i, None)
        if row is None:  # past the last row, or taken as a mate
            continue
        if not row:
            null += 1  # the row vanishes: a kernel vector
        elif i in row:
            p = row.pop(i)
            if p > 0:
                pos, sign = pos + 1, 1
            else:
                neg, sign = neg + 1, -1
            for k in row:
                row_k = rows[k]
                rows[k] = _combine(sign * p, row_k, ((sign * row_k.pop(i), row),))
        else:
            # the 2x2 block [[0, b], [b, d]] on i and its nearest column m
            m = min(row)
            row_m = rows.pop(m)
            b_i, b_m, d = row.pop(m), row_m.pop(i), row_m.pop(m, 0)
            pos += 1
            neg += 1
            for k in row.keys() | row_m.keys():
                row_k = rows[k]
                f_i, f_m = row_k.pop(i, 0), row_k.pop(m, 0)
                rows[k] = _combine(
                    b_i * b_m, row_k, ((f_m * b_m - f_i * d, row), (f_i * b_i, row_m))
                )
    return marks


def symmetric_signature(m) -> SignatureResult:
    """Exact inertia of a symmetric matrix of integers or fractions.

    Each row is cleared of denominators (a positive row factor) and handed
    to the integer elimination described in the module docstring.  No
    floating point anywhere.

    >>> symmetric_signature([[1, 0], [0, -1]])
    SignatureResult(signature=0, nullity=0, positive_count=1, negative_count=1)
    >>> symmetric_signature([[0, 1], [1, 0]]).nullity
    0

    The zero pivot pairs with its nearest column as a hyperbolic 2x2 block,
    and what remains of the third row vanishes:

    >>> symmetric_signature([[0, 1, 0], [1, 0, 2], [0, 2, 0]])
    SignatureResult(signature=0, nullity=1, positive_count=1, negative_count=1)
    """
    n = len(m)
    for row in m:
        if len(row) != n:
            raise PreconditionError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise PreconditionError(f"matrix is not symmetric at ({i}, {j})")
    rows = {}
    for i, row in enumerate(m):
        try:
            den = _lcm(*(x.denominator for x in row))
        except AttributeError:
            raise PreconditionError("matrix entries must be integers or fractions") from None
        rows[i] = {j: int(x * den) for j, x in enumerate(row) if x}
    pos, neg, null = _inertia(rows, {n})[n]
    return SignatureResult(
        signature=pos - neg, nullity=null, positive_count=pos, negative_count=neg
    )


def seifert_signatures(q: int, rs, *, dim_limit: int = DEFAULT_SEIFERT_DIM_LIMIT) -> dict[int, int]:
    """{r: signature of T(q,r)} for the r in rs, from one elimination of
    V + V^T for the largest r: each smaller form is a leading block of it.

    Capped by dim_limit on (q-1)(r-1) for the largest r; use
    knot_signature_count beyond it.

    >>> seifert_signatures(3, [7, 4, 5, 7])
    {4: -6, 5: -8, 7: -8}
    """
    rs = sorted(set(rs))
    for r in rs:
        _require_coprime(q, r)
    if not rs:
        return {}
    dim = (q - 1) * (rs[-1] - 1)
    if dim > dim_limit:
        raise DimensionLimitError(
            f"symmetrized Seifert form of T({q},{rs[-1]}) has dimension {dim} > limit {dim_limit}"
        )
    v = _seifert_rows(torus_braid(q, rs[-1]))
    sym: dict[int, dict[int, int]] = {x: {} for x in range(len(v))}
    for x, row in enumerate(v):
        for y, value in row.items():
            sym[x][y] = sym[x].get(y, 0) + value
            sym[y][x] = sym[y].get(x, 0) + value
    for x, row in sym.items():
        sym[x] = {y: value for y, value in row.items() if value}
    marks = _inertia(sym, {(q - 1) * (r - 1) for r in rs})
    out = {}
    for r in rs:
        mark = marks[(q - 1) * (r - 1)]
        if mark is None or mark[2]:
            raise ConsistencyError(f"symmetrized Seifert form of T({q},{r}) is singular")
        out[r] = mark[0] - mark[1]
    return out


def knot_signature_seifert(q: int, r: int, *, dim_limit: int = DEFAULT_SEIFERT_DIM_LIMIT) -> int:
    """Signature of T(q,r) as the signature of V + V^T from the braid surface.

    Capped by dim_limit on (q-1)(r-1); use knot_signature_count beyond it.

    >>> knot_signature_seifert(2, 3)
    -2
    >>> knot_signature_seifert(3, 5)
    -8
    """
    return seifert_signatures(q, [r], dim_limit=dim_limit)[r]


def knot_signature_count(q: int, r: int) -> int:
    """Signature of T(q,r) via the double branched cover M(2,q,r): the
    lattice count of the fiber of x^2 + y^q + z^r.

    >>> knot_signature_count(2, 3)
    -2
    >>> knot_signature_count(3, 7)
    -8
    """
    _require_coprime(q, r)
    sigma_plus, sigma_minus, _ = brieskorn_count(2, q, r)
    return sigma_plus - sigma_minus


def knot_signature_glm(q: int, r: int) -> int:
    """Signature of T(q,r) by the Gordon-Litherland-Murasugi recursion, with
    no lattice count and no Seifert matrix.  For coprime a > b > 1 and
    c(b) = b^2 - (b odd): sigma(a, b) = sigma(a - 2b, b) - c(b) when a > 2b,
    and -sigma(2b - a, b) - c(b) + 2(b even) when a < 2b; sigma is symmetric
    and 0 once an argument is 1.

    The first rule runs a // 2b times in one divmod step.  The second maps
    (b + d, b) to (b, b - d) and repeats while d < b, so a run of it keeps
    the difference d; its terms alternate in sign and, in each parity class
    of the step index, are a quadratic in that index, so _reflection_run
    sums the whole run at once.  With both rules folded the recursion takes
    O(log max(q, r)) steps, as Euclid's algorithm on (a, d) does.

    >>> knot_signature_glm(2, 3), knot_signature_glm(3, 4), knot_signature_glm(7, 3)
    (-2, -6, -8)
    >>> knot_signature_glm(10**10 + 1, 10**10 + 3)
    -50000000020000000000
    """
    _require_coprime(q, r)
    a, b = max(q, r), min(q, r)
    sign, sigma = 1, 0
    while b > 1:
        k, a = divmod(a, 2 * b)
        sigma -= sign * k * (b * b - b % 2)
        if a > b:
            d = a - b
            n = (b - 1) // d  # reflections while the difference stays below b
            sigma -= sign * _reflection_run(b, d, n)
            if n % 2:
                sign = -sign
            b -= n * d
            a = b + d
        else:
            a, b = b, a
    return sigma


def _reflection_run(b: int, d: int, n: int) -> int:
    """sum over 0 <= j < n of (-1)^j (c(b_j) - 2(b_j even)), b_j = b - j*d,
    the second rule's terms over a run of n reflections."""

    def squares(x: int, m: int) -> int:
        # sum over 0 <= i < m of (x - 2di)^2 - (1 if x odd else 2)
        e = 1 if x % 2 else 2
        cross = 2 * x * d * m * (m - 1)
        return m * (x * x - e) - cross + 4 * d * d * (m - 1) * m * (2 * m - 1) // 6

    return squares(b, (n + 1) // 2) - squares(b - d, n // 2)
