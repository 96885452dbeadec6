"""Certification of exotic boundary Dehn twists on M_c(p,q,r).

Two routes are evaluated.  The DIRECT route applies to p = 2 with q, r odd
and coprime: the twist on M_c(2,q,r) is certified exotic when the quarter
genus (q-1)(r-1)/4 is odd, equivalently when b+ = 2 (mod 4), and the parity
ledger confirms the framing flip.  The EMBEDDING route applies to pairwise
coprime 2 <= p < q < r with r >= 7: M_c(2,3,7) embeds in M_c(p,q,r) by
exponent monotonicity, and the extension of its boundary twist is an exotic
diffeomorphism of the larger fiber.  A certificate records every condition
checked, the fiber invariants, and the eigenspace dimension fed to the
ledger.

The b+ = 2 (mod 4) condition is computed three ways (lattice count, genus
plus half signature, quarter-genus parity); any disagreement raises
ConsistencyError because it would falsify the arithmetic chain the
certificates rest on.  The "(count)" b+ is milnor.invariants': for the
pairwise-coprime triples this route admits, Mordell's closed-form count of
the lattice points by Dedekind sums (a scan's rows read the batched count
instead); the "(genus route)" b+ is g + sigma/2 with sigma from the
Gordon-Litherland-Murasugi recursion.  direct_checks holds these checks and
the ledger run.

Each route's conditions live in one table (DIRECT_TABLE, EMBEDDING_TABLE),
and one path decides every certificate and every scan row.  route_of
evaluates the tables' predicates, formatting nothing, to the route a triple
gets in a mode of MODES (theorem1: direct only, theorem2: embedding only,
all: direct, then embedding).  verdict checks the triple against that
route and runs direct_checks wherever the direct prerequisites hold.
certificate formats a verdict; certify, certify_direct and
certify_embedding are its three modes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .arith import Triple, quarter_genus_is_odd
from .errors import ConsistencyError
from .ko_ring import LedgerReport, exoticness_ledger
from .milnor import MilnorInvariants, b_plus_via_lemma, invariants

__all__ = ["ROUTE_DIRECT", "ROUTE_EMBEDDING", "ROUTE_NONE", "MODES", "Condition", "Certificate",
           "certify_direct", "certify_embedding", "certify", "certificate", "route_of",
           "verdict", "direct_checks", "csv_fields", "CSV_HEADER", "CSV_ROW", "DIRECT_GATE",
           "DIRECT_TABLE", "DIRECT_B_PLUS", "DIRECT_LEDGER", "EMBEDDING_TABLE"]

ROUTE_DIRECT = "DIRECT"
ROUTE_EMBEDDING = "EMBEDDING"
ROUTE_NONE = "NONE"

MODES = ("theorem1", "theorem2", "all")

NOTE_SPIN = (
    "M_c(p,q,r) is spin, and its canonical spin-c structure is the spin one "
    "(the canonical bundle of the fiber is trivial)."
)
NOTE_Q3_PRIOR = (
    "For q = 3 the quarter-genus route reproduces cases, including (2,3,7) and "
    "(2,3,11), already known to be exotic by earlier methods."
)
NOTE_DIRECT_EIGENSPACE = (
    "The boundary twist acts as -1 on all of H+, so the -1-eigenspace "
    "dimension equals b+."
)
NOTE_EMBEDDING = (
    "EMBEDDING certifies the extension of the boundary twist of an embedded "
    "M_c(2,3,7), which is an exotic diffeomorphism of M_c(p,q,r); it does not "
    "certify the boundary twist of M_c(p,q,r) itself."
)
NOTE_EMBEDDING_EIGENSPACE = (
    "The -1-eigenspace is H+ of the embedded M_c(2,3,7), of dimension 2, "
    "split off the ambient H+ by Mayer-Vietoris."
)
NOTE_PSI_UNIT = (
    "The ledger takes the rank component of the family invariant to be a unit, "
    "recording the contact-geometric hypothesis satisfied by Milnor fibers."
)

CSV_HEADER = "p,q,r,route,mu,sigma,b_plus,b_minus,d3,eigenspace_dim,conditions_failed"
# A CSV row is CSV_ROW % csv_fields(...).
CSV_ROW = ",".join(["%s"] * len(CSV_HEADER.split(",")))


def csv_fields(p: int, q: int, r: int, route: str, mu: int, sigma: int, b_plus: int,
               b_minus: int, d3: str | Fraction, eigen: int | None, failed: str) -> tuple:
    """A row's values in the order of CSV_HEADER's columns, eigen None as
    a blank; certificates and scan rows are laid out from this tuple."""
    return (p, q, r, route, mu, sigma, b_plus, b_minus, d3, "" if eigen is None else eigen,
            failed)


@dataclass(frozen=True)
class Condition:
    name: str
    expected: str
    actual: str
    ok: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.ok,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Condition":
        return cls(name=d["name"], expected=d["expected"], actual=d["actual"], ok=d["pass"])


@dataclass(frozen=True)
class Certificate:
    triple: Triple
    route: str
    conditions: tuple[Condition, ...]
    invariants: MilnorInvariants
    eigenspace_dim: int | None
    notes: tuple[str, ...] = field(default_factory=tuple)

    def failed_conditions(self) -> list[Condition]:
        return [c for c in self.conditions if not c.ok]

    def to_dict(self) -> dict:
        inv = self.invariants
        return {
            "triple": {"p": self.triple.p, "q": self.triple.q, "r": self.triple.r},
            "route": self.route,
            "conditions": [c.to_dict() for c in self.conditions],
            "invariants": {
                "mu": inv.mu,
                "sigma_plus": inv.sigma_plus,
                "sigma_minus": inv.sigma_minus,
                "nullity": inv.nullity,
                "sigma": inv.sigma,
                "d3": str(inv.d3),
            },
            "eigenspace_dim": self.eigenspace_dim,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        inv = d["invariants"]
        return cls(
            triple=Triple(d["triple"]["p"], d["triple"]["q"], d["triple"]["r"]),
            route=d["route"],
            conditions=tuple(Condition.from_dict(c) for c in d["conditions"]),
            invariants=MilnorInvariants(
                mu=inv["mu"],
                sigma_plus=inv["sigma_plus"],
                sigma_minus=inv["sigma_minus"],
                nullity=inv["nullity"],
                sigma=inv["sigma"],
                d3=Fraction(inv["d3"]),
            ),
            eigenspace_dim=d["eigenspace_dim"],
            notes=tuple(d["notes"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(", ", ": "))

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls.from_dict(json.loads(text))

    def to_csv_row(self) -> str:
        t, inv = self.triple, self.invariants
        failed = ";".join(c.name for c in self.failed_conditions())
        return CSV_ROW % csv_fields(t.p, t.q, t.r, self.route, inv.mu, inv.sigma, inv.sigma_plus,
                                    inv.sigma_minus, inv.d3, self.eigenspace_dim, failed)

    def to_text(self) -> str:
        inv = self.invariants
        lines = [
            f"triple        ({self.triple.p}, {self.triple.q}, {self.triple.r})",
            f"route         {self.route}",
            f"mu            {inv.mu}",
            f"signature     {inv.sigma}   (b+ = {inv.sigma_plus}, b- = {inv.sigma_minus}, "
            f"nullity = {inv.nullity})",
            f"d3            {inv.d3}",
            f"eigenspace    {'-' if self.eigenspace_dim is None else self.eigenspace_dim}",
            "conditions:",
        ]
        for c in self.conditions:
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"  [{mark:4}] {c.name}: expected {c.expected}; {c.actual}")
        if self.notes:
            lines.append("notes:")
            lines.extend(f"  - {note}" for note in self.notes)
        return "\n".join(lines)


# A condition on the triple: (name, expected, actual, holds), where actual
# formats the observed value and holds decides it, both from (p, q, r).
ConditionRow = tuple[str, str, Callable[[int, int, int], str], Callable[[int, int, int], bool]]

# Gate of the direct route; listed on a certificate only when it fails.
DIRECT_GATE: ConditionRow = (
    "direct.p_is_2", "p = 2", lambda p, q, r: f"p = {p}", lambda p, q, r: p == 2,
)

# The last row is defined only once the rows above it hold.
DIRECT_TABLE: tuple[ConditionRow, ...] = (
    ("direct.q_odd", "q odd", lambda p, q, r: f"q = {q}", lambda p, q, r: q % 2 == 1),
    ("direct.r_odd", "r odd", lambda p, q, r: f"r = {r}", lambda p, q, r: r % 2 == 1),
    ("direct.q_at_least_3", "q >= 3", lambda p, q, r: f"q = {q}", lambda p, q, r: q >= 3),
    ("direct.r_at_least_3", "r >= 3", lambda p, q, r: f"r = {r}", lambda p, q, r: r >= 3),
    (
        "direct.coprime", "gcd(q, r) = 1",
        lambda p, q, r: f"gcd({q}, {r}) = {math.gcd(q, r)}",
        lambda p, q, r: math.gcd(q, r) == 1,
    ),
    (
        "direct.quarter_genus_odd", "(q-1)(r-1)/4 odd",
        lambda p, q, r: f"(q-1)(r-1)/4 = {(q - 1) * (r - 1) // 4}",
        lambda p, q, r: quarter_genus_is_odd(q, r),
    ),
)

# Direct-route conditions on the invariants, (name, expected).  Both follow
# from the quarter-genus row, which for odd q, r holds exactly when
# q = r = 3 (mod 4): Sigma(2,q,r) is a homology sphere and the form is even,
# so sigma = 0 (mod 8) by Rokhlin's theorem and b+ = g + sigma/2 = g (mod 4),
# where g = (q-1)(r-1)/2 is 2 (mod 4) exactly when the quarter genus is odd;
# the ledger flips exactly when b+ = 2 (mod 4).  direct_checks raises
# ConsistencyError when the count's b+ breaks this chain.
DIRECT_B_PLUS = ("direct.b_plus_2_mod_4", "b+ = 2 (mod 4), two independent routes")
DIRECT_LEDGER = ("direct.ledger_flip", "framing change flips the torsion coordinate")

EMBEDDING_TABLE: tuple[ConditionRow, ...] = (
    (
        "embedding.pairwise_coprime", "gcd(p,q) = gcd(q,r) = gcd(p,r) = 1",
        lambda p, q, r: (
            f"gcd(p,q) = {math.gcd(p, q)}, gcd(q,r) = {math.gcd(q, r)}, "
            f"gcd(p,r) = {math.gcd(p, r)}"
        ),
        lambda p, q, r: math.gcd(p, q) == math.gcd(q, r) == math.gcd(p, r) == 1,
    ),
    (
        "embedding.strictly_ordered", "2 <= p < q < r",
        lambda p, q, r: f"(p, q, r) = ({p}, {q}, {r})", lambda p, q, r: 2 <= p < q < r,
    ),
    ("embedding.r_at_least_7", "r >= 7", lambda p, q, r: f"r = {r}", lambda p, q, r: r >= 7),
)

_DIRECT_HOLDS = tuple(row[3] for row in (DIRECT_GATE, *DIRECT_TABLE))
_EMBEDDING_HOLDS = tuple(row[3] for row in EMBEDDING_TABLE)
_DIRECT_PREREQS, _DIRECT_PARITY = DIRECT_TABLE[:-1], DIRECT_TABLE[-1]

# Checked (row, ok) pairs the route alone settles.  ok None marks a
# condition left unevaluated because a direct prerequisite failed.
_DIRECT_PASSED = tuple((row, True) for row in (*DIRECT_TABLE, DIRECT_B_PLUS, DIRECT_LEDGER))
_DIRECT_UNEVALUATED = ((_DIRECT_PARITY, None), (DIRECT_B_PLUS, None), (DIRECT_LEDGER, None))
_GATE_FAILED = ((DIRECT_GATE, False),)
_EMBEDDING_PASSED = tuple((row, True) for row in EMBEDDING_TABLE)


def _failed_names(checked) -> str:
    return ";".join([row[0] for row, ok in checked if not ok])


# The whole verdict of an EMBEDDING triple that the direct route does not
# apply to (p != 2, or mode theorem2), by mode: most rows of a large scan.
_EMBEDDING_VERDICT = {
    mode: (checked, _failed_names(checked), 2, None)
    for mode, checked in (("theorem2", _EMBEDDING_PASSED),
                          ("all", _GATE_FAILED + _EMBEDDING_PASSED))
}


def route_of(p: int, q: int, r: int, mode: str) -> str:
    """The route (p, q, r) gets in mode, one of MODES: the first route the
    mode tries whose tabled conditions all hold, else NONE.

    Evaluates the tables' predicates in order and stops at the first that
    fails; nothing is formatted and no invariant is needed.

    >>> route_of(2, 3, 7, "all"), route_of(2, 3, 7, "theorem2"), route_of(3, 4, 5, "all")
    ('DIRECT', 'EMBEDDING', 'NONE')
    """
    if mode != "theorem2":
        for holds in _DIRECT_HOLDS:
            if not holds(p, q, r):
                break
        else:
            return ROUTE_DIRECT
    if mode != "theorem1":
        for holds in _EMBEDDING_HOLDS:
            if not holds(p, q, r):
                break
        else:
            return ROUTE_EMBEDDING
    return ROUTE_NONE


def direct_checks(q: int, r: int, b_plus: int, parity: bool) -> tuple[int, LedgerReport]:
    """The direct route's checks on the count's b+ of M_c(2,q,r), for q, r
    that meet DIRECT_TABLE's prerequisite rows, and parity its last row.

    Raises ConsistencyError unless b_plus = g + sigma/2 by the genus route
    and parity holds exactly when b_plus = 2 (mod 4).  Returns the genus
    route's b+ and the ledger run on b_plus.
    """
    b_lemma = b_plus_via_lemma(q, r)
    if b_plus != b_lemma:
        raise ConsistencyError(
            f"b+ of M_c(2,{q},{r}) disagrees between count ({b_plus}) and "
            f"genus route ({b_lemma})"
        )
    if (b_plus % 4 == 2) != parity:
        raise ConsistencyError(
            f"quarter-genus parity ({parity}) disagrees with b+ mod 4 "
            f"({b_plus} mod 4 = {b_plus % 4}) for (2,{q},{r})"
        )
    return b_lemma, exoticness_ledger(b_plus, psi0_is_unit=True)


def verdict(p: int, q: int, r: int, b_plus: int, mode: str, route: str) -> tuple:
    """The conditions of (p, q, r) in mode, checked against
    route = route_of(p, q, r, mode), with b_plus the count's b+.

    Returns (checked, failed, eigenspace_dim, ledger): the (row, ok) pairs
    in certificate order (row a table row, DIRECT_B_PLUS or DIRECT_LEDGER;
    ok None where a failed prerequisite left the row unevaluated), the
    failed names joined as in a CSV row, the eigenspace dimension or None,
    and the ledger report or None.  The rows of route pass as they stand.
    Raises ConsistencyError where direct_checks does, and when route is
    DIRECT but the ledger does not flip.

    >>> verdict(3, 4, 7, 6, "all", "EMBEDDING")[1:]
    ('direct.p_is_2', 2, None)
    >>> verdict(2, 3, 5, 0, "theorem1", "NONE")[1]
    'direct.quarter_genus_odd;direct.b_plus_2_mod_4;direct.ledger_flip'
    """
    if route == ROUTE_EMBEDDING and (p != 2 or mode == "theorem2"):
        return _EMBEDDING_VERDICT[mode]
    if route == ROUTE_DIRECT:
        _, ledger = direct_checks(q, r, b_plus, True)
        if not ledger.exotic:
            raise ConsistencyError(
                f"route precheck says DIRECT for (2,{q},{r}), but at b+ = {b_plus} "
                f"the ledger does not flip"
            )
        return _DIRECT_PASSED, "", b_plus, ledger
    checked, eigen, ledger = (), None, None
    if mode != "theorem2" and p != 2:
        checked = _GATE_FAILED
    elif mode != "theorem2":
        checked = tuple([(row, row[3](2, q, r)) for row in _DIRECT_PREREQS])
        if all(ok for _, ok in checked):
            parity = _DIRECT_PARITY[3](2, q, r)
            _, ledger = direct_checks(q, r, b_plus, parity)
            checked += ((_DIRECT_PARITY, parity), (DIRECT_B_PLUS, b_plus % 4 == 2),
                        (DIRECT_LEDGER, ledger.exotic))
            eigen = b_plus
        else:
            checked += _DIRECT_UNEVALUATED
    if route == ROUTE_EMBEDDING:
        checked += _EMBEDDING_PASSED
        eigen = 2
    elif mode != "theorem1":
        checked += tuple([(row, row[3](p, q, r)) for row in EMBEDDING_TABLE])
    return checked, _failed_names(checked), eigen, ledger


_NOTES = {
    ROUTE_DIRECT: (NOTE_SPIN, NOTE_DIRECT_EIGENSPACE, NOTE_PSI_UNIT),
    ROUTE_EMBEDDING: (NOTE_SPIN, NOTE_EMBEDDING, NOTE_EMBEDDING_EIGENSPACE),
    ROUTE_NONE: (NOTE_SPIN,),
}


def certificate(t: Triple, inv: MilnorInvariants, mode: str) -> Certificate:
    """The certificate of t in mode, one of MODES, with invariants inv,
    formatted from its verdict."""
    p, q, r = t.p, t.q, t.r
    route = route_of(p, q, r, mode)
    b_plus = inv.sigma_plus
    checked, _, eigen, ledger = verdict(p, q, r, b_plus, mode, route)
    conditions = []
    for row, ok in checked:
        if ok is None:
            actual = "not evaluated (prerequisites failed)"
        elif row is DIRECT_B_PLUS:
            # direct_checks raised unless the genus route gave the same b+
            actual = f"b+ = {b_plus} (count) = {b_plus} (genus route)"
        elif row is DIRECT_LEDGER and ledger.failed_hypothesis is not None:
            actual = f"ledger hypothesis failed: {ledger.failed_hypothesis}"
        elif row is DIRECT_LEDGER:
            actual = (f"torsion {ledger.pulled_back.t} (pulled back) vs "
                      f"{ledger.twisted.t} (re-framed)")
        else:
            actual = row[2](p, q, r)
        conditions.append(Condition(row[0], row[1], actual, bool(ok)))
    notes = _NOTES[route]
    if route == ROUTE_DIRECT and min(q, r) == 3:
        notes += (NOTE_Q3_PRIOR,)
    return Certificate(t, route, tuple(conditions), inv, eigen, notes)


def certify_direct(q: int, r: int) -> Certificate:
    """Certify the boundary twist of M_c(2,q,r) by the quarter-genus route.

    Invalid q, r produce failing conditions rather than exceptions (only
    non-integers or values below 2 are rejected outright, by Triple).
    """
    return certificate(Triple(2, q, r), invariants(2, q, r), "theorem1")


def certify_embedding(p: int, q: int, r: int) -> Certificate:
    """Certify an exotic diffeomorphism of M_c(p,q,r) via an embedded
    M_c(2,3,7)."""
    return certificate(Triple(p, q, r), invariants(p, q, r), "theorem2")


def certify(t: Triple) -> Certificate:
    """Dispatch: try the direct route for p = 2, then the embedding route.

    NONE certificates enumerate the failed conditions of both routes.  The
    invariants come from milnor.invariants: by Dedekind sums, with no numpy,
    for a pairwise-coprime triple, and by the lattice count otherwise, which
    raises UnsupportedInputError past milnor's term limit.
    """
    if not isinstance(t, Triple):
        t = Triple(*t)
    return certificate(t, invariants(t.p, t.q, t.r), "all")
