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
the ledger run, for certify_direct and the scan's rows alike.

Each route's conditions on the triple live in one table (DIRECT_TABLE,
EMBEDDING_TABLE).  The certificate builders format its rows into
Conditions; route_holds evaluates the same predicates without formatting,
which is what a scan uses to skip NONE triples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .arith import Triple, quarter_genus_is_odd
from .errors import ConsistencyError, PreconditionError
from .ko_ring import LedgerReport, exoticness_ledger
from .milnor import MilnorInvariants, b_plus_via_lemma, invariants

__all__ = ["ROUTE_DIRECT", "ROUTE_EMBEDDING", "ROUTE_NONE", "Condition", "Certificate",
           "certify_direct", "certify_embedding", "certify", "route_holds", "direct_checks",
           "CSV_HEADER", "DIRECT_GATE", "DIRECT_TABLE", "DIRECT_B_PLUS", "DIRECT_LEDGER",
           "EMBEDDING_TABLE"]

ROUTE_DIRECT = "DIRECT"
ROUTE_EMBEDDING = "EMBEDDING"
ROUTE_NONE = "NONE"

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
        inv = self.invariants
        eigen = "" if self.eigenspace_dim is None else str(self.eigenspace_dim)
        failed = ";".join(c.name for c in self.failed_conditions())
        return (
            f"{self.triple.p},{self.triple.q},{self.triple.r},{self.route},"
            f"{inv.mu},{inv.sigma},{inv.sigma_plus},{inv.sigma_minus},"
            f"{inv.d3},{eigen},{failed}"
        )

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

# Direct-route conditions on the invariants, (name, expected).  By the
# consistency checks in direct_checks they hold exactly when the
# quarter-genus row does.
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

_PREDICATES = {
    ROUTE_DIRECT: tuple(row[3] for row in (DIRECT_GATE, *DIRECT_TABLE)),
    ROUTE_EMBEDDING: tuple(row[3] for row in EMBEDDING_TABLE),
}


def route_holds(route: str, p: int, q: int, r: int) -> bool:
    """Whether (p, q, r) meets every tabled condition of the route.

    Evaluates the predicates in table order and stops at the first that
    fails; nothing is formatted.  certify_direct and certify_embedding give
    their route exactly when this holds.
    """
    for holds in _PREDICATES[route]:
        if not holds(p, q, r):
            return False
    return True


def _condition(row: ConditionRow, p: int, q: int, r: int) -> Condition:
    name, expected, actual, holds = row
    return Condition(name, expected, actual(p, q, r), holds(p, q, r))


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


def certify_direct(q: int, r: int, *, _inv: MilnorInvariants | None = None) -> Certificate:
    """Certify the boundary twist of M_c(2,q,r) by the quarter-genus route.

    Invalid q, r produce failing conditions rather than exceptions (only
    non-integers or values below 2 are rejected outright).
    """
    for name, value in (("q", q), ("r", r)):
        if not isinstance(value, int) or value < 2:
            raise PreconditionError(f"{name} must be an integer >= 2, got {value!r}")
    *prereq_rows, parity_row = DIRECT_TABLE
    conditions = [_condition(row, 2, q, r) for row in prereq_rows]
    prereqs_ok = all(c.ok for c in conditions)
    inv = _inv if _inv is not None else invariants(2, q, r)
    eigenspace_dim: int | None = None
    notes = [NOTE_SPIN]
    if prereqs_ok:
        conditions.append(_condition(parity_row, 2, q, r))
        b_plus = inv.sigma_plus
        b_lemma, ledger = direct_checks(q, r, b_plus, conditions[-1].ok)
        conditions.append(
            Condition(
                *DIRECT_B_PLUS, f"b+ = {b_plus} (count) = {b_lemma} (genus route)",
                b_plus % 4 == 2,
            )
        )
        if ledger.failed_hypothesis is not None:
            actual = f"ledger hypothesis failed: {ledger.failed_hypothesis}"
        else:
            actual = (
                f"torsion {ledger.pulled_back.t} (pulled back) vs "
                f"{ledger.twisted.t} (re-framed)"
            )
        conditions.append(Condition(*DIRECT_LEDGER, actual, ledger.exotic))
        eigenspace_dim = b_plus
    else:
        unevaluated = "not evaluated (prerequisites failed)"
        for cname, expectation in (parity_row[:2], DIRECT_B_PLUS, DIRECT_LEDGER):
            conditions.append(Condition(cname, expectation, unevaluated, False))
    route = ROUTE_DIRECT if all(c.ok for c in conditions) else ROUTE_NONE
    if route == ROUTE_DIRECT:
        notes.append(NOTE_DIRECT_EIGENSPACE)
        notes.append(NOTE_PSI_UNIT)
        if min(q, r) == 3:
            notes.append(NOTE_Q3_PRIOR)
    return Certificate(
        triple=Triple(2, q, r),
        route=route,
        conditions=tuple(conditions),
        invariants=inv,
        eigenspace_dim=eigenspace_dim,
        notes=tuple(notes),
    )


def certify_embedding(
    p: int, q: int, r: int, *, _inv: MilnorInvariants | None = None
) -> Certificate:
    """Certify an exotic diffeomorphism of M_c(p,q,r) via an embedded
    M_c(2,3,7)."""
    triple = Triple(p, q, r)
    conditions = tuple(_condition(row, p, q, r) for row in EMBEDDING_TABLE)
    passed = all(c.ok for c in conditions)
    notes = [NOTE_SPIN]
    if passed:
        notes.append(NOTE_EMBEDDING)
        notes.append(NOTE_EMBEDDING_EIGENSPACE)
    return Certificate(
        triple=triple,
        route=ROUTE_EMBEDDING if passed else ROUTE_NONE,
        conditions=conditions,
        invariants=_inv if _inv is not None else invariants(p, q, r),
        eigenspace_dim=2 if passed else None,
        notes=tuple(notes),
    )


def certify(t: Triple, *, _inv: MilnorInvariants | None = None) -> Certificate:
    """Dispatch: try the direct route for p = 2, then the embedding route.

    NONE certificates enumerate the failed conditions of both routes.  The
    invariants come from milnor.invariants: by Dedekind sums, with no numpy,
    for a pairwise-coprime triple, and by the lattice count otherwise, which
    raises UnsupportedInputError past milnor's term limit.
    """
    if not isinstance(t, Triple):
        t = Triple(*t)
    inv = _inv if _inv is not None else invariants(t.p, t.q, t.r)
    gate = _condition(DIRECT_GATE, t.p, t.q, t.r)
    if gate.ok:
        direct = certify_direct(t.q, t.r, _inv=inv)
        if direct.route == ROUTE_DIRECT:
            return direct
        direct_conditions = direct.conditions
        direct_eigen = direct.eigenspace_dim
        direct_notes = direct.notes
    else:
        direct_conditions = (gate,)
        direct_eigen = None
        direct_notes = (NOTE_SPIN,)
    embedded = certify_embedding(t.p, t.q, t.r, _inv=inv)
    seen: set[str] = set()
    notes = tuple(
        note
        for note in (*direct_notes, *embedded.notes)
        if not (note in seen or seen.add(note))
    )
    return Certificate(
        triple=t,
        route=embedded.route,
        conditions=(*direct_conditions, *embedded.conditions),
        invariants=inv,
        eigenspace_dim=embedded.eigenspace_dim
        if embedded.route == ROUTE_EMBEDDING
        else direct_eigen,
        notes=notes,
    )
