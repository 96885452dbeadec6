import json
import math

import pytest

from exotwist.arith import Triple, quarter_genus_is_odd
from exotwist.certify import (
    ROUTE_DIRECT,
    ROUTE_EMBEDDING,
    ROUTE_NONE,
    Certificate,
    certify,
    certify_direct,
    certify_embedding,
)
from exotwist.errors import PreconditionError
from exotwist.milnor import invariants


@pytest.mark.parametrize(
    "triple,route",
    [
        ((2, 3, 7), ROUTE_DIRECT),
        ((2, 3, 11), ROUTE_DIRECT),
        ((2, 7, 11), ROUTE_DIRECT),
        ((2, 5, 7), ROUTE_EMBEDDING),
        ((3, 4, 7), ROUTE_EMBEDDING),
        ((3, 4, 5), ROUTE_NONE),
        ((2, 4, 7), ROUTE_NONE),
        ((2, 3, 5), ROUTE_NONE),
    ],
)
def test_dispatch_routes(triple, route):
    assert certify(Triple(*triple)).route == route


def test_direct_certificate_contents():
    cert = certify(Triple(2, 3, 7))
    assert cert.invariants == invariants(2, 3, 7)
    assert cert.eigenspace_dim == cert.invariants.sigma_plus == 2
    assert [c.name for c in cert.conditions] == [
        "direct.q_odd",
        "direct.r_odd",
        "direct.q_at_least_3",
        "direct.r_at_least_3",
        "direct.coprime",
        "direct.quarter_genus_odd",
        "direct.b_plus_2_mod_4",
        "direct.ledger_flip",
    ]
    assert all(c.ok for c in cert.conditions)


def test_direct_parity_failure_is_the_reason():
    # (3,5) passes every hypothesis except the quarter-genus parity
    cert = certify_direct(3, 5)
    assert cert.route == ROUTE_NONE
    failed = {c.name for c in cert.failed_conditions()}
    assert "direct.quarter_genus_odd" in failed
    assert "direct.coprime" not in failed
    assert "direct.q_odd" not in failed


def test_direct_prerequisite_failure_marks_dependents_unevaluated():
    cert = certify_direct(4, 7)
    assert cert.route == ROUTE_NONE
    by_name = {c.name: c for c in cert.conditions}
    assert not by_name["direct.q_odd"].ok
    assert "not evaluated" in by_name["direct.quarter_genus_odd"].actual
    assert cert.eigenspace_dim is None


def test_direct_rejects_sub_domain_inputs():
    with pytest.raises(PreconditionError):
        certify_direct(1, 7)
    with pytest.raises(PreconditionError):
        certify_direct(3, "7")


def test_embedding_certificate_contents():
    cert = certify_embedding(3, 5, 7)
    assert cert.route == ROUTE_EMBEDDING
    assert cert.eigenspace_dim == 2
    assert {c.name for c in cert.conditions} == {
        "embedding.pairwise_coprime",
        "embedding.strictly_ordered",
        "embedding.r_at_least_7",
    }
    assert any("M_c(2,3,7)" in note for note in cert.notes)


def test_embedding_route_for_2_3_7():
    # the embedding route also covers its own seed fiber
    assert certify_embedding(2, 3, 7).route == ROUTE_EMBEDDING


def test_embedding_failures_enumerated():
    cert = certify_embedding(2, 4, 7)
    assert cert.route == ROUTE_NONE
    assert {c.name for c in cert.failed_conditions()} == {"embedding.pairwise_coprime"}

    cert = certify_embedding(3, 4, 5)
    assert {c.name for c in cert.failed_conditions()} == {"embedding.r_at_least_7"}

    cert = certify_embedding(5, 4, 7)
    assert "embedding.strictly_ordered" in {c.name for c in cert.failed_conditions()}


def test_none_fails_both_routes():
    for triple in [(3, 4, 5), (2, 4, 7), (4, 6, 9), (2, 3, 5)]:
        cert = certify(Triple(*triple))
        assert cert.route == ROUTE_NONE
        failed = {c.name for c in cert.failed_conditions()}
        assert any(name.startswith("direct.") for name in failed)
        assert any(name.startswith("embedding.") for name in failed)


def test_direct_wins_over_embedding_for_p2():
    # (2,3,7) satisfies both routes; the certificate is the direct one
    cert = certify(Triple(2, 3, 7))
    assert cert.route == ROUTE_DIRECT
    assert all(c.name.startswith("direct.") for c in cert.conditions)


def test_p2_embedding_certificate_merges_both_routes():
    cert = certify(Triple(2, 5, 7))
    assert cert.route == ROUTE_EMBEDDING
    names = [c.name for c in cert.conditions]
    assert any(n.startswith("direct.") for n in names)
    assert any(n.startswith("embedding.") for n in names)
    assert cert.eigenspace_dim == 2


def test_direct_implies_b_plus_2_mod_4():
    for q in range(3, 30, 2):
        for r in range(q + 2, 30, 2):
            if math.gcd(q, r) != 1:
                continue
            cert = certify_direct(q, r)
            b_plus = cert.invariants.sigma_plus
            assert (cert.route == ROUTE_DIRECT) == (b_plus % 4 == 2)
            assert (cert.route == ROUTE_DIRECT) == quarter_genus_is_odd(q, r)
            if cert.route == ROUTE_DIRECT:
                assert cert.eigenspace_dim == b_plus


def test_round_trip_json():
    for triple in [(2, 3, 7), (2, 5, 7), (3, 4, 5), (2, 4, 9)]:
        cert = certify(Triple(*triple))
        assert Certificate.from_json(cert.to_json()) == cert
        # the wire format keeps exact rationals as strings
        payload = json.loads(cert.to_json())
        assert isinstance(payload["invariants"]["d3"], str)
        assert payload["conditions"][0].keys() == {"name", "expected", "actual", "pass"}


def test_csv_row_pin():
    assert certify(Triple(2, 3, 7)).to_csv_row() == (
        "2,3,7,DIRECT,12,-8,2,10,-1/2,2,"
    )
    row = certify(Triple(3, 4, 5)).to_csv_row()
    assert row.startswith("3,4,5,NONE,24,-16,4,20,-1/2,,")
    assert "direct.p_is_2" in row
    assert certify(Triple(3, 4, 7)).to_csv_row() == (
        "3,4,7,EMBEDDING,36,-24,6,30,-1/2,2,direct.p_is_2"
    )
    assert certify(Triple(2, 5, 7)).to_csv_row() == (
        "2,5,7,EMBEDDING,24,-16,4,20,-1/2,2,"
        "direct.quarter_genus_odd;direct.b_plus_2_mod_4;direct.ledger_flip"
    )


def test_text_rendering_mentions_route_and_conditions():
    text = certify(Triple(2, 3, 11)).to_text()
    assert "DIRECT" in text
    assert "direct.quarter_genus_odd" in text
    assert "notes:" in text


def test_certify_accepts_plain_tuples():
    assert certify((2, 3, 7)).route == ROUTE_DIRECT
