import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import exotwist.milnor as milnor
from exotwist.errors import ConsistencyError, PreconditionError
from exotwist.milnor import (
    b_plus_via_lemma,
    brieskorn_count,
    from_counts,
    invariants,
    milnor_number,
)


def test_milnor_number_values():
    assert milnor_number(2, 3, 7) == 12
    assert milnor_number(2, 3, 5) == 8
    assert milnor_number(3, 4, 5) == 24


def test_count_matches_brute_force_everywhere(brute_count):
    for p in range(2, 9):
        for q in range(p, 9):
            for r in range(q, 9):
                assert brieskorn_count(p, q, r) == brute_count(p, q, r), (p, q, r)


def test_count_symmetric_under_permutation(brute_count):
    for base in [(2, 3, 7), (3, 4, 5), (2, 4, 6), (4, 6, 9)]:
        want = brute_count(*base)
        for perm in permutations(base):
            assert brieskorn_count(*perm) == want


# brute_count is a pure function, so sharing it across examples is safe
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.tuples(*[st.integers(2, 9)] * 3))
def test_count_matches_brute_force_under_every_permutation(brute_count, triple):
    want = brute_count(*triple)
    for perm in permutations(triple):
        assert brieskorn_count(*perm) == want


def test_int64_and_object_dtype_agree(monkeypatch):
    cases = [(p, q, r) for p in range(2, 12) for q in range(p, 12) for r in range(q, 12)]
    int64 = [brieskorn_count(*c) for c in cases]
    monkeypatch.setattr(milnor, "_INT64_GUARD", 1)
    exact = [brieskorn_count(*c) for c in cases]
    assert milnor.positive_offsets(3, 4).dtype == object
    assert exact == int64


def test_huge_exponent_takes_the_exact_path():
    # c*ab far beyond int64; the value is that of the former slab counter
    want = (1333333333333333333333333333338, 4666666666666666666666666666698, 0)
    assert brieskorn_count(3, 4, 10**30 + 7) == want
    assert brieskorn_count(10**30 + 7, 4, 3) == want


def test_coprime_triples_have_no_null_directions():
    for p, q, r in [(2, 3, 7), (2, 5, 9), (3, 4, 5), (4, 9, 11), (5, 7, 9)]:
        assert brieskorn_count(p, q, r)[2] == 0


def test_non_coprime_triples_can_be_degenerate():
    # x^2 + y^2 + z^2 is still nondegenerate; x^3 + y^3 + z^3 is not
    assert brieskorn_count(2, 2, 2) == (0, 1, 0)
    assert brieskorn_count(2, 2, 3) == (0, 2, 0)
    assert brieskorn_count(3, 3, 3)[2] == 2


def test_invariants_pins():
    inv = invariants(2, 3, 7)
    assert (inv.mu, inv.sigma_plus, inv.sigma_minus, inv.nullity) == (12, 2, 10, 0)
    assert inv.sigma == -8
    assert inv.d3 == Fraction(-1, 2)

    inv = invariants(2, 3, 5)
    assert (inv.mu, inv.sigma, inv.sigma_plus) == (8, -8, 0)
    assert inv.d3 == Fraction(3, 2)


def test_invariants_rejects_bad_exponents():
    with pytest.raises(PreconditionError):
        invariants(1, 3, 5)


def test_from_counts_rejects_impossible_counts():
    with pytest.raises(ConsistencyError):
        from_counts(2, 3, 7, 100, 0)
    with pytest.raises(ConsistencyError):
        from_counts(2, 3, 7, -2, 0)


def test_d3_is_exact_rational():
    # mu even or odd, the formula always lands on a half-integer
    for p, q, r in [(2, 3, 7), (2, 3, 5), (3, 4, 5), (2, 5, 7)]:
        d3 = invariants(p, q, r).d3
        assert d3.denominator in (1, 2, 4)


def test_b_plus_via_lemma_pins():
    assert b_plus_via_lemma(3, 7) == 2
    assert b_plus_via_lemma(3, 5) == 0
    assert b_plus_via_lemma(3, 11) == 2
    assert b_plus_via_lemma(7, 11) == 10


def test_b_plus_via_lemma_matches_count():
    for q in range(3, 24, 2):
        for r in range(q + 2, 24, 2):
            if math.gcd(q, r) != 1:
                continue
            assert b_plus_via_lemma(q, r) == invariants(2, q, r).sigma_plus


@pytest.mark.parametrize("q,r", [(2, 7), (4, 7), (3, 6), (1, 5), (3, 9)])
def test_b_plus_via_lemma_rejects_bad_inputs(q, r):
    with pytest.raises(PreconditionError):
        b_plus_via_lemma(q, r)


def test_large_triple_stays_exact():
    inv = invariants(197, 199, 200)
    assert inv.mu == 196 * 198 * 199
    assert inv.sigma_plus + inv.sigma_minus + inv.nullity == inv.mu
    assert (inv.sigma_plus, inv.sigma_minus) == (2554728, 5168064)
