import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import exotwist.milnor as milnor
from exotwist.errors import ConsistencyError, PreconditionError, UnsupportedInputError
from exotwist.milnor import (
    b_plus_via_lemma,
    brieskorn_count,
    dedekind_sigma,
    from_counts,
    invariants,
    milnor_number,
    resolution_sigma,
)
from exotwist.torus_knot import knot_signature_glm


def _pairwise_coprime(p, q, r):
    return math.gcd(p, q) == math.gcd(q, r) == math.gcd(p, r) == 1


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
    pairs = [(a, b) for a in range(2, 12) for b in range(a, 12)]

    def batched():
        # every c of a pair in one call, as a scan does it
        return [
            milnor.offsets_count(a, b, list(range(b, 40)), milnor.positive_offsets(a, b))
            for a, b in pairs
        ]

    int64, int64_batched = [brieskorn_count(*c) for c in cases], batched()
    monkeypatch.setattr(milnor, "_INT64_GUARD", 1)
    exact, exact_batched = [brieskorn_count(*c) for c in cases], batched()
    assert milnor.positive_offsets(3, 4).dtype == object
    assert exact == int64
    assert exact_batched == int64_batched


def test_batched_count_matches_single_counts(monkeypatch):
    # blocks of a few products each, so one call spans many blocks
    monkeypatch.setattr(milnor, "_BLOCK", 7)
    cs = [2, 3, 5, 6, 7, 12, 13, 30, 31, 97, 10**20 + 1]
    for a, b in [(2, 3), (3, 4), (4, 6), (5, 7), (6, 9)]:
        b_plus, nullity = milnor.offsets_count(a, b, cs, milnor.positive_offsets(a, b))
        for c, bp, nl in zip(cs, b_plus, nullity):
            sigma_plus, _, null = brieskorn_count(a, b, c)
            assert (bp, nl) == (sigma_plus, null), (a, b, c)


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


def test_d3_text_matches_the_fraction():
    for sigma in range(-41, 42):
        for sigma_plus in range(0, 12):
            want = Fraction(-sigma, 4) - sigma_plus - Fraction(1, 2)
            assert milnor._d3(sigma, sigma_plus) == want
            assert milnor.d3_text(sigma, sigma_plus) == str(want)


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


def test_shifted_count_is_caught_by_the_genus_route(monkeypatch):
    # invariants() reads the Dedekind-sum count of a pairwise-coprime triple;
    # sigma + 8 shifts (b+, b-) by (4, -4)
    real = milnor.dedekind_sigma
    monkeypatch.setattr(milnor, "dedekind_sigma", lambda p, q, r: real(p, q, r) + 8)
    # the genus route no longer reads the count, so it keeps the true b+
    assert b_plus_via_lemma(7, 11) == 10
    assert invariants(2, 7, 11).sigma_plus == 14


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


def test_dedekind_sigma_matches_count_on_the_grid():
    checked = 0
    for p in range(2, 14):
        for q in range(2, 30):
            for r in range(2, 45):
                if not _pairwise_coprime(p, q, r):
                    with pytest.raises(PreconditionError):
                        dedekind_sigma(p, q, r)
                    continue
                sigma_plus, sigma_minus, nullity = brieskorn_count(p, q, r)
                assert nullity == 0
                assert dedekind_sigma(p, q, r) == sigma_plus - sigma_minus, (p, q, r)
                checked += 1
    assert checked == 4067


# About a third of the drawn triples are pairwise coprime, and Hypothesis
# draws repeated small values often, so its filtering health check fired on
# some seeds; the check is about generation speed, not about the assertion.
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.tuples(st.integers(2, 80), st.integers(2, 300), st.integers(2, 2000)))
def test_dedekind_sigma_matches_count_unsorted(triple):
    assume(_pairwise_coprime(*triple))
    sigma_plus, sigma_minus, _ = brieskorn_count(*triple)
    for perm in set(permutations(triple)):
        assert dedekind_sigma(*perm) == sigma_plus - sigma_minus


@st.composite
def _coprime_triples(draw, small: bool):
    """Pairwise-coprime triples, made so by dividing out shared factors."""
    bounds = (60, 200, 1000) if small else (2**20, 2**40, 2**80)
    triple = [draw(st.integers(2, bound)) for bound in bounds]
    for i, j in ((0, 1), (1, 2), (0, 2)):
        while (g := math.gcd(triple[i], triple[j])) > 1:
            triple[j] //= g
        assume(triple[j] >= 2)
    return tuple(triple)


@settings(max_examples=200, deadline=None)
@given(_coprime_triples(small=False))
def test_resolution_sigma_matches_dedekind_sigma(triple):
    sigma = dedekind_sigma(*triple)
    for perm in permutations(triple):
        assert resolution_sigma(*perm) == sigma


@settings(max_examples=100, deadline=None)
@given(_coprime_triples(small=True))
def test_resolution_sigma_matches_count(triple):
    sigma_plus, sigma_minus, _ = brieskorn_count(*triple)
    for perm in permutations(triple):
        assert resolution_sigma(*perm) == sigma_plus - sigma_minus


def test_scan_memos_match_the_library():
    milnor.clear_memos()
    for p in range(2, 12):
        for q in range(p + 1, 30):
            for r in range(q + 1, 60):
                if _pairwise_coprime(p, q, r):
                    sigma = dedekind_sigma(p, q, r)
                    assert milnor.memoised_dedekind_sigma(p, q, r) == sigma, (p, q, r)
                    assert resolution_sigma(p, q, r) == sigma, (p, q, r)
    for memo in (milnor._memo_u, milnor._memo_leg):
        assert 0 < memo.cache_info().currsize <= milnor._MEMO_ENTRIES
    milnor.clear_memos()
    assert milnor._memo_u.cache_info().currsize == milnor._memo_leg.cache_info().currsize == 0


def test_invariants_validate_the_exponents_once(monkeypatch):
    calls = []
    real = milnor._validate_exponents
    monkeypatch.setattr(milnor, "_validate_exponents", lambda *e: calls.append(e) or real(*e))
    for triple in [(2, 3, 7), (4, 6, 8), (3, 3, 3), (7, 2, 3)]:
        calls.clear()
        invariants(*triple)
        assert calls == [triple]
    for bad in [(1, 3, 7), (2, 3.0, 7), (0, 4, 6), (2, "3", 7)]:
        for fn in (invariants, brieskorn_count, milnor_number):
            with pytest.raises(PreconditionError, match="exponent"):
                fn(*bad)
        with pytest.raises(PreconditionError, match="exponent"):
            from_counts(*bad, 0, 0)
    with pytest.raises(PreconditionError, match="exponent"):
        dedekind_sigma(1, 3, 7)


def test_coprime_invariants_need_no_count(monkeypatch):
    def refuse(p, q, r):
        raise AssertionError("a pairwise-coprime triple was counted")

    monkeypatch.setattr(milnor, "brieskorn_count", refuse)
    assert invariants(3, 4, 7).sigma == -24
    q, r = 10**10 + 1, 10**10 + 3
    inv = invariants(2, q, r)
    # the genus route's GLM recursion is an independent second route
    assert inv.sigma == knot_signature_glm(q, r) == -50000000020000000000
    assert inv.sigma_plus == b_plus_via_lemma(q, r)
    assert (inv.nullity, inv.mu) == (0, (q - 1) * (r - 1))
    with pytest.raises(AssertionError, match="counted"):
        invariants(4, 6, 8)


def test_nullity_matches_milnor_orlik():
    for p in range(2, 10):
        for q in range(2, 13):
            for r in range(2, 17):
                link_b1 = (2 + p * q * r // math.lcm(p, q, r)
                           - math.gcd(p, q) - math.gcd(q, r) - math.gcd(p, r))
                assert brieskorn_count(p, q, r)[2] == link_b1, (p, q, r)
                assert invariants(p, q, r).nullity == link_b1


def test_shifted_nullity_is_caught(monkeypatch):
    real = milnor.brieskorn_count
    monkeypatch.setattr(
        milnor, "brieskorn_count",
        lambda p, q, r: tuple(x + d for x, d in zip(real(p, q, r), (0, -2, 2))),
    )
    with pytest.raises(ConsistencyError, match="Milnor-Orlik"):
        invariants(4, 6, 8)


def test_count_past_the_term_limit_is_refused(monkeypatch):
    monkeypatch.setattr(milnor, "_MAX_TERMS", 6)
    assert milnor.positive_offsets(3, 4).tolist() == [5, 2, 1]  # (3-1)(4-1) = 6 terms
    with pytest.raises(UnsupportedInputError, match="7 terms"):
        milnor.positive_offsets(2, 8)
    with pytest.raises(UnsupportedInputError):
        brieskorn_count(5, 3, 100)


def test_huge_count_is_refused_before_allocating():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedInputError, match="9999999999 terms"):
            invariants(2, 10**10, 10**10 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
