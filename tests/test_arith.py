import math

import pytest

from exotwist.arith import Triple, is_pairwise_coprime, quarter_genus_is_odd
from exotwist.errors import PreconditionError


class TestTriple:
    def test_fields_and_key(self):
        t = Triple(7, 2, 5)
        assert (t.p, t.q, t.r) == (7, 2, 5)

    @pytest.mark.parametrize("bad", [(1, 3, 5), (2, 3, 0), (2, -3, 5)])
    def test_rejects_exponents_below_2(self, bad):
        with pytest.raises(PreconditionError):
            Triple(*bad)

    @pytest.mark.parametrize("bad", [(2.0, 3, 5), (2, "3", 5), (2, 3, True)])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(PreconditionError):
            Triple(*bad)

    def test_frozen(self):
        t = Triple(2, 3, 7)
        with pytest.raises(AttributeError):
            t.p = 3


class TestPairwiseCoprime:
    @pytest.mark.parametrize(
        "t,want",
        [
            ((2, 3, 7), True),
            ((3, 4, 5), True),
            ((2, 4, 7), False),
            ((3, 5, 9), False),
            ((6, 10, 15), False),
        ],
    )
    def test_cases(self, t, want):
        assert is_pairwise_coprime(Triple(*t)) is want


class TestQuarterGenusParity:
    @pytest.mark.parametrize(
        "q,r,want",
        [(3, 7, True), (3, 11, True), (7, 11, True), (3, 5, False), (5, 7, False)],
    )
    def test_values(self, q, r, want):
        assert quarter_genus_is_odd(q, r) is want

    def test_symmetric(self):
        for q, r in [(3, 7), (3, 11), (5, 7)]:
            assert quarter_genus_is_odd(q, r) == quarter_genus_is_odd(r, q)

    @pytest.mark.parametrize("q,r", [(2, 7), (3, 6), (3, 9), (1, 7), (3, 3)])
    def test_rejects_bad_inputs(self, q, r):
        with pytest.raises(PreconditionError):
            quarter_genus_is_odd(q, r)

    def test_quarter_genus_is_integer_for_odd_pairs(self):
        # (q-1)(r-1) is divisible by 4 whenever q, r are both odd, so the
        # parity question is well posed on the whole domain; the quarter
        # genus is odd exactly when q = r = 3 (mod 4)
        for q in range(3, 30, 2):
            for r in range(3, 30, 2):
                assert (q - 1) * (r - 1) % 4 == 0
                odd = (q - 1) * (r - 1) // 4 % 2 == 1
                assert odd == (q % 4 == r % 4 == 3), (q, r)
                if math.gcd(q, r) == 1:
                    assert quarter_genus_is_odd(q, r) == odd, (q, r)
