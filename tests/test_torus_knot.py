import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import exotwist.torus_knot as torus_knot
from exotwist.errors import (
    ConsistencyError,
    DimensionLimitError,
    PreconditionError,
    UnsupportedInputError,
)
from exotwist.torus_knot import (
    DEFAULT_SEIFERT_DIM_LIMIT,
    BraidWord,
    knot_signature_count,
    knot_signature_glm,
    knot_signature_seifert,
    seifert_matrix,
    seifert_signatures,
    slice_genus,
    symmetric_signature,
    torus_braid,
)


class TestBraid:
    def test_torus_braid_words(self):
        assert torus_braid(2, 3).letters == (1, 1, 1)
        assert torus_braid(3, 2).letters == (1, 2, 1, 2)
        assert torus_braid(2, 3).strands == 2

    def test_braid_validation(self):
        with pytest.raises(PreconditionError):
            BraidWord(strands=1, letters=())
        with pytest.raises(PreconditionError):
            BraidWord(strands=3, letters=(1, 3))
        with pytest.raises(PreconditionError):
            torus_braid(1, 5)

    def test_component_count_is_gcd(self):
        for q in range(2, 7):
            for r in range(2, 9):
                assert torus_braid(q, r).components() == math.gcd(q, r)


class TestSeifertMatrix:
    def test_trefoil_pin(self):
        assert seifert_matrix(torus_braid(2, 3)).entries == [[-1, 1], [0, -1]]

    def test_t25_pin(self):
        assert seifert_matrix(torus_braid(2, 5)).entries == [
            [-1, 1, 0, 0],
            [0, -1, 1, 0],
            [0, 0, -1, 1],
            [0, 0, 0, -1],
        ]

    def test_dimension_is_twice_genus(self):
        for q, r in [(2, 3), (2, 7), (3, 4), (3, 5), (4, 5), (5, 6)]:
            m = seifert_matrix(torus_braid(q, r))
            assert m.n == (q - 1) * (r - 1) == 2 * slice_genus(q, r)

    def test_upper_triangular_with_minus_one_diagonal(self):
        m = seifert_matrix(torus_braid(4, 7)).entries
        for x, row in enumerate(m):
            assert row[x] == -1
            assert all(row[y] == 0 for y in range(x))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 9), st.integers(2, 30), st.integers(1, 12))
    def test_form_is_a_leading_block_of_a_longer_braid(self, q, r, extra):
        big_r = r + extra
        if math.gcd(q, r) != 1 or math.gcd(q, big_r) != 1:
            return
        small = seifert_matrix(torus_braid(q, r))
        big = seifert_matrix(torus_braid(q, big_r)).entries
        assert [row[:small.n] for row in big[:small.n]] == small.entries

    def test_links_rejected(self):
        with pytest.raises(UnsupportedInputError):
            seifert_matrix(torus_braid(2, 4))
        with pytest.raises(UnsupportedInputError):
            seifert_matrix(torus_braid(3, 6))


class TestSymmetricSignature:
    def test_diagonal(self):
        res = symmetric_signature([[2, 0, 0], [0, -5, 0], [0, 0, 0]])
        assert (res.positive_count, res.negative_count, res.nullity) == (1, 1, 1)
        assert res.signature == 0

    def test_hyperbolic_plane(self):
        res = symmetric_signature([[0, 1], [1, 0]])
        assert (res.positive_count, res.negative_count, res.nullity) == (1, 1, 0)

    def test_zero_matrix(self):
        assert symmetric_signature([[0] * 3 for _ in range(3)]).nullity == 3

    def test_zero_pivot_with_a_nonzero_mate_diagonal(self):
        res = symmetric_signature([[0, 1], [1, 5]])
        assert (res.positive_count, res.negative_count, res.nullity) == (1, 1, 0)

    def test_straddled_bound_reads_none(self):
        # the zero pivot 0 pairs with column 2, across the bounds 1 and 2
        rows = {0: {2: 1}, 1: {1: 1}, 2: {0: 1}}
        assert torus_knot._inertia(rows, {1, 3}) == {1: None, 3: (2, 1, 0)}

    def test_empty(self):
        res = symmetric_signature([])
        assert (res.signature, res.nullity) == (0, 0)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            symmetric_signature([[1, 2], [3, 4]])
        with pytest.raises(PreconditionError):
            symmetric_signature([[1, 2, 3], [2, 4, 5]])

    def test_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 7)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randint(-3, 3)
            base = symmetric_signature(a)
            assert base.positive_count + base.negative_count + base.nullity == n
            perm = list(range(n))
            rng.shuffle(perm)
            b = [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            assert symmetric_signature(b) == base

    def test_scaling_preserves_inertia(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(2, 6)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randint(-4, 4)
            doubled = [[4 * x for x in row] for row in a]
            assert symmetric_signature(doubled) == symmetric_signature(a)


@st.composite
def symmetric_matrices(draw):
    """Small symmetric integer matrices, often with a zero diagonal (which
    reaches the 2x2 step) or a repeated row and column (singular)."""
    n = draw(st.integers(0, 7))
    zero_diagonal = draw(st.booleans())
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                a[i][j] = a[j][i] = draw(st.integers(-3, 3))
    if n >= 2 and draw(st.booleans()):
        # column k repeats column 0, so e_0 - e_k lies in the kernel
        k = draw(st.integers(1, n - 1))
        for t in range(n):
            a[t][k] = a[k][t] = a[t][0]
    return a


# charpoly_inertia is a pure function, so sharing it across examples is safe
@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(symmetric_matrices())
def test_inertia_matches_characteristic_polynomial(charpoly_inertia, a):
    res = symmetric_signature(a)
    want = charpoly_inertia(a)
    assert (res.positive_count, res.negative_count, res.nullity) == want
    assert res.signature == want[0] - want[1]


def test_fractions_are_cleared_row_by_row():
    half = Fraction(1, 2)
    res = symmetric_signature([[half, 1], [1, Fraction(-1, 3)]])
    assert (res.positive_count, res.negative_count, res.nullity) == (1, 1, 0)
    with pytest.raises(PreconditionError):
        symmetric_signature([[0.5]])


class TestKnotSignature:
    @pytest.mark.parametrize(
        "q,r,want",
        [(2, 3, -2), (2, 5, -4), (2, 7, -6), (3, 4, -6), (3, 5, -8)],
    )
    def test_classical_values(self, q, r, want):
        assert knot_signature_seifert(q, r) == want
        assert knot_signature_count(q, r) == want

    def test_symmetric_in_q_r(self):
        assert knot_signature_seifert(5, 3) == knot_signature_seifert(3, 5)
        assert knot_signature_count(7, 2) == knot_signature_count(2, 7)

    def test_methods_agree_small_sweep(self):
        for q in range(2, 8):
            for r in range(q + 1, 14):
                if math.gcd(q, r) != 1 or (q - 1) * (r - 1) > 100:
                    continue
                assert knot_signature_seifert(q, r) == knot_signature_count(q, r)

    @pytest.mark.parametrize("q,r", [(25, 26), (21, 31), (3, 301), (2, 601)])
    def test_methods_agree_at_the_dimension_cap(self, q, r):
        # the largest forms the default cap admits, where entries grow most
        assert (q - 1) * (r - 1) == DEFAULT_SEIFERT_DIM_LIMIT
        assert knot_signature_seifert(q, r) == knot_signature_count(q, r)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 150), st.integers(2, 400))
    def test_glm_recursion_matches_count(self, q, r):
        if math.gcd(q, r) != 1:
            with pytest.raises(PreconditionError):
                knot_signature_glm(q, r)
            return
        assert knot_signature_glm(q, r) == knot_signature_count(q, r)
        assert knot_signature_glm(r, q) == knot_signature_glm(q, r)

    def test_glm_recursion_needs_no_count(self):
        # a form of dimension 10^9: far past any count or Seifert budget
        assert knot_signature_glm(10007, 99991) % 8 == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 3000), st.integers(1, 12))
    def test_glm_runs_match_count_for_close_pairs(self, q, d):
        # |q - r| small is where the reflection runs are longest
        r = q + d
        if math.gcd(q, r) != 1:
            return
        assert knot_signature_glm(q, r) == knot_signature_count(q, r)
        assert knot_signature_glm(r, q) == knot_signature_count(q, r)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 20000), st.integers(2, 20000))
    def test_glm_folds_match_the_step_by_step_recursion(self, q, r):
        if math.gcd(q, r) != 1:
            return
        # Thm 5.2 one step at a time, with no run folded
        a, b = max(q, r), min(q, r)
        sign, want = 1, 0
        while b > 1:
            c = b * b - b % 2
            if a > 2 * b:
                want -= sign * c
                a -= 2 * b
            else:
                want -= sign * (c - 2 * (b % 2 == 0))
                sign = -sign
                a = 2 * b - a
            a, b = max(a, b), min(a, b)
        assert knot_signature_glm(q, r) == want

    def test_glm_recursion_is_logarithmic(self):
        # one reflection run of 5*10^9 steps, summed in closed form
        q = 10**10 + 1
        assert knot_signature_glm(q, q + 2) == -50000000020000000000
        assert knot_signature_glm(q, q + 2) == knot_signature_glm(q + 2, q)

    def test_divisible_by_8_for_odd_pairs(self):
        for q in range(3, 16, 2):
            for r in range(q + 2, 16, 2):
                if math.gcd(q, r) == 1:
                    assert knot_signature_count(q, r) % 8 == 0

    def test_dimension_limit(self):
        with pytest.raises(DimensionLimitError):
            knot_signature_seifert(3, 5, dim_limit=4)
        with pytest.raises(DimensionLimitError):
            knot_signature_seifert(26, 401)

    def test_one_elimination_gives_every_signature(self):
        rng = random.Random(19)
        for q in range(2, 17):
            rs = [r for r in range(2, 242) if math.gcd(q, r) == 1 and (q - 1) * (r - 1) <= 240]
            asked = rs + rng.sample(rs, len(rs) // 3)
            rng.shuffle(asked)
            got = seifert_signatures(q, asked)
            assert list(got) == rs
            assert got == {r: knot_signature_seifert(q, r) for r in rs}
            assert got == {r: knot_signature_glm(q, r) for r in rs}

    def test_signatures_refuse_bad_r(self):
        with pytest.raises(PreconditionError):
            seifert_signatures(3, [4, 5, 6])
        with pytest.raises(DimensionLimitError, match=r"T\(3,8\)"):
            seifert_signatures(3, [4, 8, 5], dim_limit=13)
        assert seifert_signatures(3, [4, 5], dim_limit=8) == {4: -6, 5: -8}
        assert seifert_signatures(3, []) == {}

    @pytest.mark.parametrize("mark", [None, (3, 2, 1)])  # a straddled bound, a null row
    def test_singular_leading_block_is_a_defect(self, monkeypatch, mark):
        monkeypatch.setattr(torus_knot, "_inertia",
                            lambda rows, bounds: dict.fromkeys(bounds, mark))
        with pytest.raises(ConsistencyError, match=r"T\(3,4\)"):
            seifert_signatures(3, [4, 5])

    def test_rejects_non_coprime(self):
        with pytest.raises(PreconditionError):
            knot_signature_seifert(4, 6)
        with pytest.raises(PreconditionError):
            knot_signature_count(3, 9)


def test_slice_genus():
    assert slice_genus(2, 3) == 1
    assert slice_genus(3, 7) == 6
    with pytest.raises(PreconditionError):
        slice_genus(2, 4)
