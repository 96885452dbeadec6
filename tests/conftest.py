"""Shared oracles: the lattice count and the inertia of a symmetric matrix,
each done the slow, obviously-correct way."""

from fractions import Fraction

import pytest


def _brute_count(p: int, q: int, r: int) -> tuple[int, int, int]:
    """(sigma_plus, sigma_minus, nullity) by direct rational enumeration.

    Walks every lattice point (i,j,k) and classifies s = i/p + j/q + k/r
    by its residue mod 2, with no floor tricks and no floats.  Small cubes
    only; exists to check the fast counters, not to be fast.
    """
    plus = minus = null = 0
    for i in range(1, p):
        for j in range(1, q):
            for k in range(1, r):
                s = Fraction(i, p) + Fraction(j, q) + Fraction(k, r)
                if s.denominator == 1:
                    null += 1
                elif s % 2 < 1:
                    plus += 1
                else:
                    minus += 1
    return plus, minus, null


@pytest.fixture
def brute_count():
    return _brute_count


def _charpoly_inertia(m: list[list[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Faddeev-LeVerrier gives the exact characteristic polynomial in Fraction
    arithmetic.  A symmetric matrix has only real eigenvalues, so Descartes'
    rule of signs counts its positive roots exactly, and the same rule on
    p(-x) its negative roots; the zero roots are the vanishing low-order
    coefficients.  Shares no step with an elimination.
    """
    n = len(m)
    coeffs = [Fraction(1)]  # c_n, c_{n-1}, ..., c_0 of det(xI - m)
    prod = [[Fraction(0)] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        # M_k = m @ M_{k-1} + c_{n-k+1} I;  c_{n-k} = -tr(m @ M_k) / k
        prod = [
            [
                sum(m[i][t] * prod[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        trace = sum(m[i][t] * prod[t][i] for i in range(n) for t in range(n))
        coeffs.append(-trace / k)
    zero = 0
    while zero < n and coeffs[n - zero] == 0:
        zero += 1

    def sign_changes(values) -> int:
        signs = [v > 0 for v in values if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # coeffs[k] multiplies x^(n-k), so p(-x) flips it when n - k is odd
    positive = sign_changes(coeffs)
    negative = sign_changes(c if (n - k) % 2 == 0 else -c for k, c in enumerate(coeffs))
    return positive, negative, zero


@pytest.fixture
def charpoly_inertia():
    return _charpoly_inertia
