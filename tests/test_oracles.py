"""The brute-force references against their definitions."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from exactla.field import GF2, GF3, QQ, PrimeField
from exactla.matrix import Matrix
from exactla.oracles import cofactor_det, gauss_kernel, gauss_rank, gauss_solve
from exactla.poly import Polynomial
from exactla.ratfunc import RationalFunctionField

QX = RationalFunctionField(QQ)


def _leibniz(A):
    """det(A) = sum over permutations s of sign(s) prod_i a[i][s(i)]."""
    F, n = A.field, A.n
    total = F.zero()
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = F.one()
        for i, j in enumerate(perm):
            term = F.mul(term, A.rows[i][j])
        total = F.add(total, F.neg(term) if inversions % 2 else term)
    return total


def _entry(rng, field, n):
    if field is not QX:
        return field.from_int(rng.randint(-4, 4))
    num = Polynomial(QQ, [Fraction(rng.randint(-3, 3)) for _ in range(2)])
    if n > 4 or rng.randrange(3):  # a + bX, and up to 4x4 sometimes over c + dX
        return QX.from_poly(num)
    return QX.make(num, Polynomial(QQ, [Fraction(rng.randint(1, 3)), Fraction(rng.randint(-3, 3))]))


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(1000003), QX],
                         ids=["Q", "GF7", "GF1000003", "Q(X)"])
def test_cofactor_det_is_the_leibniz_sum(field):
    rng = random.Random(6)
    for n in range(1, 7):
        for trial in range(3):
            rows = [[_entry(rng, field, n) for _ in range(n)] for _ in range(n)]
            if trial == 2 and n > 1:
                rows[-1] = list(rows[0])  # a repeated row: det 0
            A = Matrix(field, rows)
            assert field.eq(cofactor_det(A), _leibniz(A)), (n, trial)


def _minor_rank(A):
    """The order of the largest nonzero minor of A, by cofactor_det."""
    return max((k for k in range(1, min(A.m, A.n) + 1)
                for rows in combinations(A.rows, k) for cols in combinations(range(A.n), k)
                if not A.field.is_zero(cofactor_det(Matrix(A.field, [[r[c] for c in cols]
                                                                     for r in rows])))),
               default=0)


def _gauss_cases():
    """Every 2x3 and 3x2 matrix over GF2, and 200 of each shape over GF3."""
    for m, n in ((2, 3), (3, 2)):
        for bits in product((0, 1), repeat=m * n):
            yield Matrix.from_ints(GF2, [bits[i * n:(i + 1) * n] for i in range(m)])
    rng = random.Random(7)
    for m, n in ((2, 3), (3, 2)) * 200:
        yield Matrix.from_ints(GF3, [[rng.randrange(3) for _ in range(n)] for _ in range(m)])


def test_gauss_rank_and_kernel_against_minors():
    for A in _gauss_cases():
        F, r = A.field, gauss_rank(A)
        assert r == _minor_rank(A), A
        basis = gauss_kernel(A)
        assert len(basis) == A.n - r
        for v in basis:
            assert all(F.is_zero(F.sum(F.mul(a, x) for a, x in zip(row, v))) for row in A.rows)
        if basis:  # independent: some minor of full order is nonzero
            assert _minor_rank(Matrix(F, basis)) == len(basis), A


def test_gauss_solve_against_exhaustive_search():
    for A in _gauss_cases():
        if A.field is not GF2:
            continue
        images = {}
        for x in product((0, 1), repeat=A.n):
            b = tuple(sum(a * v for a, v in zip(row, x)) % 2 for row in A.rows)
            images.setdefault(b, x)
        for b in product((0, 1), repeat=A.m):
            x = gauss_solve(A, list(b))
            assert (x is None) == (b not in images), (A, b)
            if x is not None:
                assert tuple(sum(a * v for a, v in zip(row, x)) % 2 for row in A.rows) == b
