"""The brute-force references against their definitions."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from exactla.field import QQ, PrimeField
from exactla.matrix import Matrix
from exactla.oracles import cofactor_det
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
