from fractions import Fraction

import numpy as np
import pytest

from exactla import oracles
from exactla.charpoly import (CharPoly, adjugate, berkowitz_col, charpoly, det,
                              inverse, quasi_inverse, trailing_charpolys)
from exactla.errors import DimensionMismatch, NonSquare, SingularMatrix
from exactla.field import GF2, GF3, QQ, PrimeField
from exactla.matrix import Matrix
from exactla.poly import Polynomial, PolynomialRing, subst
from exactla.ratfunc import RationalFunctionField
from exactla.rng import SplitMix64


def M(rows):
    return Matrix.from_ints(QQ, rows)


def _rand(rng, field, n):
    if field is QQ:
        return Matrix(QQ, [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                           for _ in range(n)])
    return Matrix(field, [[rng.below(field.p) for _ in range(n)]
                          for _ in range(n)])


def test_column_matrix_corner_cases():
    C = berkowitz_col(1, M([[5]]))
    assert C.col_vec(1) == [Fraction(1), Fraction(-5)]
    C = berkowitz_col(2, M([[1, 2], [3, 4]]))
    assert C.col_vec(1) == [Fraction(1), Fraction(-4)]


def test_column_matrix_2x2_toeplitz():
    C = berkowitz_col(1, M([[1, 2], [3, 4]]))
    assert (C.m, C.n) == (3, 2)
    assert C.col_vec(1) == [Fraction(1), Fraction(-1), Fraction(-6)]
    # lower-triangular Toeplitz: second column is the first shifted down
    assert C.col_vec(2) == [Fraction(0), Fraction(1), Fraction(-1)]


def test_charpoly_small():
    assert charpoly(M([[7]])).coeffs == (Fraction(1), Fraction(-7))
    ch = charpoly(M([[1, 2], [3, 4]]))
    assert ch.coeffs == (Fraction(1), Fraction(-5), Fraction(-2))  # Y^2-(a+d)Y+det
    assert charpoly(Matrix.zeros(QQ, 3, 3)).coeffs == (Fraction(1),) + (Fraction(0),) * 3


def test_trailing_charpolys_are_the_block_charpolys():
    rng = SplitMix64(41)
    RX = PolynomialRing(QQ)
    for field in (QQ, GF3, RX):
        for n in range(1, 6):
            if field is RX:
                A = Matrix(RX, [[Polynomial(QQ, [Fraction(rng.randint(-2, 2))
                                                 for _ in range(2)])
                                 for _ in range(n)] for _ in range(n)])
            else:
                A = _rand(rng, field, n)
            steps = list(trailing_charpolys(A))
            assert len(steps) == n
            for k, ch in zip(range(n, 0, -1), steps):  # block A[k:n, k:n], 1-based
                block = charpoly(A.submatrix(range(k, n + 1), range(k, n + 1)))
                assert ch.n == block.n == n - k + 1
                assert all(field.eq(u, v) for u, v in zip(ch.coeffs, block.coeffs))


def test_charpoly_length_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        CharPoly(QQ, [Fraction(1), Fraction(0)], 2)


def test_det_examples():
    assert det(Matrix.identity(QQ, 4)) == 1
    assert det(M([[1, 2], [3, 4]])) == -2
    assert det(M([[-6]])) == -6
    with pytest.raises(NonSquare):
        det(Matrix.zeros(QQ, 2, 3))


def test_det_against_cofactor_oracle():
    rng = SplitMix64(17)
    for field in (QQ, GF2, GF3):
        for _ in range(80):
            A = _rand(rng, field, rng.randint(1, 4))
            assert field.eq(det(A), oracles.cofactor_det(A))


def _generic_charpoly(A):
    """The last value of trailing_charpolys: the one Berkowitz loop, which
    charpoly bypasses over GF(p)."""
    for ch in trailing_charpolys(A):
        pass
    return ch


def _assert_scalar_kernel_matches_generic(A):
    ch, want = charpoly(A), _generic_charpoly(A)
    assert ch.n == want.n == A.n
    assert ch.coeffs == want.coeffs
    assert all(type(c) is int for c in ch.coeffs)


def test_gfp_charpoly_equals_the_generic_loop():
    # GF(2^61 - 1) is beyond the int64 guard at every size: object arrays
    rng = SplitMix64(97)
    for field in (GF2, GF3, PrimeField(1000003), PrimeField(2 ** 61 - 1)):
        p = field.p
        nilpotent = [[rng.below(p) if j > i else 0 for j in range(6)] for i in range(6)]
        deficient = [[rng.below(p) for _ in range(5)] for _ in range(4)]
        deficient.insert(2, [(a + b) % p for a, b in zip(deficient[0], deficient[1])])
        cases = [_rand(rng, field, n) for n in range(1, 13)] + [
            Matrix(field, [[rng.below(p)]]),
            Matrix.zeros(field, 4, 4),
            Matrix.identity(field, 5),
            Matrix(field, nilpotent),
            Matrix(field, deficient),
        ]
        for A in cases:
            _assert_scalar_kernel_matches_generic(A)
            if A.n <= 6:
                assert field.eq(det(A), oracles.cofactor_det(A))
        assert charpoly(Matrix(field, nilpotent)).coeffs == (1,) + (0,) * 6
        assert det(Matrix(field, deficient)) == 0
        with pytest.raises(NonSquare):
            charpoly(Matrix.zeros(field, 2, 3))


def test_scalar_kernel_int64_guard_threshold(monkeypatch):
    # n = 6: a convolution sums at most n + 1 = 7 products
    below, above = 1147878283, 1147878307  # consecutive primes
    assert (below - 1) ** 2 * 7 < 2 ** 63 <= (above - 1) ** 2 * 7
    dtypes = []
    convolve = np.convolve

    def spy(a, v):
        dtypes.append(a.dtype)
        return convolve(a, v)

    monkeypatch.setattr(np, "convolve", spy)
    rng = SplitMix64(101)
    for p, dtype in ((below, np.int64), (above, object)):
        F = PrimeField(p)
        top = p - 1  # every product at its largest
        for A in (Matrix(F, [[top] * 6 for _ in range(6)]),
                  Matrix(F, [[rng.below(p) for _ in range(6)] for _ in range(6)])):
            dtypes.clear()
            _assert_scalar_kernel_matches_generic(A)
            assert dtypes == [np.dtype(dtype)] * 5


def test_det_of_char_matrix():
    # det(XI - A) over F(X) equals the characteristic polynomial of A
    fx = RationalFunctionField(QQ)
    x = fx.gen()
    rng = SplitMix64(29)
    for _ in range(25):
        n = rng.randint(1, 4)
        A = _rand(rng, QQ, n)
        XI_A = Matrix(fx, [[fx.sub(x if i == j else fx.zero(),
                                   fx.from_base(A.at(i + 1, j + 1)))
                            for j in range(n)] for i in range(n)])
        d = det(XI_A)
        assert fx.is_polynomial(d)
        expect = charpoly(A).to_polynomial()
        assert d.num == expect and d.den == Polynomial.one(QQ)


def test_adjugate():
    assert adjugate(M([[9]])) == M([[1]])
    assert adjugate(M([[1, 2], [3, 4]])) == M([[4, -2], [-3, 1]])
    assert adjugate(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 3)
    rng = SplitMix64(23)
    for _ in range(60):
        field = (QQ, GF2, GF3)[rng.below(3)]
        A = _rand(rng, field, rng.randint(1, 4))
        B = adjugate(A)
        dI = Matrix.identity(field, A.n).scale(det(A))
        assert A @ B == dI and B @ A == dI


def test_inverse():
    assert inverse(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 3)
    assert inverse(M([[2]])) == Matrix(QQ, [[Fraction(1, 2)]])
    assert inverse(M([[1, 1], [0, 1]])) == M([[1, -1], [0, 1]])
    with pytest.raises(SingularMatrix):
        inverse(M([[1, 2], [2, 4]]))


def test_quasi_inverse():
    assert quasi_inverse(Matrix.identity(QQ, 2)) == Matrix.identity(QQ, 2)
    assert quasi_inverse(M([[0]])) == M([[1]])
    A = M([[1, 1], [1, 1]])
    B = quasi_inverse(A)
    assert not B.is_zero()
    assert (A @ B).is_zero()  # det = 0 here
    rng = SplitMix64(31)
    for _ in range(60):
        field = (QQ, GF3)[rng.below(2)]
        A = _rand(rng, field, rng.randint(1, 4))
        B = quasi_inverse(A)
        assert not B.is_zero()
        assert A @ B == Matrix.identity(field, A.n).scale(det(A))


def test_quasi_inverse_forms_each_power_once(monkeypatch):
    # nilpotent shift: ft = 1, and B runs through I, A, ..., A^4 (A^5 = 0)
    shift = M([[int(j == i + 1) for j in range(5)] for i in range(5)])
    calls = []
    mul = Matrix.mul

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "mul", counting_mul)
    B = quasi_inverse(shift)
    assert len(calls) == 5
    assert B == M([[int((i, j) == (0, 4)) for j in range(5)] for i in range(5)])


def test_cayley_hamilton_over_polynomials():
    RX = PolynomialRing(GF3)
    rng = SplitMix64(37)
    for _ in range(15):
        n = rng.randint(1, 3)
        A = Matrix(RX, [[Polynomial(GF3, [rng.below(3) for _ in range(2)])
                         for _ in range(n)] for _ in range(n)])
        assert subst(charpoly(A).to_polynomial(), A).is_zero()


def test_charpoly_coeff_helpers():
    ch = charpoly(M([[1, 2], [3, 4]]))
    assert list(ch.constant_first()) == list(reversed(ch.coeffs))
    assert ch.coeff_of(0) == Fraction(-2) and ch.coeff_of(2) == 1


def _q_case(kind, n):
    """An n x n matrix over Q: integers in [-5, 5], fractions a/b with
    b in 1..6, or integers of rank n // 2 (rows past it combine earlier ones)."""
    rng = SplitMix64(1000 + n)
    if kind == "fractional":
        return Matrix(QQ, [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
                           for _ in range(n)])
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    if kind == "deficient":
        r = n // 2
        for i in range(r, n):
            c = [rng.randint(-1, 1) for _ in range(r)]
            rows[i] = [sum(ck * rows[k][j] for k, ck in enumerate(c)) for j in range(n)]
    return Matrix.from_ints(QQ, rows)


@pytest.mark.parametrize("kind, n", [("integer", 12), ("fractional", 16), ("fractional", 20),
                                     ("deficient", 20)])
def test_q_charpoly_and_det_match_sympy(kind, n):
    # sympy's charpoly shares no code with ours: a reference past the sizes
    # the cofactor oracle reaches
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    A = _q_case(kind, n)
    D = DomainMatrix([[sympy.QQ(e.numerator, e.denominator) for e in row] for row in A.rows],
                     (n, n), sympy.QQ)
    want = [Fraction(int(c.numerator), int(c.denominator)) for c in D.charpoly()]
    assert list(charpoly(A).coeffs) == want
    d = D.det()
    assert det(A) == Fraction(int(d.numerator), int(d.denominator))
    assert (det(A) == 0) == (kind == "deficient")
