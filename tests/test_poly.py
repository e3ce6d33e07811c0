from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactla.errors import InvalidInput
from exactla.field import GF3, QQ, PrimeField
from exactla.matrix import Matrix, mat_vec
from exactla.poly import (NEG_INF, Polynomial, PolynomialRing, PolyMatrix,
                          conv_matrix, distinct_point_witness, poly_mul, subst)
from exactla.ratfunc import RationalFunctionField
from exactla.rng import SplitMix64

GF7 = PrimeField(7)
GF7X = RationalFunctionField(GF7)


def P(*ints):
    return Polynomial.from_ints(QQ, ints)


def test_degree_and_trimming():
    assert P(0).deg() == NEG_INF
    assert Polynomial(QQ, [Fraction(0), Fraction(0)]).is_zero()
    assert P(1, 2, 0).deg() == 1
    assert P(3).deg() == 0
    f = P(1, 0, 0, 2)
    assert f.coeff(3) == 2 and f.coeff(17) == 0


def test_hand_convolution():
    one_plus_x = P(1, 1)
    assert one_plus_x * one_plus_x == P(1, 2, 1)
    f = P(-2, 0, 5, 1)
    assert f * P(1) == f
    assert (P(0) * f).is_zero()


_gf7_polys = st.lists(st.integers(0, 6), min_size=1, max_size=3).map(
    lambda cs: Polynomial(GF7, cs))
_COEFFS = {
    QQ: st.fractions(min_value=-4, max_value=4, max_denominator=3),
    GF7: st.integers(0, 6),
    GF7X: st.builds(GF7X.make, _gf7_polys, _gf7_polys.filter(lambda d: not d.is_zero())),
}


@st.composite
def factor_pairs(draw):
    """Two polynomials over QQ, GF(7) or GF(7)(X), the first nonzero
    (conv_matrix has no zero-dimension form)."""
    ring = draw(st.sampled_from((QQ, GF7, GF7X)))
    coeff = _COEFFS[ring]
    polys = st.lists(coeff, min_size=1, max_size=5).map(lambda cs: Polynomial(ring, cs))
    return draw(polys.filter(lambda f: not f.is_zero())), draw(polys)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(factor_pairs())
def test_product_against_toeplitz_matrix(fg):
    f, g = fg
    F = f.field
    width = g.deg() + 1 if not g.is_zero() else 1
    T = conv_matrix(f, width)
    by_matrix = mat_vec(T, g.padded(width))
    by_convolution = poly_mul(f, g).padded(T.m)
    assert all(F.eq(a, b) for a, b in zip(by_convolution, by_matrix, strict=True))


def test_degree_rules():
    rng = SplitMix64(19)
    for _ in range(100):
        f = Polynomial(GF7, [rng.below(7) for _ in range(rng.randint(1, 4))])
        g = Polynomial(GF7, [rng.below(7) for _ in range(rng.randint(1, 4))])
        fg = f * g
        if f.is_zero() or g.is_zero():
            assert fg.deg() == NEG_INF
        else:
            assert fg.deg() == f.deg() + g.deg()
        assert (f + g).deg() <= max(f.deg(), g.deg())


def test_substitution():
    f = P(-1, 0, 1)  # X^2 - 1
    assert subst(f, QQ.from_int(3)) == 8
    A = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]])
    assert subst(Polynomial.one(QQ), A) == Matrix.identity(QQ, 2)
    assert subst(Polynomial.x(QQ), A) == A
    assert subst(Polynomial.zero(QQ), A) == Matrix.zeros(QQ, 2, 2)
    g = subst(f, P(0, 2))  # (2X)^2 - 1
    assert g == P(-1, 0, 4)


def test_shift_and_monic():
    assert P(1, 2).shift(2) == P(0, 0, 1, 2)
    assert P(2, 4).monic() == P(Fraction(1, 2) * 2, 2).monic() == P(Fraction(1, 2), 1)


def test_shift_of_zero_is_zero():
    assert P(0).shift(3) == P(0)
    assert P(0).shift(3).is_zero()


def test_distinct_point_witness():
    i = distinct_point_witness(Polynomial.x(QQ), [Fraction(0), Fraction(1)])
    assert i == 1
    f = P(2, -3, 1)  # (X-1)(X-2)
    pts = [Fraction(1), Fraction(2), Fraction(3)]
    assert distinct_point_witness(f, pts) == 2
    assert distinct_point_witness(P(1), [Fraction(0)]) == 0
    with pytest.raises(InvalidInput):
        distinct_point_witness(f, pts[:2])  # needs deg+1 points
    with pytest.raises(InvalidInput):
        distinct_point_witness(f, [Fraction(1)] * 3)  # repeats


def test_ring_parse_format():
    RX = PolynomialRing(QQ)
    f = RX.parse("1 0 -1")
    assert f == P(1, 0, -1)
    assert RX.parse(RX.format(f)) == f
    assert RX.parse("1,0,-1") == f  # comma form used inside matrix files


def test_polymatrix_identity_block():
    B = PolyMatrix(QQ, [Matrix.from_ints(QQ, [[1, 2], [3, 4]]),
                        Matrix.from_ints(QQ, [[0, 1], [1, 0]])])
    I = PolyMatrix.identity(QQ, 2)
    assert I.pm_mul(B) == B  # padding-insensitive equality


def test_polymatrix_hand_products():
    X = PolyMatrix(QQ, [Matrix.from_ints(QQ, [[0]]), Matrix.from_ints(QQ, [[1]])])
    X2 = X.pm_mul(X)
    assert X2.entry(1, 1) == P(0, 0, 1)
    A0, A1 = Matrix.from_ints(QQ, [[1, 0], [2, 1]]), Matrix.from_ints(QQ, [[0, 3], [1, 1]])
    B0 = Matrix.from_ints(QQ, [[1, 1], [0, 2]])
    prod = PolyMatrix(QQ, [A0, A1]).pm_mul(PolyMatrix(QQ, [B0]))
    assert prod == PolyMatrix(QQ, [A0 @ B0, A1 @ B0])


def test_polymatrix_powers():
    X = PolyMatrix(GF3, [Matrix.zeros(GF3, 1, 1), Matrix.from_ints(GF3, [[1]])])
    assert X.pm_pow(0) == PolyMatrix.identity(GF3, 1)
    assert X.pm_pow(2).entry(1, 1) == Polynomial.from_ints(GF3, [0, 0, 1])
    rng = SplitMix64(8)
    for _ in range(25):
        n = rng.randint(1, 3)
        A = PolyMatrix(GF3, [Matrix(GF3, [[rng.below(3) for _ in range(n)]
                                          for _ in range(n)])
                             for _ in range(rng.randint(1, 3))])
        k, l = rng.randint(0, 3), rng.randint(0, 3)
        assert A.pm_pow(k + l) == A.pm_pow(k).pm_mul(A.pm_pow(l))


def test_polymatrix_roundtrip_with_entry_matrices():
    RX = PolynomialRing(QQ)
    rng = SplitMix64(21)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        M = Matrix(RX, [[Polynomial(QQ, [Fraction(rng.randint(-2, 2))
                                         for _ in range(rng.randint(1, 3))])
                         for _ in range(n)] for _ in range(m)])
        assert PolyMatrix.from_matrix(M).to_matrix() == M


def test_polymatrix_degree_is_read_off_its_blocks():
    A0, Z = Matrix.from_ints(QQ, [[1, 2], [3, 4]]), Matrix.zeros(QQ, 2, 2)
    zero_top = PolyMatrix(QQ, [A0, Z])  # an explicit zero top block stays legal
    assert zero_top.d == 1 and zero_top.mcoeff(1) == Z
    assert zero_top == PolyMatrix(QQ, [A0])
    M = zero_top.to_matrix()
    assert PolyMatrix.from_matrix(M).d == 0
    assert PolyMatrix.from_matrix(M).to_matrix() == M
