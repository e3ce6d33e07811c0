from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactla.errors import DivisionByZero, InvalidInput
from exactla.field import GF3, QQ, PrimeField
from exactla.matrix import Matrix
from exactla.poly import Polynomial
from exactla.ratfunc import (RationalFunctionField, poly_divmod, poly_gcd,
                             rat_matrix_pow, to_common_denominator)
from exactla.rng import SplitMix64

FX = RationalFunctionField(QQ)
X = Polynomial.x(QQ)
ONE = Polynomial.one(QQ)


def _rand_poly(rng, maxdeg=3):
    return Polynomial(QQ, [Fraction(rng.randint(-3, 3))
                           for _ in range(rng.randint(1, maxdeg + 1))])


def test_poly_divmod():
    q, r = poly_divmod(X * X - ONE, X - ONE)
    assert q == X + ONE and r.is_zero()
    rng = SplitMix64(2)
    for _ in range(80):
        f, g = _rand_poly(rng), _rand_poly(rng)
        if g.is_zero():
            continue
        q, r = poly_divmod(f, g)
        assert q * g + r == f
        assert r.deg() < g.deg()


def test_poly_gcd_is_monic():
    f = (X - ONE) * (X + ONE)
    g = (X - ONE) * (X - ONE)
    assert poly_gcd(f, g) == X - ONE
    assert poly_gcd(f.scale(Fraction(7)), g) == X - ONE
    assert poly_gcd(Polynomial.zero(QQ), Polynomial.zero(QQ)).is_zero()


def test_canonical_form():
    a = FX.make(X * X - ONE, X - ONE)  # reduces to X + 1
    assert FX.eq(a, FX.from_poly(X + ONE))
    b = FX.make(ONE, X.scale(Fraction(2)))  # denominator forced monic
    assert b.den == X
    assert b.num == Polynomial.constant(QQ, Fraction(1, 2))
    with pytest.raises(DivisionByZero):
        FX.make(ONE, Polynomial.zero(QQ))


def test_field_ops_and_inverse():
    x = FX.gen()
    s = FX.add(x, FX.inv(x))  # X + 1/X = (X^2+1)/X
    assert s.num == X * X + ONE and s.den == X
    assert FX.eq(FX.inv(x), FX.make(ONE, X))
    assert FX.is_zero(FX.inv(FX.zero()))  # total-inverse convention
    rng = SplitMix64(13)
    for _ in range(60):
        f, g = _rand_poly(rng), _rand_poly(rng)
        if g.is_zero():
            continue
        a = FX.make(f, g)
        assert FX.is_zero(FX.sub(a, a))
        if not FX.is_zero(a):
            assert FX.is_one(FX.mul(a, FX.inv(a)))


def test_cross_multiplication_equality():
    a = FX.make(X, ONE)
    b = FX.make(X * X, X)
    assert FX.cross_eq(a, b) and FX.eq(a, b)
    assert not FX.eq(a, FX.from_poly(X + ONE))


def test_eval_and_polynomial_predicate():
    a = FX.make(X * X - ONE, X - ONE)
    assert FX.is_polynomial(a)
    assert FX.eval_at(a, Fraction(4)) == 5
    b = FX.make(ONE, X)
    assert not FX.is_polynomial(b)
    assert FX.eval_at(b, Fraction(2)) == Fraction(1, 2)


def test_parse_format_roundtrip():
    rng = SplitMix64(4)
    for _ in range(60):
        g = _rand_poly(rng)
        if g.is_zero():
            continue
        a = FX.make(_rand_poly(rng), g)
        assert FX.eq(FX.parse(FX.format(a)), a)
    assert FX.eq(FX.parse("0 1 / 1 1"), FX.make(X, X + ONE))
    for text in ("1 / ", " / 1", " / ", "1 / 2 / 3"):
        with pytest.raises(InvalidInput, match="bad rational-function literal"):
            FX.parse(text)


def test_field_identity_ignores_the_shared_one():
    fx = RationalFunctionField(QQ)
    assert fx == FX and hash(fx) == hash(FX)
    assert FX != RationalFunctionField(GF3)
    A = Matrix(FX, [[FX.gen(), FX.one()], [FX.make(ONE, X), FX.zero()]])
    B = Matrix(fx, [[fx.one(), fx.from_int(2)], [fx.gen(), fx.make(X, X + ONE)]])
    expected = [[FX.add(FX.mul(A.at(i, 1), B.at(1, j)), FX.mul(A.at(i, 2), B.at(2, j)))
                 for j in (1, 2)] for i in (1, 2)]
    assert A @ B == Matrix(FX, expected)


def test_common_denominator_all_polynomial():
    M = Matrix(FX, [[FX.from_poly(X), FX.from_poly(ONE + X)]])
    code = to_common_denominator(M)
    assert code.g == ONE
    assert code.decode(FX) == M


def test_common_denominator_mixed():
    M = Matrix(FX, [[FX.make(ONE, X)], [FX.make(ONE, X + ONE)]])
    code = to_common_denominator(M)
    assert code.g == X * (X + ONE)
    assert code.pm.entry(1, 1) == X + ONE
    assert code.pm.entry(2, 1) == X
    assert code.decode(FX) == M


def test_rat_matrix_powers():
    rng = SplitMix64(6)
    for _ in range(20):
        n = rng.randint(1, 3)
        M = Matrix(FX, [[FX.make(_rand_poly(rng, 2), X if rng.below(2) else ONE)
                         for _ in range(n)] for _ in range(n)])
        k = rng.randint(0, 3)
        powered = rat_matrix_pow(k, to_common_denominator(M))
        assert powered.decode(FX) == M.power(k)


# --- canonical form of every operation ---------------------------------------

def _elements(base):
    """Zero, polynomial and (mostly properly) rational elements of base(X)."""
    fx = RationalFunctionField(base)
    polys = st.lists(st.integers(-3, 3), max_size=4).map(
        lambda cs: Polynomial.from_ints(base, cs))
    dens = polys.filter(lambda g: g.deg() >= 1)
    return st.one_of(st.just(fx.zero()), polys.map(fx.from_poly),
                     st.tuples(polys, dens).map(lambda fg: fx.make(*fg)))


def _cases():
    return st.sampled_from([QQ, PrimeField(7)]).flatmap(lambda base: st.tuples(
        st.just(RationalFunctionField(base)),
        _elements(base), _elements(base), _elements(base)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_cases())
def test_operations_match_make_of_the_naive_pair(case):
    fx, a, b, c = case
    # each result against make() of the unreduced pair, the same pair for
    # every operand case
    pairs = {
        "add": (fx.add(a, b), fx.make(a.num * b.den + b.num * a.den, a.den * b.den)),
        "sub": (fx.sub(a, b), fx.make(a.num * b.den - b.num * a.den, a.den * b.den)),
        "mul": (fx.mul(a, b), fx.make(a.num * b.num, a.den * b.den)),
        "neg": (fx.neg(a), fx.make(-a.num, a.den)),
        "inv": (fx.inv(a), fx.zero() if a.num.is_zero() else fx.make(a.den, a.num)),
    }
    for op, (got, want) in pairs.items():
        assert got.num.coeffs == want.num.coeffs, op
        assert got.den.coeffs == want.den.coeffs, op
        assert fx.base.is_one(got.den.coeffs[-1]), op
    assert fx.eq(fx.add(fx.add(a, b), c), fx.add(a, fx.add(b, c)))
    assert fx.eq(fx.mul(fx.mul(a, b), c), fx.mul(a, fx.mul(b, c)))
    assert fx.eq(fx.mul(a, fx.add(b, c)), fx.add(fx.mul(a, b), fx.mul(a, c)))
