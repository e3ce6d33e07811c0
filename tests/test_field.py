from fractions import Fraction

import pytest

from exactla.errors import DivisionByZero, InvalidInput
from exactla.field import GF2, GF3, QQ, PrimeField, Rationals, _is_prime
from exactla.matrix import Matrix
from exactla.rng import SplitMix64

GF5 = PrimeField(5)
GF7 = PrimeField(7)


def _axiom_check(F, a, b, c):
    assert F.eq(F.add(a, b), F.add(b, a))
    assert F.eq(F.mul(a, b), F.mul(b, a))
    assert F.eq(F.add(F.add(a, b), c), F.add(a, F.add(b, c)))
    assert F.eq(F.mul(F.mul(a, b), c), F.mul(a, F.mul(b, c)))
    assert F.eq(F.mul(a, F.add(b, c)), F.add(F.mul(a, b), F.mul(a, c)))
    assert F.eq(F.add(a, F.zero()), a)
    assert F.eq(F.mul(a, F.one()), a)
    assert F.is_zero(F.add(a, F.neg(a)))
    if not F.is_zero(a):
        assert F.is_one(F.mul(a, F.inv(a)))


@pytest.mark.parametrize("F", [GF2, GF3, GF5, GF7])
def test_prime_field_axioms_exhaustive(F):
    for a in F.elements():
        for b in F.elements():
            for c in F.elements():
                _axiom_check(F, a, b, c)


def test_rational_axioms_random():
    rng = SplitMix64(11)
    for _ in range(300):
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                   for _ in range(3))
        _axiom_check(QQ, a, b, c)


def test_total_inverse_convention():
    assert QQ.inv(QQ.one()) == 1
    assert QQ.inv(QQ.zero()) == 0  # inv is total with inv(0) = 0
    assert GF3.inv(2) == 2
    for F in (GF2, GF3, GF5, GF7, QQ):
        assert F.is_zero(F.inv(F.zero()))


def test_checked_division():
    assert QQ.div(QQ.from_int(3), QQ.from_int(2)) == Fraction(3, 2)
    with pytest.raises(DivisionByZero):
        QQ.div(QQ.one(), QQ.zero())
    with pytest.raises(DivisionByZero):
        GF5.div(GF5.one(), GF5.zero())


def test_indicator():
    assert QQ.eq(QQ.indicator(True), QQ.one())
    assert QQ.eq(QQ.indicator(False), QQ.zero())
    assert GF2.eq(GF2.indicator(3 <= 5), GF2.one())


def test_from_int_and_char():
    assert GF3.is_zero(GF3.from_int(6))
    assert GF3.eq(GF3.from_int(-1), 2)
    assert QQ.from_int(-7) == Fraction(-7)


def test_matrix_from_ints_shares_equal_entries():
    A = Matrix.from_ints(QQ, [[2, -1], [-1, 2]])
    assert A.rows == ((2, -1), (-1, 2))
    assert A.rows[0][0] is A.rows[1][1] and A.rows[0][1] is A.rows[1][0]


def test_matrix_extract_is_total():
    # LAP's entry function e(A, i, j): the entry inside the matrix, 0 outside
    A = Matrix.from_ints(GF5, [[1, 2, 3], [4, 0, 1]])
    assert [[A.extract(i, j) for j in range(0, 5)] for i in range(0, 4)] == [
        [0, 0, 0, 0, 0], [0, 1, 2, 3, 0], [0, 4, 0, 1, 0], [0, 0, 0, 0, 0]]
    assert A.extract(1, 2) == A.at(1, 2)


def test_prime_modulus_checked():
    with pytest.raises(InvalidInput):
        PrimeField(9)
    with pytest.raises(InvalidInput):
        PrimeField(1)
    assert PrimeField(2) == GF2
    assert PrimeField(10 ** 20 + 39).p == 10 ** 20 + 39
    with pytest.raises(InvalidInput):  # prime, but above the Miller-Rabin bound
        PrimeField(3317044064679887385962123)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    sieve = [False, False] + [True] * (10 ** 5 - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [_is_prime(n) for n in range(10 ** 5)] == sieve
    for n in (561, 41041, 825265, 915690077, 915690137):  # Carmichael, then primes
        assert _is_prime(n) == trial(n)


def test_parse_format_roundtrip():
    rng = SplitMix64(5)
    for _ in range(100):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        assert QQ.parse(QQ.format(a)) == a
    for F in (GF2, GF3, GF7):
        for a in F.elements():
            assert F.eq(F.parse(F.format(a)), a)
    with pytest.raises(InvalidInput):
        QQ.parse("1/0")
    assert QQ.parse("-0.25") == Fraction(-1, 4)
    for text in ("1e3", "1E-2", "1e999999999"):
        with pytest.raises(InvalidInput):
            QQ.parse(text)
    with pytest.raises(InvalidInput):
        GF3.parse("two")


def test_field_equality_is_structural():
    assert PrimeField(7) == GF7
    assert PrimeField(7) != PrimeField(5)
    assert Rationals() == QQ
