"""The rank kernel over Q in Z/2^64: where _hadamard_bound puts the line
between int64 and object arrays, and that either side reads back exactly
what the generic path computes, coefficient for coefficient."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from exactla.charpoly import charpoly
from exactla.field import QQ
from exactla.matrix import Matrix
from exactla.poly import PolynomialRing
from exactla.rank import mulmuley_rank, polize, solve

numeric = importlib.import_module("exactla._numeric")
kernel = importlib.import_module("exactla.rank")  # the package re-exports rank()

ROOT_2_63 = 3037000499  # the largest a with a^2 < 2^63


def _sylvester(k):
    """The +-1 Hadamard matrix of order 2^k."""
    H = [[1]]
    for _ in range(k):
        H = [r + r for r in H] + [r + [-x for x in r] for r in H]
    return H


def _dtype(A, rhs=()):
    return numeric._sym_parts(QQ, A, rhs)[0].dtype


def _same_as_generic(A, rhs=()):
    """The fast and generic paths agree on every charpoly coefficient of
    polize(A) and on every solution; returns the fast kernel's CharPoly."""
    fast = mulmuley_rank(A, method="fast")
    assert fast.charpoly_of_polize == mulmuley_rank(A, method="generic").charpoly_of_polize
    for b in rhs:
        assert solve(A, b, method="fast") == solve(A, b, method="generic")
    num, B, _ = numeric._sym_parts(QQ, A)
    return kernel._fast_charpoly(num, B)


@pytest.mark.parametrize("a, dtype", [
    (-ROOT_2_63, np.int64), (ROOT_2_63, np.int64),
    (-ROOT_2_63 - 1, object), (ROOT_2_63 + 1, object),
])
def test_one_by_one_reads_minus_a_squared_next_to_2_63(a, dtype):
    # charpoly(polize([[a]])) = Y^2 - a^2 X: the bound is a^2 itself
    A = Matrix(QQ, [[Fraction(a)]])
    assert _dtype(A) == dtype
    ch = _same_as_generic(A)
    off, arr = ch.coeff_of(0)
    assert off == 1 and arr.dtype == dtype and [int(c) for c in arr] == [-a * a]


def test_one_by_one_wraps_past_the_bound():
    # forcing Z/2^64 one step past the bound reads back a wrong integer, so
    # the bound is tight here
    a = ROOT_2_63 + 1
    B = np.array([[0, a], [a, 0]], dtype=np.int64)
    ch = kernel._fast_charpoly(numeric._Num(None, 2, wrap=True), B)
    assert int(ch.coeff_of(0)[1][0]) != -a * a


@pytest.mark.parametrize("c, dtype", [
    (2 ** 63 - 1, np.int64), (-(2 ** 63 - 1), np.int64),
    (2 ** 63, object), (-(2 ** 63), object),
])
def test_solve_bound_counts_the_right_hand_side(c, dtype):
    # A = [[1]]: T = 2, and with row 0 removed max_k e_k = 1, so the bound
    # is max(2, |c|); the answer x = c is read back from the kernel itself
    A = Matrix(QQ, [[Fraction(1)]])
    b = [Fraction(c)]
    assert _dtype(A) == np.int64
    assert _dtype(A, [b]) == dtype
    _same_as_generic(A, [b])
    assert solve(A, b) == [c]


def test_solve_bound_takes_the_largest_right_hand_side():
    A = Matrix(QQ, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    small, large = [Fraction(1), Fraction(-1)], [Fraction(2 ** 62), Fraction(-(2 ** 62))]
    assert _dtype(A, [small]) == np.int64
    assert _dtype(A, [small, large]) == object
    assert kernel._solve_columns(A, [small, large], "fast") == [small, large]


def test_entries_with_denominators():
    A = Matrix(QQ, [[Fraction(1, 2), Fraction(-2, 3), Fraction(0)],
                    [Fraction(5, 7), Fraction(1, 3), Fraction(-3, 4)]])
    assert numeric._sym_parts(QQ, A)[2] == 84
    b = [Fraction(1, 5), Fraction(-7, 2)]
    assert _dtype(A, [b]) == np.int64
    _same_as_generic(A, [b])
    # the scale is cleared before the bound: a / 2 reads as a
    for a, dtype in ((ROOT_2_63, np.int64), (ROOT_2_63 + 2, object)):
        A = Matrix(QQ, [[Fraction(-a, 2)]])
        assert numeric._sym_parts(QQ, A)[2] == 2
        assert _dtype(A) == dtype
        assert [int(c) for c in _same_as_generic(A).coeff_of(0)[1]] == [-a * a]


def _ints(ch):
    return [None if c is None else (c[0], [int(x) for x in c[1]]) for c in ch.coeffs]


@pytest.mark.parametrize("k", [2, 3])
def test_sylvester_hadamard_matrices(k):
    # rows of norm sqrt(n) with |det H| = n^(n/2): Hadamard's bound is attained
    H = _sylvester(k)
    n = len(H)
    A = Matrix.from_ints(QQ, H)
    b = [Fraction(sum(x * (j + 1) for j, x in enumerate(r))) for r in H]
    assert _dtype(A, [b]) == np.int64
    if k == 2:
        ch = _same_as_generic(A, [b])
    else:
        # the generic path takes over 10 s at order 16; the object path,
        # which the tests above hold to it, is the reference on every block
        num, B, _ = numeric._sym_parts(QQ, A)
        blocks = list(kernel._fast_trailing_charpolys(num, B))
        reference = kernel._fast_trailing_charpolys(numeric._Num(None, 2 * n), B.astype(object))
        assert [_ints(c) for c in blocks] == [_ints(c) for c in reference]
        ch = blocks[-1]
    off, arr = ch.coeff_of(0)  # det(polize(A)) = X^(N(N-1)/2) det(H)^2
    assert (off, [int(c) for c in arr]) == ((2 * n) * (2 * n - 1) // 2, [n ** n])
    assert solve(A, b) == [Fraction(j + 1) for j in range(n)]


@pytest.mark.parametrize("c, dtype", [(117, np.int64), (118, object)])
def test_scaled_hadamard_attains_the_bound_next_to_2_63(c, dtype):
    # c * H_4: every rho_i is 2c exactly, so T = (2c)^8 = det(polize)'s
    # coefficient itself; 234^8 < 2^63 < 236^8
    A = Matrix.from_ints(QQ, [[c * x for x in r] for r in _sylvester(2)])
    assert _dtype(A) == dtype
    assert numeric._hadamard_bound([c * x for r in _sylvester(2) for x in r], 4, 4) == (2 * c) ** 8
    ch = _same_as_generic(A)
    assert [int(x) for x in ch.coeff_of(0)[1]] == [(2 * c) ** 8]
    want = charpoly(polize(A, PolynomialRing(QQ)))
    assert repr(ch) == repr(want)


def test_kernel_arrays_are_signed():
    # readers take int() and str() straight off the arrays: never uint64
    A = Matrix.from_ints(QQ, [[1, -2, 3], [-4, 5, -6]])
    for ch in kernel._fast_trailing_charpolys(*numeric._sym_parts(QQ, A)[:2]):
        assert all(c is None or c[1].dtype == np.int64 for c in ch.coeffs)
    assert repr(numeric._Num(None, 2, wrap=True)) == "Z[X]"


def test_bound_holds_under_optimize():
    # the choice is an if, not an assert: python -O keeps it
    code = ("from fractions import Fraction\n"
            "from exactla._numeric import _sym_parts\n"
            "from exactla.field import QQ\n"
            "from exactla.matrix import Matrix\n"
            f"A = Matrix(QQ, [[Fraction({ROOT_2_63 + 1})]])\n"
            "print(_sym_parts(QQ, A)[0].dtype)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(numeric.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "<class 'object'>"
