"""rank and solve over Q at one point of X, mod word primes.

rank takes the scalar characteristic polynomial of C(x0) on A's cleared
integers mod the first word prime; its lower bound answers full rank.
solve runs the point's Horner mod successive word primes, joins the
residues by CRT, reconstructs each entry and returns the first candidate
that passes the exact check.  Anything else goes to the X kernel."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import exactla
from exactla import oracles
from exactla.cli import run
from exactla.errors import Unsolvable
from exactla.field import QQ
from exactla.matrix import Matrix, mat_vec
from exactla.rank import mulmuley_rank, rank, solve
from exactla.rng import SplitMix64

rank_mod = importlib.import_module("exactla.rank")  # the package re-exports rank()
numeric = importlib.import_module("exactla._numeric")

P = numeric._PRIMES


@pytest.fixture
def runs(monkeypatch):
    """Count the X kernel's charpolys ("x", by order), the scalar charpolys
    ("scalar", by prime) and the clearings of denominators ("clear")."""
    calls = {"x": [], "scalar": [], "clear": 0}
    fast, berkowitz, clear = rank_mod._fast_charpoly, rank_mod._berkowitz_mod_p, numeric._clear_ints

    def x_kernel(num, B):
        calls["x"].append(B.shape[0])
        return fast(num, B)

    def scalar(C, p):
        calls["scalar"].append(p)
        return berkowitz(C, p)

    def cleared(field, elems):
        calls["clear"] += 1
        return clear(field, elems)

    monkeypatch.setattr(rank_mod, "_fast_charpoly", x_kernel)
    monkeypatch.setattr(rank_mod, "_berkowitz_mod_p", scalar)
    monkeypatch.setattr(rank_mod, "_clear_ints", cleared)
    monkeypatch.setattr(numeric, "_clear_ints", cleared)
    return calls


def _frac(rng, den):
    return Fraction(rng.randint(-4, 4), rng.randint(1, den))


def _of_rank(rng, m, n, r, den):
    """An m x n product of random m x r and r x n factors with fractional
    entries: rank at most r."""
    L = Matrix(QQ, [[_frac(rng, den) for _ in range(r)] for _ in range(m)])
    R = Matrix(QQ, [[_frac(rng, den) for _ in range(n)] for _ in range(r)])
    return L @ R


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 3), st.integers(1, 5),
       st.integers(0, 2 ** 32))
def test_rank_and_solve_match_the_oracle(m, n, deficit, den, seed):
    rng = SplitMix64(seed)
    A = _of_rank(rng, m, n, max(1, min(m, n) - deficit), den)
    r = oracles.gauss_rank(A)
    assert rank(A) == r
    x = [_frac(rng, den) for _ in range(n)]
    b = mat_vec(A, x)
    got = solve(A, b)
    assert mat_vec(A, got) == b
    if r == n:
        assert got == x == oracles.gauss_solve(A, b)
    c = [_frac(rng, den) for _ in range(m)]
    if oracles.gauss_solve(A, c) is None:
        with pytest.raises(Unsolvable):
            solve(A, c)


@pytest.mark.parametrize("m, n", [(1, 1), (3, 5), (5, 3), (8, 8), (12, 7), (7, 12), (20, 20)])
def test_full_rank_runs_no_x_kernel(runs, m, n):
    rng = SplitMix64(m * 100 + n)
    A = Matrix(QQ, [[_frac(rng, 3) for _ in range(n)] for _ in range(m)])
    assert oracles.gauss_rank(A) == min(m, n)
    rep = mulmuley_rank(A)
    assert (rep.rank, rep.mul) == (min(m, n), abs(m - n))
    assert runs == {"x": [], "scalar": [P[0]], "clear": 1}
    if n <= m:
        x = [_frac(rng, 5) for _ in range(n)]
        assert solve(A, mat_vec(A, x)) == x
        assert runs["x"] == []


def test_deficient_rank_clears_once(runs):
    # small_select's rank Q 7x7 of rank 5: one clearing serves the scalar
    # charpoly and the X kernel
    A = _of_rank(SplitMix64(7), 7, 7, 5, 3)
    assert rank(A) == oracles.gauss_rank(A) == 5
    assert runs == {"x": [14], "scalar": [P[0]], "clear": 1}


def _diag(first, n):
    return Matrix(QQ, [[Fraction(first if i == j == 0 else int(i == j)) for j in range(n)]
                       for i in range(n)])


def test_bad_first_prime_falls_back(runs):
    # A = diag(p0, 1, 1) has rank 2 mod p0: neither rank nor solve certifies
    # at the first prime, and the X kernel answers
    A = _diag(P[0], 3)
    assert rank(A) == 3
    assert runs["x"] == [6] and runs["scalar"] == [P[0]]
    b = [Fraction(1), Fraction(2), Fraction(3)]
    assert solve(A, b) == [Fraction(1, P[0]), 2, 3]
    assert runs["x"] == [6, 6] and runs["scalar"] == [P[0], P[0]]


def test_bad_later_prime_is_skipped(runs):
    # diag(p1, 1, 1) certifies at p0 and not at p1; the answer needs three
    # certified primes, so the point goes on to p2 and p3
    A = _diag(P[1], 3)
    b = [Fraction(1), Fraction(2 ** 40), Fraction(3)]
    assert solve(A, b) == [Fraction(1, P[1]), 2 ** 40, 3]
    assert runs["x"] == [] and runs["scalar"] == list(P[:4])


def test_unsolvable_full_column_rank_exits_1(tmp_path, capsys, runs):
    # the point certifies rank 2 and its candidate fails the check; H = 24,
    # so the cap 2 H^2 is passed at the first prime and the X kernel gives
    # the verdict
    A = Matrix.from_ints(QQ, [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(Unsolvable):
        solve(A, [Fraction(1), Fraction(1), Fraction(5)])
    assert runs["x"] == [5] and runs["scalar"] == [P[0]]
    (tmp_path / "A.txt").write_text("3 2\n1 0\n0 1\n1 1\n")
    (tmp_path / "b.txt").write_text("3\n1 1 5\n")
    assert run(["solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt")]) == 1
    assert capsys.readouterr().err == (
        "failed: Unsolvable: no solution exists for this right-hand side\n")


def test_corrupt_reconstruction_is_not_returned(monkeypatch, runs):
    recon = rank_mod._ratrecon
    monkeypatch.setattr(rank_mod, "_ratrecon", lambda u, M: recon(u, M) + 1)
    rng = SplitMix64(3)
    A = Matrix(QQ, [[_frac(rng, 4) for _ in range(4)] for _ in range(6)])
    x = [_frac(rng, 4) for _ in range(4)]
    assert solve(A, mat_vec(A, x)) == x
    assert runs["x"] == [10]


def test_corrupt_reconstruction_is_not_returned_under_optimize():
    code = ("import importlib\n"
            "from fractions import Fraction\n"
            "from exactla.field import QQ\n"
            "from exactla.matrix import Matrix\n"
            "rank = importlib.import_module('exactla.rank')\n"
            "recon = rank._ratrecon\n"
            "rank._ratrecon = lambda u, M: recon(u, M) + 1\n"
            "A = Matrix.from_ints(QQ, [[2, 1], [1, 3], [4, 4]])\n"
            "print(__debug__, rank.solve(A, [Fraction(5), Fraction(10), Fraction(16)]))\n")
    src = str(Path(exactla.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False [Fraction(1, 1), Fraction(3, 1)]\n"


def test_generic_never_takes_the_point(runs):
    A = Matrix.from_ints(QQ, [[1, 2], [3, 4]])
    assert rank(A, "generic") == 2
    assert solve(A, [Fraction(1), Fraction(1)], "generic") == [Fraction(-1), Fraction(1)]
    assert runs["scalar"] == []
