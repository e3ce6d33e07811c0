"""solve over GF(p) at one point of X.

_solve_columns first takes the scalar characteristic polynomial of
C(x0) = diag(x0^i) * symm(A).  When that certifies full column rank, one
scalar Horner gives the unique solution; otherwise, or when a result fails
the contract check, the X kernel answers as before.
"""

import importlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import exactla
from exactla import oracles
from exactla.cli import run
from exactla.errors import Unsolvable
from exactla.field import PrimeField
from exactla.matrix import Matrix, mat_vec
from exactla.rank import solve
from exactla.rng import SplitMix64

rank_mod = importlib.import_module("exactla.rank")
numeric = importlib.import_module("exactla._numeric")

GFP = PrimeField(1000003)
BIG = PrimeField(2 ** 61 - 1)  # past the int64 guard: object arrays


def _rand(rng, field, m, n):
    return Matrix(field, [[rng.below(field.p) for _ in range(n)] for _ in range(m)])


@pytest.fixture
def x_kernel_runs(monkeypatch):
    """Count the X kernel's charpolys."""
    calls = []
    fast = rank_mod._fast_charpoly

    def counted(num, B):
        calls.append(B.shape[0])
        return fast(num, B)

    monkeypatch.setattr(rank_mod, "_fast_charpoly", counted)
    return calls


SHAPES = [(1, 1), (2, 1), (3, 3), (5, 2), (6, 6), (8, 5), (9, 9),
          (12, 7), (12, 12), (16, 10), (16, 16)]


@pytest.mark.parametrize("field, shapes", [(GFP, SHAPES), (BIG, [(3, 3), (6, 4), (6, 6)])])
def test_point_path_equals_x_kernel_and_oracle(monkeypatch, x_kernel_runs, field, shapes):
    rng = SplitMix64(97)
    for m, n in shapes:
        A = _rand(rng, field, m, n)
        assert oracles.gauss_rank(A) == n
        bs = [mat_vec(A, [rng.below(field.p) for _ in range(n)])
              for _ in range(1 + rng.below(3))]
        at_point = rank_mod._solve_columns(A, bs, "auto")
        assert x_kernel_runs == []
        with monkeypatch.context() as patch:  # the point declines
            patch.setattr(rank_mod, "_point_solve", lambda A, bs: None)
            assert rank_mod._solve_columns(A, bs, "fast") == at_point
        assert x_kernel_runs == [m + n]
        x_kernel_runs.clear()
        assert at_point == [oracles.gauss_solve(A, b) for b in bs]


def test_nilpotent_point_falls_back(monkeypatch, x_kernel_runs):
    # C(0) = diag(1, 0, ..., 0) * symm(A) is nilpotent: mul = N, no certificate
    rng = SplitMix64(5)
    A = _rand(rng, GFP, 7, 5)
    b = mat_vec(A, [rng.below(GFP.p) for _ in range(5)])
    want = solve(A, b)
    assert x_kernel_runs == []
    monkeypatch.setattr(numeric, "_X0", 0)
    assert rank_mod._point_solve(A, [b]) is None
    assert solve(A, b) == want
    assert x_kernel_runs == [12]


def test_unsolvable_full_column_rank_exits_1(tmp_path, capsys, monkeypatch, x_kernel_runs):
    # the point certifies rank 2, its answer fails the check, and the X
    # kernel's verdict is the command's
    certified = []
    point = rank_mod._point_solve

    def spied(A, bs):
        certified.append(point(A, bs))
        return certified[-1]

    monkeypatch.setattr(rank_mod, "_point_solve", spied)
    A = tmp_path / "A.txt"
    A.write_text("3 2\n1 0\n0 1\n1 1\n")
    b = tmp_path / "b.txt"
    b.write_text("3\n1 1 5\n")
    assert run(["solve", "--field", "GF1000003", str(A), str(b)]) == 1
    assert capsys.readouterr().err == (
        "failed: Unsolvable: no solution exists for this right-hand side\n")
    assert len(certified) == 1 and certified[0] is not None
    assert x_kernel_runs == [5]


@pytest.mark.parametrize("rows, b, want", [
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [6, 15, 24], [0, 3, 0]),
    ([[2, 0, 1, 3], [1, 1, 0, 2], [3, 1, 1, 5], [0, 4, 2, 1]], [6, 4, 10, 7],
     [125003, 875004, 750003, 0]),
])
def test_rank_deficient_square_keeps_its_answer(x_kernel_runs, rows, b, want):
    # rank(A) < n: the point never certifies, and the X kernel gives the
    # answer it gave before the point path existed
    A = Matrix.from_ints(GFP, rows)
    assert rank_mod._point_solve(A, [b]) is None
    assert solve(A, b) == want
    assert x_kernel_runs == [2 * len(rows)]
    with pytest.raises(Unsolvable):
        solve(A, [1, 0, 0] + [0] * (len(rows) - 3))


def test_full_rank_12x12_skips_the_x_kernel(x_kernel_runs):
    rng = SplitMix64(12)
    A = _rand(rng, GFP, 12, 12)
    b = [rng.below(GFP.p) for _ in range(12)]
    x = solve(A, b)
    assert mat_vec(A, x) == b
    assert x_kernel_runs == []


def test_corrupt_point_result_is_not_returned(monkeypatch, x_kernel_runs):
    horner = rank_mod._point_horner
    monkeypatch.setattr(rank_mod, "_point_horner",
                        lambda *args: [v + 1 for v in horner(*args)])
    rng = SplitMix64(3)
    A = _rand(rng, GFP, 6, 4)
    b = mat_vec(A, [rng.below(GFP.p) for _ in range(4)])
    assert solve(A, b) == oracles.gauss_solve(A, b)
    assert x_kernel_runs == [10]


def test_corrupt_point_result_is_not_returned_under_optimize():
    code = ("import importlib\n"
            "from exactla import oracles\n"
            "from exactla.field import PrimeField\n"
            "from exactla.matrix import Matrix\n"
            "rank = importlib.import_module('exactla.rank')\n"
            "horner = rank._point_horner\n"
            "rank._point_horner = lambda *args: [v + 1 for v in horner(*args)]\n"
            "A = Matrix.from_ints(PrimeField(1000003), [[2, 1], [1, 3], [4, 4]])\n"
            "b = [5, 10, 16]\n"
            "print(__debug__, rank.solve(A, b), oracles.gauss_solve(A, b))\n")
    src = str(Path(exactla.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False [1, 3] [1, 3]\n"


def test_solve_30x30_over_a_large_prime_is_quick():
    rng = SplitMix64(30)
    A = _rand(rng, GFP, 30, 30)
    b = [rng.below(GFP.p) for _ in range(30)]
    start = time.perf_counter()
    x = solve(A, b)
    assert time.perf_counter() - start < 0.1
    assert mat_vec(A, x) == b


# The point gate is p > max(x0, N(N-1)/2): `below` is the largest prime it
# declines and `above` the next one.  Each matrix has full column rank mod both.
GATE_CASES = [
    ([[1]], 2, 3),  # N = 2: max(x0, 1) = 2
    ([[1], [2]], 3, 5),  # N = 3: N(N-1)/2 = 3
    ([[1, 2, 0], [0, 1, 3], [1, 0, 1]], 13, 17),  # N = 6: 15
]


@pytest.mark.parametrize("rows, below, above", GATE_CASES)
def test_point_gate_boundary(monkeypatch, x_kernel_runs, rows, below, above):
    N = len(rows) + len(rows[0])
    for p, runs in ((below, [N]), (above, [])):
        field = PrimeField(p)
        A = Matrix.from_ints(field, rows)
        b = mat_vec(A, [field.from_int(i + 1) for i in range(A.n)])
        answer = rank_mod._solve_columns(A, [b], "auto")
        assert x_kernel_runs == runs, p  # below: declined; above: the point answered
        with monkeypatch.context() as patch:
            patch.setattr(rank_mod, "_point_solve", lambda A, bs: None)
            assert rank_mod._solve_columns(A, [b], "auto") == answer
        assert answer == [oracles.gauss_solve(A, b)]
        x_kernel_runs.clear()


@pytest.mark.parametrize("rows, below, above", GATE_CASES)
def test_point_gate_reads_x0(monkeypatch, x_kernel_runs, rows, below, above):
    # x0 = p is 0 mod p: the gate declines before any scalar charpoly
    field = PrimeField(above)
    A = Matrix.from_ints(field, rows)
    b = mat_vec(A, [field.one()] * A.n)
    want = solve(A, b)
    x_kernel_runs.clear()
    scalar = []
    monkeypatch.setattr(numeric, "_X0", above)
    berkowitz = rank_mod._berkowitz_mod_p
    monkeypatch.setattr(rank_mod, "_berkowitz_mod_p",
                        lambda C, p: scalar.append(p) or berkowitz(C, p))
    assert solve(A, b) == want
    assert scalar == []
    assert x_kernel_runs == [A.m + A.n]


def test_point_solve_takes_one_scalar_charpoly(monkeypatch):
    scalar = []
    berkowitz = rank_mod._berkowitz_mod_p
    monkeypatch.setattr(rank_mod, "_berkowitz_mod_p",
                        lambda C, p: scalar.append(p) or berkowitz(C, p))
    rng = SplitMix64(28)
    for m, n in ((3, 3), (8, 5), (12, 12)):
        A = _rand(rng, GFP, m, n)
        bs = [mat_vec(A, [rng.below(GFP.p) for _ in range(n)]) for _ in range(3)]
        assert rank_mod._point_solve(A, bs) == [oracles.gauss_solve(A, b) for b in bs]
        assert scalar == [GFP.p]
        scalar.clear()
    # a repeated column: the point declines after the same one charpoly
    A = Matrix.from_ints(GFP, [[1, 1], [2, 2], [3, 3]])
    assert rank_mod._point_solve(A, [[1, 2, 3]]) is None
    assert scalar == [GFP.p]
