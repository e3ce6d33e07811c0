"""rank over GF(p) at one point of X.

mulmuley_rank first takes the scalar characteristic polynomial of
C(x0) = diag(x0^i) * symm(A).  Its root-0 multiplicity mul(x0) bounds the
rank from below, (N - mul(x0)) / 2 <= rank(A), at every point; when the
bound reaches min(m, n) it is the answer and no X-polynomial is built.
Otherwise the X kernel answers as before.
"""

import importlib

import pytest

from exactla import oracles
from exactla.cli import run
from exactla.field import PrimeField
from exactla.matrix import Matrix
from exactla.rank import mulmuley_rank, rank
from exactla.rng import SplitMix64

from test_point_solve import GATE_CASES

rank_mod = importlib.import_module("exactla.rank")  # the package re-exports rank()
numeric = importlib.import_module("exactla._numeric")

GFP = PrimeField(1000003)
BIG = PrimeField(2 ** 61 - 1)  # past the int64 guard: object arrays


def _rand(rng, field, m, n):
    return Matrix(field, [[rng.below(field.p) for _ in range(n)] for _ in range(m)])


def _of_rank(rng, field, m, n, r):
    """An m x n product of random m x r and r x n factors: rank at most r."""
    return _rand(rng, field, m, r) @ _rand(rng, field, r, n)


@pytest.fixture
def runs(monkeypatch):
    """Count the X kernel's charpolys ("x", by order) and the scalar
    charpolys ("scalar", by prime)."""
    calls = {"x": [], "scalar": []}
    fast, berkowitz = rank_mod._fast_charpoly, rank_mod._berkowitz_mod_p

    def x_kernel(num, B):
        calls["x"].append(B.shape[0])
        return fast(num, B)

    def scalar(C, p):
        calls["scalar"].append(p)
        return berkowitz(C, p)

    monkeypatch.setattr(rank_mod, "_fast_charpoly", x_kernel)
    monkeypatch.setattr(rank_mod, "_berkowitz_mod_p", scalar)
    return calls


FULL = [(1, 1), (3, 5), (5, 3), (8, 8), (12, 7), (7, 12), (16, 16), (30, 30),
        (40, 25), (25, 40), (40, 40)]
DEFICIENT = [(2, 2, 1), (6, 9, 4), (9, 6, 2), (20, 16, 11), (24, 24, 20),
             (40, 8, 5), (8, 40, 6)]


@pytest.mark.parametrize("m, n", FULL)
def test_full_rank_takes_one_scalar_charpoly(runs, m, n):
    A = _rand(SplitMix64(m * 100 + n), GFP, m, n)
    want = oracles.gauss_rank(A)
    assert want == min(m, n)
    rep = mulmuley_rank(A)
    assert (rep.rank, rep.mul) == (want, m + n - 2 * want)
    assert runs == {"x": [], "scalar": [GFP.p]}


@pytest.mark.parametrize("m, n, r", DEFICIENT)
def test_deficient_rank_falls_back_to_the_x_kernel(runs, m, n, r):
    A = _of_rank(SplitMix64(m * 100 + n), GFP, m, n, r)
    want = oracles.gauss_rank(A)
    assert want < min(m, n)
    assert rank(A) == want
    assert runs == {"x": [m + n], "scalar": [GFP.p]}


def test_object_dtype_prime():
    rng = SplitMix64(61)
    assert numeric._point_matrix(BIG.p, [1], 1, 1).dtype == object
    for m, n, r in ((1, 1, 1), (3, 3, 3), (4, 6, 4), (6, 4, 4), (5, 5, 3), (4, 6, 2)):
        A = _of_rank(rng, BIG, m, n, r)
        assert rank(A) == oracles.gauss_rank(A) == rank(A, "generic") == r


def test_generic_never_takes_the_point(runs):
    rng = SplitMix64(7)
    for m, n in ((1, 1), (2, 3), (3, 2), (4, 4)):
        A = _rand(rng, GFP, m, n)
        assert mulmuley_rank(A, "generic").rank == oracles.gauss_rank(A)
    assert runs == {"x": [], "scalar": []}


def test_nilpotent_point_falls_back(monkeypatch, runs):
    # C(0) = diag(1, 0, ..., 0) * symm(A) is nilpotent: mul(0) = N, no certificate
    A = _rand(SplitMix64(5), GFP, 7, 5)
    want = mulmuley_rank(A)
    assert runs == {"x": [], "scalar": [GFP.p]}
    runs["scalar"].clear()
    monkeypatch.setattr(numeric, "_X0", 0)
    C, ch = rank_mod._point_charpoly(A, [e for r in A.rows for e in r], GFP.p)
    assert ch.root0_mul() == 12
    rep = mulmuley_rank(A)
    assert (rep.rank, rep.mul) == (want.rank, want.mul) == (5, 2)
    assert runs == {"x": [12], "scalar": [GFP.p, GFP.p]}


@pytest.mark.parametrize("rows, below, above", GATE_CASES)
def test_gate_reads_x0(monkeypatch, runs, rows, below, above):
    # x0 = p is 0 mod p: the gate declines before any scalar charpoly
    A = Matrix.from_ints(PrimeField(above), rows)
    want = rank(A)
    runs["scalar"].clear()
    monkeypatch.setattr(numeric, "_X0", above)
    assert rank(A) == want == oracles.gauss_rank(A)
    assert runs == {"x": [A.m + A.n], "scalar": []}


@pytest.mark.parametrize("rows, below, above", GATE_CASES)
def test_gate_boundary(runs, rows, below, above):
    N = len(rows) + len(rows[0])
    for p, want_runs in ((below, {"x": [N], "scalar": []}),
                         (above, {"x": [], "scalar": [above]})):
        A = Matrix.from_ints(PrimeField(p), rows)
        rep = mulmuley_rank(A)
        assert runs == want_runs, p  # below: declined; above: the point answered
        runs["x"].clear()
        generic = mulmuley_rank(A, "generic")
        assert (rep.rank, rep.mul) == (generic.rank, generic.mul)
        assert rep.rank == oracles.gauss_rank(A) == min(A.m, A.n)
        runs["scalar"].clear()


def test_point_report_equals_generic(runs):
    rng = SplitMix64(34)
    for m in range(1, 4):
        for n in range(1, 5):
            A = _rand(rng, GFP, m, n)
            rep = mulmuley_rank(A)
            assert runs["x"] == [], (m, n)  # answered at the point
            generic = mulmuley_rank(A, "generic")
            assert (rep.mul, rep.rank) == (generic.mul, generic.rank)
            assert rep.charpoly_of_polize == generic.charpoly_of_polize
            assert runs["x"] == [m + n]  # the report is built when read
            runs["x"].clear()


def test_cli_rank_40x40_skips_the_x_kernel(tmp_path, capsys, runs):
    rng = SplitMix64(40)
    rows = [[rng.below(GFP.p) for _ in range(40)] for _ in range(40)]
    path = tmp_path / "A.txt"
    path.write_text("40 40\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    assert run(["rank", "--field", "GF1000003", str(path)]) == 0
    assert capsys.readouterr().out == f"{oracles.gauss_rank(Matrix.from_ints(GFP, rows))}\n"
    assert runs == {"x": [], "scalar": [GFP.p]}
