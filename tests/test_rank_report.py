"""RankReport.charpoly_of_polize is built from the kernel's CharPoly only
when read, and _numeric._Num.to_ints is the one reader of the fast kernel's
trimmed X-polynomials outside _numeric."""

import importlib
from fractions import Fraction

import numpy as np
import pytest

from exactla.charpoly import charpoly
from exactla.cli import run
from exactla.combinatorics import SetFamily, oddtown_check
from exactla.field import GF2, QQ, PrimeField
from exactla.matrix import Matrix
from exactla.poly import Polynomial
from exactla.rank import mulmuley_rank, polize, rank
from exactla.rng import SplitMix64

rank_mod = importlib.import_module("exactla.rank")  # the package re-exports rank()
numeric = importlib.import_module("exactla._numeric")

GFP = PrimeField(1000003)


@pytest.fixture
def builds(monkeypatch):
    """The RankReports whose charpoly_of_polize was read."""
    read = []
    built = rank_mod.RankReport.charpoly_of_polize
    monkeypatch.setattr(rank_mod.RankReport, "charpoly_of_polize",
                        property(lambda rep: read.append(rep) or built.fget(rep)))
    return read


def _rand(rng, field, m, n):
    if field is QQ:
        return Matrix(QQ, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                           for _ in range(m)])
    return Matrix(field, [[rng.below(field.p) for _ in range(n)] for _ in range(m)])


def test_rank_queries_build_no_report(builds, tmp_path, capsys):
    rng = SplitMix64(11)
    for field in (QQ, GF2, GFP):
        for method in ("auto", "generic"):
            A = _rand(rng, field, 3, 4)
            assert rank(A, method) == mulmuley_rank(A, method).rank
    path = tmp_path / "A.txt"
    path.write_text("2 3\n1 2 3\n2 4 6\n")
    assert run(["rank", str(path)]) == 0
    assert capsys.readouterr().out == "1\n"
    oddtown_check(SetFamily.from_bit_rows(4, [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]]))
    assert builds == []
    rep = mulmuley_rank(Matrix(QQ, [[Fraction(1)]]))
    rep.charpoly_of_polize
    assert builds == [rep]  # the spy sees a read


@pytest.mark.parametrize("field", [QQ, GFP], ids=["Q", "GF1000003"])
def test_report_is_the_charpoly_over_f_of_x(field):
    # the scale-free reference: Berkowitz over F(X) on polize(A) itself
    rng = SplitMix64(29)
    for m, n in ((1, 1), (2, 3), (3, 2), (3, 3)):
        A = _rand(rng, field, m, n)
        want = charpoly(polize(A)).to_polynomial()
        for method in ("fast", "generic"):
            rep = mulmuley_rank(A, method)
            assert rep.charpoly_of_polize == want, (m, n, method)
            assert rep.charpoly_of_polize == want  # built again on each read
    # scale 6 on the fast path: det(polize(diag(1/2, 1/3))) = X^6 / 36
    rep = mulmuley_rank(Matrix(QQ, [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 3)]]))
    fx = rep.charpoly_of_polize.field
    x6 = fx.from_poly(Polynomial(QQ, [Fraction(0)] * 6 + [Fraction(1, 36)]))
    assert fx.eq(rep.charpoly_of_polize.coeff(0), x6)


@pytest.mark.parametrize("num, dtype", [
    (numeric._Num(1000003, 4), np.int64),
    (numeric._Num(2 ** 61 - 1, 4), object),
    (numeric._Num(None, 4), object),
    (numeric._Num(None, 4, wrap=True), np.int64),
], ids=["int64", "object", "Z", "Z/2^64"])
def test_to_ints_reads_trimmed_pairs(num, dtype):
    assert num.dtype is dtype
    big = 2 ** 62 if dtype is object else 5
    cases = [
        (None, [], "0"),
        ((0, np.array([7], dtype=dtype)), [7], "7"),
        ((0, np.array([3, 0, big], dtype=dtype)), [3, 0, big], f"3 0 {big}"),
        ((2, np.array([1, 4], dtype=dtype)), [0, 0, 1, 4], "0 0 1 4"),
    ]
    if num.wrap:  # Z/2^64 stores the signed view
        cases.append(((1, np.array([-1, -(2 ** 63)], dtype=dtype)), [0, -1, -(2 ** 63)],
                      f"0 -1 {-(2 ** 63)}"))
    for x, ints, text in cases:
        got = num.to_ints(x)
        assert got == ints and all(type(v) is int for v in got)
        assert num.format(x) == text
