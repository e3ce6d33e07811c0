"""Every certificate fires.

Each test corrupts the one computation a check certifies, by monkeypatch,
and expects the check's typed error; where a command reaches the check, it
expects exit 1 from cli.run with the error on stderr.
"""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import exactla
from exactla.cli import run
from exactla.errors import CertificateFailed, PreconditionViolated, SystemUnsolvable
from exactla.field import QQ
from exactla.matrix import Matrix

rank_mod = importlib.import_module("exactla.rank")
cb = importlib.import_module("exactla.combinatorics")

ODD = "4 3\n1110\n1101\n1011\n"  # an oddtown family
FANO = "7 7\n1101000\n0110100\n0011010\n0001101\n1000110\n0100011\n1010001\n"
DEFICIENT = "3 3\n1 2 3\n4 5 6\n7 8 9\n"  # rank 2: column 3 = 2 col 2 - col 1
# L = {0, 1}: every two members meet in at most one point; the RCW bound is 11
RCW = "4 4\n1100\n0011\n1010\n0101\n"


def _failed(argv, capsys):
    """cli.run's exit code and stderr for argv."""
    code = run(argv)
    return code, capsys.readouterr().err


def _off_by_one_coefficients(monkeypatch):
    """Coefficient solves that answer, past their own check, one more than
    the true coordinates."""
    solve_columns = rank_mod._solve_columns

    def corrupt(A, bs, method):
        F = A.field
        return [[F.add(c, F.one()) for c in x] for x in solve_columns(A, bs, method)]

    monkeypatch.setattr(rank_mod, "_solve_columns", corrupt)


def test_basis_reconstruction_fires(monkeypatch):
    _off_by_one_coefficients(monkeypatch)
    A = Matrix.from_ints(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(CertificateFailed, match="basis reconstruction failed"):
        rank_mod.greedy_basis(A)


@pytest.mark.parametrize("command", ["basis", "kernel"])
def test_basis_reconstruction_exits_1(tmp_path, capsys, monkeypatch, command):
    _off_by_one_coefficients(monkeypatch)
    path = tmp_path / "A.txt"
    path.write_text(DEFICIENT)
    assert _failed([command, str(path)], capsys) == (
        1, "failed: CertificateFailed: basis reconstruction failed\n")


def test_basis_reconstruction_exits_1_under_optimize(tmp_path):
    path = tmp_path / "A.txt"
    path.write_text(DEFICIENT)
    code = ("import importlib, sys\n"
            "from exactla.cli import run\n"
            "rank = importlib.import_module('exactla.rank')\n"
            "solve_columns = rank._solve_columns\n"
            "rank._solve_columns = lambda A, bs, method: [\n"
            "    [c + 1 for c in x] for x in solve_columns(A, bs, method)]\n"
            f"code = run(['basis', {str(path)!r}])\n"
            "print(__debug__, code)\n")
    src = str(Path(exactla.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False 1\n"
    assert out.stderr == "failed: CertificateFailed: basis reconstruction failed\n"


def test_oddtown_rank_fires(tmp_path, capsys, monkeypatch):
    mulmuley_rank = cb.mulmuley_rank
    monkeypatch.setattr(cb, "mulmuley_rank",
                        lambda A: SimpleNamespace(rank=mulmuley_rank(A).rank - 1))
    family = cb.SetFamily.from_bit_rows(4, [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]])
    with pytest.raises(CertificateFailed, match="dependent"):
        cb.oddtown_check(family)
    path = tmp_path / "odd.txt"
    path.write_text(ODD)
    assert _failed(["oddtown", str(path)], capsys) == (
        1, "failed: CertificateFailed: incidence rows over GF(2) are dependent\n")


def test_fisher_gram_det_fires(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cb, "det", lambda A: Fraction(0))
    path = tmp_path / "fano.txt"
    path.write_text(FANO)
    assert _failed(["fisher", str(path), "--lam", "1"], capsys) == (
        1, "failed: CertificateFailed: Gram determinant vanished on a valid Fisher family\n")


def test_or_poly_system_fires(capsys, monkeypatch):
    # a Horner that misses by one fails solve's contract check, which
    # or_poly_mod_pe reports as a construction bug
    horner = rank_mod._horner
    monkeypatch.setattr(rank_mod, "_horner", lambda *args: [v + 1 for v in horner(*args)])
    with pytest.raises(SystemUnsolvable):
        cb.or_poly_mod_pe(4, 2, 2)
    assert _failed(["or-poly", "--k", "4", "--p", "2", "--e", "2"], capsys) == (
        1, "failed: SystemUnsolvable: the s_a-value system is singular; construction bug\n")


@pytest.mark.parametrize("coeffs, message", [
    ([1], "diagonal entry nonzero mod 6"),  # f = 1 does not vanish at 0
    ([0], "off-diagonal entry zero mod 6"),  # f = 0 vanishes everywhere
])
def test_co_diagonal_mod_6_fires(capsys, monkeypatch, coeffs, message):
    monkeypatch.setattr(cb, "or_poly_mod_pe",
                        lambda k, p, e: cb.SymmetricPolySpec(p, e, coeffs))
    with pytest.raises(PreconditionViolated, match=message):
        cb.grolmusz_graph(2)
    assert _failed(["ramsey", "--k", "2"], capsys) == (
        1, f"failed: PreconditionViolated: {message}\n")


def test_independence_bound_fires(capsys, monkeypatch):
    # a Z3 rank of 0 bounds independent sets by 1; k = 2 has one of size 2
    elim_rank = cb._elim_rank
    monkeypatch.setattr(cb, "_elim_rank", lambda p, rows: 0 if p == 3 else elim_rank(p, rows))
    built = cb.grolmusz_graph(2)
    with pytest.raises(CertificateFailed, match="beats the Z3 bound"):
        cb.ramsey_check(built["graph"], built["rank2"], built["rank3"])
    assert _failed(["ramsey", "--k", "2"], capsys) == (
        1, "failed: CertificateFailed: independent set 2 beats the Z3 bound 1\n")


# the count-basis checks (degree above |L|, evaluation faithfulness) fire in
# test_cli.py::test_rcw_checks_the_multilinearized_coefficients
@pytest.mark.parametrize("module, name, fake, err", [
    (cb.cc, "_eval_at", lambda root, field, points: [0] * len(points),
     "PreconditionViolated: zero diagonal in the evaluation matrix"),
    (cb.cc, "_eval_at", lambda root, field, points: [1] * len(points),
     "PreconditionViolated: evaluation matrix is not upper triangular"),
    (cb, "_ball", lambda n, s: 3, "PreconditionViolated: family of 4 sets exceeds the bound 3"),
], ids=["zero-diagonal", "not-triangular", "bound"])
def test_rcw_certificate_fires(tmp_path, capsys, monkeypatch, module, name, fake, err):
    path = tmp_path / "rcw.txt"
    path.write_text(RCW)
    argv = ["rcw", str(path), "--intersections", "0,1"]
    assert _failed(argv, capsys)[0] == 0
    monkeypatch.setattr(module, name, fake)
    assert _failed(argv, capsys) == (1, f"failed: {err}\n")


def test_rcw_zero_diagonal_exits_1_under_optimize(tmp_path):
    path = tmp_path / "rcw.txt"
    path.write_text(RCW)
    code = ("import importlib\n"
            "from exactla.cli import run\n"
            "circuit = importlib.import_module('exactla.circuit')\n"
            "circuit._eval_at = lambda root, field, points: [0] * len(points)\n"
            f"code = run(['rcw', {str(path)!r}, '--intersections', '0,1'])\n"
            "print(__debug__, code)\n")
    src = str(Path(exactla.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False 1\n"
    assert out.stderr == "failed: PreconditionViolated: zero diagonal in the evaluation matrix\n"
