import importlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import exactla
from exactla.charpoly import CharPoly
from exactla.cli import (build_parser, format_entry, format_matrix,
                         parse_entry, parse_field, parse_matrix,
                         parse_set_family, parse_vector, run)
from exactla.errors import MalformedInput
from exactla.field import GF2, GF3, QQ, PrimeField
from exactla.matrix import Matrix
from exactla.ratfunc import RationalFunctionField
from exactla.rng import SplitMix64


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_field_selectors():
    assert parse_field("Q") is QQ or parse_field("Q") == QQ
    assert parse_field("GF2") == GF2
    assert parse_field("GF11") == PrimeField(11)
    assert parse_field("Q(X)") == RationalFunctionField(QQ)
    assert parse_field("GF3(X)") == RationalFunctionField(GF3)
    with pytest.raises(Exception):
        parse_field("R")


def test_parse_matrix_examples():
    A = parse_matrix("1 1\n5\n", QQ)
    assert A.at(1, 1) == 5
    B = parse_matrix("2 2\n1/2 0\n0 1\n", QQ)
    assert str(B.at(1, 1)) == "1/2"
    with pytest.raises(MalformedInput) as err:
        parse_matrix("2 2\n1 2\n3\n", QQ)
    assert err.value.line == 3


def test_matrix_roundtrip_per_field():
    rng = SplitMix64(77)
    fields = [QQ, GF2, GF3, RationalFunctionField(GF3)]
    for field in fields:
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            if isinstance(field, RationalFunctionField):
                rows = [[field.from_int(rng.randint(-4, 4)) for _ in range(n)]
                        for _ in range(m)]
                A = parse_matrix(format_matrix(field, Matrix(field, rows)), field)
            else:
                text = f"{m} {n}\n" + "\n".join(
                    " ".join(str(rng.randint(-9, 9)) for _ in range(n))
                    for _ in range(m))
                A = parse_matrix(text, field)
            assert parse_matrix(format_matrix(field, A), field) == A


def test_rational_function_entries():
    fx = RationalFunctionField(QQ)
    a = parse_entry(fx, "1,0,-1;0,1")  # (1 - X^2) / X
    assert format_entry(fx, a) == "1,0,-1;0,1"
    b = parse_entry(fx, "2,1")
    assert fx.is_polynomial(b)


def test_parse_vector_and_family():
    v = parse_vector("3\n1 2\n3\n", QQ)
    assert v == [1, 2, 3]
    fam = parse_set_family("3 2\n101\n0 1 1\n")
    assert fam.members == (frozenset({1, 3}), frozenset({2, 3}))
    with pytest.raises(MalformedInput):
        parse_vector("2\n1\n", QQ)
    with pytest.raises(MalformedInput):
        parse_set_family("3 2\n101\n")


def test_det_command(tmp_path, capsys):
    path = _write(tmp_path, "A.txt", "2 2\n1 2\n3 4\n")
    assert run(["det", path]) == 0
    assert capsys.readouterr().out == "-2\n"


def test_rank_gf2_identity(tmp_path, capsys):
    path = _write(tmp_path, "I.txt", "3 3\n1 0 0\n0 1 0\n0 0 1\n")
    assert run(["rank", "--field", "GF2", path]) == 0
    assert capsys.readouterr().out == "3\n"


def test_json_mode(tmp_path, capsys):
    path = _write(tmp_path, "A.txt", "2 2\n1 2\n3 4\n")
    assert run(["det", "--json", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"det": "-2"}  # numbers travel as strings


def test_exit_code_checked_failure(tmp_path, capsys):
    A = _write(tmp_path, "A.txt", "2 2\n1 0\n0 0\n")
    b = _write(tmp_path, "b.txt", "2\n0 1\n")
    assert run(["solve", A, b]) == 1


def test_exit_code_corrupt_kernel(tmp_path, capsys, monkeypatch):
    # a charpoly whose root-0 multiplicity leaves an odd rank numerator is a
    # failed certificate (exit 1), not malformed input (exit 2)
    kernel = importlib.import_module("exactla.rank")  # the package re-exports rank()
    one = (0, np.ones(1, dtype=object))
    monkeypatch.setattr(kernel, "_fast_charpoly", lambda num, B: CharPoly(
        num, [one] * B.shape[0] + [None], B.shape[0]))
    A = _write(tmp_path, "A.txt", "1 1\n1\n")
    assert run(["rank", A]) == 1
    err = capsys.readouterr().err
    assert "CertificateFailed" in err and "odd rank numerator" in err


@pytest.mark.parametrize("argv", [["det", "A.txt"], ["ramsey", "--k", "3"]])
def test_broken_pipe_exits_quietly(tmp_path, argv):
    # the reader of stdout is gone before the command writes: exit 1, no traceback
    _write(tmp_path, "A.txt", "2 2\n1 2\n3 4\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactla.__file__)))
    r, w = os.pipe()
    os.close(r)
    try:
        out = subprocess.run([sys.executable, "-m", "exactla.cli", *argv],
                             stdout=w, stderr=subprocess.PIPE, cwd=tmp_path,
                             env=dict(os.environ, PYTHONPATH=src), timeout=120)
    finally:
        os.close(w)
    assert out.returncode == 1
    assert out.stderr == b""


def test_circuit_eval_deep_nesting(tmp_path, capsys):
    depth = 5000
    text = "(add " * depth + "(const 1)" + " (const 1))" * depth
    assert run(["circuit-eval", _write(tmp_path, "deep.txt", text)]) == 0
    assert capsys.readouterr().out == f"{depth + 1}\n"


def test_exit_code_malformed(tmp_path, capsys):
    bad = _write(tmp_path, "A.txt", "2 2\n1 2\n3\n")
    assert run(["det", bad]) == 2
    missing = str(tmp_path / "nope.txt")
    assert run(["det", missing]) == 2


@pytest.mark.parametrize("argv", [
    ["ramsey", "--k", "-1"],
    ["ramsey", "--k", "1000000"],  # k^k would take seconds, then fail to print
    ["ramsey", "--k", "2", "--cap", "0"],
    ["ramsey", "--k", "2", "--cap", "-3"],
    ["selftest", "--only", "x"],
    ["selftest", "--only", "99"],
    ["det", "big.txt"],  # Fraction would build 10**999999999
    ["det", "--field", "GF100000000900000000513", "A.txt"],  # (10^10+19)(10^10+33)
    ["det", "--field", "GF3317044064679887385962123", "A.txt"],  # prime, above the bound
    ["or-poly", "--k", "0", "--p", "2", "--e", "-1"],
    ["or-poly", "--k", "-5", "--p", "3", "--e", "2"],
    ["or-poly", "--k", "1", "--p", "2", "--e", "0"],
])
def test_bad_arguments_exit_2_quickly(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "A.txt", "2 2\n1 2\n3 4\n")
    _write(tmp_path, "big.txt", "1 1\n1e999999999\n")
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("entry", ["1;", ";1", ";", "1;2;3", "1,", ",1", "1,,2;1"])
def test_fx_entry_with_an_empty_side_exits_2(tmp_path, capsys, entry):
    A = _write(tmp_path, "A.txt", f"1 1\n{entry}\n")
    assert run(["det", "--field", "Q(X)", A]) == 2
    assert f"error: bad rational-function entry {entry!r}" in capsys.readouterr().err
    one = _write(tmp_path, "I.txt", "1 1\n1\n")
    b = _write(tmp_path, "b.txt", f"1\n{entry}\n")
    assert run(["solve", "--field", "GF3(X)", one, b]) == 2
    assert f"bad rational-function entry {entry!r}" in capsys.readouterr().err


def test_large_prime_modulus(tmp_path, capsys):
    A = _write(tmp_path, "A.txt", "2 2\n1 2\n3 4\n")
    p = 10 ** 20 + 39
    assert run(["det", "--field", f"GF{p}", A]) == 0
    assert capsys.readouterr().out == f"{p - 2}\n"


def test_charpoly_and_solve_text(tmp_path, capsys):
    A = _write(tmp_path, "A.txt", "2 2\n1 2\n3 4\n")
    assert run(["charpoly", A]) == 0
    assert capsys.readouterr().out == "1 -5 -2\n"
    b = _write(tmp_path, "b.txt", "2\n3 7\n")
    assert run(["solve", A, b]) == 0
    x1, x2 = capsys.readouterr().out.split()
    from fractions import Fraction
    assert Fraction(x1) + 2 * Fraction(x2) == 3
    assert 3 * Fraction(x1) + 4 * Fraction(x2) == 7


def test_circuit_eval_command(tmp_path, capsys):
    path = _write(tmp_path, "c.sexp", "(add (div (var x) (var y)) (const 1))\n")
    assert run(["circuit-eval", path, "--assign", "x=1/2", "--assign", "y=3"]) == 0
    assert capsys.readouterr().out == "7/6\n"
    assert run(["circuit-eval", path, "--assign", "x=1", "--assign", "y=0"]) == 1


def test_combinatorics_commands(tmp_path, capsys):
    fam = _write(tmp_path, "fam.txt", "4 3\n1110\n1101\n1011\n")
    assert run(["oddtown", fam]) == 0
    gp = _write(tmp_path, "gp.txt", "3 2\n1 | 2 3\n2 | 3\n")
    assert run(["graham-pollak", gp]) == 0
    rcw = _write(tmp_path, "rcw.txt", "3 3\n110\n011\n101\n")
    assert run(["rcw", rcw, "--intersections", "1"]) == 0
    assert run(["or-poly", "--k", "2", "--p", "2", "--e", "1"]) == 0
    capsys.readouterr()


def test_byte_determinism(tmp_path, capsys):
    path = _write(tmp_path, "A.txt", "3 3\n1 2 3\n4 5 6\n7 8 10\n")
    outputs = set()
    for _ in range(3):
        assert run(["basis", path, "--json"]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_shared_parser_keeps_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    path = _write(tmp_path, "c.sexp", "(add (var x) (var y))\n")
    assert run(["circuit-eval", path, "--assign", "x=1", "--assign", "y=2"]) == 0
    assert capsys.readouterr().out == "3\n"
    # the earlier call's appended values must not carry over
    assert run(["circuit-eval", path, "--assign", "x=5"]) == 2
    assert "unassigned variable 'y'" in capsys.readouterr().err
    # an argparse rejection leaves nothing behind for the next call
    _write(tmp_path, "A.txt", "3 3\n1 2 3\n4 5 6\n7 8 10\n")
    with pytest.raises(SystemExit) as exc:
        run(["det", "--threads", "0", str(tmp_path / "A.txt")])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(["det", str(tmp_path / "A.txt")]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactla.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "exactla.cli", "det", "A.txt"],
                           capture_output=True, text=True, cwd=tmp_path,
                           env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert fresh.returncode == 0
    assert capsys.readouterr().out == fresh.stdout == "-3\n"


def test_threads_flag_is_inert(tmp_path, capsys):
    path = _write(tmp_path, "A.txt", "2 2\n1 2\n3 4\n")
    run(["det", path])
    base = capsys.readouterr().out
    run(["det", "--threads", "4", path])
    assert capsys.readouterr().out == base


# F(X) files with ';' rational entries; the rectangular Q(X) matrix has
# row 3 = row 1 + row 2, so its rank, basis, kernel and minor are not trivial.
_FX_FILES = {
    "sq_q.txt": "2 2\n1,1 0,1;1,1\n2 1;0,1\n",
    "rect_q.txt": "3 3\n1 0,1 1;1,1\n0,1 1,0,1 1\n1,1 1,1,1 2,1;1,1\n",
    "b_q.txt": "2\n1;1,1 0,1\n",
    "bad_q.txt": "3\n1 0 0\n",
    "sq_g3.txt": "2 2\n1,2 1;0,1\n2,0,1 1,1\n",
    "rect_g3.txt": "2 3\n1 0,1 2;1,1\n2 0,2 1;1,1\n",
    "b_g3.txt": "2\n1 0,1;2,1\n",
}


_FX_GOLDEN = [
    (["det", "--field", "Q(X)", "sq_q.txt"], 0, "1,2,-1;0,1,1\n"),
    (["charpoly", "--field", "Q(X)", "sq_q.txt"], 0,
     "1 -1,-1,-1;0,1 1,2,-1;0,1,1\n"),
    (["rank", "--field", "Q(X)", "sq_q.txt"], 0, "2\n"),
    (["solve", "--field", "Q(X)", "sq_q.txt", "b_q.txt"], 0,
     "-1,0,0,1;-1,-2,1 0,2,-1,-2,-1;-1,-2,1\n"),
    (["solve", "--field", "Q(X)", "rect_q.txt", "bad_q.txt"], 1, ""),
    (["rank", "--field", "Q(X)", "rect_q.txt"], 0, "2\n"),
    (["basis", "--field", "Q(X)", "rect_q.txt"], 0,
     "selected: 1 2\n3 3\n1 0,1 0\n0,1 1,0,1 0\n1,1 1,1,1 0\n"
     "3 3\n1 0 1,-1;1,1\n0 1 1;1,1\n0 0 0\n"),
    (["kernel", "--field", "Q(X)", "rect_q.txt"], 0, "3 1\n1,-1;1,1\n1;1,1\n-1\n"),
    (["minor", "--field", "Q(X)", "rect_q.txt"], 0, "U: 1 2\nV: 1 2\n"),
    (["det", "--field", "GF3(X)", "sq_g3.txt"], 0, "1,1,2,2;0,1\n"),
    (["charpoly", "--field", "GF3(X)", "sq_g3.txt"], 0, "1 1 1,1,2,2;0,1\n"),
    (["rank", "--field", "GF3(X)", "sq_g3.txt"], 0, "2\n"),
    (["solve", "--field", "GF3(X)", "sq_g3.txt", "b_g3.txt"], 0,
     "0,2,0,2;1,0,1,0,1 0,2,1,1;2,2,1,1\n"),
    (["rank", "--field", "GF3(X)", "rect_g3.txt"], 0, "1\n"),
    (["basis", "--field", "GF3(X)", "rect_g3.txt"], 0,
     "selected: 1\n2 3\n1 0 0\n2 0 0\n3 3\n1 0,1 2;1,1\n0 0 0\n0 0 0\n"),
    (["kernel", "--field", "GF3(X)", "rect_g3.txt"], 0,
     "3 2\n0,1 2;1,1\n2 0\n0 2\n"),
    (["minor", "--field", "GF3(X)", "rect_g3.txt"], 0, "U: 1\nV: 1\n"),
]


@pytest.mark.parametrize("argv, code, out", _FX_GOLDEN,
                         ids=["-".join(a[2:] + a[:1]) for a, _, _ in _FX_GOLDEN])
def test_fx_commands_golden(tmp_path, capsys, monkeypatch, argv, code, out):
    # pinned byte for byte: F(X) arithmetic must keep every canonical form
    monkeypatch.chdir(tmp_path)
    for name, text in _FX_FILES.items():
        _write(tmp_path, name, text)
    assert run(argv) == code
    assert capsys.readouterr().out == out


# Base-field files: sq is 3x3 with det -1 (-2 over Q) and invertible mod every
# tested prime; rect has row 2 = 2 * row 1 and column 2 = 2 * column 1 +
# column 3, so its rank is 2 and bad.txt (b_2 != 2 b_1) has no solution.
_BASE_FILES = {
    "Q": {"sq.txt": "3 3\n2 1/2 1\n1 3 2\n1 0 0\n",
          "rect.txt": "3 4\n1 1/2 0 1\n2 1 0 2\n0 1 1/3 0\n",
          "b.txt": "3\n1 -2 1/2\n",
          "bad.txt": "3\n0 1 0\n"},
    "GF": {"sq.txt": "3 3\n2 1 1\n1 3 2\n1 0 0\n",
           "rect.txt": "3 4\n1 2 0 1\n2 4 0 2\n0 1 1 0\n",
           "b.txt": "3\n1 -2 5\n",
           "bad.txt": "3\n0 1 0\n"},
}

_BASE_GOLDEN = [
    (["det", "--field", "Q", "sq.txt"], 0, "-2\n"),
    (["charpoly", "--field", "Q", "sq.txt"], 0, "1 -5 9/2 2\n"),
    (["rank", "--field", "Q", "rect.txt"], 0, "2\n"),
    (["solve", "--field", "Q", "sq.txt", "b.txt"], 0, "1/2 -5/4 5/8\n"),
    (["solve", "--field", "Q", "rect.txt", "bad.txt"], 1, ""),
    (["basis", "--field", "Q", "rect.txt"], 0,
     "selected: 1 2\n3 4\n1 1/2 0 0\n2 1 0 0\n0 1 0 0\n"
     "4 4\n1 0 -1/6 1\n0 1 1/3 0\n0 0 0 0\n0 0 0 0\n"),
    (["kernel", "--field", "Q", "rect.txt"], 0, "4 2\n-1/6 1\n1/3 0\n-1 0\n0 -1\n"),
    (["minor", "--field", "Q", "rect.txt"], 0, "U: 1 3\nV: 1 2\n"),
    (["det", "--field", "GF2", "sq.txt"], 0, "1\n"),
    (["charpoly", "--field", "GF2", "sq.txt"], 0, "1 1 0 1\n"),
    (["rank", "--field", "GF2", "rect.txt"], 0, "2\n"),
    (["solve", "--field", "GF2", "sq.txt", "b.txt"], 0, "1 1 0\n"),
    (["solve", "--field", "GF2", "rect.txt", "bad.txt"], 1, ""),
    (["basis", "--field", "GF2", "rect.txt"], 0,
     "selected: 1 2\n3 4\n1 0 0 0\n0 0 0 0\n0 1 0 0\n"
     "4 4\n1 0 0 1\n0 1 1 0\n0 0 0 0\n0 0 0 0\n"),
    (["kernel", "--field", "GF2", "rect.txt"], 0, "4 2\n0 1\n1 0\n1 0\n0 1\n"),
    (["minor", "--field", "GF2", "rect.txt"], 0, "U: 1 3\nV: 1 2\n"),
    (["det", "--field", "GF3", "sq.txt"], 0, "2\n"),
    (["charpoly", "--field", "GF3", "sq.txt"], 0, "1 1 1 1\n"),
    (["rank", "--field", "GF3", "rect.txt"], 0, "2\n"),
    (["solve", "--field", "GF3", "sq.txt", "b.txt"], 0, "2 2 1\n"),
    (["solve", "--field", "GF3", "rect.txt", "bad.txt"], 1, ""),
    (["basis", "--field", "GF3", "rect.txt"], 0,
     "selected: 1 2\n3 4\n1 2 0 0\n2 1 0 0\n0 1 0 0\n"
     "4 4\n1 0 1 1\n0 1 1 0\n0 0 0 0\n0 0 0 0\n"),
    (["kernel", "--field", "GF3", "rect.txt"], 0, "4 2\n1 1\n1 0\n2 0\n0 2\n"),
    (["minor", "--field", "GF3", "rect.txt"], 0, "U: 1 3\nV: 1 2\n"),
    (["det", "--field", "GF1000003", "sq.txt"], 0, "1000002\n"),
    (["charpoly", "--field", "GF1000003", "sq.txt"], 0, "1 999998 4 1\n"),
    (["rank", "--field", "GF1000003", "rect.txt"], 0, "2\n"),
    (["solve", "--field", "GF1000003", "sq.txt", "b.txt"], 0, "5 11 999983\n"),
    (["solve", "--field", "GF1000003", "rect.txt", "bad.txt"], 1, ""),
    (["basis", "--field", "GF1000003", "rect.txt"], 0,
     "selected: 1 2\n3 4\n1 2 0 0\n2 4 0 0\n0 1 0 0\n"
     "4 4\n1 0 1000001 1\n0 1 1 0\n0 0 0 0\n0 0 0 0\n"),
    (["kernel", "--field", "GF1000003", "rect.txt"], 0,
     "4 2\n1000001 1\n1 0\n1000002 0\n0 1000002\n"),
    (["minor", "--field", "GF1000003", "rect.txt"], 0, "U: 1 3\nV: 1 2\n"),
    (["or-poly", "--k", "4", "--p", "2", "--e", "2"], 0,
     "mod 2^2: coefficients 0 1 1 1\nvalues on 0..3: 0 1 1 1\n"),
]


@pytest.mark.parametrize("argv, code, out", _BASE_GOLDEN,
                         ids=["-".join(t.lstrip("-") for t in a) for a, _, _ in _BASE_GOLDEN])
def test_base_field_commands_golden(tmp_path, capsys, monkeypatch, argv, code, out):
    # pinned byte for byte: the fast kernel's read-back must keep every answer
    monkeypatch.chdir(tmp_path)
    for name, text in _BASE_FILES["Q" if "Q" in argv else "GF"].items():
        _write(tmp_path, name, text)
    assert run(argv) == code
    assert capsys.readouterr().out == out
