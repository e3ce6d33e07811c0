import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import exactla
from exactla.charpoly import CharPoly
from exactla.cli import (build_parser, format_entry, format_matrix,
                         parse_bicliques, parse_entry, parse_field,
                         parse_matrix, parse_set_family, parse_vector, run)
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


@pytest.mark.parametrize("read, text, line, column", [
    (lambda t: parse_matrix(t, QQ), "2 2\n1 2\n\n3 x\n", 4, 2),
    (lambda t: parse_matrix(t, QQ), "2 2\n1 2\n\n3\n", 4, 2),
    (lambda t: parse_vector(t, QQ), "4\n1 2\n\n3 x\n", 4, 2),
    (lambda t: parse_vector(t, QQ), "4\n\n1\n \n2 3 x\n", 5, 3),
    (parse_set_family, "3 2\n101\n\n0x1\n", 4, None),
    (parse_set_family, "3 3\n101\n\n011\n", 4, None),
    (parse_set_family, "\n\n3 x\n101\n", 3, None),
    (parse_bicliques, "3 2\n1 | 2\n\n1 2\n", 4, None),
    (parse_bicliques, "\n3 1\n\n1 | x\n", 4, None),
], ids=["matrix-entry", "matrix-row", "vector-entry", "vector-later-line",
        "family-bits", "family-count", "family-header", "bicliques-bar",
        "bicliques-vertex"])
def test_errors_name_the_physical_line(read, text, line, column):
    # blank lines count: the location is where the bad text is in the file
    with pytest.raises(MalformedInput) as err:
        read(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_only_family_and_biclique_headers_may_follow_blank_lines():
    assert parse_set_family("\n \n2 1\n11\n").m == 1
    assert parse_bicliques("\n2 1\n1 | 2\n") == (2, [({1}, {2})])
    for read in (lambda t: parse_matrix(t, QQ), lambda t: parse_vector(t, QQ)):
        with pytest.raises(MalformedInput, match="missing .* header at line 1$"):
            read("\n1 1\n1\n")


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
    monkeypatch.setattr(kernel, "_fast_charpoly", lambda num, B: CharPoly(
        num, [(0, np.ones(1, dtype=num.dtype))] * B.shape[0] + [None], B.shape[0]))
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


@pytest.mark.parametrize("header", ["--1 1", "1 --1", "² 1", "9" * 5000 + " 1"],
                         ids=["sign-sign", "sign-sign-2", "superscript", "5000-digits"])
def test_header_int_refused_by_int_exits_2(tmp_path, capsys, header):
    # each passes the digit check but not int(): a repeated sign, a
    # superscript digit, a number past int's 4300-digit str limit
    A = _write(tmp_path, "A.txt", f"{header}\n1\n")
    assert run(["det", A]) == 2
    assert capsys.readouterr().err == "error: expected 2 integers in the header at line 1\n"


def test_answer_past_the_digit_limit_exits_1(tmp_path, capsys):
    big = "9" * 3000
    A = _write(tmp_path, "A.txt", f"2 2\n{big} 0\n0 {big}\n")
    for field in ("Q", "Q(X)"):
        assert run(["det", "--field", field, A]) == 1
        err = capsys.readouterr().err
        assert err == "failed: SizeExceeded: an answer entry has more than 4300 digits\n"


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "A.txt"
    path.write_bytes(b"1 1\n\xff\n")
    assert run(["det", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot read {path}: not UTF-8 text (byte 4)\n"


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
    ["or-poly", "--k", "1", "--p", "3", "--e", "100000000"],  # 3^(10^8) is never computed
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


def test_ramsey_past_the_vertex_limit_exits_1_quickly(capsys):
    # 5^5 = 3125 vertices: refused before its matrices and ranks are built
    start = time.perf_counter()
    assert run(["ramsey", "--k", "5"]) == 1
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failed: CapExceeded: 3125 vertices; pass an explicit cap <= 256\n"


def test_ramsey_k_stops_where_the_mod_3_modulus_does(capsys):
    # the mod-3 OR-polynomial needs 3^e <= 16 with (3^e)^2 >= k, so k <= 9^2
    assert run(["ramsey", "--k", "81", "--cap", "2"]) == 0
    assert capsys.readouterr().out.startswith("k = 81, vertices = 2,")
    assert run(["ramsey", "--k", "82", "--cap", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: k must be in 0..81, got 82\n"


@pytest.mark.parametrize("argv, head", [
    (["--k", "3"], "k = 3, vertices = 27, edge rule: entry odd\n"
                   "rank2 = 6, rank3 = 14\nclique = 4 <= 7\nindependence = 4 <= 106\n"),
    (["--k", "4", "--cap", "64"], "k = 4, vertices = 64, edge rule: entry odd\n"
                                  "rank2 = 8, rank3 = 36\nclique = 6 <= 9\n"
                                  "independence = 4 <= 667\n"),
    (["--k", "4", "--cap", "160"], "k = 4, vertices = 160, edge rule: entry odd\n"
                                   "rank2 = 10, rank3 = 54\nclique = 9 <= 11\n"
                                   "independence = 12 <= 1486\n"),
], ids=["k3", "k4-cap64", "k4-cap160"])
def test_ramsey_reports_are_pinned(capsys, argv, head):
    assert run(["ramsey", *argv]) == 0
    assert "".join(capsys.readouterr().out.splitlines(keepends=True)[:4]) == head


def test_ramsey_on_192_vertices_is_quick(capsys):
    start = time.perf_counter()
    assert run(["ramsey", "--k", "4", "--cap", "192"]) == 0
    assert time.perf_counter() - start < 3
    assert "clique = 9 <= 11\n" in capsys.readouterr().out


def _plus_one_constant(c):
    return [c[0] + 1] + c[1:]


def _with_degree_above_s(c):
    return c + [1]


@pytest.mark.parametrize("corrupt, err", [
    (_plus_one_constant,
     "failed: CertificateFailed: multilinearization is not evaluation-faithful\n"),
    (_with_degree_above_s,
     "failed: PreconditionViolated: monomial of degree above |L| survived\n"),
], ids=["wrong-coefficient", "degree-above-s"])
def test_rcw_checks_the_multilinearized_coefficients(tmp_path, capsys, monkeypatch,
                                                     corrupt, err):
    # the triangle with L = {1} (s = 1) passes; a wrong count-basis
    # coefficient, or one of degree s + 1, must fail the certificate
    cb = importlib.import_module("exactla.combinatorics")
    real = cb._count_basis
    tri = _write(tmp_path, "tri.txt", "3 3\n110\n011\n101\n")
    assert run(["rcw", tri, "--intersections", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cb, "_count_basis", lambda *args: corrupt(real(*args)))
    assert run(["rcw", tri, "--intersections", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


def test_ct_on_a_long_vector_is_quick(tmp_path, capsys):
    # the gadget applies each T_j to the vector, not as an (n+1)^2 matrix
    v = [(3 * i) % 5 - 2 for i in range(150)]  # 30 zeros
    path = _write(tmp_path, "v.txt", "150\n" + " ".join(map(str, v)) + "\n")
    start = time.perf_counter()
    assert run(["ct", path]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "120\n"


@pytest.mark.parametrize("n, bound", [(40, 102091), (100, 4087976)])
def test_rcw_on_a_wide_member_is_quick(tmp_path, capsys, n, bound):
    # one member holding all n points, with s = 4: the cross-check works in
    # the count basis, not over the `bound` monomials of its witness
    path = _write(tmp_path, "fam.txt", f"{n} 1\n" + "1" * n + "\n")
    start = time.perf_counter()
    assert run(["rcw", path, "--intersections", "0,1,2,3"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == f"m = 1, n = {n}, s = 4, bound = {bound}, bound holds\n"


def test_rcw_on_a_120_member_sunflower_is_quick(tmp_path, capsys):
    # core {1, 2} and disjoint 3-point petals over 400 points: each witness
    # is built on its member's 5 points and evaluated on the 362 the members hold
    rows = ["".join("1" if j in (1, 2, 3 * a + 3, 3 * a + 4, 3 * a + 5) else "0"
                    for j in range(1, 401)) for a in range(120)]
    path = _write(tmp_path, "fam.txt", "400 120\n" + "\n".join(rows) + "\n")
    start = time.perf_counter()
    assert run(["rcw", path, "--intersections", "2"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == "m = 120, n = 400, s = 1, bound = 401, bound holds\n"


@pytest.mark.parametrize("top, flags", [(1399, []), (1399, ["--json"]), (4999, [])])
def test_rcw_bound_past_the_digit_limit_exits_1(tmp_path, capsys, top, flags):
    # sum_{i<=s} binom(10^6, i) has 4,603 digits at s = 1400: the report
    # refuses to print it, after summing the s + 1 terms in linear time
    path = _write(tmp_path, "empty.txt", "1000000 0\n")
    L = ",".join(str(lk) for lk in range(top + 1))
    start = time.perf_counter()
    assert run(["rcw", path, "--intersections", L, *flags]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failed: SizeExceeded: an answer entry has more than 4300 digits\n"


@pytest.mark.parametrize("argv, err", [
    (["det", "--field", "R", "nope.txt"], "bad field selector 'R'"),
    (["circuit-eval", "--field", "GF4", "nope.txt"], "modulus 4 is not a prime"),
    (["solve", "bad.txt", "nope.txt"], "expected 2 entries, found 1 at line 2, column 2"),
    (["solve", "--field", "GF2", "A.txt", "bad.txt"], "expected 1 integers in the header"),
    (["rcw", "nope.txt", "--intersections", "1,x"], "bad intersection list '1,x'"),
    (["oddtown", "--field", "R", "nope.txt"], "cannot read nope.txt"),
    (["selftest", "--only", "1,,2"], "bad criterion list '1,,2'"),
])
def test_error_precedence(tmp_path, capsys, monkeypatch, argv, err):
    # the field selector first, then the inputs in argv order; commands that
    # compute over no field ignore --field
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "A.txt", "2 2\n1 2\n3 4\n")
    _write(tmp_path, "bad.txt", "2 2\n1\n3 4\n")
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {err}")


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


# --- fuzzer: every input ends in an answer or a typed error ------------------

_FUZZ_FIELDS = ("Q", "GF2", "GF3", "GF1000003", "Q(X)", "GF3(X)",
                "GF4", "GF", "GF-3", "GFx", "Q(Y)", "R", "", "GF1e3", "gf2")

_FUZZ_TOKENS = ("1/2", "-3/4", "0.25", "1/0", "x", "1e5", "--1", "1,2", "1;0,1",
                "1,", ";", "½", "٣", "²", "nan", "inf", "0x1f")


@st.composite
def _fuzz_file(draw, vector):
    """File bytes near the matrix (or vector) format: headers right and
    wrong, tokens good and bad, huge numbers, truncation and non-UTF-8."""
    m, n = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
    # two entries of 2200 digits multiply past int's 4300-digit str limit
    token = st.one_of(st.integers(-9, 9).map(str), st.sampled_from(_FUZZ_TOKENS),
                      st.sampled_from((30, 2200, 4400)).map(lambda d: "9" * d))
    header = f"{n}" if vector else f"{m} {n}"
    header = draw(st.sampled_from((header, header, "", "x y", "2", "1 1 1",
                                   "9" * 5000 + " 1", "² 1", "--1 2")))
    if draw(st.booleans()):  # the declared shape
        shape = (1, max(n, 0)) if vector else (max(m, 0), max(n, 0))
        rows = draw(st.lists(st.lists(token, min_size=shape[1], max_size=shape[1]),
                             min_size=shape[0], max_size=shape[0]))
    else:
        rows = draw(st.lists(st.lists(token, max_size=4), max_size=4))
    text = "\n".join([header] + [" ".join(r) for r in rows]).encode()
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        bad = draw(st.sampled_from((b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80")))
        text = text[:at] + bad + text[at:]
    return text


@settings(max_examples=150)
@given(command=st.sampled_from(("det", "charpoly", "rank", "kernel", "basis",
                                "minor", "solve", "ct")),
       field=st.sampled_from(_FUZZ_FIELDS), data=st.data())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, command, field, data):
    # exit 0, 1 or 2; a failure is one line of `error:` or `failed:`, never
    # a traceback, and no case takes long
    root = tmp_path_factory.mktemp("fuzz")
    first = root / "first.txt"
    first.write_bytes(data.draw(_fuzz_file(vector=command == "ct")))
    argv = [command, "--field", field, str(first)]
    if command == "solve":
        rhs = root / "rhs.txt"
        rhs.write_bytes(data.draw(_fuzz_file(vector=True)))
        argv.append(str(rhs))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.perf_counter() - start < 2
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith(("error:", "failed:"))
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("field", ["Q", "GF2", "GF1000003", "Q(X)"])
@settings(max_examples=2)
@given(v=st.lists(st.integers(-2, 2), min_size=100, max_size=150), data=st.data())
def test_cli_fuzz_ct_long_vectors(tmp_path_factory, field, v, data):
    # _fuzz_file draws at most 3 entries; ct's gadget applies one T_j per
    # entry to a vector of length n + 1, which only long vectors show
    path = tmp_path_factory.mktemp("fuzz") / "v.txt"
    path.write_text(f"{len(v)}\n{' '.join(map(str, v))}\n")
    k = data.draw(st.one_of(st.none(), st.integers(0, len(v))))
    argv = ["ct", "--field", field, str(path)] + ([] if k is None else ["--k", str(k)])
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    assert time.perf_counter() - start < 2
    want = sum(1 for x in v[:k] if (x % 2 if field == "GF2" else x))
    assert out.getvalue() == f"{want}\n"


# Every other command, text and --json, and --json of the matrix commands
# over Q and Q(X).  An entry's text of None is pinned by the tests above;
# a report of None means --json prints nothing (the command fails).
_MORE_FILES = {
    "sq.txt": "3 3\n2 1/2 1\n1 3 2\n1 0 0\n",
    "rect.txt": "3 4\n1 1/2 0 1\n2 1 0 2\n0 1 1/3 0\n",
    "b.txt": "3\n1 -2 1/2\n",
    "sq_x.txt": "2 2\n1,1 0,1;1,1\n2 1;0,1\n",
    "rect_x.txt": "2 3\n1 0,1 2;1,1\n2 0,2 4;1,1\n",
    "b_x.txt": "2\n1;1,1 0,1\n",
    "v.txt": "5\n1 0 -2\n0 3/4\n",
    "c.sexp": "(add (div (var x) (var y)) (const 1))\n",
    "odd.txt": "4 3\n1110\n1101\n1011\n",
    "even.txt": "4 2\n1100\n0011\n",
    "fano.txt": "7 7\n1101000\n0110100\n0011010\n0001101\n1000110\n0100011\n1010001\n",
    "tri.txt": "3 3\n110\n011\n101\n",
    "gp.txt": "4 3\n1 | 2 3 4\n2 | 3 4\n3 | 4\n",
    "gp_bad.txt": "3 1\n1 | 2\n",
}

_BOUND_REPORT = {"upper_triangular": True, "diag_nonzero": True, "bound_holds": True}

_MORE_GOLDEN = [
    (["ct", "v.txt"], 0, "3\n", {"count": "3"}),
    (["ct", "v.txt", "--k", "3"], 0, "2\n", {"count": "2"}),
    (["ct", "--field", "GF3", "v.txt"], 2, "", None),
    (["ct", "v.txt", "--k", "6"], 2, "", None),
    (["circuit-eval", "c.sexp", "--assign", "x=1/2", "--assign", "y=3"], 0,
     "7/6\n", {"value": "7/6"}),
    (["circuit-eval", "--field", "GF7", "c.sexp", "--assign", "x=1", "--assign", "y=3"],
     0, "6\n", {"value": "6"}),
    (["circuit-eval", "--field", "Q(X)", "c.sexp", "--assign", "x=0,1",
      "--assign", "y=1,1"], 0, "1,2;1,1\n", {"value": "1,2;1,1"}),
    (["circuit-eval", "c.sexp", "--assign", "x=1", "--assign", "y=0"], 1, "", None),
    (["oddtown", "odd.txt"], 0, "m = 3, n = 4, gf2 rank = 3, bound holds\n",
     {"m": "3", "n": "4", "gf2_rank": "3", "bound_holds": True}),
    (["oddtown", "--field", "R", "odd.txt"], 0,  # --field is ignored here
     "m = 3, n = 4, gf2 rank = 3, bound holds\n",
     {"m": "3", "n": "4", "gf2_rank": "3", "bound_holds": True}),
    (["oddtown", "even.txt"], 1, "", None),
    (["fisher", "fano.txt", "--lam", "1"], 0,
     "m = 7, n = 7, gram det = 576, bound holds\n",
     {"m": "7", "n": "7", "gram_det": "576", "bound_holds": True}),
    (["fisher", "tri.txt", "--lam", "1"], 0, "m = 3, n = 3, gram det = 4, bound holds\n",
     {"m": "3", "n": "3", "gram_det": "4", "bound_holds": True}),
    (["fisher", "odd.txt", "--lam", "1"], 1, "", None),
    (["graham-pollak", "gp.txt"], 0, "n = 4, bicliques = 3, bound holds\n",
     {"n": "4", "count": "3", "bound_holds": True}),
    (["graham-pollak", "gp_bad.txt"], 1, "", None),
    (["rcw", "tri.txt", "--intersections", "1"], 0,
     "m = 3, n = 3, s = 1, bound = 4, bound holds\n",
     {"m": "3", "n": "3", "s": "1", "bound": "4", **_BOUND_REPORT}),
    (["rcw", "fano.txt", "--intersections", "0,1"], 0,
     "m = 7, n = 7, s = 2, bound = 29, bound holds\n",
     {"m": "7", "n": "7", "s": "2", "bound": "29", **_BOUND_REPORT}),
    (["rcw", "tri.txt", "--intersections", "0"], 1, "", None),
    (["ramsey", "--k", "2"], 0,
     "k = 2, vertices = 4, edge rule: entry odd\nrank2 = 2, rank3 = 3\n"
     "clique = 2 <= 3\nindependence = 2 <= 7\n0110\n1001\n1001\n0110\n",
     {"k": "2", "n": "4", "edge_rule": "odd", "rank2": "2", "rank3": "3",
      "clique": "2", "independence": "2", "clique_bound": "3",
      "independence_bound": "7", "bounds_hold": True,
      "adjacency": ["0110", "1001", "1001", "0110"]}),
    (["or-poly", "--k", "4", "--p", "2", "--e", "2"], 0,
     "mod 2^2: coefficients 0 1 1 1\nvalues on 0..3: 0 1 1 1\n",
     {"p": "2", "e": "2", "coeffs": ["0", "1", "1", "1"], "window": ["0", "1", "1", "1"]}),
    (["or-poly", "--k", "3", "--p", "3", "--e", "1"], 0,
     "mod 3^1: coefficients 0 1 2\nvalues on 0..2: 0 1 1\n",
     {"p": "3", "e": "1", "coeffs": ["0", "1", "2"], "window": ["0", "1", "1"]}),
    (["det", "sq.txt"], 0, None, {"det": "-2"}),
    (["det", "--field", "Q(X)", "sq_x.txt"], 0, None, {"det": "1,2,-1;0,1,1"}),
    (["charpoly", "sq.txt"], 0, None, {"leading_first": ["1", "-5", "9/2", "2"]}),
    (["charpoly", "--field", "Q(X)", "sq_x.txt"], 0, None,
     {"leading_first": ["1", "-1,-1,-1;0,1", "1,2,-1;0,1,1"]}),
    (["rank", "rect.txt"], 0, None, {"rank": "2"}),
    (["rank", "--field", "Q(X)", "rect_x.txt"], 0, None, {"rank": "1"}),
    (["solve", "sq.txt", "b.txt"], 0, None, {"solution": ["1/2", "-5/4", "5/8"]}),
    (["solve", "--field", "Q(X)", "sq_x.txt", "b_x.txt"], 0, None,
     {"solution": ["-1,0,0,1;-1,-2,1", "0,2,-1,-2,-1;-1,-2,1"]}),
    (["kernel", "rect.txt"], 0, None,
     {"n": "4", "columns": [["-1/6", "1/3", "-1", "0"], ["1", "0", "0", "-1"]]}),
    (["kernel", "--field", "Q(X)", "rect_x.txt"], 0, None,
     {"n": "3", "columns": [["0,1", "-1", "0"], ["2;1,1", "0", "-1"]]}),
    (["kernel", "sq.txt"], 0, "3 0\n", {"n": "3", "columns": []}),
    (["kernel", "--field", "Q(X)", "sq_x.txt"], 0, "2 0\n", {"n": "2", "columns": []}),
    (["basis", "rect.txt"], 0, None,
     {"selected": ["1", "2"],
      "basis": ["3 4", "1 1/2 0 0", "2 1 0 0", "0 1 0 0"],
      "coeffs": ["4 4", "1 0 -1/6 1", "0 1 1/3 0", "0 0 0 0", "0 0 0 0"]}),
    (["basis", "--field", "Q(X)", "rect_x.txt"], 0, None,
     {"selected": ["1"], "basis": ["2 3", "1 0 0", "2 0 0"],
      "coeffs": ["3 3", "1 0,1 2;1,1", "0 0 0", "0 0 0"]}),
    (["minor", "rect.txt"], 0, None, {"U": ["1", "3"], "V": ["1", "2"]}),
    (["minor", "--field", "Q(X)", "rect_x.txt"], 0, None, {"U": ["1"], "V": ["1"]}),
]


@pytest.mark.parametrize("argv, code, text, report", _MORE_GOLDEN,
                         ids=["-".join(t.lstrip("-") for t in a) for a, *_ in _MORE_GOLDEN])
def test_more_commands_golden(tmp_path, capsys, monkeypatch, argv, code, text, report):
    # pinned byte for byte: text stdout, --json stdout (indent 2, keys in
    # report order) and the exit code of both
    monkeypatch.chdir(tmp_path)
    for name, body in _MORE_FILES.items():
        _write(tmp_path, name, body)
    if text is not None:
        assert run(argv) == code
        assert capsys.readouterr().out == text
    assert run(argv + ["--json"]) == code
    expected = "" if report is None else json.dumps(report, indent=2) + "\n"
    assert capsys.readouterr().out == expected


_FUZZ_INTS = st.one_of(st.integers(-1, 5).map(str),
                       st.sampled_from(("x", "9" * 30, "9" * 5000, "--1", "²", "1.0")))

_FUZZ_BAD_ROWS = st.sampled_from(("2", "1x1", "1 0 2", "-1", "١٠", "1\t0", "11 0", ""))

_FUZZ_BICLIQUE = st.builds(
    lambda left, bars, right: " ".join(left) + " |" * bars + " " + " ".join(right),
    st.lists(st.one_of(st.integers(1, 4).map(str), _FUZZ_INTS), max_size=3),
    st.sampled_from((0, 1, 1, 1, 1, 2)),
    st.lists(st.one_of(st.integers(1, 4).map(str), _FUZZ_INTS), min_size=1, max_size=3))

_FUZZ_SEXPR = st.recursive(
    st.sampled_from(("(var x)", "(var y)", "(const 0)", "(const -2)") * 2 + (
        "(var z)", "(const 1/2)", f"(const {'9' * 5000})", "(var)", "(const)", "x", "()")),
    lambda inner: st.builds(lambda head, args: f"({head} {' '.join(args)})",
                            st.sampled_from(("add", "mul", "div") * 5 + ("sub",)),
                            st.one_of(st.lists(inner, min_size=2, max_size=2),
                                      st.lists(inner, max_size=3))),
    max_leaves=8)


@st.composite
def _fuzz_text(draw, command):
    """(file bytes, rcw's --intersections): bytes near the set-family,
    biclique or circuit format, with blank lines, wrong counts, bad bits, a
    missing or doubled '|', unbalanced parentheses, huge ground sets, wide
    sparse families, one-member dense ones (with s = 4) and long
    intersection lists 0..K for rcw, truncation and non-UTF-8."""
    # each sampled_from repeats its well-formed choice, so that most files get
    # past the header, and lists it first, so that hypothesis shrinks to it
    if command == "circuit-eval":
        text = draw(_FUZZ_SEXPR)
        if draw(st.sampled_from((False, False, True))):  # drop or add a parenthesis
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(("", "(", ")"))) + text[at + 1:]
    else:
        n = draw(st.sampled_from((3, 4, 2, 1, 0, 3, 4, 10 ** 30)))
        bits = st.text("01", min_size=min(n, 5), max_size=min(n, 5))
        wide = (draw(st.sampled_from((None, "sparse", "dense", "long")))
                if command == "rcw" else None)
        if wide == "long":
            # L = {0..K} on a header alone: the bound's K + 2 terms must take
            # linear time, and past int's str limit (at 10^30 points) exit 1
            n = draw(st.sampled_from((10 ** 30, n)))
            K = draw(st.integers(0, 3000))
            return f"{n} 0\n".encode(), ",".join(map(str, range(K + 1)))
        if wide == "dense":
            # one well-formed row of 30-45 points with at most three 0 bits,
            # under L = {0,1,2,3}: the work must not follow the
            # sum_{i<=4} binom(|S|, i) monomials of the member's witness
            n = draw(st.integers(30, 45))
            zeros = draw(st.lists(st.integers(0, n - 1), max_size=3))
            row = "".join("0" if j in zeros else "1" for j in range(n))
            return f"{n} 1\n{row}\n".encode(), "0,1,2,3"
        if wide == "sparse":
            # a wide ground set with at most two 1 bits a row: the work must
            # follow the rows, not the sum_{i<=s} binom(n, i) monomials of degree <= s
            n = draw(st.integers(300, 600))
            bits = st.lists(st.integers(0, n - 1), max_size=2).map(
                lambda ones: "".join("1" if j in ones else "0" for j in range(n)))
        row = _FUZZ_BICLIQUE if command == "graham-pollak" else st.one_of(
            bits, bits.map(" ".join))
        rows = draw(st.lists(row, max_size=4))
        if rows and draw(st.sampled_from((False, False, True))):
            rows[draw(st.integers(0, len(rows) - 1))] = draw(_FUZZ_BAD_ROWS)
        header = draw(st.sampled_from((f"{n} {len(rows)}",) * 4 + (
            f"{n} {len(rows) + 1}", f"{draw(_FUZZ_INTS)} {draw(_FUZZ_INTS)}", f"{n}", "")))
        lines = []
        for line in [header] + rows:
            lines += [""] * draw(st.integers(0, 1)) + [line]
        text = "\n".join(lines)
    text = text.encode()
    damage = draw(st.sampled_from((None,) * 4 + ("truncate", "bad bytes")))
    at = draw(st.integers(0, len(text)))
    if damage == "truncate":
        text = text[:at]
    elif damage == "bad bytes":
        text = text[:at] + draw(st.sampled_from((b"\xff", b"\xc3", b"\xed\xa0\x80"))) + text[at:]
    return text, "0,1"


@pytest.mark.parametrize("command", ["oddtown", "fisher", "graham-pollak", "rcw",
                                     "circuit-eval"])
@settings(max_examples=30)
@given(data=st.data())
def test_cli_fuzz_other_formats_exit_cleanly(tmp_path_factory, command, data):
    # the same contract as test_cli_fuzz_exits_cleanly, over the set-family,
    # biclique and circuit files
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    text, intersections = data.draw(_fuzz_text(command))
    path.write_bytes(text)
    argv = [command, str(path)]
    if command == "circuit-eval":
        values = st.sampled_from(("1", "0", "2", "-1") * 3 + _FUZZ_TOKENS)
        argv += ["--field", data.draw(st.sampled_from(("Q", "GF3", "Q(X)") * 2 + ("GF4",)))]
        argv += [f"--assign={v}={data.draw(values)}" for v in "xy"]
    else:
        argv += {"fisher": ["--lam", "1"],
                 "rcw": ["--intersections", intersections]}.get(command, [])
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.perf_counter() - start < 2
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith(("error:", "failed:"))
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv, code, out", [
    (["graham-pollak"], 1, ""),
    (["rcw", "--intersections", "0,1"], 0,
     f"m = 0, n = {10 ** 30}, s = 2, bound = {1 + 10 ** 30 + 10 ** 30 * (10 ** 30 - 1) // 2}, "
     "bound holds\n"),
])
def test_header_only_ground_set_is_not_enumerated(tmp_path, capsys, argv, code, out):
    # n comes from the header alone: no work may grow with n itself
    path = _write(tmp_path, "empty.txt", f"{10 ** 30} 0\n")
    start = time.perf_counter()
    assert run(argv + [path]) == code
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv, text", [
    (["graham-pollak"], "-2 0\n"),
    (["graham-pollak"], "3 -1\n"),
    (["rcw", "--intersections", "0"], "-2 0\n"),
    (["oddtown"], "\n3 -1\n"),
    (["fisher", "--lam", "1"], "-1 0\n"),
])
def test_negative_header_sizes_exit_2(tmp_path, capsys, argv, text):
    path = _write(tmp_path, "f.txt", text)
    assert run(argv + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "header sizes must be non-negative at line" in captured.err
    with pytest.raises(MalformedInput, match="non-negative"):
        (parse_bicliques if argv[0] == "graham-pollak" else parse_set_family)(text)


@pytest.mark.parametrize("argv, out", [
    (["oddtown"], "m = 0, n = 3, gf2 rank = 0, bound holds\n"),
    (["fisher", "--lam", "1"], "m = 0, n = 3, gram det = 1, bound holds\n"),
    (["rcw", "--intersections", "0"], "m = 0, n = 3, s = 1, bound = 4, bound holds\n"),
])
def test_empty_family_meets_every_bound(tmp_path, capsys, argv, out):
    path = _write(tmp_path, "empty.txt", "3 0\n")
    assert run(argv + [path]) == 0
    assert capsys.readouterr().out == out
    assert run(argv + ["--json", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == "0" and report["bound_holds"] is True
