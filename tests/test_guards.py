"""Every typed guard a caller can reach fires with its own type and message.

Each row of GUARDS is one `raise` in src/exactla, reached by the smallest
direct call that trips it.  Each row of CLI_GUARDS is a guard that a file or
option can reach, driven through cli.run for its exit code (1 for a checked
failure, 2 for malformed input) and its stderr line.

Four guards have no row because only a false theorem could reach them: the
oddtown and Fisher bounds (combinatorics.oddtown_check, fisher_check), the
Graham-Pollak count (graham_pollak_check) and distinct_point_witness's
fall-through after deg+1 distinct points.  selftest._check fires only when a
criterion fails; tests/test_acceptance.py reaches it under python -O.
"""

import pytest

from exactla import circuit as cc
from exactla import combinatorics as cb
from exactla.charpoly import adjugate, berkowitz_col, inverse, quasi_inverse
from exactla.cli import run
from exactla.errors import (DimensionMismatch, DivisionByZero, IndexOutOfRange,
                            InvalidInput, NonSquare, SizeExceeded)
from exactla.field import GF2, QQ
from exactla.matrix import Matrix, mat_vec
from exactla.oracles import cofactor_det
from exactla.poly import (Polynomial, PolynomialRing, PolyMatrix,
                          distinct_point_witness, subst)
from exactla.rank import count_nonzero, decompose, iota
from exactla.ratfunc import (RationalFunctionField, RatMatrixCode, poly_divmod,
                             to_common_denominator)
from exactla.rng import SplitMix64
from exactla.selftest import run_criterion

QX = RationalFunctionField(QQ)


def M(rows, field=QQ):
    return Matrix.from_ints(field, rows)


def P(*ints):
    return Polynomial.from_ints(QQ, ints)


def PM(*blocks):
    return PolyMatrix(QQ, [M(b) for b in blocks])


WIDE = [[1, 2, 3], [4, 5, 6]]  # 2 x 3, not square
SQUARE = [[1, 2], [3, 4]]

GUARDS = {
    # charpoly
    "berkowitz_col nonsquare": (lambda: berkowitz_col(1, M(WIDE)),
                                NonSquare, "column matrices need a square input"),
    "berkowitz_col index": (lambda: berkowitz_col(0, M(SQUARE)),
                            IndexOutOfRange, "column index 0 for a 2x2 matrix"),
    "adjugate nonsquare": (lambda: adjugate(M(WIDE)),
                           NonSquare, "adjugate needs a square matrix"),
    "inverse nonsquare": (lambda: inverse(M(WIDE)),
                          NonSquare, "inverse needs a square matrix"),
    "quasi_inverse nonsquare": (lambda: quasi_inverse(M(WIDE)),
                                NonSquare, "quasi-inverse needs a square matrix"),
    # circuit
    "var name": (lambda: cc.var("a b"), InvalidInput, "bad variable name 'a b'"),
    # combinatorics
    "binom_table width": (lambda: cb.binom_table(3, 9),
                          InvalidInput, "meant to stay small (<= 8)"),
    "subset_rank size": (lambda: cb.subset_rank(3, {1, 2}, 1),
                         SizeExceeded, "subset of size 2 with cap 1"),
    "subset_rank element": (lambda: cb.subset_rank(3, {4}, 1),
                            InvalidInput, "subset element outside the ground set"),
    "subset_unrank rank": (lambda: cb.subset_unrank(3, 0, 1),
                           SizeExceeded, "rank 0 outside 1..4"),
    "set family element": (lambda: cb.SetFamily(2, [{3}]),
                           InvalidInput, "set element outside the ground set"),
    "graph square": (lambda: cb.Graph([[0, 1]]),
                     InvalidInput, "adjacency matrix must be square"),
    "graph diagonal": (lambda: cb.Graph([[1]]),
                       InvalidInput, "adjacency matrix must have a zero diagonal"),
    "graph symmetric": (lambda: cb.Graph([[0, 1], [0, 0]]),
                        InvalidInput, "adjacency matrix must be symmetric"),
    "lincoeff names": (lambda: cb.lincoeff(cc.var("x"), QQ, ["y"]),
                       InvalidInput, "variable 'x' missing from the name list"),
    "lincoeff division": (lambda: cb.lincoeff(cc.div(cc.var("x"), cc.const(2)), QQ, ["x"]),
                          InvalidInput, "multilinearization needs a division-free circuit"),
    # matrix
    "matrix empty": (lambda: Matrix(QQ, []),
                     DimensionMismatch, "matrices must have positive dimensions"),
    "matrix ragged": (lambda: Matrix(QQ, [[1, 2], [3]]), DimensionMismatch, "ragged rows"),
    "matrix at": (lambda: M(SQUARE).at(3, 1),
                  IndexOutOfRange, "entry (3,1) of a 2x2 matrix"),
    "matrix add": (lambda: M(SQUARE) + M(WIDE),
                   DimensionMismatch, "add (2, 2) vs (2, 3)"),
    "matrix mul": (lambda: M(WIDE) @ M(SQUARE),
                   DimensionMismatch, "mul (2, 3) vs (2, 2)"),
    "matrix power": (lambda: M(WIDE).power(2),
                     NonSquare, "matrix power needs a square matrix"),
    "matrix hstack": (lambda: M(SQUARE).hstack(M([[1]])),
                      DimensionMismatch, "hstack row mismatch"),
    "matrix vstack": (lambda: M(SQUARE).vstack(M([[1]])),
                      DimensionMismatch, "vstack column mismatch"),
    "matrix fields": (lambda: M(SQUARE) + M(SQUARE, GF2),
                      DimensionMismatch, "mixed coefficient domains: Q vs GF2"),
    "matrix hash": (lambda: hash(M(SQUARE)),
                    TypeError, "matrices are not hashable"),
    "mat_vec length": (lambda: mat_vec(M(SQUARE), [1]),
                       DimensionMismatch, "matvec (2, 2) vs length 1"),
    # oracles
    "cofactor_det nonsquare": (lambda: cofactor_det(M(WIDE)),
                               NonSquare, "determinant of a nonsquare matrix"),
    # poly
    "polynomial fields": (lambda: P(1) + Polynomial.one(GF2),
                          DimensionMismatch, "polynomials over different coefficient domains"),
    "subst nonsquare": (lambda: subst(P(1, 1), M(WIDE)),
                        NonSquare, "substitution needs a square matrix"),
    "witness of zero": (lambda: distinct_point_witness(P(0), []),
                        InvalidInput, "witness search needs a nonzero polynomial"),
    "polynomial literal": (lambda: PolynomialRing(QQ).parse("  "),
                           InvalidInput, "empty polynomial literal"),
    "polymatrix no blocks": (lambda: PolyMatrix(QQ, []),
                             DimensionMismatch, "need at least the degree-0 block"),
    "polymatrix block shapes": (lambda: PM(SQUARE, WIDE),
                                DimensionMismatch, "coefficient blocks differ in shape"),
    "pm_mul shapes": (lambda: PM(WIDE).pm_mul(PM(SQUARE)),
                      DimensionMismatch, "pm_mul 2x3 vs 2x2"),
    "pm_mul fields": (lambda: PM(SQUARE).pm_mul(PolyMatrix(GF2, [M(SQUARE, GF2)])),
                      DimensionMismatch, "codings over different coefficient domains"),
    "pm_pow nonsquare": (lambda: PM(WIDE).pm_pow(2),
                         NonSquare, "polynomial-matrix power needs a square matrix"),
    "polymatrix hash": (lambda: hash(PM(SQUARE)),
                        TypeError, "PolyMatrix values are not hashable"),
    # rank
    "iota": (lambda: iota(QQ, [0, 0]),
             InvalidInput, "not an index vector (need exactly one entry = 1)"),
    "count_nonzero prefix": (lambda: count_nonzero(QQ, [1], 2),
                             IndexOutOfRange, "prefix length 2 for a vector of length 1"),
    "decompose nonsquare": (lambda: decompose(M(WIDE, QX), [QX.one()] * 3),
                            InvalidInput, "decomposition needs a square polize matrix"),
    # ratfunc
    "poly_divmod by zero": (lambda: poly_divmod(P(1, 1), P(0)),
                            DivisionByZero, "polynomial division by zero"),
    "eval_at pole": (lambda: QX.eval_at(QX.make(P(1), P(0, 1)), 0),
                     DivisionByZero, "denominator vanishes at the evaluation point"),
    "common denominator zero": (lambda: RatMatrixCode(P(0), PM(SQUARE)),
                                DivisionByZero, "zero common denominator"),
    "common denominator field": (lambda: to_common_denominator(M(SQUARE)),
                                 InvalidInput, "expected a matrix over a rational-function field"),
    # rng, selftest
    "below zero": (lambda: SplitMix64(1).below(0), ValueError, "bound must be positive"),
    "criterion number": (lambda: run_criterion(99), ValueError, "no criterion numbered 99"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_its_type_and_message(name):
    call, kind, fragment = GUARDS[name]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind
    assert fragment in str(err.value)


# name: (argv, input files by the name argv gives them, exit code, stderr fragment)
CLI_GUARDS = {
    "zero denominator": (["rank", "--field", "Q(X)", "A"], {"A": "1 1\n1;0\n"}, 2,
                         "error: rational function with zero denominator at line 2, column 1"),
    "circuit ends early": (["circuit-eval", "c"], {"c": "(add (const 1)"}, 2,
                           "error: unexpected end of circuit expression"),
    "constant missing": (["circuit-eval", "c"], {"c": "(const"}, 2,
                         "error: missing constant value"),
    "variable missing": (["circuit-eval", "c"], {"c": "(var"}, 2,
                         "error: missing variable name"),
    "assignment": (["circuit-eval", "--assign", "x", "c"], {"c": "(var x)"}, 2,
                   "error: assignment 'x' needs name=value"),
    "rhs length": (["solve", "A", "b"], {"A": "2 2\n1 0\n0 1\n", "b": "3\n1 2 3\n"}, 1,
                   "failed: DimensionMismatch: right-hand side length 3 vs 2 rows"),
    "equal members": (["rcw", "--intersections", "1", "F"], {"F": "3 2\n110\n110\n"}, 1,
                      "failed: PreconditionViolated: family members must be distinct sets"),
    "biclique vertex": (["graham-pollak", "B"], {"B": "2 1\n1 | 3\n"}, 1,
                        "failed: PreconditionViolated: biclique 1 leaves [n]"),
    "lambda": (["fisher", "--lam", "0", "F"], {"F": "3 1\n110\n"}, 1,
               "failed: PreconditionViolated: lambda must be at least 1"),
}


@pytest.mark.parametrize("name", CLI_GUARDS)
def test_cli_guard_exits_with_its_code(name, tmp_path, capsys):
    argv, files, code, fragment = CLI_GUARDS[name]
    for file, text in files.items():
        (tmp_path / file).write_text(text)
    assert run([str(tmp_path / arg) if arg in files else arg for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert fragment in captured.err
