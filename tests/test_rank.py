import importlib
from fractions import Fraction

import numpy as np
import pytest

from exactla import oracles
from exactla.charpoly import CharPoly, charpoly, trailing_charpolys
from exactla.errors import InvalidInput, Unsolvable, ZeroMatrix
from exactla.field import GF2, GF3, QQ, PrimeField
from exactla.matrix import Matrix, mat_vec
from exactla.poly import Polynomial, PolynomialRing
from exactla.rank import (chi_matrix, count_nonzero, decompose, greedy_basis,
                          iota, kernel_basis, max_nonsingular_minor,
                          mulmuley_rank, polize, rank, solvable, solve, symm)
from exactla.ratfunc import RationalFunctionField
from exactla.rng import SplitMix64

FIELDS = (QQ, GF2, GF3)
GFP = PrimeField(1000003)


def M(rows):
    return Matrix.from_ints(QQ, rows)


def _rand(rng, field, m, n):
    if field is QQ:
        return Matrix(QQ, [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                           for _ in range(m)])
    return Matrix(field, [[rng.below(field.p) for _ in range(n)]
                          for _ in range(m)])


def _rand_vec(rng, field, n):
    if field is QQ:
        return [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    return [rng.below(field.p) for _ in range(n)]


# --- counting gadget --------------------------------------------------------

def test_count_nonzero_examples():
    z = [QQ.zero()] * 3
    assert iota(QQ, count_nonzero(QQ, z, 3)) == 1
    v = [Fraction(3), Fraction(0), Fraction(5)]
    assert iota(QQ, count_nonzero(QQ, v, 3)) == 3
    assert count_nonzero(QQ, v, 0) == [QQ.one()] + [QQ.zero()] * 3


def test_count_nonzero_random():
    rng = SplitMix64(41)
    for _ in range(100):
        field = FIELDS[rng.below(3)]
        v = _rand_vec(rng, field, rng.randint(1, 6))
        k = rng.randint(0, len(v))
        w = count_nonzero(field, v, k)
        assert sum(0 if field.is_zero(x) else 1 for x in w) == 1  # index vector
        assert iota(field, w) - 1 == oracles.direct_count(field, v, k)


# --- polize -----------------------------------------------------------------

def test_symm_shape():
    A = M([[7]])
    assert symm(A) == M([[0, 7], [7, 0]])
    B = _rand(SplitMix64(1), QQ, 3, 2)
    assert symm(B).transpose() == symm(B)
    assert symm(Matrix.zeros(QQ, 2, 2)).is_zero()


def test_chi_and_polize():
    fx = RationalFunctionField(QQ)
    x = fx.gen()
    chi = chi_matrix(fx, 3)
    assert fx.eq(chi.at(1, 1), fx.one())
    assert fx.eq(chi.at(2, 2), x)
    assert fx.eq(chi.at(3, 3), fx.mul(x, x))
    C = polize(M([[1]]), fx)
    assert fx.eq(C.at(1, 2), fx.one())
    assert fx.eq(C.at(2, 1), x)
    assert fx.is_zero(C.at(1, 1)) and fx.is_zero(C.at(2, 2))


# --- rank -------------------------------------------------------------------

def test_rank_small_cases():
    rep = mulmuley_rank(M([[0]]))
    assert rep.mul == 2 and rep.rank == 0
    fx = rep.charpoly_of_polize.field
    assert fx.is_one(rep.charpoly_of_polize.coeff(2))  # ch = Y^2
    assert all(fx.is_zero(rep.charpoly_of_polize.coeff(i)) for i in (0, 1))
    rep = mulmuley_rank(M([[1]]))
    assert rep.mul == 0 and rep.rank == 1
    fx = rep.charpoly_of_polize.field
    assert fx.is_zero(rep.charpoly_of_polize.coeff(1))  # ch = Y^2 - X
    minus_x = fx.neg(fx.gen())
    assert fx.eq(rep.charpoly_of_polize.coeff(0), minus_x)
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_rank_methods_agree():
    def check(A):
        fast = mulmuley_rank(A, method="fast")
        generic = mulmuley_rank(A, method="generic")
        assert fast.rank == generic.rank == oracles.gauss_rank(A)
        assert fast.mul == generic.mul
        assert fast.charpoly_of_polize == generic.charpoly_of_polize
        assert rank(A) == rank(A.transpose())

    rng = SplitMix64(43)
    for _ in range(60):
        field = FIELDS[rng.below(3)]
        check(_rand(rng, field, rng.randint(1, 4), rng.randint(1, 4)))
    for _ in range(20):
        check(_rand(rng, GFP, rng.randint(1, 4), rng.randint(1, 4)))
    for field in FIELDS + (GFP,):
        for k in (2, 5):
            check(_rand(rng, field, 1, k))
            check(_rand(rng, field, k, 1))


def test_fast_pass_equals_generic_on_every_block():
    # mulmuley_rank compares only the last block exactly; the earlier blocks
    # carry the prefix ranks of a selection
    kernel = importlib.import_module("exactla.rank")
    rng = SplitMix64(101)
    cases = [_rand(rng, field, m, n) for field in FIELDS + (GFP,)
             for m, n in ((1, 1), (2, 3), (3, 2), (4, 4), (5, 6))]
    rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)]
    rows[2] = [0] * 6
    for r in rows:
        r[4] = 0
    cases.append(Matrix.from_ints(QQ, rows))
    for A in cases:
        F = A.field
        fast = list(kernel._fast_trailing_charpolys(*kernel._sym_parts(F, A)[:2]))
        generic = list(trailing_charpolys(polize(A, PolynomialRing(F))))
        orders = list(range(1, A.m + A.n + 1))
        assert [ch.n for ch in fast] == [ch.n for ch in generic] == orders
        for f, g in zip(fast, generic):
            for x, want in zip(f.coeffs, g.coeffs):
                off, arr = x or (0, ())
                got = [F.zero()] * off + [F.from_int(int(c)) for c in arr]
                assert Polynomial(F, got) == want


def test_fast_charpoly_repr_matches_generic():
    kernel = importlib.import_module("exactla.rank")
    for A in (M([[1, -2], [3, 4]]), Matrix.from_ints(PrimeField(7), [[1, 5], [3, 6]])):
        F = A.field
        num, B, scale = kernel._sym_parts(F, A)
        assert scale == 1
        fast = kernel._fast_charpoly(num, B)
        assert repr(fast) == repr(charpoly(polize(A, PolynomialRing(F))))
    assert repr(kernel._Num(None, 2)) == "Z[X]"
    assert repr(kernel._Num(7, 2)) == "GF7[X]"


def test_method_dispatch():
    A, b = M([[1, 2], [2, 4]]), [Fraction(1), Fraction(2)]
    for method in ("auto", "fast", "generic"):
        assert mulmuley_rank(A, method=method).rank == 1
        assert solvable(A, b, method=method)
        assert mat_vec(A, solve(A, b, method=method)) == b
    for method in ("Fast", "numpy", ""):
        for call in (lambda: mulmuley_rank(A, method=method),
                     lambda: solvable(A, b, method=method),
                     lambda: solve(A, b, method=method)):
            with pytest.raises(InvalidInput):
                call()


def test_rank_subadditive():
    rng = SplitMix64(47)
    for _ in range(40):
        field = FIELDS[rng.below(3)]
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A, B = _rand(rng, field, m, n), _rand(rng, field, m, n)
        assert rank(A.add(B)) <= rank(A) + rank(B)


# --- decompose --------------------------------------------------------------

def test_decompose_cases():
    fx = RationalFunctionField(QQ)
    C = polize(M([[1]]), fx)
    zero = [fx.zero(), fx.zero()]
    u1, u2 = decompose(C, zero)
    assert all(fx.is_zero(a) for a in u1 + u2)
    v = [fx.from_int(2), fx.from_int(3)]
    u1, u2 = decompose(C, v)  # C nonsingular here
    assert all(fx.is_zero(a) for a in u1)
    assert all(fx.eq(a, b) for a, b in zip(u2, v))
    C0 = polize(M([[0]]), fx)
    u1, u2 = decompose(C0, v)
    assert all(fx.eq(a, b) for a, b in zip(u1, v))
    assert all(fx.is_zero(a) for a in u2)


def test_decompose_contract_random():
    fx = RationalFunctionField(GF3)
    rng = SplitMix64(53)
    for _ in range(15):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        A = _rand(rng, GF3, m, n)
        C = polize(A, fx)
        v = [fx.from_poly(Polynomial(GF3, [rng.below(3) for _ in range(2)]))
             for _ in range(m + n)]
        u1, u2 = decompose(C, v)
        assert all(fx.eq(a, fx.add(b, c)) for a, b, c in zip(v, u1, u2))
        assert all(fx.is_zero(a) for a in mat_vec(C, u1))


def test_zero_intersection():
    # C*(C*v) = 0 forces C*v = 0 for C = polize(A)
    fx = RationalFunctionField(GF2)
    rng = SplitMix64(59)
    for _ in range(15):
        A = _rand(rng, GF2, rng.randint(1, 2), rng.randint(1, 2))
        C = polize(A, fx)
        v = [fx.from_poly(Polynomial(GF2, [rng.below(2) for _ in range(2)]))
             for _ in range(C.n)]
        w = mat_vec(C, v)
        if all(fx.is_zero(a) for a in mat_vec(C, w)):
            assert all(fx.is_zero(a) for a in w)


# --- solvability and solutions ----------------------------------------------

def test_solvable_examples():
    I = Matrix.identity(QQ, 3)
    assert solvable(I, [Fraction(4), Fraction(-1), Fraction(0)])
    assert not solvable(M([[1, 0], [0, 0]]), [Fraction(0), Fraction(1)])
    Z = Matrix.zeros(QQ, 2, 2)
    assert solvable(Z, [Fraction(0), Fraction(0)])


def test_solve_examples():
    b = [Fraction(2), Fraction(-5)]
    assert solve(Matrix.identity(QQ, 2), b) == b
    assert solve(M([[2]]), [Fraction(4)]) == [Fraction(2)]
    x = solve(M([[1, 1]]), [Fraction(1)])
    assert x[0] + x[1] == 1
    with pytest.raises(Unsolvable):
        solve(M([[1, 0], [0, 0]]), [Fraction(0), Fraction(1)])


def test_solve_contract_random():
    rng = SplitMix64(61)
    for t in range(120):
        field = FIELDS[t % 3]
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = _rand(rng, field, m, n)
        if t % 2 == 0:
            b = mat_vec(A, _rand_vec(rng, field, n))
        else:
            b = _rand_vec(rng, field, m)
        oracle = oracles.gauss_solve(A, b)
        for method in ("fast", "generic"):
            assert solvable(A, b, method=method) == (oracle is not None)
        if oracle is not None:
            for method in ("fast", "generic"):
                x = solve(A, b, method=method)
                assert all(field.eq(u, v) for u, v in zip(mat_vec(A, x), b))


def test_generic_path_over_rational_functions():
    # F(X) entries have no fast kernel, so rank, solvable and solve all run
    # the generic path, over F(X)[X]
    rng = SplitMix64(79)
    for base in (QQ, GF3):
        fx = RationalFunctionField(base)

        def linear():
            return fx.from_poly(Polynomial(base, _rand_vec(rng, base, 2)))

        for t in range(8):
            m, n = rng.randint(1, 2), rng.randint(1, 3)
            rows = [[linear() for _ in range(n)] for _ in range(m)]
            if m == 2 and t % 3 == 0:  # a dependent second row
                c = linear()
                rows[1] = [fx.mul(c, e) for e in rows[0]]
            A = Matrix(fx, rows)
            assert rank(A) == oracles.gauss_rank(A)
            if t % 2 == 0:
                b = mat_vec(A, [linear() for _ in range(n)])
            else:
                b = [linear() for _ in range(m)]
            oracle = oracles.gauss_solve(A, b)
            assert solvable(A, b) == (oracle is not None)
            if oracle is None:
                with pytest.raises(Unsolvable):
                    solve(A, b)
            else:
                x = solve(A, b)
                assert all(fx.eq(u, v) for u, v in zip(mat_vec(A, x), b))


def test_solve_rank_deficient_diagonal():
    # mul > 0 and a vanishing constant term exercise the X^s extraction
    A = M([[1, 0], [0, 0]])
    b = [Fraction(5), Fraction(0)]
    assert solve(A, b) == [Fraction(5), Fraction(0)]


# --- bases, minors, kernels -------------------------------------------------

def test_greedy_basis_examples():
    sel = greedy_basis(Matrix.identity(QQ, 3))
    assert sel.count == 3 and sel.indices() == [1, 2, 3]
    assert sel.coeffs == Matrix.identity(QQ, 3)
    sel = greedy_basis(M([[1, 2], [2, 4]]))
    assert sel.count == 1 and sel.indices() == [1]
    sel = greedy_basis(Matrix.zeros(QQ, 2, 3))
    assert sel.count == 0 and sel.indices() == []


def test_greedy_basis_factorization():
    def check(A, methods=("fast", "generic")):
        field = A.field
        for method in methods:
            sel = greedy_basis(A, method=method)
            assert sel.basis @ sel.coeffs == A
            # the greedy definition: column j is selected iff it is not in
            # the span of all the columns before it
            for j in range(1, A.n + 1):
                cols = [A.col_vec(c) for c in range(1, j)]
                assert sel.selected[j - 1] == (
                    not oracles.in_span(cols, A.col_vec(j), field))

    rng = SplitMix64(67)
    for _ in range(40):
        field = FIELDS[rng.below(3)]
        check(_rand(rng, field, rng.randint(1, 4), rng.randint(1, 4)))
    check(M([[1, 1]]))  # {1}, not the right-to-left {2}
    for field in FIELDS + (GFP,):
        for _ in range(4):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [list(r) for r in _rand(rng, field, m, n).rows]
            z = rng.below(n)
            for i in range(m):  # a zero column and a repeated column
                rows[i][z] = field.zero()
                rows[i][-1] = rows[i][0]
            check(Matrix(field, rows))
        for k in (1, 3, 6):
            check(_rand(rng, field, 1, k))
            check(_rand(rng, field, k, 1))
    check(Matrix(GFP, [[0, 5, 10, 7], [0, 1, 2, 3]]))
    fx = RationalFunctionField(QQ)
    for _ in range(3):  # F(X) entries: only the generic path applies
        m, n = rng.randint(1, 2), rng.randint(1, 3)
        check(Matrix(fx, [[fx.from_poly(Polynomial(QQ, _rand_vec(rng, QQ, 2)))
                           for _ in range(n)] for _ in range(m)]), ("auto",))


def test_greedy_basis_coefficients_take_one_charpoly(monkeypatch):
    # one pass selects, one charpoly of the selected columns solves every
    # unselected column
    kernel = importlib.import_module("exactla.rank")
    passes = []
    trailing = kernel._fast_trailing_charpolys

    def counted(num, B):
        passes.append(B.shape[0])
        return trailing(num, B)

    monkeypatch.setattr(kernel, "_fast_trailing_charpolys", counted)
    A = M([[1, 0, 0, 0, 1, 0, 1],
           [0, 1, 0, 0, 1, 0, 0],
           [0, 0, 1, 0, 0, 2, 0],
           [0, 0, 0, 1, 0, -1, 1],
           [1, 1, 1, 1, 2, 1, 2]])
    sel = greedy_basis(A)
    assert sel.indices() == [1, 2, 3, 4]
    assert passes == [5 + 7, 5 + 4]
    assert sel.basis @ sel.coeffs == A


def test_minor_examples():
    sel = max_nonsingular_minor(Matrix.identity(QQ, 3))
    assert sel.U == [1, 2, 3] and sel.V == [1, 2, 3]
    sel = max_nonsingular_minor(M([[1, 2], [2, 4]]))
    assert sel.U == [1] and sel.V == [1]
    sel = max_nonsingular_minor(M([[0, 1], [0, 0]]))
    assert sel.U == [1] and sel.V == [2]
    with pytest.raises(ZeroMatrix):
        max_nonsingular_minor(Matrix.zeros(QQ, 2, 2))


def test_minor_maximality_exhaustive_small():
    from exactla.charpoly import det
    rng = SplitMix64(71)
    for _ in range(25):
        field = FIELDS[rng.below(3)]
        A = _rand(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        r = oracles.gauss_rank(A)
        if r == 0:
            continue
        sel = max_nonsingular_minor(A)
        assert not field.is_zero(det(A.submatrix(sel.U, sel.V)))
        if r < min(A.m, A.n):
            for i in range(1, A.m + 1):
                for j in range(1, A.n + 1):
                    if i in sel.U or j in sel.V:
                        continue
                    bigger = A.submatrix(sel.U + [i], sel.V + [j])
                    assert field.is_zero(det(bigger))


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []
    kb = kernel_basis(M([[1, 2], [2, 4]]))
    assert len(kb) == 1
    assert mat_vec(M([[1, 2], [2, 4]]), kb[0]) == [0, 0]
    assert kb[0][0] * Fraction(-1) == kb[0][1] * Fraction(2) or kb[0] != [0, 0]
    kb = kernel_basis(Matrix.zeros(QQ, 2, 3))
    assert len(kb) == 3


def test_kernel_vectors_are_basis_coordinates():
    # vector c: the unique coordinates of column c over the greedy basis
    # columns (by elimination), -1 at c and 0 elsewhere
    def check(A, methods=("fast", "generic")):
        field = A.field
        cols = A.column_list()
        picked = [j for j in range(A.n)
                  if not oracles.in_span(cols[:j], cols[j], field)]
        if not picked:  # the zero matrix: the unit vectors
            want = [[field.indicator(i == j) for i in range(A.n)] for j in range(A.n)]
        else:
            S = Matrix(field, [[cols[j][i] for j in picked] for i in range(A.m)])
            want = []
            for c in range(A.n):
                if c in picked:
                    continue
                vec = [field.zero()] * A.n
                for j, x in zip(picked, oracles.gauss_solve(S, cols[c])):
                    vec[j] = x
                vec[c] = field.neg(field.one())
                want.append(vec)
        for method in methods:
            got = kernel_basis(A, method=method)
            assert len(got) == len(want)
            for u, v in zip(got, want):
                assert all(field.eq(x, y) for x, y in zip(u, v))

    rng = SplitMix64(79)
    for field in FIELDS + (GFP,):
        for _ in range(6):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [list(r) for r in _rand(rng, field, m, n).rows]
            z = rng.below(n)
            for i in range(m):  # a zero column and a repeated column
                rows[i][z] = field.zero()
                rows[i][-1] = rows[i][0]
            check(Matrix(field, rows))
            check(_rand(rng, field, rng.randint(1, 6), rng.randint(1, 6)))
        check(Matrix.zeros(field, 2, 3))
    fx = RationalFunctionField(QQ)
    x1 = fx.from_poly(Polynomial(QQ, [Fraction(1), Fraction(1)]))
    x2 = fx.from_poly(Polynomial(QQ, [Fraction(0), Fraction(2)]))
    one = fx.one()
    check(Matrix(fx, [[x1, x2, fx.add(x1, x2)], [one, x1, fx.add(one, x1)]]),
          ("auto",))
    check(Matrix(fx, [[x1, fx.mul(x1, x2)], [one, x2]]), ("auto",))
    check(Matrix.zeros(fx, 2, 2), ("auto",))


def test_kernel_checks_its_coefficients(tmp_path, capsys, monkeypatch):
    # kernel vectors come out of checked solves: a corrupt charpoly fails
    # the command (exit 1) instead of printing unchecked vectors
    from exactla.cli import run
    kernel = importlib.import_module("exactla.rank")
    one = (0, np.ones(1, dtype=object))
    monkeypatch.setattr(kernel, "_fast_charpoly", lambda num, B: CharPoly(
        num, [one] * B.shape[0] + [None], B.shape[0]))
    path = tmp_path / "A.txt"
    path.write_text("1 2\n1 1\n")
    assert run(["kernel", str(path)]) == 1
    assert "CertificateFailed" in capsys.readouterr().err


def test_kernel_spans_oracle_kernel():
    rng = SplitMix64(73)
    for _ in range(40):
        field = FIELDS[rng.below(3)]
        A = _rand(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        kb = kernel_basis(A)
        assert rank(A) + len(kb) == A.n
        for w in kb:
            assert all(field.is_zero(x) for x in mat_vec(A, w))
        for w in oracles.gauss_kernel(A):
            assert oracles.in_span(kb, w, field)
            # uniform spanning: membership is witnessed by an explicit solve
            if kb:
                K = Matrix(field, [[u[i] for u in kb] for i in range(A.n)])
                coeffs = solve(K, w)
                assert mat_vec(K, coeffs) == list(w)
