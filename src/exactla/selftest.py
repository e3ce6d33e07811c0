"""Property-based acceptance suites with independent oracles.

Each criterion is a function taking a seeded generator and raising
AssertionError (or any library error) on failure; `run_all` prints one
PASS/FAIL line per criterion, including the elapsed time against the
budget.  The checks go through `_check`, not `assert`, so they still run
under python -O.  All randomness flows through SplitMix64, so a fixed seed
reproduces a run exactly.
"""

import time
from fractions import Fraction

from . import circuit as cc
from . import combinatorics as cb
from . import oracles
from .charpoly import charpoly, det
from .combinatorics import SetFamily
from .errors import ZeroDenominator
from .field import GF2, GF3, QQ, PrimeField
from .matrix import Matrix, mat_vec
from .poly import Polynomial, PolynomialRing, PolyMatrix, distinct_point_witness, subst
from .rank import (count_nonzero, greedy_basis, iota, kernel_basis,
                   max_nonsingular_minor, mulmuley_rank, solvable, solve)
from .ratfunc import RationalFunctionField
from .rng import SplitMix64

GF7 = PrimeField(7)


def _check(ok, detail=""):
    """Raise AssertionError unless ok: an assert that python -O keeps."""
    if not ok:
        raise AssertionError(detail)


def _rand_matrix(rng, field, m, n, lo=-3, hi=3):
    if isinstance(field, PrimeField):
        return Matrix(field, [[rng.below(field.p) for _ in range(n)]
                              for _ in range(m)])
    return Matrix(field, [[Fraction(rng.randint(lo, hi)) for _ in range(n)]
                          for _ in range(m)])


def _rand_vector(rng, field, n, lo=-3, hi=3):
    if isinstance(field, PrimeField):
        return [rng.below(field.p) for _ in range(n)]
    return [Fraction(rng.randint(lo, hi)) for _ in range(n)]


# --- 1: rank coincidence ---------------------------------------------------

def criterion_1(rng):
    total = 0
    for field, cap, count in ((QQ, 5, 500), (GF2, 7, 500), (GF3, 7, 500)):
        for t in range(count):
            A = _rand_matrix(rng, field, rng.randint(1, cap), rng.randint(1, cap))
            r = mulmuley_rank(A).rank
            col = greedy_basis(A, with_coeffs=False)
            row = greedy_basis(A.transpose(), with_coeffs=False)
            ro = oracles.gauss_rank(A)
            _check(r == col.count == row.count == ro, (A, r, col.count, row.count, ro))
            if r and t % 25 == 0:
                sel = max_nonsingular_minor(A)
                _check(len(sel.U) == len(sel.V) == r)
                _check(not field.is_zero(det(A.submatrix(sel.U, sel.V))))
            total += 1
    return f"{total} matrices, four rank computations each"


# --- 2: determinant --------------------------------------------------------

def criterion_2(rng):
    checks = 0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    A = Matrix(GF3, [[a, b], [c, d]])
                    _check(GF3.eq(det(A), oracles.cofactor_det(A)))
                    checks += 1
    for _ in range(500):
        n = rng.choice([3, 4])
        A = _rand_matrix(rng, QQ, n, n)
        _check(det(A) == oracles.cofactor_det(A))
        checks += 1
    for _ in range(200):
        n = rng.randint(1, 5)
        A = _rand_matrix(rng, QQ, n, n)
        B = _rand_matrix(rng, QQ, n, n)
        _check(det(A @ B) == det(A) * det(B))
        checks += 1
    RX = PolynomialRing(QQ)
    for _ in range(100):
        n = rng.randint(1, 3)
        A = Matrix(RX, [[Polynomial.from_ints(QQ, [rng.randint(-2, 2)
                                                   for _ in range(rng.randint(1, 3))])
                         for _ in range(n)] for _ in range(n)])
        B = Matrix(RX, [[Polynomial.from_ints(QQ, [rng.randint(-2, 2)
                                                   for _ in range(rng.randint(1, 3))])
                         for _ in range(n)] for _ in range(n)])
        _check(det(A @ B) == det(A) * det(B))
        checks += 1
    return f"{checks} determinant checks (exhaustive GF3 2x2 included)"


# --- 3: Cayley-Hamilton ----------------------------------------------------

def criterion_3(rng):
    fields = [QQ, GF2, GF3]
    for t in range(200):
        field = fields[t % 3]
        n = rng.randint(1, 5)
        A = _rand_matrix(rng, field, n, n)
        _check(subst(charpoly(A).to_polynomial(), A).is_zero())
    fx = RationalFunctionField(QQ)
    for _ in range(50):
        n = rng.randint(1, 5)
        A = Matrix(fx, [[fx.from_poly(Polynomial.from_ints(
            QQ, [rng.randint(-2, 2) for _ in range(3)]))
            for _ in range(n)] for _ in range(n)])
        _check(subst(charpoly(A).to_polynomial(), A).is_zero())
    return "250 matrices annihilated by their characteristic polynomials"


# --- 4: solver contracts ---------------------------------------------------

def criterion_4(rng):
    fields = [QQ, GF2, GF3]
    agree = solved = 0
    for t in range(300):
        field = fields[t % 3]
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = _rand_matrix(rng, field, m, n)
        if t % 2 == 0:
            x = _rand_vector(rng, field, n, -2, 2)
            b = mat_vec(A, x)
        else:
            b = _rand_vector(rng, field, m)
        sv = solvable(A, b)
        _check(sv == (oracles.gauss_solve(A, b) is not None))
        agree += 1
        if sv:
            got = solve(A, b)
            _check(all(field.eq(u, v) for u, v in zip(mat_vec(A, got), b)))
            solved += 1
    return f"{agree} solvability agreements, {solved} exact solutions"


# --- 5: kernel/image duality -----------------------------------------------

def criterion_5(rng):
    fields = [QQ, GF2, GF3]
    for t in range(300):
        field = fields[t % 3]
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = _rand_matrix(rng, field, m, n)
        sel = greedy_basis(A)  # with_coeffs checks basis * B == A internally
        _check(A == sel.basis @ sel.coeffs)
        kb = kernel_basis(A)
        r = oracles.gauss_rank(A)
        _check(sel.count == r)
        _check(len(kb) == n - r)
        for w in kb:
            _check(all(field.is_zero(x) for x in mat_vec(A, w)))
        if kb:
            K = Matrix(field, [[w[i] for w in kb] for i in range(n)])
            _check(oracles.gauss_rank(K) == len(kb))
        for w in oracles.gauss_kernel(A):
            _check(oracles.in_span(kb, w, field))
    return "300 kernel/image decompositions checked against elimination"


# --- 6: identity theorem ---------------------------------------------------

def criterion_6(rng):
    for t in range(300):
        field = QQ if t % 2 == 0 else GF7
        d = rng.randint(0, 6)
        while True:
            coeffs = _rand_vector(rng, field, d + 1)
            f = Polynomial(field, coeffs)
            if not f.is_zero():
                break
        d = f.deg()
        points = [field.from_int(i) for i in range(d + 1)]
        i = distinct_point_witness(f, points)
        _check(not field.is_zero(f(points[i])))
    return "300 nonzero polynomials, witness point always found"


# --- 7: polynomial-matrix coding -------------------------------------------

def criterion_7(rng):
    fields = [QQ, GF3]
    for t in range(200):
        field = fields[t % 2]
        m, n, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        dA, dB = rng.randint(0, 3), rng.randint(0, 3)
        A = PolyMatrix(field, [_rand_matrix(rng, field, m, n, -2, 2)
                               for _ in range(dA + 1)])
        B = PolyMatrix(field, [_rand_matrix(rng, field, n, p, -2, 2)
                               for _ in range(dB + 1)])
        via_blocks = A.pm_mul(B)
        via_entries = PolyMatrix.from_matrix(A.to_matrix() @ B.to_matrix())
        _check(via_blocks == via_entries)
        if m == n:
            k = rng.randint(0, 4)
            _check(A.pm_pow(k) == PolyMatrix.from_matrix(A.to_matrix().power(k)))
    return "200 block-coded products matched the entrywise path"


# --- 8: circuit soundness --------------------------------------------------

def _rand_subcircuit(rng, depth):
    if depth == 0 or rng.below(3) == 0:
        if rng.below(2):
            return cc.var(rng.choice("abc"))
        return cc.const(rng.randint(-3, 3))
    kind = rng.below(3)
    left = _rand_subcircuit(rng, depth - 1)
    right = _rand_subcircuit(rng, depth - 1)
    if kind == 0:
        return left + right
    if kind == 1:
        return left * right
    return left / right


def criterion_8(rng):
    schemas = [
        lambda F, G, H: (F + G, G + F),
        lambda F, G, H: (F * G, G * F),
        lambda F, G, H: ((F + G) + H, F + (G + H)),
        lambda F, G, H: ((F * G) * H, F * (G * H)),
        lambda F, G, H: (F * (G + H), F * G + F * H),
        lambda F, G, H: (F + cc.const(0), F),
        lambda F, G, H: (F * cc.const(1), F),
    ]
    for schema in schemas:
        done = 0
        while done < 100:
            field = QQ if done % 2 == 0 else GF7
            parts = [_rand_subcircuit(rng, rng.randint(1, 3)) for _ in range(3)]
            lhs, rhs = schema(*parts)
            asn = {v: field.from_int(rng.randint(-4, 4)) for v in "abc"}
            try:
                lv = cc.evaluate(lhs, field, asn)
                rv = cc.evaluate(rhs, field, asn)
            except ZeroDenominator:
                continue
            _check(field.eq(lv, rv))
            done += 1
    for t in range(100):
        field = QQ if t % 2 == 0 else GF7
        while True:
            F = _rand_subcircuit(rng, rng.randint(1, 3))
            if cc.is_division_free(F):
                break
        asn = {v: field.from_int(rng.randint(-4, 4)) for v in "abc"}
        _check(field.eq(cc.evaluate(F, field, asn), cc.eval_direct(F, field, asn)))
    return "7 identity schemas x 100 instances, plus 100 division-free matches"


# --- 9: counting gadget ----------------------------------------------------

def criterion_9(rng):
    checks = 0
    values = [QQ.from_int(i) for i in range(3)]
    stack = [[]]
    vectors = []
    while stack:
        cur = stack.pop()
        if len(cur) == 5:
            vectors.append(cur)
            continue
        for x in values:
            stack.append(cur + [x])
    for v in vectors:
        for k in range(6):
            got = iota(QQ, count_nonzero(QQ, v, k)) - 1
            _check(got == oracles.direct_count(QQ, v, k))
            checks += 1
    return f"{checks} exhaustive counter agreements"


# --- 10: combinatorics bounds ----------------------------------------------

def _oddtown_family(rng):
    n = rng.randint(3, 11)
    elems = list(range(1, n + 1))
    rng.shuffle(elems)
    members = []
    i = 0
    while i < n:
        size = min(rng.choice([1, 1, 1, 3, 3, 5]), n - i)
        if size % 2 == 0:
            size -= 1
        if size <= 0:
            break
        members.append(set(elems[i:i + size]))
        i += size
    return SetFamily(n, members)


def _fisher_family(rng):
    lam = rng.randint(1, 2)
    petals = rng.randint(2, 5)
    n = lam + petals
    core = set(range(1, lam + 1))
    members = [core | {lam + i} for i in range(1, petals + 1)]
    return SetFamily(n, members), lam


def _star_partition(rng):
    n = rng.randint(3, 8)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    bicliques = [({order[i]}, set(order[i + 1:])) for i in range(n - 1)]
    return n, bicliques


def _rcw_family(rng):
    n = rng.randint(6, 10)
    if rng.below(2):
        c = rng.randint(0, 2)
        core = set(range(1, c + 1))
        rest = list(range(c + 1, n + 1))
        rng.shuffle(rest)
        members = []
        i = 0
        while i < len(rest):
            size = min(rng.randint(1, 2), len(rest) - i)
            members.append(core | set(rest[i:i + size]))
            i += size
        return SetFamily(n, members), [c]
    c1 = rng.randint(0, 1)
    c2 = c1 + rng.randint(1, 2)
    rest = list(range(c2 + 1, n + 1))
    rng.shuffle(rest)
    members = []
    i = 0
    while i < len(rest):
        size = min(rng.randint(1, 2), len(rest) - i)
        chunk = set(rest[i:i + size])
        core = set(range(1, (c2 if rng.below(2) else c1) + 1))
        members.append(core | chunk)
        i += size
    return SetFamily(n, members), [c1, c2]


def criterion_10(rng):
    for _ in range(50):
        rep = cb.oddtown_check(_oddtown_family(rng))
        _check(rep["bound_holds"])
    for _ in range(50):
        fam, lam = _fisher_family(rng)
        _check(cb.fisher_check(fam, lam)["bound_holds"])
    for _ in range(50):
        n, bic = _star_partition(rng)
        _check(cb.graham_pollak_check(n, bic)["bound_holds"])
    for _ in range(50):
        fam, L = _rcw_family(rng)
        rep = cb.rcw_verify(fam, L)
        _check(rep["bound_holds"] and rep["diag_nonzero"])
    total = sum(cb.binom(6, i) for i in range(3))
    seen = set()
    for x in range(1, total + 1):
        S = cb.subset_unrank(6, x, 2)
        _check(cb.subset_rank(6, S, 2) == x)
        seen.add(S)
    _check(len(seen) == total)
    return "200 generated instances plus exhaustive n=6, s=2 ranking roundtrip"


# --- 11: mod-6 Ramsey pipeline ---------------------------------------------

def criterion_11(rng):
    for p, e in ((2, 1), (3, 1), (2, 2), (3, 2)):
        spec = cb.or_poly_mod_pe(4, p, e)
        q = p ** e
        for j in range(3 * q + 1):
            _check((spec.eval_count(j) == 0) == (j % q == 0))
    for k, cap in ((2, None), (3, 27)):
        rep = cb.grolmusz_graph(k, cap)  # verifies co-diagonality internally
        check = cb.ramsey_check(rep["graph"], rep["rank2"], rep["rank3"])
        _check(check["bounds_hold"])
    return "4 moduli verified; k=2 and capped k=3 certificates hold"


CRITERIA = [
    (1, "rank coincidence across four computations", criterion_1, 120.0),
    (2, "determinant correctness and multiplicativity", criterion_2, 60.0),
    (3, "Cayley-Hamilton annihilation", criterion_3, 60.0),
    (4, "solver contracts", criterion_4, 30.0),
    (5, "kernel/image duality", criterion_5, 30.0),
    (6, "identity theorem witness points", criterion_6, 5.0),
    (7, "polynomial-matrix coding equivalence", criterion_7, 30.0),
    (8, "circuit evaluation soundness", criterion_8, 30.0),
    (9, "counting gadget", criterion_9, 5.0),
    (10, "combinatorial bound checkers", criterion_10, 60.0),
    (11, "mod-6 Ramsey pipeline", criterion_11, 120.0),
]


def run_criterion(number, seed=7):
    """Run one criterion; returns (ok, elapsed, budget, note)."""
    for num, name, fn, budget in CRITERIA:
        if num == number:
            rng = SplitMix64(seed * 1000003 + num)
            start = time.perf_counter()
            try:
                note = fn(rng)
            except Exception as exc:  # report, don't crash the harness
                elapsed = time.perf_counter() - start
                return False, elapsed, budget, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                return False, elapsed, budget, f"{note}; exceeded the {budget:.0f}s budget"
            return True, elapsed, budget, note
    raise ValueError(f"no criterion numbered {number}")


def run_all(seed=7, only=None):
    ok_all = True
    for num, name, _, _ in CRITERIA:
        if only is not None and num not in only:
            continue
        ok, elapsed, budget, note = run_criterion(num, seed)
        status = "PASS" if ok else "FAIL"
        print(f"{status} criterion {num:2d} ({name}): {note} [{elapsed:.1f}s/{budget:.0f}s]")
        ok_all = ok_all and ok
    return ok_all
