"""Oracle checks on benchmark answers, run after the timed region.

Rank, solve, kernel, basis and minor answers are checked with the
Gaussian-elimination oracles of exactla.oracles; characteristic polynomials
and determinants with sympy (a benchmark-only dependency); the set-family
and Ramsey certificates by brute force.  Every check returns a bool; a False
counts as a failed query.
"""

from fractions import Fraction
from math import comb

import exactla as ex
from exactla import oracles


def _eq_vec(F, xs, ys):
    return len(xs) == len(ys) and all(F.eq(x, y) for x, y in zip(xs, ys))


def _apply(A, x):
    F = A.field
    return [F.sum(F.mul(a, v) for a, v in zip(row, x)) for row in A.rows]


def rank(A, r):
    return r == oracles.gauss_rank(A)


def solve(A, b, x):
    return (len(x) == A.n and oracles.gauss_solve(A, b) is not None
            and _eq_vec(A.field, _apply(A, x), b))


# ---------------------------------------------------------------------------
# sympy: charpoly and det over Q, GF(p), Q(X) and GF(p)(X)

def _domain_matrix(A, over_fractions):
    """A as a sympy DomainMatrix, a map from exactla elements into its domain,
    and an equality test there.  GF(p) entries are lifted to ZZ and results
    compared mod p: charpoly and det are integer polynomials in the entries,
    and sympy's own GF(p) charpoly is ten times slower.  F(X) entries go to
    the polynomial ring base[x] for charpoly (whose coefficients must then be
    polynomials) or to the fraction field base(x) for det."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    F = A.field
    x = sympy.Symbol("x")
    base = F.base if isinstance(F, ex.RationalFunctionField) else F
    if base is F:
        dom = sympy.QQ if F == ex.QQ else sympy.ZZ
    else:
        bdom = sympy.QQ if base == ex.QQ else sympy.GF(base.p)
        dom = bdom.frac_field(x) if over_fractions else bdom[x]

    def expr(a):
        if isinstance(a, Fraction):
            return sympy.Rational(a.numerator, a.denominator)
        if isinstance(a, int):
            return sympy.Integer(a)
        num, den = (sum((expr(c) * x ** i for i, c in enumerate(p.coeffs)), sympy.Integer(0))
                    for p in (a.num, a.den))
        return num / den

    def conv(a):
        return dom.from_sympy(expr(a))

    def same(a, b):
        if dom == sympy.ZZ:
            return (a - b) % F.p == 0
        return not a - b  # sympy's GF(p)(x) keeps unnormalised fractions

    rows = [[conv(a) for a in row] for row in A.rows]
    return DomainMatrix(rows, (A.m, A.n), dom), conv, same


def charpoly(A, coeffs):
    from sympy.polys.polyerrors import CoercionFailed

    M, conv, same = _domain_matrix(A, over_fractions=False)
    try:
        ours = [conv(c) for c in coeffs]
    except CoercionFailed:  # a coefficient that is not a polynomial is wrong
        return False
    theirs = M.charpoly()
    return len(ours) == len(theirs) and all(same(a, b) for a, b in zip(ours, theirs))


def det(A, d):
    M, conv, same = _domain_matrix(A, over_fractions=True)
    return same(conv(d), M.det())


# ---------------------------------------------------------------------------
# CLI answers (small_select): parse stdout independently of exactla.cli

def _entries(F, tokens):
    return [F.parse(t) for t in tokens]


def _parse_matrix(F, lines):
    m, n = map(int, lines[0].split())
    return ex.Matrix(F, [_entries(F, ln.split()) for ln in lines[1:1 + m]]), 1 + m


def _columns(A):
    return [list(c) for c in zip(*A.rows)]


def _basis_ok(A, lines):
    F = A.field
    selected = [int(t) - 1 for t in lines[0].split()[1:]]
    basis, used = _parse_matrix(F, lines[1:])
    coeffs, _ = _parse_matrix(F, lines[1 + used:])
    cols = _columns(A)
    greedy = [j for j in range(A.n) if not oracles.in_span(cols[:j], cols[j], F)]
    zero = F.zero()
    expect = ex.Matrix(F, [[a if j in selected else zero for j, a in enumerate(row)]
                           for row in A.rows])
    rebuilt = ex.Matrix(F, [[F.sum(F.mul(basis.rows[i][t], coeffs.rows[t][j])
                                   for t in range(A.n)) for j in range(A.n)]
                            for i in range(A.m)])
    return selected == greedy and basis == expect and rebuilt == A


def _kernel_ok(A, lines):
    F = A.field
    n, k = map(int, lines[0].split())
    rows = [_entries(F, ln.split()) for ln in lines[1:1 + n]] if k else []
    cols = [[rows[i][c] for i in range(n)] for c in range(k)]
    reference = oracles.gauss_kernel(A)
    zero = [F.zero()] * A.m
    return (n == A.n and k == len(reference)
            and all(_eq_vec(F, _apply(A, w), zero) for w in cols)
            and all(oracles.in_span(reference, w, F) for w in cols)
            and (k == 0 or oracles.gauss_rank(ex.Matrix(F, rows)) == k))


def _minor_ok(A, lines):
    U = [int(t) for t in lines[0].split()[1:]]
    V = [int(t) for t in lines[1].split()[1:]]
    r = oracles.gauss_rank(A)
    return len(U) == len(V) == r and oracles.gauss_rank(A.submatrix(U, V)) == r


def cli_matrix(cmd, A, b, answer):
    rc, out = answer
    lines = out.splitlines()
    if rc != 0 or not lines:
        return False
    F = A.field
    if cmd == "rank":
        return rank(A, int(lines[0]))
    if cmd == "solve":
        return solve(A, b, _entries(F, lines[0].split()))
    if cmd == "basis":
        return _basis_ok(A, lines)
    if cmd == "kernel":
        return _kernel_ok(A, lines)
    return _minor_ok(A, lines)


def _report_ints(line):
    """{'m': 7, 'gram det': 576, ...} from 'm = 7, n = 7, gram det = 576, ...'."""
    out = {}
    for part in line.split(", "):
        key, sep, value = part.partition(" = ")
        if sep and value.lstrip("-").isdigit():
            out[key] = int(value)
    return out


def _pairs(family):
    return [(S, T) for i, S in enumerate(family) for T in family[i + 1:]]


def oddtown(n, family, answer):
    rc, out = answer
    rep = _report_ints(out.splitlines()[0]) if out else {}
    m = len(family)
    inc = ex.Matrix(ex.GF2, [[1 if e in S else 0 for e in range(1, n + 1)] for S in family])
    return (rc == 0 and rep == {"m": m, "n": n, "gf2 rank": m} and m <= n
            and all(len(S) % 2 for S in family)
            and all(len(S & T) % 2 == 0 for S, T in _pairs(family))
            and oracles.gauss_rank(inc) == m)


def fisher(n, family, lam, answer):
    rc, out = answer
    rep = _report_ints(out.splitlines()[0]) if out else {}
    gram = ex.Matrix(ex.QQ, [[Fraction(len(S & T)) for T in family] for S in family])
    d = oracles.cofactor_det(gram)
    return (rc == 0 and rep == {"m": len(family), "n": n, "gram det": d} and d != 0
            and len(family) <= n and all(len(S) > lam for S in family)
            and all(len(S & T) == lam for S, T in _pairs(family)))


def _largest_clique(adj):
    """Clique number by exhaustive extension of every clique in index order."""
    n = len(adj)
    best = 0

    def grow(clique, candidates):
        nonlocal best
        best = max(best, len(clique))
        for i, v in enumerate(candidates):
            grow(clique + [v], [w for w in candidates[i + 1:] if adj[v][w]])

    grow([], list(range(n)))
    return best


def ramsey(k, answer):
    rc, out = answer
    lines = out.splitlines()
    if rc != 0 or len(lines) < 4:
        return False
    head = _report_ints(lines[0])
    ranks = _report_ints(lines[1])
    clique, clique_bound = (int(t) for t in lines[2].split(" = ")[1].split(" <= "))
    indep, indep_bound = (int(t) for t in lines[3].split(" = ")[1].split(" <= "))
    adj = [[int(c) for c in ln] for ln in lines[4:]]
    n = len(adj)
    coadj = [[int(i != j and not adj[i][j]) for j in range(n)] for i in range(n)]
    built = ex.grolmusz_graph(k)
    rank2 = oracles.gauss_rank(ex.Matrix(ex.GF2, built["A2"]))
    rank3 = oracles.gauss_rank(ex.Matrix(ex.GF3, built["A3"]))
    return (head == {"k": k, "vertices": k ** k} and n == k ** k
            and [list(r) for r in built["graph"].rows] == adj
            and all(adj[i][j] == adj[j][i] and not adj[i][i]
                    for i in range(n) for j in range(n))
            and ranks == {"rank2": rank2, "rank3": rank3}
            and clique == _largest_clique(adj) and indep == _largest_clique(coadj)
            and clique_bound == rank2 + 1 and indep_bound == comb(rank3 + 1, 2) + 1
            and clique <= clique_bound and indep <= indep_bound)
