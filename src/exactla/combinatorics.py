"""Linear-algebra-method combinatorics checkers.

Oddtown, Fisher and Graham-Pollak verifiers with explicit rank/determinant
certificates, the nonuniform Ray-Chaudhuri-Wilson bound with circuit-built
polynomials and an explicit multilinearization, subset ranking, the
symmetric OR-polynomial mod p^e, and the mod-6 co-diagonal Ramsey graph
construction with Z2/Z3 rank certificates.

Ground sets are [n] with 1-based elements throughout.
"""

from fractions import Fraction
from itertools import product
from math import comb

from . import circuit as cc
from .charpoly import det
from .errors import (CapExceeded, CertificateFailed, InvalidInput,
                     NotLIntersecting, PreconditionViolated, ScaleExceeded,
                     SizeExceeded, SystemUnsolvable, Unsolvable)
from .field import GF2, GF3, QQ, PrimeField
from .matrix import Matrix
from .rank import mulmuley_rank, solve


# ---------------------------------------------------------------------------
# binomials and subset ranking

def binom(n, i):
    """Exact binomial with the out-of-range convention binom(n,i) = 0."""
    if i < 0 or i > n or n < 0:
        return 0
    return comb(n, i)


def binom_table(n_max, s):
    """Rows n = 0..n_max of binom(n, i) for i = 0..s."""
    if s > 8:
        raise InvalidInput("second argument is meant to stay small (<= 8)")
    return [[binom(n, i) for i in range(s + 1)] for n in range(n_max + 1)]


def subsets_up_to(n, s):
    """All subsets of [n] of size <= s, in rank order."""
    out = [frozenset()]
    for t in range(1, s + 1):
        out.extend(_combinations_colex(n, t))
    return out


def _combinations_colex(n, t):
    combs = []

    def rec(prefix, lo):
        if len(prefix) == t:
            combs.append(frozenset(prefix))
            return
        for v in range(lo, n + 1):
            rec(prefix + [v], v + 1)

    rec([], 1)
    combs.sort(key=lambda S: sum(binom(e - 1, k + 1)
                                 for k, e in enumerate(sorted(S))))
    return combs


def subset_rank(n, S, s):
    """1-based rank of a subset of [n] with |S| <= s, grouping by size and
    ordering each size class colexicographically."""
    S = frozenset(S)
    if len(S) > s:
        raise SizeExceeded(f"subset of size {len(S)} with cap {s}")
    if any(not 1 <= e <= n for e in S):
        raise InvalidInput("subset element outside the ground set")
    t = len(S)
    offset = sum(binom(n, j) for j in range(t))
    within = sum(binom(e - 1, k + 1) for k, e in enumerate(sorted(S)))
    return 1 + offset + within


def subset_unrank(n, x, s):
    """Inverse of subset_rank over 1..sum_{i<=s} binom(n,i)."""
    total = sum(binom(n, i) for i in range(s + 1))
    if not 1 <= x <= total:
        raise SizeExceeded(f"rank {x} outside 1..{total}")
    rem = x - 1
    t = 0
    while rem >= binom(n, t):
        rem -= binom(n, t)
        t += 1
    out = []
    for k in range(t, 0, -1):
        c = k - 1
        while binom(c + 1, k) <= rem:
            c += 1
        rem -= binom(c, k)
        out.append(c + 1)  # back to 1-based elements
    return frozenset(out)


# ---------------------------------------------------------------------------
# set families and graphs

class SetFamily:
    """m subsets of [n], kept both as frozensets and as 0/1 rows."""

    def __init__(self, n, members):
        members = [frozenset(S) for S in members]
        for S in members:
            if any(not 1 <= e <= n for e in S):
                raise InvalidInput("set element outside the ground set")
        self.n = n
        self.members = tuple(members)
        self.m = len(members)

    def bit_rows(self):
        return [[1 if j + 1 in S else 0 for j in range(self.n)]
                for S in self.members]

    @classmethod
    def from_bit_rows(cls, n, rows):
        return cls(n, [{j + 1 for j, bit in enumerate(r) if bit} for r in rows])

    def __repr__(self):
        return f"SetFamily(n={self.n}, m={self.m})"


class Graph:
    """Simple undirected graph as a symmetric 0/1 adjacency matrix."""

    def __init__(self, rows):
        rows = tuple(tuple(int(bool(x)) for x in r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InvalidInput("adjacency matrix must be square")
        if any(rows[i][i] for i in range(n)):
            raise InvalidInput("adjacency matrix must have a zero diagonal")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise InvalidInput("adjacency matrix must be symmetric")
        self.n = n
        self.rows = rows

    def is_edge(self, i, j):
        return bool(self.rows[i][j])

    def neighbors(self, i):
        return {j for j in range(self.n) if self.rows[i][j]}

    def complement(self):
        return Graph([[1 if i != j and not self.rows[i][j] else 0
                       for j in range(self.n)] for i in range(self.n)])

    def edge_count(self):
        return sum(self.rows[i][j] for i in range(self.n) for j in range(i))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


# ---------------------------------------------------------------------------
# multilinearization of division-free circuits (0/1 point semantics)

def lincoeff(root, field, names):
    """Coefficients of multilinear monomials equal to the circuit on all 0/1
    assignments: a dict frozenset-of-variable-indices -> coefficient.

    Each gate's value is carried as a multilinear polynomial, reducing
    X_i^2 -> X_i at multiplication gates (sound on 0/1 inputs).
    """
    index = {name: i + 1 for i, name in enumerate(names)}
    values = {}
    for g in cc._postorder(root):
        if g.kind == cc.CONST:
            values[id(g)] = {frozenset(): field.from_int(g.payload)}
        elif g.kind == cc.VAR:
            if g.payload not in index:
                raise InvalidInput(f"variable {g.payload!r} missing from the name list")
            values[id(g)] = {frozenset([index[g.payload]]): field.one()}
        elif g.kind == cc.ADD:
            a = dict(values[id(g.args[0])])
            for mono, coeff in values[id(g.args[1])].items():
                a[mono] = field.add(a.get(mono, field.zero()), coeff)
            values[id(g)] = {m: c for m, c in a.items() if not field.is_zero(c)}
        elif g.kind == cc.MUL:
            out = {}
            for m1, c1 in values[id(g.args[0])].items():
                for m2, c2 in values[id(g.args[1])].items():
                    mono = m1 | m2
                    out[mono] = field.add(out.get(mono, field.zero()),
                                          field.mul(c1, c2))
            values[id(g)] = {m: c for m, c in out.items() if not field.is_zero(c)}
        else:
            raise InvalidInput("multilinearization needs a division-free circuit")
    return values[id(root)]


def monomial_value(field, mono, point):
    """Product of the coordinates of the 0/1 point over the monomial."""
    return field.prod(point[i - 1] for i in sorted(mono))


# ---------------------------------------------------------------------------
# Ray-Chaudhuri-Wilson

def _intersection_sizes_ok(family, L):
    for i in range(family.m):
        for j in range(i + 1, family.m):
            size = len(family.members[i] & family.members[j])
            if size not in L:
                return (i + 1, j + 1, size)
    return None


def rcw_verify(family, L):
    """Nonuniform Ray-Chaudhuri-Wilson: an L-intersecting family of distinct
    sets has at most sum_{i<=s} binom(n,i) members, s = |L|.

    Builds the witness polynomials as circuits, checks the evaluation matrix
    U is upper triangular with nonzero diagonal under the size-sorted order,
    and cross-checks U = C * M against the multilinearized coefficients.
    """
    L = sorted(set(L))
    s = len(L)
    n, m = family.n, family.m
    if len(set(family.members)) != m:
        raise PreconditionViolated("family members must be distinct sets")
    bad = _intersection_sizes_ok(family, L)
    if bad is not None:
        raise NotLIntersecting(
            f"sets {bad[0]} and {bad[1]} intersect in {bad[2]} points, not in L",
            witness=bad)
    order = sorted(range(m), key=lambda i: len(family.members[i]))
    names = [f"x{j}" for j in range(1, n + 1)]
    xs = [cc.var(nm) for nm in names]
    rows = family.bit_rows()
    circuits = []
    for i in order:
        size = len(family.members[i])
        factors = [lk for lk in L if lk < size]
        inner = None
        for j in range(n):
            if rows[i][j]:
                inner = xs[j] if inner is None else inner + xs[j]
        if inner is None:
            inner = cc.const(0)
        F = cc.const(1)
        for lk in factors:
            F = F * (inner + cc.const(-lk))
        circuits.append(F)
    points = [[QQ.from_int(bit) for bit in rows[i]] for i in order]
    U = [[cc.evaluate(circuits[a], QQ, dict(zip(names, points[b])))
          for b in range(m)] for a in range(m)]
    for a in range(m):
        if U[a][a] == 0:
            raise PreconditionViolated("zero diagonal in the evaluation matrix",
                                       witness=order[a] + 1)
        for b in range(a):
            if U[a][b] != 0:
                raise PreconditionViolated(
                    "evaluation matrix is not upper triangular",
                    witness=(order[a] + 1, order[b] + 1))
    # multilinearization cross-check: U = C * M over the monomial basis
    monos = subsets_up_to(n, s)
    C = []
    for a in range(m):
        coeffs = lincoeff(circuits[a], QQ, names)
        unexpected = [mo for mo in coeffs if len(mo) > s]
        if unexpected:
            raise PreconditionViolated("monomial of degree above |L| survived",
                                       witness=sorted(unexpected[0]))
        C.append([coeffs.get(mo, Fraction(0)) for mo in monos])
    M = [[monomial_value(QQ, mo, points[b]) for b in range(m)] for mo in monos]
    for a in range(m):
        for b in range(m):
            acc = sum(C[a][t] * M[t][b] for t in range(len(monos)))
            if acc != U[a][b]:
                raise CertificateFailed("multilinearization is not evaluation-faithful")
    bound = sum(binom(n, i) for i in range(s + 1))
    if m > bound:
        raise PreconditionViolated(
            f"family of {m} sets exceeds the bound {bound}", witness=m)
    return {"m": m, "n": n, "s": s, "bound": bound,
            "upper_triangular": True, "diag_nonzero": True, "bound_holds": True}


# ---------------------------------------------------------------------------
# oddtown / fisher / graham-pollak

def oddtown_check(family):
    """All member sizes odd, all pairwise intersections even => m <= n,
    certified by full GF(2) row rank of the incidence matrix."""
    for i, S in enumerate(family.members):
        if len(S) % 2 == 0:
            raise PreconditionViolated(f"set {i + 1} has even size {len(S)}",
                                       witness=i + 1)
    for i in range(family.m):
        for j in range(i + 1, family.m):
            inter = len(family.members[i] & family.members[j])
            if inter % 2:
                raise PreconditionViolated(
                    f"sets {i + 1} and {j + 1} intersect oddly ({inter})",
                    witness=(i + 1, j + 1))
    inc = Matrix(GF2, family.bit_rows())
    r = mulmuley_rank(inc).rank
    if r != family.m:
        raise CertificateFailed("incidence rows over GF(2) are dependent")
    if family.m > family.n:
        raise CertificateFailed(f"{family.m} sets beat the oddtown bound {family.n}")
    return {"m": family.m, "n": family.n, "gf2_rank": r, "bound_holds": True}


def fisher_check(family, lam):
    """All pairwise intersections of size exactly lam >= 1 and all sets
    bigger than lam => m <= n, certified by det(Gram) != 0 over Q."""
    if lam < 1:
        raise PreconditionViolated("lambda must be at least 1", witness=lam)
    for i, S in enumerate(family.members):
        if len(S) <= lam:
            raise PreconditionViolated(
                f"set {i + 1} has size {len(S)} <= lambda", witness=i + 1)
    for i in range(family.m):
        for j in range(i + 1, family.m):
            inter = len(family.members[i] & family.members[j])
            if inter != lam:
                raise PreconditionViolated(
                    f"sets {i + 1} and {j + 1} intersect in {inter} != lambda",
                    witness=(i + 1, j + 1))
    B = Matrix(QQ, [[Fraction(x) for x in row] for row in family.bit_rows()])
    gram = B @ B.transpose()
    d = det(gram)
    if d == 0:
        raise CertificateFailed("Gram determinant vanished on a valid Fisher family")
    if family.m > family.n:
        raise CertificateFailed(f"{family.m} sets beat the Fisher bound {family.n}")
    return {"m": family.m, "n": family.n, "gram_det": d, "bound_holds": True}


def graham_pollak_check(n, bicliques):
    """bicliques: pairs (left, right) of disjoint vertex sets whose complete
    bipartite edge sets partition E(K_n); then there are at least n-1."""
    seen = {}
    for t, (left, right) in enumerate(bicliques):
        left, right = frozenset(left), frozenset(right)
        if left & right:
            raise PreconditionViolated(f"biclique {t + 1} has a loop",
                                       witness=t + 1)
        if any(not 1 <= v <= n for v in left | right):
            raise PreconditionViolated(f"biclique {t + 1} leaves [n]",
                                       witness=t + 1)
        for u in left:
            for v in right:
                e = (min(u, v), max(u, v))
                if e in seen:
                    raise PreconditionViolated(
                        f"edge {e} covered by bicliques {seen[e]} and {t + 1}",
                        witness=e)
                seen[e] = t + 1
    missing = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
               if (u, v) not in seen]
    if missing:
        raise PreconditionViolated(f"edge {missing[0]} is not covered",
                                   witness=missing[0])
    count = len(list(bicliques))
    if count < n - 1:
        raise CertificateFailed(
            f"{count} bicliques beat the Graham-Pollak bound {n - 1}")
    return {"n": n, "count": count, "bound_holds": True}


# ---------------------------------------------------------------------------
# symmetric OR-polynomial mod p^e

class SymmetricPolySpec:
    """f(j) = sum_a c_a binom(j,a) mod p, vanishing exactly on j = 0 mod p^e.

    The coefficients live in the elementary-symmetric basis: on a 0/1 input
    with j ones the a-th elementary symmetric polynomial evaluates to
    binom(j,a), so f is a function of the count j alone, and by Lucas'
    theorem it is periodic with period p^e.
    """

    __slots__ = ("p", "e", "coeffs")

    def __init__(self, p, e, coeffs):
        self.p = p
        self.e = e
        self.coeffs = tuple(int(c) % p for c in coeffs)

    @property
    def modulus(self):
        return self.p ** self.e

    def eval_count(self, j):
        return sum(c * binom(j, a) for a, c in enumerate(self.coeffs)) % self.p

    def eval_point(self, bits):
        return self.eval_count(sum(1 for b in bits if b))

    def __repr__(self):
        return f"SymmetricPolySpec(p={self.p}, e={self.e}, coeffs={self.coeffs})"


def or_poly_mod_pe(k, p, e):
    """Coefficients of a degree < p^e symmetric polynomial f with
    f(j) = 0 iff j = 0 mod p^e, solved with this library's own solver over
    GF(p) on the window j = 0..p^e-1."""
    if k < 0 or e < 1:
        raise InvalidInput(f"need k >= 0 and e >= 1, got k = {k}, e = {e}")
    q = p ** e
    if q > 16:
        raise InvalidInput(f"modulus {q} above the supported range")
    if q * q < k:
        raise InvalidInput(f"need p^e >= sqrt(k); {q}^2 < {k}")
    field = PrimeField(p)
    system = Matrix(field, [[binom(j, a) % p for a in range(q)]
                            for j in range(q)])
    target = [field.from_int(0 if j % q == 0 else 1) for j in range(q)]
    try:
        coeffs = solve(system, target)
    except Unsolvable as exc:
        raise SystemUnsolvable(
            "the s_a-value system is singular; construction bug") from exc
    spec = SymmetricPolySpec(p, e, coeffs)
    for j in range(q):
        want = 0 if j % q == 0 else 1
        if spec.eval_count(j) != want:
            raise SystemUnsolvable(f"solved coefficients misbehave at j={j}")
    return spec


# ---------------------------------------------------------------------------
# Grolmusz mod-6 construction

def _elim_rank(field, rows):
    """Gaussian elimination row rank (used only where the size puts the
    characteristic-polynomial route out of desk range)."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if not field.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return r


_MULMULEY_RANK_CAP = 12  # above this, fall back to elimination for the ranks


def _matrix_rank(field, rows):
    if len(rows) <= _MULMULEY_RANK_CAP and len(rows[0]) <= _MULMULEY_RANK_CAP:
        return mulmuley_rank(Matrix(field, rows)).rank
    return _elim_rank(field, rows)


def grolmusz_graph(k, cap=None):
    """The mod-6 Ramsey graph on vertex strings in [k]^k.

    delta(x,y)_i = 1 iff x_i != y_i, so OR(delta) = 0 iff x = y; the matrix
    entry is g(delta) = 3 f1 + 2 f2 carried as the CRT pair (mod 2, mod 3),
    where f1, f2 are OR-polynomials mod 2^e and 3^e.  The matrix is
    co-diagonal mod 6 (verified).  Frozen edge rule: {x,y} is an edge iff
    the entry is odd, which pins cliques to the Z2 rank and independent sets
    to the Z3 rank.
    """
    if not 0 <= k <= 256:  # or_poly_mod_pe needs a modulus p^e <= 16 with (p^e)^2 >= k
        raise InvalidInput(f"k must be in 0..256, got {k}")
    if cap is not None and cap < 1:
        raise InvalidInput(f"cap must be positive, got {cap}")
    total = k ** k
    nverts = total if cap is None else min(cap, total)
    if nverts > 4096:
        raise CapExceeded(f"{nverts} vertices; pass an explicit cap <= 4096")
    verts = []
    for tup in product(range(1, k + 1), repeat=k):
        verts.append(tup)
        if len(verts) == nverts:
            break
    e2 = 1
    while (2 ** e2) ** 2 < k:
        e2 += 1
    e3 = 1
    while (3 ** e3) ** 2 < k:
        e3 += 1
    f1 = or_poly_mod_pe(k, 2, e2)
    f2 = or_poly_mod_pe(k, 3, e3)
    # g = 3 f1 + 2 f2 as a CRT pair: g mod 2 = f1, g mod 3 = 2 f2
    by_dist2 = [f1.eval_count(j) for j in range(k + 1)]
    by_dist3 = [(2 * f2.eval_count(j)) % 3 for j in range(k + 1)]
    dist = [[sum(1 for a, b in zip(x, y) if a != b) for y in verts] for x in verts]
    A2 = [[by_dist2[dist[i][j]] for j in range(nverts)] for i in range(nverts)]
    A3 = [[by_dist3[dist[i][j]] for j in range(nverts)] for i in range(nverts)]
    for i in range(nverts):
        if A2[i][i] or A3[i][i]:
            raise PreconditionViolated("diagonal entry nonzero mod 6",
                                       witness=verts[i])
        for j in range(nverts):
            if i != j and not A2[i][j] and not A3[i][j]:
                raise PreconditionViolated("off-diagonal entry zero mod 6",
                                           witness=(verts[i], verts[j]))
    graph = Graph([[1 if i != j and A2[i][j] else 0 for j in range(nverts)]
                   for i in range(nverts)])
    return {"k": k, "n": nverts, "vertices": verts, "graph": graph,
            "A2": A2, "A3": A3,
            "rank2": _matrix_rank(GF2, A2), "rank3": _matrix_rank(GF3, A3),
            "edge_rule": "odd"}


def _bron_kerbosch(neighbors, n):
    best = 0

    def expand(R, P, X):
        nonlocal best
        if not P and not X:
            best = max(best, len(R))
            return
        pivot = max(P | X, key=lambda v: len(P & neighbors[v]))
        for v in list(P - neighbors[pivot]):
            expand(R | {v}, P & neighbors[v], X & neighbors[v])
            P = P - {v}
            X = X | {v}

    expand(frozenset(), frozenset(range(n)), frozenset())
    return best


def clique_number(G):
    if G.n > 256:
        raise ScaleExceeded(f"{G.n} vertices is past exact-search range")
    return _bron_kerbosch([G.neighbors(i) for i in range(G.n)], G.n)


def independence_number(G):
    return clique_number(G.complement())


def ramsey_check(G, rank2, rank3):
    """Brute-force clique and independence numbers against the rank bounds
    clique <= rank2 + 1 and independence <= binom(rank3+1, 2) + 1."""
    cl = clique_number(G)
    ind = independence_number(G)
    clique_bound = rank2 + 1
    indep_bound = binom(rank3 + 1, 2) + 1
    if cl > clique_bound:
        raise CertificateFailed(f"clique {cl} beats the Z2 bound {clique_bound}")
    if ind > indep_bound:
        raise CertificateFailed(
            f"independent set {ind} beats the Z3 bound {indep_bound}")
    return {"clique": cl, "independence": ind,
            "clique_bound": clique_bound, "independence_bound": indep_bound,
            "bounds_hold": True}
