"""Linear-algebra-method combinatorics checkers.

Oddtown, Fisher and Graham-Pollak verifiers with explicit rank/determinant
certificates, the nonuniform Ray-Chaudhuri-Wilson bound with circuit-built
polynomials whose multilinearizations are checked in the count
(elementary-symmetric) basis, circuit multilinearization, subset ranking, the
symmetric OR-polynomial mod p^e, and the mod-6 co-diagonal Ramsey graph
construction with Z2/Z3 rank certificates.

Ground sets are [n] with 1-based elements throughout.
"""

from fractions import Fraction
from functools import reduce
from itertools import islice, product
from math import comb, prod

from . import circuit as cc
from .charpoly import det
from .errors import (CapExceeded, CertificateFailed, InvalidInput,
                     NotLIntersecting, PreconditionViolated, ScaleExceeded,
                     SizeExceeded, SystemUnsolvable, Unsolvable)
from .field import GF2, QQ, PrimeField
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


def _ball(n, s):
    """sum_{i<=s} binom(n, i), term by term: binom(n, i+1) = binom(n, i)(n-i)/(i+1)."""
    if n < 0 or s < 0:
        return 0
    if s >= n:
        return 1 << n
    total = term = 1
    for i in range(s):
        term = term * (n - i) // (i + 1)
        total += term
    return total


def subsets_up_to(n, s):
    """All subsets of [n] of size <= s, in rank order."""
    return [subset_unrank(n, x, s) for x in range(1, _ball(n, s) + 1)]


def subset_rank(n, S, s):
    """1-based rank of a subset of [n] with |S| <= s, grouping by size and
    ordering each size class colexicographically."""
    S = frozenset(S)
    if len(S) > s:
        raise SizeExceeded(f"subset of size {len(S)} with cap {s}")
    if any(not 1 <= e <= n for e in S):
        raise InvalidInput("subset element outside the ground set")
    t = len(S)
    offset = _ball(n, t - 1)
    within = sum(binom(e - 1, k + 1) for k, e in enumerate(sorted(S)))
    return 1 + offset + within


def subset_unrank(n, x, s):
    """Inverse of subset_rank over 1..sum_{i<=s} binom(n,i)."""
    total = _ball(n, s)
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


# ---------------------------------------------------------------------------
# Ray-Chaudhuri-Wilson

def _pair_intersections(family):
    """(i, j, |S_i & S_j|) for the members' pairs i < j, 1-based, in order."""
    S = family.members
    for i in range(family.m):
        for j in range(i + 1, family.m):
            yield i + 1, j + 1, len(S[i] & S[j])


def _count_basis(L, size):
    """c_k = Delta^k g(0) for k = 0..deg g, where g(t) = prod_{l in L, l < size}
    (t - l).  By Newton's forward-difference formula g(t) = sum_k c_k binom(t, k),
    so on 0/1 points g(sum_{j in S} x_j) = sum_k c_k e_k(x_S) for |S| = size."""
    roots = [lk for lk in L if lk < size]
    diffs = [prod(t - lk for lk in roots) for t in range(len(roots) + 1)]
    c = []
    while diffs:
        c.append(diffs[0])
        diffs = [v - u for u, v in zip(diffs, diffs[1:])]
    return c


def rcw_verify(family, L):
    """Nonuniform Ray-Chaudhuri-Wilson: an L-intersecting family of distinct
    sets has at most sum_{i<=s} binom(n,i) members, s = |L|.

    Builds the witness polynomials f_a = prod_{l in L, l < |S_a|}
    (sum_{j in S_a} x_j - l) as circuits and checks that their evaluation
    matrix U is upper triangular with nonzero diagonal under the size-sorted
    order.  f_a depends only on the count t = |x & S_a|, so its
    multilinearization is p_a = sum_k c_k e_k(x_{S_a}) in the count basis
    (_count_basis; Babai and Frankl, Linear Algebra Methods in
    Combinatorics, ch. 5).  The cross-check proves deg p_a <= s and
    U[a][b] = sum_k c_k binom(|S_a & S_b|, k) for every b: the p_a take U's
    values at the members, so they are independent in the
    sum_{i<=s} binom(n,i)-dimensional space of multilinear polynomials of
    degree <= s.  Past the intersections, whatever n is, the witnesses'
    points cost O(m |union S_a|), U costs O(m^2 |witness|) and the
    cross-check O(m^2 s) operations.
    """
    L = sorted(set(L))
    s = len(L)
    n, m = family.n, family.m
    if len(set(family.members)) != m:
        raise PreconditionViolated("family members must be distinct sets")
    for i, j, size in _pair_intersections(family):
        if size not in L:
            raise NotLIntersecting(
                f"sets {i} and {j} intersect in {size} points, not in L",
                witness=(i, j, size))
    bound = _ball(n, s)
    report = {"m": m, "n": n, "s": s, "bound": bound,
              "upper_triangular": True, "diag_nonzero": True, "bound_holds": True}
    if m == 0:  # nothing to certify, and n, read off a header alone, may be huge
        return report
    order = sorted(range(m), key=lambda i: len(family.members[i]))
    members = [family.members[i] for i in order]
    circuits = []
    for S in members:  # a left-deep sum over S in increasing order
        xs = [cc.var(f"x{j}") for j in sorted(S)]
        inner = reduce(cc.add, xs) if xs else cc.const(0)
        factors = (inner + cc.const(-lk) for lk in L if lk < len(S))
        circuits.append(reduce(cc.mul, factors, cc.const(1)))
    union = set().union(*members)
    bits = QQ.zero(), QQ.one()  # every point shares these two elements
    points = [{f"x{j}": bits[j in S] for j in union} for S in members]
    U = [cc._eval_at(F, QQ, points) for F in circuits]
    for a in range(m):
        if U[a][a] == 0:
            raise PreconditionViolated("zero diagonal in the evaluation matrix",
                                       witness=order[a] + 1)
        for b in range(a):
            if U[a][b] != 0:
                raise PreconditionViolated(
                    "evaluation matrix is not upper triangular",
                    witness=(order[a] + 1, order[b] + 1))
    # count-basis cross-check: p_a = sum_k c_k e_k(x_{S_a}) is multilinear of
    # degree len(c) - 1 and equals a's witness on 0/1 points; at point b it
    # takes the value sum_k c_k binom(|S_a & S_b|, k)
    for a in range(m):
        c = _count_basis(L, len(members[a]))
        if len(c) > s + 1:
            raise PreconditionViolated("monomial of degree above |L| survived",
                                       witness=sorted(members[a])[:len(c) - 1])
        for b in range(m):
            t = len(members[a] & members[b])
            if sum(ck * binom(t, k) for k, ck in enumerate(c)) != U[a][b]:
                raise CertificateFailed("multilinearization is not evaluation-faithful")
    if m > bound:
        raise PreconditionViolated(
            f"family of {m} sets exceeds the bound {bound}", witness=m)
    return report


# ---------------------------------------------------------------------------
# oddtown / fisher / graham-pollak

def oddtown_check(family):
    """All member sizes odd, all pairwise intersections even => m <= n,
    certified by full GF(2) row rank of the incidence matrix."""
    for i, S in enumerate(family.members):
        if len(S) % 2 == 0:
            raise PreconditionViolated(f"set {i + 1} has even size {len(S)}",
                                       witness=i + 1)
    for i, j, inter in _pair_intersections(family):
        if inter % 2:
            raise PreconditionViolated(f"sets {i} and {j} intersect oddly ({inter})",
                                       witness=(i, j))
    # an empty family has the empty incidence matrix, of rank 0
    r = mulmuley_rank(Matrix(GF2, family.bit_rows())).rank if family.m else 0
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
    for i, j, inter in _pair_intersections(family):
        if inter != lam:
            raise PreconditionViolated(
                f"sets {i} and {j} intersect in {inter} != lambda", witness=(i, j))
    d = Fraction(1)  # the determinant of the empty Gram matrix
    if family.m:
        B = Matrix(QQ, [[Fraction(x) for x in row] for row in family.bit_rows()])
        d = det(B @ B.transpose())
    if d == 0:
        raise CertificateFailed("Gram determinant vanished on a valid Fisher family")
    if family.m > family.n:
        raise CertificateFailed(f"{family.m} sets beat the Fisher bound {family.n}")
    return {"m": family.m, "n": family.n, "gram_det": d, "bound_holds": True}


def graham_pollak_check(n, bicliques):
    """bicliques: pairs (left, right) of disjoint vertex sets whose complete
    bipartite edge sets partition E(K_n); then there are at least n-1."""
    bicliques = list(bicliques)
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
    # the first uncovered edge is among the first len(seen) + 1, however big n is
    missing = next(((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                    if (u, v) not in seen), None)
    if missing:
        raise PreconditionViolated(f"edge {missing} is not covered", witness=missing)
    count = len(bicliques)
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

    def __repr__(self):
        return f"SymmetricPolySpec(p={self.p}, e={self.e}, coeffs={self.coeffs})"


def or_poly_mod_pe(k, p, e):
    """Coefficients of a degree < p^e symmetric polynomial f with
    f(j) = 0 iff j = 0 mod p^e, solved with this library's own solver over
    GF(p) on the window j = 0..p^e-1."""
    if k < 0 or e < 1:
        raise InvalidInput(f"need k >= 0 and e >= 1, got k = {k}, e = {e}")
    if e > 4 and abs(p) > 1:  # |p^e| > 16 then, and p^e may be huge to compute
        raise InvalidInput(f"modulus {p}^{e} above the supported range")
    q = p ** e
    if q > 16:
        raise InvalidInput(f"modulus {q} above the supported range")
    if q * q < k:
        raise InvalidInput(f"need p^e >= sqrt(k); {q}^2 < {k}")
    field = PrimeField(p)
    system = Matrix(field, [[binom(j, a) % p for a in range(q)]
                            for j in range(q)])
    target = [field.from_int(0 if j % q == 0 else 1) for j in range(q)]
    # row j of system times the coefficients is f(j) mod p, so solve's
    # contract check (system @ coeffs == target) has verified f on the window
    try:
        coeffs = solve(system, target)
    except Unsolvable as exc:
        raise SystemUnsolvable(
            "the s_a-value system is singular; construction bug") from exc
    return SymmetricPolySpec(p, e, coeffs)


# ---------------------------------------------------------------------------
# Grolmusz mod-6 construction

MAX_VERTICES = 256  # past this, clique_number refuses the exact search

def _elim_rank(p, rows):
    """Row rank of a matrix of residues mod the prime p, brought to echelon
    form with plain integer arithmetic: each pivot clears only the rows below
    it.  The one path of the Ramsey ranks over GF2 and GF3, whose matrices
    reach 256 x 256; it beats the characteristic-polynomial route at small
    sizes too.  Kept apart from oracles.gauss_rank, the independent reference
    that checks the Ramsey ranks (ROADMAP item 9)."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top, inv = rows[r], pow(rows[r][c], -1, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        r += 1
    return r


def _least_exponent(p, k):
    """The least e >= 1 with (p^e)^2 >= k."""
    e = 1
    while (p ** e) ** 2 < k:
        e += 1
    return e


def grolmusz_graph(k, cap=None):
    """The mod-6 Ramsey graph on vertex strings in [k]^k.

    delta(x,y)_i = 1 iff x_i != y_i, so OR(delta) = 0 iff x = y; the matrix
    entry is g(delta) = 3 f1 + 2 f2 carried as the CRT pair (mod 2, mod 3),
    where f1, f2 are OR-polynomials mod 2^e and 3^e.  The matrix is
    co-diagonal mod 6 (verified).  Frozen edge rule: {x,y} is an edge iff
    the entry is odd, which pins cliques to the Z2 rank and independent sets
    to the Z3 rank.
    """
    if not 0 <= k <= 81:  # or_poly_mod_pe needs a modulus 3^e <= 16 with (3^e)^2 >= k
        raise InvalidInput(f"k must be in 0..81, got {k}")
    if cap is not None and cap < 1:
        raise InvalidInput(f"cap must be positive, got {cap}")
    total = k ** k
    nverts = total if cap is None else min(cap, total)
    if nverts > MAX_VERTICES:
        raise CapExceeded(f"{nverts} vertices; pass an explicit cap <= {MAX_VERTICES}")
    verts = list(islice(product(range(1, k + 1), repeat=k), nverts))
    f1 = or_poly_mod_pe(k, 2, _least_exponent(2, k))
    f2 = or_poly_mod_pe(k, 3, _least_exponent(3, k))
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
            "rank2": _elim_rank(2, A2), "rank3": _elim_rank(3, A3),
            "edge_rule": "odd"}


def _max_clique(adj):
    """Size of a largest clique, adj[v] being v's neighbour bitset (Tomita and
    Seki, MCQ, DMTCS 2003).  Candidates go in decreasing greedy colour c; those
    left then use colours 1..c, so the branch closes no clique past size + c."""
    best = 0

    def expand(size, P):
        nonlocal best
        best = max(best, size)
        coloured, U, c = [], P, 0
        while U:
            c += 1
            Q = U
            while Q:  # class c: take the lowest candidate, drop its neighbours, repeat
                low = Q & -Q
                Q &= ~(adj[low.bit_length() - 1] | low)
                U ^= low
                coloured.append((low, c))
        for low, c in reversed(coloured):
            if size + c <= best:
                return
            expand(size + 1, P & adj[low.bit_length() - 1])
            P ^= low

    expand(0, (1 << len(adj)) - 1)
    return best


def clique_number(G):
    """Exact, colour-bounded search (_max_clique); refused above MAX_VERTICES."""
    if G.n > MAX_VERTICES:
        raise ScaleExceeded(f"{G.n} vertices is past exact-search range")
    return _max_clique([sum(1 << j for j, x in enumerate(r) if x) for r in G.rows])


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
