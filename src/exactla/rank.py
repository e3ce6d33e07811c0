"""Rank via the characteristic polynomial over F[X], and its applications.

The pipeline: symmetrize A into [[0,A],[A^T,0]], scale row i by X^(i-1)
(polize), take the division-free characteristic polynomial over F[X], and
read the rank off the multiplicity of the root 0:

    rank(A) = (m + n - mul) / 2.

Solvability of Ax = b, explicit solutions, greedy image bases, maximal
nonsingular minors and kernel bases are all built from the same
characteristic polynomial, so no Gaussian elimination appears anywhere in
this module (elimination lives only in the test oracle).  solve finds a
solution whenever one exists, so solvable is solve's contract check.  A
greedy selection is one Berkowitz pass: its intermediate vectors are the
characteristic polynomials of the trailing blocks of polize, which hold the
rank of every column prefix of A.  The coordinates of the other columns, and
so the kernel basis, take one more: that of the selected columns.

Two execution paths compute identical answers:
  * a generic path over a PolynomialRing instance, usable over any base
    field: Berkowitz's algorithm is division-free, so every coefficient of
    charpoly(polize(A)) is a polynomial in X and F(X) is never needed
    (only decompose, which inverts p~(0), works over F(X)).  solve and
    decompose share one Horner helper for p~(C) applied to a vector;
  * a fast private kernel for rationals and prime fields, which lives in
    _numeric.py, the package's one numpy module.  It exploits that
    polize(A) = diag(X^0..X^(N-1)) * B with B numeric, so every matrix-vector
    step is one numeric matmul plus row shifts on coefficient arrays: numpy
    int64 mod p, and for Q, after clearing denominators with an exact
    rescale, int64 read as Z/2^64 when a Hadamard bound
    (_numeric._hadamard_bound) proves every integer read back below 2^63,
    or object arrays of Python ints otherwise.

The fast kernel stores each X-polynomial trimmed, as (offset, array) with
nonzero end coefficients, or None for zero, and each vector of them as its
possibly nonzero rows over one X-span.  The X-polynomials are a ring
(_numeric._Num), which _fast_trailing_charpolys runs through charpoly.py's
one Berkowitz loop, so both paths yield CharPoly values; this module reads
an element only as _Num.to_ints, its constant-first list of ints.
RankReport keeps A and the method, and builds charpoly_of_polize over F(X)
from that method's X kernel only when read.  B is bipartite, so half of
every Berkowitz vector and first column is zero, and low X-degrees start out
empty: the Toeplitz combine convolves only pairs of nonzero operands, and
the first-column matvecs multiply only the rows a vector occupies and the
rows of B they reach.  solve's Horner helper applies p~(C) to chi * [b;0],
whose row i is the monomial b_i X^i, so each scalar-times-vector step is a
shift and scale; it returns the X^s coefficient of every row as ints, s the
least X-degree of p~(0).

Over GF(p) with p > max(x0, N(N-1)/2), and over Q, rank, solve and the
coefficient solves of the greedy selections first evaluate at one point
X = x0 mod a prime (_point_primes): p itself, or over Q a word prime below
2^28 on A's entries cleared to integers.  Both maps are ring maps, so the
scalar characteristic polynomial of C(x0) = diag(x0^i) * symm(A) mod p
bounds rank(A) from below at every point and prime.  When that bound
reaches min(m, n) it is the rank, with no X-polynomial at all; when it
shows full column rank (n <= m) the solution is unique, and one scalar
Horner finds it mod p.  Over Q the Horner runs mod successive word primes,
Garner's CRT joins the residues and rational reconstruction recovers the
entries (_numeric's modular layer), until a candidate passes the check or a
Hadamard bound on Cramer's rule caps the primes.  Every answer passes the
same contract check.  A point that does not certify, or an answer that
fails the check, leaves the input to the X kernel, so rank-deficient inputs
still take the X kernel.
"""

from fractions import Fraction
from functools import cache
from math import prod

from .errors import (CertificateFailed, DimensionMismatch, IndexOutOfRange,
                     InvalidInput, Unsolvable, ZeroMatrix)
from .field import PrimeField, Rationals
from .matrix import Matrix, mat_vec
from .poly import Polynomial, PolynomialRing
from .ratfunc import RationalFunctionField
from .charpoly import (CharPoly, _berkowitz, charpoly as _charpoly,
                       trailing_charpolys as _trailing_charpolys)
from . import _numeric
from ._numeric import (_PRIMES, _berkowitz_mod_p, _clear_ints, _crt, _fast_first_column,
                       _horner, _norm_ceil, _point_horner, _point_matrix, _ratrecon,
                       _sym_parts)


# ---------------------------------------------------------------------------
# index vectors and the counting gadget

def iota(field, v):
    """Denoted index of an index vector: 1-based position of its single 1."""
    hits = [i + 1 for i, x in enumerate(v) if not field.is_zero(x)]
    if len(hits) != 1 or not field.is_one(v[hits[0] - 1]):
        raise InvalidInput("not an index vector (need exactly one entry = 1)")
    return hits[0]


def count_nonzero(field, v, k):
    """Index vector of length n+1 whose denoted index, minus one, counts the
    nonzero entries among the first k coordinates of v.

    Computes T_k ... T_1 e_1, T_j = (1-chi_j) I + chi_j S with S the shift,
    as (1-chi_j) w_i + chi_j w_(i-1) in the field's arithmetic on w_0..w_j
    only: w is zero past index j-1 before step j, so T_j keeps the tail zero.
    chi_j comes from field.indicator, so there is no host-level counting.
    """
    n = len(v)
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"prefix length {k} for a vector of length {n}")
    z, o = field.zero(), field.one()
    w = [o] + [z] * n
    for j in range(1, k + 1):
        chi = field.indicator(not field.is_zero(v[j - 1]))
        stay = field.sub(o, chi)
        w[:j + 1] = [field.add(field.mul(stay, x), field.mul(chi, y))
                     for x, y in zip(w[:j + 1], [z] + w[:j])]
    return w


# ---------------------------------------------------------------------------
# symm / polize

def symm(A):
    """[[0, A], [A^T, 0]], symmetric of order m+n over the base field."""
    F = A.field
    top = Matrix.zeros(F, A.m, A.m).hstack(A)
    bottom = A.transpose().hstack(Matrix.zeros(F, A.n, A.n))
    return top.vstack(bottom)


def polize(A, ring=None):
    """symm(A) with row i scaled by X^(i-1), i.e. diag(X^0..X^(m+n-1)) *
    symm(A), over ring: any PolynomialRing or RationalFunctionField of A's
    field (F(X) by default)."""
    ring = ring or RationalFunctionField(A.field)
    S = symm(A)
    powers = [ring.one()]
    while len(powers) < S.m:
        powers.append(ring.mul(powers[-1], ring.gen()))
    return Matrix(ring, [[ring.mul(p, ring.from_base(a)) for a in row]
                         for p, row in zip(powers, S.rows)])


# ---------------------------------------------------------------------------
# result records

class RankReport:
    """rank(A) = (m + n - mul) / 2, mul the root-0 multiplicity of the
    charpoly of polize(A), read off the point or the X kernel (mulmuley_rank).
    charpoly_of_polize runs method's X kernel on A when read."""

    __slots__ = ("m", "n", "mul", "rank", "_A", "_method")

    def __init__(self, A, method, mul):
        self.m, self.n, self._A, self._method = A.m, A.n, A, method
        self.mul = mul
        self.rank = _rank_of(A.m + A.n, mul)

    @property
    def charpoly_of_polize(self):
        """The exact charpoly of polize(A) over F(X): t_i(cC) = c^(N-i) t_i(C)."""
        field = self._A.field
        ch, scale = _x_charpoly(self._A, self._method)
        fx = RationalFunctionField(field)
        if not isinstance(ch.field, _numeric._Num):
            return Polynomial(fx, [fx.from_poly(c) for c in ch.constant_first()])
        return Polynomial(fx, [fx.from_poly(Polynomial(field, [
            field.div(field.from_int(c), field.from_int(scale ** (ch.n - i)))
            for c in ch.field.to_ints(ch.coeff_of(i))])) for i in range(ch.n + 1)])

    def __repr__(self):
        return f"RankReport(m={self.m}, n={self.n}, mul={self.mul}, rank={self.rank})"


class BasisSelection:
    __slots__ = ("selected", "basis", "count", "coeffs")

    def __init__(self, selected, basis, count, coeffs):
        self.selected = selected
        self.basis = basis
        self.count = count
        self.coeffs = coeffs

    def indices(self):
        """1-based positions of the selected columns."""
        return [j + 1 for j, s in enumerate(self.selected) if s]

    def __repr__(self):
        return f"BasisSelection(count={self.count}, selected={self.indices()})"


class MinorSelection:
    __slots__ = ("U", "V")

    def __init__(self, U, V):
        self.U = U
        self.V = V

    def __repr__(self):
        return f"MinorSelection(U={self.U}, V={self.V})"


# ---------------------------------------------------------------------------
# glue from the numeric kernel (_numeric.py) to the one Berkowitz loop

def _fast_trailing_charpolys(num, B):
    """Yield the CharPoly over num of every trailing principal block of
    C = diag(X^0..X^(N-1)) * B, the 1x1 corner first and C itself last."""
    return _berkowitz(num, B.shape[0], lambda k: _fast_first_column(num, B, k - 1))


def _fast_charpoly(num, B):
    """The last value of _fast_trailing_charpolys: the charpoly of C."""
    for ch in _fast_trailing_charpolys(num, B):
        pass
    return ch


def _use_fast(field, method):
    """method="auto" or "fast" takes the fast kernel wherever it applies
    (rationals and prime fields); "generic" always takes the generic path."""
    if method not in ("auto", "fast", "generic"):
        raise InvalidInput(f"unknown method {method!r} (auto, fast or generic)")
    return method != "generic" and isinstance(field, (Rationals, PrimeField))


# ---------------------------------------------------------------------------
# rank

def _point_primes(A, method):
    """The primes p the point path may reduce A mod, in order: p itself over
    GF(p), the word primes _PRIMES over Q, and none for other fields or
    method="generic".  Each needs p > max(x0, N(N-1)/2): x0 is then nonzero
    mod p, and t_mul, of X-degree at most N(N-1)/2, has a nonroot in GF(p)."""
    field, N = A.field, A.m + A.n
    if not _use_fast(field, method):
        return ()
    primes = (field.p,) if isinstance(field, PrimeField) else _PRIMES
    # the smallest prime is last
    return primes if primes[-1] > max(_numeric._X0, N * (N - 1) // 2) else ()


@cache
def _word_field(p):
    """GF(p) for a word prime p of _PRIMES, built once: PrimeField tests its
    modulus for primality."""
    return PrimeField(p)


def _point_charpoly(A, ints, p):
    """(C(x0), its CharPoly over GF(p)) for C(x0) = diag(x0^i) * symm(A) mod
    p, the point path's one scalar charpoly, where ints are A's entries
    cleared to integers (_clear_ints), row-major.

    Setting X = x0 and reducing mod p are ring maps, so
    mul(x0) >= N - rank C(x0) >= N - 2 rank(A) at every point and prime:
    (N - mul(x0)) / 2 is a lower bound on rank(A).  It is an integer, since
    the charpoly of the bipartite C(x0) is Y^|m-n| g(Y^2)."""
    F = A.field if isinstance(A.field, PrimeField) else _word_field(p)
    C = _point_matrix(p, ints, A.m, A.n)
    return C, CharPoly(F, _berkowitz_mod_p(C, p), A.m + A.n)


def _x_charpoly(A, method, cleared=None):
    """(ch, scale): the CharPoly of scale * polize(A) over F[X] from method's
    X kernel, the fast one (on cleared, A's _clear_ints, if given) or the
    generic one."""
    if _use_fast(A.field, method):
        num, B, scale = _sym_parts(A.field, A, cleared=cleared)
        return _fast_charpoly(num, B), scale
    return _generic_charpoly(A)[1], 1


def mulmuley_rank(A, method="auto"):
    """rank(A) from the root-0 multiplicity of charpoly(polize(A)).  Over
    GF(p), and over Q mod the first word prime, the point's lower bound comes
    first: when it reaches min(m, n) it is the rank, and
    mul(x0) = N - 2 rank = mul.  Otherwise the X kernel, on the same cleared
    entries."""
    primes = _point_primes(A, method)
    cleared = None
    if primes:
        cleared = _clear_ints(A.field, [e for r in A.rows for e in r])
        mul = _point_charpoly(A, cleared[0], primes[0])[1].root0_mul()
        if _rank_of(A.m + A.n, mul) == min(A.m, A.n):
            return RankReport(A, method, mul)
    return RankReport(A, method, _x_charpoly(A, method, cleared)[0].root0_mul())


def _rank_of(order, mul):
    """Rank from the root-0 multiplicity of the charpoly of a polize of this order."""
    if (order - mul) % 2:
        raise CertificateFailed("odd rank numerator; characteristic polynomial is corrupt")
    return (order - mul) // 2


def _generic_charpoly(A):
    """(polize(A), its CharPoly), both over F[X]."""
    C = polize(A, PolynomialRing(A.field))
    return C, _charpoly(C)


def rank(A, method="auto"):
    return mulmuley_rank(A, method).rank


# ---------------------------------------------------------------------------
# solvability and explicit solutions

def solvable(A, b, method="auto"):
    """Whether Ax = b has a solution.  solve finds one whenever one exists,
    so its contract check decides."""
    try:
        solve(A, b, method)
    except Unsolvable:
        return False
    return True


def _apply_ptilde(C, ch, w, last):
    """sum_{j=last}^{N-mul} t_(j+mul) C^(j-last) w by Horner over C's ring,
    where t_k is the Y^k coefficient of ch = charpoly(C) and mul its root-0
    multiplicity; last=0 gives p~(C) w.  None when the sum is empty."""
    R = C.field
    mul = ch.root0_mul()
    acc = None
    for j in range(C.n - mul, last - 1, -1):
        term = [R.mul(ch.coeff_of(j + mul), x) for x in w]
        if acc is not None:
            term = [R.add(u, v) for u, v in zip(mat_vec(C, acc), term)]
        acc = term
    return acc


def solve(A, b, method="auto"):
    """A particular solution of Ax = b via v = R(C)(chi [b;0]).

    Over F[X] the identity symm(A) v = p~(0) [b;0] holds.  Let s be the multiplicity of the root 0 of the scalar
    p~(0); comparing X^s coefficients gives symm(A) v_s = tau [b;0] with tau
    the (nonzero) X^s coefficient of p~(0), so the lower n components of
    tau^(-1) v_s solve the system.  (With s = 0 this is evaluation at X = 0;
    the general s is needed because p~(0) can vanish at 0.)
    Raises Unsolvable when no solution exists."""
    if len(b) != A.m:
        raise DimensionMismatch(f"right-hand side length {len(b)} vs {A.m} rows")
    return _solve_columns(A, [b], method)[0]


def _point_solve(A, bs):
    """solve(A, b) for every b in bs at X = x0, each answer checked
    (_solves), or None when the point does not apply (n > m, or
    _point_primes gives no prime), when its first prime does not certify
    that A has full column rank, or, over Q, when no candidate passes the
    check by the cap below.

    Over GF(p), N - mul(x0) = 2n proves rank(A) = n (_point_charpoly's lower
    bound).  Then mul(x0) = mul, the least nonzero coefficient tau = t_mul(x0)
    is p~(0) at x0, and evaluating symm(A) v = p~(0) [b; 0] at x0 gives the
    solution, unique since the columns are independent.

    Over Q the same runs mod the word primes on A' = cA and b' = c_b b, the
    cleared entries, and gives y mod p with A'y = b', so x = (c / c_b) y.
    The first prime certifies rank(A) = n; a later one that does not is
    skipped.  Garner's CRT joins the residues of each entry mod M, the
    product of the certified primes, and rational reconstruction (_ratrecon)
    gives a candidate, returned once it passes the check.

    The cap.  If y exists it is unique, and for any n rows R with
    det A'[R] != 0, Cramer's rule gives y_i = det A'_i[R] / det A'[R], where
    A'_i is A' with column i replaced by b'.  Hadamard's inequality on columns
    bounds |det A'[R]| by the product of the norms of the columns of A', and
    |det A'_i[R]| by ||b'|| times the same product (every column is a nonzero
    integer vector, of norm >= 1).  So H = max(1, ceil ||b'||) times the
    product of the ceilings of the column norms bounds every numerator and
    denominator of y.  The reduced denominator of y_i divides det A'[R] for
    every such R, and a certified prime p leaves one such minor nonzero mod
    p, so p does not divide it: y mod p is the unique solution mod p, the
    one the point computes, and the CRT value is y mod M.  Once M > 2 H^2,
    isqrt((M - 1) / 2) >= H, so _ratrecon returns y itself.  A candidate
    that fails the check there proves that no solution exists, and the X
    kernel gives that verdict."""
    field, m, n = A.field, A.m, A.n
    primes = _point_primes(A, "auto") if n <= m else ()
    if not primes:
        return None
    ints, scale = _clear_ints(field, [e for r in A.rows for e in r])
    rhs = [_clear_ints(field, b) for b in bs]
    over_q = not isinstance(field, PrimeField)
    if over_q:
        H = max([1] + [_norm_ceil(b) for b, _ in rhs]) * prod(
            _norm_ceil(ints[j::n]) for j in range(n))
    M, ys = 1, [[0] * n for _ in bs]
    for p in primes:
        C, ch = _point_charpoly(A, ints, p)
        F, mul = ch.field, ch.root0_mul()
        if m + n - mul != 2 * n:
            if M == 1:
                return None
            continue  # a bad prime: the first one certified rank(A) = n
        t = ch.constant_first()
        tau_inv = F.inv(t[mul])
        # S u = sum_{j>=1} t_{j+mul} C^(j-1) u, so v = -S u
        res = [[F.mul(F.from_int(-v), tau_inv) for v in _point_horner(C, t[mul + 1:], b, p)[m:]]
               for b, _ in rhs]
        if not over_q:
            return res if _solves(A, bs, res) else None
        ys = [[_crt(r, M, a, p) for r, a in zip(y, z)] for y, z in zip(ys, res)]
        M *= p
        xs = [[_ratrecon(r, M) for r in y] for y in ys]
        if all(None not in x for x in xs):
            xs = [[Fraction(scale, b_scale) * v for v in x] for x, (_, b_scale) in zip(xs, rhs)]
            if _solves(A, bs, xs):
                return xs
        if M > 2 * H * H:
            return None
    return None


def _solves(A, bs, xs):
    """The contract check: A x = b for every pair."""
    return all(A.field.eq(u, v) for b, x in zip(bs, xs) for u, v in zip(mat_vec(A, x), b))


def _solve_columns(A, bs, method):
    """solve(A, b) for every b in bs: one characteristic polynomial of
    polize(A), then one Horner and one contract check per b.  Over GF(p)
    and Q, the point (_point_solve) comes first: scalar characteristic
    polynomials at X = x0, mod p or mod word primes, whose answers it has
    checked already.  When it declines, the X kernel runs as before."""
    field = A.field
    m, n = A.m, A.n
    if _use_fast(field, method):
        xs = _point_solve(A, bs)
        if xs is not None:
            return xs
        num, B, scale = _sym_parts(field, A, bs)
        ch = _fast_charpoly(num, B)
        # p~(0) = tau_hat X^s + higher terms
        tau_hat = next(c for c in num.to_ints(ch.coeff_of(ch.root0_mul())) if c)

        def particular(b):
            b_ints, b_scale = _clear_ints(field, list(b))
            # S = sum_{j>=1} t_{j+mul} C^(j-1) w0, so v = -S w0
            vs = _horner(num, B, ch, b_ints)
            # v_hat = scale^(N-mul-1) * b_scale * v;  tau_hat = scale^(N-mul) * tau
            tau_inv = field.inv(field.from_int(tau_hat * b_scale))
            return [field.mul(field.from_int(-scale * vs[m + i]), tau_inv) for i in range(n)]
    else:
        C, ch = _generic_charpoly(A)
        t0 = ch.coeff_of(ch.root0_mul()).coeffs  # p~(0), a nonzero polynomial
        s = next(i for i, c in enumerate(t0) if not field.is_zero(c))
        tau_inv = field.inv(t0[s])

        def particular(b):
            # chi_N * [b; 0]: row i is the monomial b_i X^i
            w = [C.field.from_base(x).shift(i) for i, x in enumerate(b)]
            acc = _apply_ptilde(C, ch, w + [C.field.zero()] * n, 1)
            if acc is None:
                return [field.zero()] * n
            return [field.mul(field.neg(acc[m + i].coeff(s)), tau_inv) for i in range(n)]
    xs = [particular(b) for b in bs]
    # contractual check: the formula only solves solvable systems
    if not _solves(A, bs, xs):
        raise Unsolvable("no solution exists for this right-hand side")
    return xs


# ---------------------------------------------------------------------------
# decomposition along ker/im of polize(A)

def decompose(C, v):
    """Split v = u1 + u2 with C u1 = 0 and u2 in im(C), for C = polize(A).

    u1 = p~(0)^(-1) p~(C) v and u2 is the complement; relies on
    ker(C) and im(C) intersecting trivially.
    """
    if not C.is_square():
        raise InvalidInput("decomposition needs a square polize matrix")
    fx = C.field
    ch = _charpoly(C)
    s_inv = fx.inv(ch.coeff_of(ch.root0_mul()))  # p~(0), a nonzero element of F(X)
    u1 = [fx.mul(s_inv, u) for u in _apply_ptilde(C, ch, v, 0)]
    u2 = [fx.sub(w, u) for w, u in zip(v, u1)]
    return u1, u2


# ---------------------------------------------------------------------------
# image basis, maximal minor, kernel basis

def _independent_columns(A, method):
    """selected[j]: whether column j of A is not a combination of the columns
    before it, i.e. rank(A[:, :j+1]) > rank(A[:, :j]).

    One Berkowitz pass over polize(M), M the columns of A in reverse order
    taken as rows.  Its trailing block of order m+j is X^(n-j) times
    polize of M's last j rows, the first j columns of A, so its root-0
    multiplicity mul gives rank(A[:, :j]) = (m + j - mul) / 2."""
    field, m = A.field, A.m
    M = Matrix(field, A.column_list()[::-1])
    if _use_fast(field, method):
        chs = _fast_trailing_charpolys(*_sym_parts(field, M)[:2])
    else:
        chs = _trailing_charpolys(polize(M, PolynomialRing(field)))
    # blocks of order <= m lie inside the zero corner: no column yet
    ranks = [0] + [_rank_of(ch.n, ch.root0_mul()) for ch in chs if ch.n > m]
    return [r1 > r0 for r0, r1 in zip(ranks, ranks[1:])]


def greedy_basis(A, with_coeffs=True, method="auto"):
    """Left-to-right greedy column selection: column j joins the basis iff it
    is not a combination of the strictly earlier columns.  The selection
    reads every prefix rank off one Berkowitz pass (_independent_columns);
    with_coeffs solves the other columns against the m x r matrix of the
    selected ones, from one more characteristic polynomial (_solve_columns)."""
    field = A.field
    m, n = A.m, A.n
    cols = A.column_list()
    selected = _independent_columns(A, method)
    z = field.zero()
    basis = Matrix(field, [[cols[j][i] if selected[j] else z for j in range(n)]
                           for i in range(m)])
    count = sum(selected)
    coeffs = None
    if with_coeffs:
        rows = [[field.indicator(selected[j] and i == j) for j in range(n)]
                for i in range(n)]
        picked = [j for j in range(n) if selected[j]]
        rest = [j for j in range(n) if not selected[j]]
        if picked and rest:
            S = Matrix(field, [[cols[j][i] for j in picked] for i in range(m)])
            try:
                xs = _solve_columns(S, [cols[j] for j in rest], method)
            except Unsolvable as exc:
                raise CertificateFailed("basis coefficients failed their check") from exc
            for j, x in zip(rest, xs):
                for i, c in zip(picked, x):
                    rows[i][j] = c
        coeffs = Matrix(field, rows)
        if A != basis @ coeffs:
            raise CertificateFailed("basis reconstruction failed")
    return BasisSelection(selected, basis, count, coeffs)


def max_nonsingular_minor(A, method="auto"):
    """Row set U from the greedy basis of A^T, column set V from that of A;
    A[U:V] is square of full rank = rank(A)."""
    col_sel = greedy_basis(A, with_coeffs=False, method=method)
    if col_sel.count == 0:
        raise ZeroMatrix("the zero matrix has no nonsingular minor")
    row_sel = greedy_basis(A.transpose(), with_coeffs=False, method=method)
    return MinorSelection(row_sel.indices(), col_sel.indices())


def kernel_basis(A, method="auto"):
    """Basis of ker(A) as a list of n-vectors (n - rank of them).

    For each column c outside the greedy basis: column c of its coefficients
    (c's coordinates over the basis columns) with -1 at c.  The zero matrix
    gives the unit vectors."""
    field, n = A.field, A.n
    sel = greedy_basis(A, method=method)
    if sel.count == 0:
        return [[field.indicator(i == j) for i in range(n)] for j in range(n)]
    minus_one = field.neg(field.one())
    return [[minus_one if i == c else sel.coeffs.rows[i][c] for i in range(n)]
            for c in range(n) if not sel.selected[c]]
