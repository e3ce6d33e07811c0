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
  * a fast private kernel for rationals and prime fields.  It exploits that
    polize(A) = diag(X^0..X^(N-1)) * B with B numeric, so every matrix-vector
    step is one numeric matmul plus row shifts on coefficient arrays
    (numpy int64 mod p, or object arrays of Python ints for Q after clearing
    denominators with an exact rescale).

The fast kernel stores each X-polynomial trimmed, as (offset, array) with
nonzero end coefficients, or None for zero, and each vector of them as its
possibly nonzero rows over one X-span.  The X-polynomials are a ring (_Num)
run through charpoly.py's one Berkowitz loop, so both paths yield CharPoly
values.  B is bipartite, so half of every Berkowitz vector and first column
is zero, and low X-degrees start out empty: the Toeplitz combine convolves
only pairs of nonzero operands, and the first-column matvecs multiply only
the rows a vector occupies and the rows of B they reach.  solve's Horner
helper applies p~(C) to chi * [b;0], whose row i is the monomial b_i X^i, so
each scalar-times-vector step is a shift and scale.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from .errors import (CertificateFailed, DimensionMismatch, IndexOutOfRange,
                     InvalidInput, Unsolvable, ZeroMatrix)
from .field import PrimeField, Rationals, Ring
from .matrix import Matrix, mat_vec
from .poly import Polynomial, PolynomialRing
from .ratfunc import RationalFunctionField
from .charpoly import (_berkowitz, charpoly as _charpoly,
                       trailing_charpolys as _trailing_charpolys)


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

    Computed by the matrix-product simulation T_k ... T_1 e_1 with
    T_j = (1-chi_j) I + chi_j S, S the shift matrix; no host-level counting.
    """
    n = len(v)
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"prefix length {k} for a vector of length {n}")
    size = n + 1
    z, o = field.zero(), field.one()
    ident = Matrix.identity(field, size)
    shift = Matrix(field, [[o if r == c + 1 else z for c in range(size)]
                           for r in range(size)])
    w = [o] + [z] * n
    for j in range(1, k + 1):
        chi = field.indicator(not field.is_zero(v[j - 1]))
        T = ident.scale(field.sub(o, chi)) + shift.scale(chi)
        w = mat_vec(T, w)
    return w


# ---------------------------------------------------------------------------
# symm / chi / polize

def symm(A):
    """[[0, A], [A^T, 0]], symmetric of order m+n over the base field."""
    F = A.field
    top = Matrix.zeros(F, A.m, A.m).hstack(A)
    bottom = A.transpose().hstack(Matrix.zeros(F, A.n, A.n))
    return top.vstack(bottom)


def chi_matrix(ring, n):
    """diag(X^0, X^1, ..., X^(n-1)) over ring, F[X] or F(X)."""
    x = ring.gen()
    rows = []
    power = ring.one()
    for i in range(n):
        rows.append([power if j == i else ring.zero() for j in range(n)])
        if i < n - 1:
            power = ring.mul(power, x)
    return Matrix(ring, rows)


def polize(A, ring=None):
    """chi(m+n) * symm(A) with row i scaled by X^(i-1), over ring: any
    PolynomialRing or RationalFunctionField of A's field (F(X) by default)."""
    ring = ring or RationalFunctionField(A.field)
    S = symm(A)
    return chi_matrix(ring, S.n) @ S.map(ring.from_base, ring)


# ---------------------------------------------------------------------------
# result records

class RankReport:
    __slots__ = ("m", "n", "charpoly_of_polize", "mul", "rank")

    def __init__(self, m, n, charpoly_of_polize, mul, rank):
        self.m = m
        self.n = n
        self.charpoly_of_polize = charpoly_of_polize
        self.mul = mul
        self.rank = rank

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
# fast numeric kernel (private): matrices diag(X^0..X^(N-1)) * B with B numeric
#
# An X-polynomial is a trimmed pair (offset, a) meaning sum_k a[k] X^(offset+k)
# with a[0] and a[-1] nonzero, or None for zero.  A vector of X-polynomials is
# a triple (rows, lo, W) or None: rows are the indices of its possibly
# nonzero entries, and entry rows[k] is sum_j W[k, j] X^(lo+j).

class _Num(Ring):
    """The ring of trimmed X-polynomials, zero None, over 1-D/2-D numpy
    arrays of plain Python ints (object dtype) or residues mod p (int64 when
    no sum can overflow)."""

    def __init__(self, p, N):
        self.p = p
        self.name = "Z[X]" if p is None else f"GF{p}[X]"
        # each entry is a sum of at most N products (matvec) or of at most
        # N(N-1)/2 + 1 products (convolution with a charpoly coefficient, whose
        # X-degree is at most N(N-1)/2), each product below (p-1)^2
        if p is not None and (p - 1) ** 2 * max(N, N * (N - 1) // 2 + 1) < 2 ** 63:
            self.dtype = np.int64
        else:
            self.dtype = object

    def red(self, a):
        return a if self.p is None else a % self.p

    def zeros(self, shape):
        return np.zeros(shape, dtype=self.dtype)

    def matmul(self, A, w):
        return self.red(A.dot(w))

    def zero(self):
        return None

    def is_zero(self, x):
        return x is None

    def mul(self, x, y):
        """Product, itself trimmed (the coefficient rings are integral
        domains); a monomial factor is a shift-and-scale instead of a
        convolution."""
        if x is None or y is None:
            return None
        (ox, a), (oy, b) = x, y
        if len(a) == 1 or len(b) == 1:
            return ox + oy, self.red(a * b)
        return ox + oy, self.red(np.convolve(a, b))

    def sum(self, items):
        terms = [t for t in items if t is not None]
        if len(terms) <= 1:
            return terms[0] if terms else None
        lo = min(o for o, _ in terms)
        acc = self.zeros(max(o + len(a) for o, a in terms) - lo)
        for o, a in terms:
            acc[o - lo:o - lo + len(a)] += a
        return _trim(lo, self.red(acc))

    def format(self, x):
        """Constant-first coefficients, as PolynomialRing.format writes them."""
        if x is None:
            return "0"
        off, a = x
        return " ".join(["0"] * off + [str(c) for c in a])


def _trim(off, a):
    """The trimmed pair for sum_k a[k] X^(off+k), or None if a is zero."""
    nz = a.nonzero()[0]
    if not len(nz):
        return None
    return off + int(nz[0]), a[nz[0]:nz[-1] + 1]


def _stagger(num, rows, lo, U):
    """The vector whose entry rows[k] is X^(lo + rows[k]) * U[k]."""
    r0 = int(rows[0])
    shift = (rows - r0).tolist()
    W = num.zeros((len(rows), U.shape[1] + shift[-1]))
    for k, s in enumerate(shift):
        W[k, s:s + U.shape[1]] = U[k]
    return rows, lo + r0, W


def _matvec(num, B, base, vec):
    """diag(X^(base+i)) * B applied to a vector: only its rows and the rows
    of B they reach are multiplied."""
    rows, lo, W = vec
    sub = B[:, rows]
    reach = sub.any(axis=1).nonzero()[0]
    if not len(reach):
        return None
    return _stagger(num, reach, lo + base, num.matmul(sub[reach], W))


def _vadd(num, x, y):
    """Sum of two vectors."""
    # a set union: np.union1d would import numpy.ma, several MB of RSS
    rows = np.array(sorted({*x[0].tolist(), *y[0].tolist()}), dtype=np.intp)
    lo = min(x[1], y[1])
    W = num.zeros((len(rows), max(x[1] + x[2].shape[1], y[1] + y[2].shape[1]) - lo))
    for r, l, U in (x, y):
        W[np.searchsorted(rows, r), l - lo:l - lo + U.shape[1]] += U
    return rows, lo, num.red(W)


def _fast_first_column(num, B, k0):
    """First column of Col(k0+1, diag*B): Y-coefficients as trimmed
    X-polynomials [1, -X^k0 a, -X^k0 R S, -X^k0 R M S, ...], with a, R, S, M
    the corner, row border, column border and trailing block of B at k0 and
    M scaled by diag(X^(k0+1)..X^(N-1))."""
    N = B.shape[0]
    col = [(0, np.ones(1, dtype=num.dtype)), _trim(k0, num.red(-B[k0, k0:k0 + 1]))]
    R, S, M = B[k0, k0 + 1:], B[k0 + 1:, k0], B[k0 + 1:, k0 + 1:]
    rows = S.nonzero()[0]
    w = _stagger(num, rows, k0 + 1, S[rows, None]) if len(rows) else None
    for t in range(N - 1 - k0):
        if w is None:
            col.append(None)
            continue
        rows, lo, W = w
        col.append(_trim(k0 + lo, num.red(-num.matmul(R[rows], W))))
        if t < N - 2 - k0:
            w = _matvec(num, M, k0 + 1, w)
    return col


def _fast_trailing_charpolys(num, B):
    """Yield the CharPoly over num of every trailing principal block of
    C = diag(X^0..X^(N-1)) * B, the 1x1 corner first and C itself last."""
    return _berkowitz(num, B.shape[0], lambda k: _fast_first_column(num, B, k - 1))


def _fast_charpoly(num, B):
    """The last value of _fast_trailing_charpolys: the charpoly of C."""
    for ch in _fast_trailing_charpolys(num, B):
        pass
    return ch


def _horner(num, B, ch, b_ints):
    """sum_{j=1}^{N-mul} t_(j+mul) C^(j-1) w0 by Horner, where
    C = diag(X^0..X^(N-1)) * B, t_k is the Y^k coefficient of ch = charpoly(C),
    mul its root-0 multiplicity and w0 = chi_N * [b; 0].
    Row i of w0 is the monomial b_i X^i, so t * w0 is t shifted and scaled
    row by row.  Returns a vector in the kernel's (rows, lo, W) form."""
    N = B.shape[0]
    mul = ch.root0_mul()
    brows = np.array([i for i, x in enumerate(b_ints) if x], dtype=np.intp)
    bvals = np.array([b_ints[i] for i in brows], dtype=num.dtype)
    acc = None
    for j in range(N - mul, 0, -1):
        if acc is not None:
            acc = _matvec(num, B, 0, acc)
        t = ch.coeff_of(j + mul)
        if t is not None and len(brows):
            term = _stagger(num, brows, t[0], num.red(np.multiply.outer(bvals, t[1])))
            acc = term if acc is None else _vadd(num, acc, term)
    return acc


def _use_fast(field, method):
    """method="auto" or "fast" takes the fast kernel wherever it applies
    (rationals and prime fields); "generic" always takes the generic path."""
    if method not in ("auto", "fast", "generic"):
        raise InvalidInput(f"unknown method {method!r} (auto, fast or generic)")
    return method != "generic" and isinstance(field, (Rationals, PrimeField))


def _clear_ints(field, elems):
    """Integer images of the elements plus the exact scale used."""
    if isinstance(field, PrimeField):
        return [int(e) % field.p for e in elems], 1
    scale = lcm(*(Fraction(e).denominator for e in elems)) if elems else 1
    return [int(e * scale) for e in elems], scale


def _sym_parts(field, A):
    """Numeric kernel data for polize(A): (num, B, scale)."""
    m, n = A.m, A.n
    N = m + n
    ints, scale = _clear_ints(field, [e for r in A.rows for e in r])
    num = _Num(field.p if isinstance(field, PrimeField) else None, N)
    B = num.zeros((N, N))
    for i in range(m):
        for j in range(n):
            B[i, m + j] = ints[i * n + j]
            B[m + j, i] = ints[i * n + j]
    return num, num.red(B), scale


# ---------------------------------------------------------------------------
# rank

def mulmuley_rank(A, method="auto"):
    field = A.field
    if _use_fast(field, method):
        num, B, scale = _sym_parts(field, A)
        ch = _fast_charpoly(num, B)
        report_poly = _report_polynomial(field, ch, scale)
    else:
        _, ch = _generic_charpoly(A)
        fx = RationalFunctionField(field)
        report_poly = Polynomial(fx, [fx.from_poly(c) for c in ch.constant_first()])
    mul = ch.root0_mul()
    return RankReport(A.m, A.n, report_poly, mul, _rank_of(A.m + A.n, mul))


def _rank_of(order, mul):
    """Rank from the root-0 multiplicity of the charpoly of a polize of this order."""
    if (order - mul) % 2:
        raise CertificateFailed("odd rank numerator; characteristic polynomial is corrupt")
    return (order - mul) // 2


def _generic_charpoly(A):
    """(polize(A), its CharPoly), both over F[X]."""
    C = polize(A, PolynomialRing(A.field))
    return C, _charpoly(C)


def _report_polynomial(field, ch, scale):
    """Exact charpoly of polize(A) over F(X) from the (possibly scaled)
    integer coefficients: t_i(cC) = c^(N-i) t_i(C)."""
    fx = RationalFunctionField(field)
    N = ch.n
    coeffs = []  # constant-first in Y
    for i in range(N + 1):
        off, arr = ch.coeff_of(i) or (0, ())
        if scale == 1:
            vals = [field.from_int(int(c)) for c in arr]
        else:
            vals = [Fraction(int(c), scale ** (N - i)) for c in arr]
        coeffs.append(fx.from_poly(Polynomial(field, [field.zero()] * off + vals)))
    return Polynomial(fx, coeffs)


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


def _solve_columns(A, bs, method):
    """solve(A, b) for every b in bs: one characteristic polynomial of
    polize(A), then one Horner and one contract check per b."""
    field = A.field
    m, n = A.m, A.n
    N = m + n
    if _use_fast(field, method):
        num, B, scale = _sym_parts(field, A)
        ch = _fast_charpoly(num, B)
        s, t0 = ch.coeff_of(ch.root0_mul())  # p~(0) = tau_hat X^s + higher terms
        tau_hat = int(t0[0])

        def particular(b):
            b_ints, b_scale = _clear_ints(field, list(b))
            # S = sum_{j>=1} t_{j+mul} C^(j-1) w0, so v = -S w0
            acc = _horner(num, B, ch, b_ints)
            vs = [0] * N
            if acc is not None and acc[1] <= s < acc[1] + acc[2].shape[1]:
                rows, lo, W = acc
                for k, i in enumerate(rows):
                    vs[i] = int(W[k, s - lo])
            if isinstance(field, PrimeField):
                tau_inv = field.inv(tau_hat)
                return [field.mul(field.neg(vs[m + i] % field.p), tau_inv) for i in range(n)]
            # v_hat = scale^(N-mul-1) * b_scale * v;  tau_hat = scale^(N-mul) * tau
            return [Fraction(-scale * vs[m + i], tau_hat * b_scale) for i in range(n)]
    else:
        C, ch = _generic_charpoly(A)
        t0 = ch.coeff_of(ch.root0_mul())  # p~(0), a nonzero polynomial
        s = 0
        while field.is_zero(t0.coeff(s)):
            s += 1
        tau_inv = field.inv(t0.coeff(s))

        def particular(b):
            # chi_N * [b; 0]: row i is the monomial b_i X^i
            w = [C.field.from_base(x).shift(i) for i, x in enumerate(b)]
            acc = _apply_ptilde(C, ch, w + [C.field.zero()] * n, 1)
            if acc is None:
                return [field.zero()] * n
            return [field.mul(field.neg(acc[m + i].coeff(s)), tau_inv) for i in range(n)]
    xs = [particular(b) for b in bs]
    # contractual check: the formula only solves solvable systems
    for b, x in zip(bs, xs):
        if not all(field.eq(u, v) for u, v in zip(mat_vec(A, x), b)):
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
