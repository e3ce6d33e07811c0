"""The numeric kernels, the package's only use of numpy.

Every array holds exact integers in one of three representations:
  * residues mod p, in int64 when no sum of products can overflow
    (_int64_safe) and in object arrays of Python ints otherwise;
  * integers cleared from Q, in int64 read as Z/2^64, when _hadamard_bound
    proves that every integer the rank kernel reads back lies below 2^63 in
    absolute value.  Berkowitz's recurrence is division-free, so reduction
    mod 2^64 commutes with every step, and the signed int64 view of each
    value read back is the exact integer.  The arithmetic runs on uint64
    views, whose wraparound C defines, where signed overflow is undefined;
  * integers cleared from Q otherwise, in object arrays of Python ints.

Two kernels use them:
  * The rank kernel computes the characteristic polynomial of
    polize(A) = diag(X^0..X^(N-1)) * B with B numeric, over the ring _Num of
    trimmed X-polynomials.  rank.py runs it through charpoly.py's one
    Berkowitz loop, which supplies the Toeplitz combine, and through
    _horner, which applies p~(C) to a vector for solve and hands back the
    one X-coefficient of each entry that solve reads, as Python ints; it
    reads any other element through one method, _Num.to_ints.
  * The scalar kernel, _berkowitz_mod_p, computes the characteristic
    polynomial of a square integer matrix mod p.  Over scalars the Toeplitz
    combine is one truncated np.convolve per trailing block, and each first
    column R M^t S is a run of ndarray.dot products, so no step goes through
    the field's Python-level operations.  charpoly.charpoly dispatches every
    square GF(p) matrix here, and det, adjugate, inverse and quasi_inverse follow.

Both lay out B = symm(A) with _symm.  The rank kernel also runs at one point
X = x0 over GF(p), p > max(x0, N(N-1)/2): _point_matrix builds
C(x0) = diag(x0^0..x0^(N-1)) * B, the scalar kernel takes its characteristic
polynomial, and _point_horner is _horner's sum on scalars.  rank._point_solve
keeps that gate and reads full column rank and the solutions off them.

np.convolve is always called through the numpy module attribute, so a
profiler that wraps numpy.convolve sees every convolution.
"""

from fractions import Fraction
from math import isqrt, lcm

import numpy as np

from .field import PrimeField, Ring


def _int64_safe(p, terms):
    """Whether a sum of `terms` products of residues mod p, each at most
    (p-1)^2, stays below 2^63."""
    return (p - 1) ** 2 * terms < 2 ** 63


def _max_elementary(rho):
    """max_k e_k(rho), e_k the k-th elementary symmetric polynomial."""
    e = [1]
    for r in rho:
        e = [a + r * b for a, b in zip(e + [0], [0] + e)]
    return max(e)


def _hadamard_bound(ints, m, n, rhs=()):
    """A bound on every integer the rank kernel reads back for the m x n
    integer matrix `ints` (row-major) and the integer right-hand sides rhs.

    Let rho_i = ceil(||row i of B||_2), B = [[0, A], [A^T, 0]].  By
    Hadamard's inequality a minor of B on the rows I is at most
    prod_{i in I} rho_i in absolute value.  Each X-coefficient of the Y^k
    coefficient of a trailing-block charpoly of diag(X^i) * B is a sum of
    principal minors of order k, so T = max_k e_k(rho) bounds it.  solve
    reads S * chi [b; 0] with S the Y^mul coefficient of adj(YI - C): entry
    (i, j) of S has X-coefficients that are sums of minors of B on (N-1-mul)
    rows avoiding row j, at most e_(N-1-mul)(rho without rho_j) together, so
    each X-coefficient of the product is at most ||b||_1 times T', the
    largest max_k e_k(rho without rho_j) over the rows j < m of b."""
    rows = [ints[i * n:(i + 1) * n] for i in range(m)]
    rho = [isqrt(sum(a * a for a in r) - 1) + 1 if any(r) else 0
           for r in rows + [ints[j::n] for j in range(n)]]
    bound = _max_elementary(rho)
    b_norm = max((sum(map(abs, b)) for b in rhs), default=0)
    if b_norm:
        # removing the least rho_j of the rows of b leaves the largest e_k
        least = min(range(m), key=rho.__getitem__)
        bound = max(bound, b_norm * _max_elementary(rho[:least] + rho[least + 1:]))
    return bound


# ---------------------------------------------------------------------------
# the rank kernel: matrices diag(X^0..X^(N-1)) * B with B numeric
#
# An X-polynomial is a trimmed pair (offset, a) meaning sum_k a[k] X^(offset+k)
# with a[0] and a[-1] nonzero, or None for zero.  A vector of X-polynomials is
# a triple (rows, lo, W) or None: rows are the indices of its possibly
# nonzero entries, and entry rows[k] is sum_j W[k, j] X^(lo+j).

class _Num(Ring):
    """The ring of trimmed X-polynomials, zero None, over 1-D/2-D numpy
    arrays: residues mod p (int64 when no sum can overflow), integers in
    Z/2^64 as int64 (wrap=True, for integers _hadamard_bound keeps below
    2^63), or plain Python ints (object dtype)."""

    def __init__(self, p, N, wrap=False):
        self.p = p
        self.name = "Z[X]" if p is None else f"GF{p}[X]"
        self.wrap = wrap
        # each entry is a sum of at most N products (matvec) or of at most
        # N(N-1)/2 + 1 products (convolution with a charpoly coefficient, whose
        # X-degree is at most N(N-1)/2)
        if self.wrap or p is not None and _int64_safe(p, max(N, N * (N - 1) // 2 + 1)):
            self.dtype = np.int64
        else:
            self.dtype = object

    def lift(self, a):
        """a as its arithmetic runs: Z/2^64 on the uint64 view."""
        return a.view(np.uint64) if self.wrap else a

    def red(self, a):
        """An arithmetic result as stored: mod p, or Z/2^64 as signed int64."""
        if self.wrap:
            return a.view(np.int64)
        return a if self.p is None else a % self.p

    def negated(self, a):
        return self.red(-self.lift(a))

    def zeros(self, shape):
        return np.zeros(shape, dtype=self.dtype)

    def matmul(self, A, w):
        return self.red(self.lift(A).dot(self.lift(w)))

    def zero(self):
        return None

    def is_zero(self, x):
        return x is None

    def mul(self, x, y):
        """Product; a monomial factor is a shift-and-scale instead of a
        convolution.  Over GF(p) and Z the product is itself trimmed; Z/2^64
        has zero divisors, so sum trims it."""
        if x is None or y is None:
            return None
        (ox, a), (oy, b) = x, y
        a, b = self.lift(a), self.lift(b)
        if len(a) == 1 or len(b) == 1:
            return ox + oy, self.red(a * b)
        return ox + oy, self.red(np.convolve(a, b))

    def sum(self, items):
        terms = [t for t in items if t is not None]
        if len(terms) <= 1:
            if not terms:
                return None
            return _trim(*terms[0]) if self.wrap else terms[0]
        lo = min(o for o, _ in terms)
        acc = self.lift(self.zeros(max(o + len(a) for o, a in terms) - lo))
        for o, a in terms:
            acc[o - lo:o - lo + len(a)] += self.lift(a)
        return _trim(lo, self.red(acc))

    def to_ints(self, x):
        """x as its constant-first list of Python ints, [] for zero."""
        if x is None:
            return []
        off, a = x
        return [0] * off + [int(c) for c in a]

    def format(self, x):
        """Constant-first coefficients, as PolynomialRing.format writes them."""
        return " ".join(map(str, self.to_ints(x))) or "0"


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
    W = num.lift(num.zeros((len(rows), max(x[1] + x[2].shape[1], y[1] + y[2].shape[1]) - lo)))
    for r, l, U in (x, y):
        W[np.searchsorted(rows, r), l - lo:l - lo + U.shape[1]] += num.lift(U)
    return rows, lo, num.red(W)


def _fast_first_column(num, B, k0):
    """First column of Col(k0+1, diag*B): Y-coefficients as trimmed
    X-polynomials [1, -X^k0 a, -X^k0 R S, -X^k0 R M S, ...], with a, R, S, M
    the corner, row border, column border and trailing block of B at k0 and
    M scaled by diag(X^(k0+1)..X^(N-1))."""
    N = B.shape[0]
    col = [(0, np.ones(1, dtype=num.dtype)), _trim(k0, num.negated(B[k0, k0:k0 + 1]))]
    R, S, M = B[k0, k0 + 1:], B[k0 + 1:, k0], B[k0 + 1:, k0 + 1:]
    rows = S.nonzero()[0]
    w = _stagger(num, rows, k0 + 1, S[rows, None]) if len(rows) else None
    for t in range(N - 1 - k0):
        if w is None:
            col.append(None)
            continue
        rows, lo, W = w
        col.append(_trim(k0 + lo, num.negated(num.matmul(R[rows], W))))
        if t < N - 2 - k0:
            w = _matvec(num, M, k0 + 1, w)
    return col


def _horner(num, B, ch, b_ints):
    """The X^s coefficient of every row of sum_{j=1}^{N-mul} t_(j+mul) C^(j-1) w0,
    as N Python ints, by Horner, where C = diag(X^0..X^(N-1)) * B, t_k is the
    Y^k coefficient of ch = charpoly(C), mul its root-0 multiplicity, s the
    least X-degree of t_mul = p~(0) and w0 = chi_N * [b; 0].  Row i of w0 is
    the monomial b_i X^i, so t * w0 is t shifted and scaled row by row."""
    N = B.shape[0]
    mul = ch.root0_mul()
    s = ch.coeff_of(mul)[0]
    brows = np.array([i for i, x in enumerate(b_ints) if x], dtype=np.intp)
    bvals = np.array([b_ints[i] for i in brows], dtype=num.dtype)
    acc = None
    for j in range(N - mul, 0, -1):
        if acc is not None:
            acc = _matvec(num, B, 0, acc)
        t = ch.coeff_of(j + mul)
        if t is not None and len(brows):
            tvals = num.lift(t[1])
            term = _stagger(num, brows, t[0], num.red(np.multiply.outer(num.lift(bvals), tvals)))
            acc = term if acc is None else _vadd(num, acc, term)
    out = [0] * N
    if acc is not None and acc[1] <= s < acc[1] + acc[2].shape[1]:
        rows, lo, W = acc
        for k, i in enumerate(rows):
            out[i] = int(W[k, s - lo])
    return out


def _clear_ints(field, elems):
    """Integer images of the elements plus the exact scale used."""
    if isinstance(field, PrimeField):
        return [int(e) % field.p for e in elems], 1
    scale = lcm(*(Fraction(e).denominator for e in elems))
    return [int(e * scale) for e in elems], scale


def _sym_parts(field, A, rhs=()):
    """Numeric kernel data for polize(A): (num, B, scale).  Over Q, num is
    Z/2^64 when _hadamard_bound proves every integer read back for A and the
    right-hand sides rhs (solve's) below 2^63, and Z otherwise."""
    m, n = A.m, A.n
    ints, scale = _clear_ints(field, [e for r in A.rows for e in r])
    if isinstance(field, PrimeField):
        num = _Num(field.p, m + n)
    else:
        bound = _hadamard_bound(ints, m, n, [_clear_ints(field, b)[0] for b in rhs])
        num = _Num(None, m + n, wrap=bound < 2 ** 63)
    return num, _symm(ints, m, n, num.dtype), scale


def _symm(ints, m, n, dtype):
    """symm(A) = [[0, A], [A^T, 0]] as an array of dtype, for the m x n
    matrix of integers ints (row-major)."""
    A = np.array(ints, dtype=dtype).reshape(m, n)
    B = np.zeros((m + n, m + n), dtype=dtype)
    B[:m, m:] = A
    B[m:, :m] = A.T
    return B


# ---------------------------------------------------------------------------
# the scalar kernel: square matrices over GF(p)

def _berkowitz_mod_p(B, p):
    """Coefficients of det(YI - B) mod p, leading first, as Python ints, for
    a square integer matrix B (an array or nested lists).  The Berkowitz
    loop of charpoly._berkowitz over the trailing blocks, 1x1 corner first:
    the first column of Col(k) is [1, -a, -R S, -R M S, ..., -R M^(n-k-1) S]
    with a, R, S, M the corner, row border, column border and trailing block
    at k, and each step is one convolution truncated to that column's
    length."""
    n = len(B)
    # every dot or convolution entry sums at most n + 1 products: no operand
    # is longer than n + 1
    dtype = np.int64 if _int64_safe(p, n + 1) else object
    B = np.array(B, dtype=dtype) % p
    v = np.array([1, -B[n - 1, n - 1] % p], dtype=dtype)
    for k in range(n - 2, -1, -1):
        R, S, M = B[k, k + 1:], B[k + 1:, k], B[k + 1:, k + 1:]
        col = [1, -B[k, k]]
        w = S
        for t in range(n - 1 - k):
            col.append(-R.dot(w))
            if t < n - 2 - k:
                w = M.dot(w) % p
        c = np.array(col, dtype=dtype) % p
        v = np.convolve(c, v)[:len(c)] % p
    return v.tolist()


# ---------------------------------------------------------------------------
# the rank kernel at one point of X over GF(p): C(x0) = diag(x0^i) * symm(A)

# C(0) = diag(1, 0, ..., 0) * symm(A) is nilpotent, so x0 = 0 never certifies
_X0 = 2


def _point_matrix(p, ints, m, n):
    """C(x0) mod p for the m x n matrix of residues ints (row-major), int64
    when the scalar kernel's sums of N + 1 products fit and object otherwise."""
    N = m + n
    dtype = np.int64 if _int64_safe(p, N + 1) else object
    powers = np.array([pow(_X0, i, p) for i in range(N)], dtype=dtype)
    return _symm(ints, m, n, dtype) * powers[:, None] % p


def _point_horner(C, ts, b_ints, p):
    """_horner's sum at X = x0 on scalars, as Python ints: sum_{j>=1}
    ts[j-1] C^(j-1) u mod p, where ts = [t_(mul+1), ..., t_N] are the Y^k
    coefficients of charpoly(C) past the least nonzero one, t_mul, and
    u = diag(x0^0..x0^(N-1)) * [b; 0]."""
    N = C.shape[0]
    u = np.zeros(N, dtype=C.dtype)
    u[:len(b_ints)] = [pow(_X0, i, p) * x % p for i, x in enumerate(b_ints)]
    acc = np.zeros(N, dtype=C.dtype)
    for t in reversed(ts):
        acc = (C.dot(acc) + t * u) % p
    return acc.tolist()
