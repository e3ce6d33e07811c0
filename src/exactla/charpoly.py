"""Division-free characteristic polynomial and everything it buys.

The characteristic polynomial is computed as a product of lower-triangular
Toeplitz "column" matrices Col(1,A)...Col(n,A), each built from a trailing
principal submatrix and its first-row/first-column borders.  Only ring
operations are used, so one loop (_berkowitz) serves every ring: Q, F[X],
F(X) and the rank kernel's trimmed X-polynomials (_numeric._Num).  Over
GF(p), charpoly takes the numeric scalar kernel (_numeric._berkowitz_mod_p),
the same recurrence on int64 or object arrays; trailing_charpolys stays on
the loop for every ring, GF(p) included, and tests hold the kernel to it.

The product is associated right-to-left: a column matrix times a vector is a
truncated convolution of first columns, which avoids materializing the
intermediate Toeplitz matrices.

Sign convention (validated against the cofactor oracle): the monic column
product equals det(YI - A), so det(A) = (-1)^n times its constant
coefficient.
"""

from ._numeric import _berkowitz_mod_p
from .errors import DimensionMismatch, IndexOutOfRange, NonSquare, SingularMatrix
from .field import PrimeField
from .matrix import Matrix
from .poly import Polynomial, subst


class CharPoly:
    """Length n+1 coefficient vector, leading term first, always monic."""

    __slots__ = ("field", "coeffs", "n")

    def __init__(self, field, coeffs, n):
        self.field = field
        self.coeffs = tuple(coeffs)
        self.n = n
        if len(self.coeffs) != n + 1:
            raise DimensionMismatch(f"{len(self.coeffs)} coefficients for degree {n}")

    def constant_first(self):
        return list(reversed(self.coeffs))

    def to_polynomial(self):
        """Constant-first Polynomial over the coefficient ring."""
        return Polynomial(self.field, self.constant_first())

    def coeff_of(self, i):
        """Coefficient of Y^i."""
        return self.coeffs[self.n - i]

    def root0_mul(self):
        """Multiplicity of the root 0: the number of vanishing low coefficients."""
        mul = 0
        while mul <= self.n and self.field.is_zero(self.coeff_of(mul)):
            mul += 1
        return mul

    def __repr__(self):
        body = " ".join(self.field.format(c) for c in self.coeffs)
        return f"CharPoly({body})"


def _col_first_column(A, k):
    """First column of Col(k,A): [1, -a_kk, -R S, -R A' S, ..., -R A'^{n-k-1} S]
    with A' the trailing submatrix starting at row/column k+1 and R, S its
    borders along row k / column k."""
    F = A.field
    n = A.n
    col = [F.one(), F.neg(A.at(k, k))]
    R = [A.at(k, j) for j in range(k + 1, n + 1)]
    S = [A.at(i, k) for i in range(k + 1, n + 1)]
    trailing = [[A.at(i, j) for j in range(k + 1, n + 1)] for i in range(k + 1, n + 1)]
    w = S
    for t in range(n - k):
        col.append(F.neg(F.sum(F.mul(r, x) for r, x in zip(R, w))))
        if t < n - k - 1:
            w = [F.sum(F.mul(a, x) for a, x in zip(row, w)) for row in trailing]
    return col


def berkowitz_col(k, A):
    """The (n-k+2) x (n-k+1) lower-triangular Toeplitz column matrix."""
    if not A.is_square():
        raise NonSquare("column matrices need a square input")
    n = A.n
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"column index {k} for a {n}x{n} matrix")
    F = A.field
    c = _col_first_column(A, k)
    z = F.zero()
    return Matrix(F, [[c[i - j] if 0 <= i - j < len(c) else z
                       for j in range(n - k + 1)] for i in range(n - k + 2)])


def _berkowitz(R, n, first_column):
    """Yield the CharPoly over ring R of every trailing principal block of an
    order-n matrix, the 1x1 corner first, from first_column(k), the first
    column of Col(k) (1-based k, length n-k+2).  Each step multiplies by that
    lower-triangular Toeplitz matrix: a truncated convolution."""
    v = first_column(n)
    yield CharPoly(R, v, 1)
    for k in range(n - 1, 0, -1):
        c = first_column(k)
        v = [R.sum(R.mul(c[i - j], v[j]) for j in range(min(i, len(v) - 1) + 1))
             for i in range(len(c))]
        yield CharPoly(R, v, n - k + 1)


def trailing_charpolys(A):
    """Yield the CharPoly of every trailing principal submatrix, rows and
    columns k..n (1-based) for k = n, n-1, ..., 1: the 1x1 corner first,
    A itself last."""
    if not A.is_square():
        raise NonSquare("characteristic polynomial needs a square matrix")
    return _berkowitz(A.field, A.n, lambda k: _col_first_column(A, k))


def charpoly(A):
    """Monic characteristic polynomial det(YI - A), leading term first.
    A square matrix over GF(p) takes the numeric scalar kernel."""
    if isinstance(A.field, PrimeField) and A.is_square():
        return CharPoly(A.field, _berkowitz_mod_p(A.rows, A.field.p), A.n)
    for ch in trailing_charpolys(A):
        pass
    return ch


def _det_of(ch):
    """det(A) read off ch = charpoly(A)."""
    c0 = ch.coeffs[-1]
    return c0 if ch.n % 2 == 0 else ch.field.neg(c0)


def det(A):
    """(-1)^n times the constant coefficient of the characteristic polynomial."""
    return _det_of(charpoly(A))


def adjugate(A, ch=None):
    """adj(A) with A*adj(A) = adj(A)*A = det(A)*I.

    Horner evaluation of the degree-(n-1) part of the characteristic
    polynomial: (-1)^(n-1) (A^(n-1) + c_(n-1) A^(n-2) + ... + c_1 I) where
    c_i is the coefficient of Y^i.
    """
    if not A.is_square():
        raise NonSquare("adjugate needs a square matrix")
    if ch is None:
        ch = charpoly(A)
    S = subst(Polynomial(A.field, ch.constant_first()[1:]), A)
    return -S if A.n % 2 == 0 else S


def inverse(A):
    if not A.is_square():
        raise NonSquare("inverse needs a square matrix")
    ch = charpoly(A)
    d = _det_of(ch)
    if A.field.is_zero(d):
        raise SingularMatrix("determinant is zero")
    return adjugate(A, ch).scale(A.field.inv(d))


def quasi_inverse(A):
    """A nonzero B with A*B = det(A)*I, singular A included.

    For nonsingular A this is the adjugate.  Otherwise strip the Y^m factor
    (m = multiplicity of the root 0) from the characteristic polynomial to
    get ft with ft(0) != 0, and return A^i * ft(A) for the least i such that
    A^(i+1) * ft(A) = 0; Cayley-Hamilton guarantees i < m and A*B = 0.
    """
    if not A.is_square():
        raise NonSquare("quasi-inverse needs a square matrix")
    ch = charpoly(A)
    m = ch.root0_mul()
    if m == 0:
        return adjugate(A, ch)
    B = subst(Polynomial(A.field, ch.constant_first()[m:]), A)  # ft(A)
    AB = A @ B
    while not AB.is_zero():
        B, AB = AB, A @ AB
    return B
