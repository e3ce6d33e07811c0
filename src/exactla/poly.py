"""Univariate polynomials and block-coded polynomial matrices.

A polynomial is a coefficient vector, constant term first, trimmed of
trailing zeros (so the zero polynomial has an empty vector and equality is
structural).  Products are computed by direct convolution.

A PolyMatrix codes an m x n matrix over F[X] as stacked coefficient blocks
A_0..A_d (degree bound d), and its product goes through the block-Toeplitz
matrix so the coding path is exercised, not just entrywise arithmetic.
"""

from .errors import DimensionMismatch, InvalidInput, NonSquare
from .field import Ring
from .matrix import Matrix

NEG_INF = float("-inf")


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one(),))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(c) for c in ints])

    def deg(self):
        return NEG_INF if not self.coeffs else len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        """Total coefficient extraction: 0 beyond the degree."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero()

    def padded(self, length):
        z = self.field.zero()
        return list(self.coeffs) + [z] * (length - len(self.coeffs))

    def __add__(self, other):
        self._compat(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(F, [F.add(self.coeff(k), other.coeff(k)) for k in range(n)])

    def __neg__(self):
        F = self.field
        return Polynomial(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return poly_mul(self, other)

    def scale(self, c):
        F = self.field
        return Polynomial(F, [F.mul(c, a) for a in self.coeffs])

    def shift(self, k):
        """Multiply by X^k."""
        z = self.field.zero()
        return Polynomial(self.field, [z] * k + list(self.coeffs))

    def __call__(self, point):
        """Horner evaluation at a field element."""
        F = self.field
        acc = F.zero()
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, point), c)
        return acc

    def monic(self):
        """Divide by the leading coefficient (field base only)."""
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        F = self.field
        return all(F.eq(a, b) for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((len(self.coeffs), self.field.name))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        body = " ".join(self.field.format(c) for c in self.coeffs)
        return f"Poly({body})"

    def _compat(self, other):
        if self.field != other.field:
            raise DimensionMismatch("polynomials over different coefficient domains")


def conv_matrix(f, width):
    """Toeplitz convolution matrix conv(f, width-1).

    Applying it to the length-``width`` coefficient vector of g yields the
    coefficients of f*g.  Requires f != 0 (a zero matrix has no positive
    dimensions to carry).
    """
    F = f.field
    d = f.deg()
    rows = d + width
    return Matrix(F, [[f.coeff(i - j) for j in range(width)] for i in range(rows)])


def poly_mul(f, g):
    f._compat(g)
    F = f.field
    if f.is_zero() or g.is_zero():
        return Polynomial.zero(F)
    out = []
    for k in range(f.deg() + g.deg() + 1):
        acc = F.zero()
        for j in range(max(0, k - f.deg()), min(k, g.deg()) + 1):
            acc = F.add(acc, F.mul(f.coeff(k - j), g.coeff(j)))
        out.append(acc)
    return Polynomial(F, out)


def subst(f, target):
    """f(target) for a field element, Polynomial, or square Matrix target."""
    if isinstance(target, Matrix):
        if not target.is_square():
            raise NonSquare("substitution needs a square matrix")
        F = target.field
        if f.is_zero():
            return Matrix.zeros(F, target.n, target.n)
        ident = Matrix.identity(F, target.n)
        acc = ident.scale(f.coeffs[-1])
        for c in reversed(f.coeffs[:-1]):
            acc = (acc @ target) + ident.scale(c)
        return acc
    if isinstance(target, Polynomial):
        acc = Polynomial.zero(target.field)
        for c in reversed(f.coeffs):
            acc = acc * target + Polynomial.constant(target.field, c)
        return acc
    return f(target)


def distinct_point_witness(f, points):
    """Index of a point where the nonzero f does not vanish.

    With deg(f)+1 pairwise distinct points one always exists, since f has at
    most deg(f) roots.
    """
    if f.is_zero():
        raise InvalidInput("witness search needs a nonzero polynomial")
    F = f.field
    if len(points) != f.deg() + 1:
        raise InvalidInput(f"need exactly deg+1 = {f.deg() + 1} points, got {len(points)}")
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            if F.eq(a, b):
                raise InvalidInput("evaluation points must be pairwise distinct")
    for i, a in enumerate(points):
        if not F.is_zero(f(a)):
            return i
    raise InvalidInput("no nonvanishing point found; polynomial was not nonzero")


class PolynomialRing(Ring):
    """F[X] as a ring instance whose elements are Polynomial values.

    Lets all the generic matrix code (including the division-free
    characteristic polynomial) run over F[X] directly.
    """

    def __init__(self, base):
        self.base = base
        self.name = f"{base.name}[X]"

    def zero(self):
        return Polynomial.zero(self.base)

    def one(self):
        return Polynomial.one(self.base)

    def gen(self):
        return Polynomial.x(self.base)

    def from_base(self, a):
        return Polynomial.constant(self.base, a)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def eq(self, a, b):
        return a == b

    def from_int(self, n):
        return Polynomial.constant(self.base, self.base.from_int(n))

    def parse(self, text):
        text = text.strip()
        parts = text.split(",") if "," in text else text.split()
        if not parts:
            raise InvalidInput("empty polynomial literal")
        return Polynomial(self.base, [self.base.parse(t) for t in parts])

    def format(self, a):
        if a.is_zero():
            return self.base.format(self.base.zero())
        return " ".join(self.base.format(c) for c in a.coeffs)


class PolyMatrix:
    """Block coding (A, d) of an m x n matrix over F[X].

    blocks[k] is the m x n matrix of X^k coefficients, and d = len(blocks) - 1
    is read off the blocks.  Zero top blocks are legal, so d bounds the true
    maximal entry degree from above.
    """

    __slots__ = ("field", "blocks", "d", "m", "n")

    def __init__(self, field, blocks):
        blocks = tuple(blocks)
        if not blocks:
            raise DimensionMismatch("need at least the degree-0 block")
        m, n = blocks[0].shape
        if any(b.shape != (m, n) for b in blocks):
            raise DimensionMismatch("coefficient blocks differ in shape")
        self.field = field
        self.blocks = blocks
        self.d = len(blocks) - 1
        self.m = m
        self.n = n

    @classmethod
    def identity(cls, field, k):
        return cls(field, [Matrix.identity(field, k)])

    def mcoeff(self, k):
        """Total block extraction: the zero block beyond d."""
        if 0 <= k <= self.d:
            return self.blocks[k]
        return Matrix.zeros(self.field, self.m, self.n)

    def entry(self, i, j):
        """1-based entry as a Polynomial."""
        return Polynomial(self.field, [b.at(i, j) for b in self.blocks])

    def to_matrix(self):
        """Generic matrix over F[X] (entries are Polynomial values)."""
        return Matrix(PolynomialRing(self.field),
                      [[self.entry(i, j) for j in range(1, self.n + 1)]
                       for i in range(1, self.m + 1)])

    @classmethod
    def from_matrix(cls, M):
        """Inverse of to_matrix: M over a PolynomialRing back to blocks."""
        base = M.field.base
        d = max((0 if e.is_zero() else e.deg() for r in M.rows for e in r), default=0)
        return cls(base, [Matrix(base, [[e.coeff(k) for e in r] for r in M.rows])
                          for k in range(d + 1)])

    def stacked(self):
        """The (d+1)m x n vertical stack of the blocks."""
        out = self.blocks[0]
        for b in self.blocks[1:]:
            out = out.vstack(b)
        return out

    def pm_mul(self, other):
        """Product through the block-Toeplitz convolution matrix.

        Row-block i, column-block j of the big matrix is mcoeff(self, i-j);
        applied to the stack of other's blocks it convolves the codings.
        """
        self._compat(other)
        if self.n != other.m:
            raise DimensionMismatch(f"pm_mul {self.m}x{self.n} vs {other.m}x{other.n}")
        F = self.field
        d = self.d + other.d
        zero_block = Matrix.zeros(F, self.m, self.n)
        big_rows = []
        for i in range(d + 1):
            row_of_blocks = [self.mcoeff(i - j) if 0 <= i - j <= self.d else zero_block
                             for j in range(other.d + 1)]
            for r in range(self.m):
                big_rows.append([e for blk in row_of_blocks for e in blk.rows[r]])
        big = Matrix(F, big_rows)
        prod = big @ other.stacked()
        blocks = [Matrix(F, prod.rows[k * self.m:(k + 1) * self.m])
                  for k in range(d + 1)]
        return PolyMatrix(F, blocks)

    def pm_pow(self, k):
        if self.m != self.n:
            raise NonSquare("polynomial-matrix power needs a square matrix")
        acc = PolyMatrix.identity(self.field, self.n)
        for _ in range(k):
            acc = acc.pm_mul(self)
        return acc

    def __eq__(self, other):
        """Padding-insensitive coding equality."""
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.m, self.n) != (other.m, other.n) or self.field != other.field:
            return False
        d = max(self.d, other.d)
        return all(self.mcoeff(k) == other.mcoeff(k) for k in range(d + 1))

    def __hash__(self):
        raise TypeError("PolyMatrix values are not hashable")

    def __repr__(self):
        return f"PolyMatrix({self.field.name}, {self.m}x{self.n}, d={self.d})"

    def _compat(self, other):
        if self.field != other.field:
            raise DimensionMismatch("codings over different coefficient domains")
