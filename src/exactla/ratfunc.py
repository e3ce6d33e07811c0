"""The rational-function field F(X) and its common-denominator matrix codec.

An element is a pair (num, den) of polynomials with den != 0; equality is
cross-multiplication.  Unlike the raw pair calculus, every operation here
returns the canonical pair (gcd 1, monic denominator), so each class has one
representative and structural equality coincides with pair equality (this is
load-bearing: the rank algorithm over Q(X) is hopeless without reduction).
A sum or product of two polynomials (denominator 1) is canonical as it stands
and skips the gcd (Henrici's denominator-1 case; Knuth, TAOCP vol. 2,
4.5.1); every other result is reduced by ``make``.
"""

from .errors import DivisionByZero, InvalidInput
from .field import Field
from .matrix import Matrix
from .poly import Polynomial, PolyMatrix, PolynomialRing


def poly_divmod(f, g):
    """Euclidean division in F[X]: f = q*g + r with deg r < deg g."""
    F = f.field
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    q = []
    rem = list(f.coeffs)
    dg = g.deg()
    lead_inv = F.inv(g.coeffs[-1])
    for k in range(len(rem) - 1 - dg, -1, -1):
        c = F.mul(rem[k + dg], lead_inv)
        q.append(c)
        if not F.is_zero(c):
            for j in range(dg + 1):
                rem[k + j] = F.sub(rem[k + j], F.mul(c, g.coeff(j)))
    q.reverse()
    return Polynomial(F, q), Polynomial(F, rem)


def poly_gcd(f, g):
    """Monic gcd; gcd(0,0) = 0."""
    while not g.is_zero():
        f, g = g, poly_divmod(f, g)[1]
    return f.monic()


class RationalFunction:
    """Canonical pair num/den: gcd 1, monic denominator.

    A constant denominator is therefore 1, and every polynomial element shares
    its field's one ``1`` polynomial as denominator; pairs are never mutated.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __repr__(self):
        return f"Rat({self.num!r}/{self.den!r})"


class RationalFunctionField(Field):
    """F(X) as a field instance over a base field instance."""

    def __init__(self, base):
        self.base = base
        self.name = f"{base.name}(X)"
        self._one = Polynomial.one(base)  # the shared denominator 1

    # element construction

    def make(self, num, den):
        """Canonicalize an arbitrary num/den pair."""
        if den.is_zero():
            raise DivisionByZero("zero denominator in F(X)")
        if num.is_zero():
            return self.zero()
        g = poly_gcd(num, den)
        num = poly_divmod(num, g)[0]
        den = poly_divmod(den, g)[0]
        lead_inv = self.base.inv(den.coeffs[-1])
        den = self._one if den.deg() == 0 else den.scale(lead_inv)
        return RationalFunction(num.scale(lead_inv), den)

    def from_poly(self, f):
        return RationalFunction(f, self._one)

    def from_base(self, a):
        return self.from_poly(Polynomial.constant(self.base, a))

    def gen(self):
        return self.from_poly(Polynomial.x(self.base))

    # field interface

    def zero(self):
        return self.from_poly(Polynomial.zero(self.base))

    def one(self):
        return self.from_poly(self._one)

    def add(self, a, b):
        if self.is_polynomial(a) and self.is_polynomial(b):
            return self.from_poly(a.num + b.num)
        num = a.num * b.den + b.num * a.den
        return self.make(num, a.den * b.den)

    def neg(self, a):
        return RationalFunction(-a.num, a.den)

    def mul(self, a, b):
        if self.is_polynomial(a) and self.is_polynomial(b):
            return self.from_poly(a.num * b.num)
        return self.make(a.num * b.num, a.den * b.den)

    def inv(self, a):
        """Total inverse: swap the pair, or 0 for the zero function."""
        if a.num.is_zero():
            return self.zero()
        return self.make(a.den, a.num)

    def eq(self, a, b):
        # canonical forms make structural comparison sufficient, but the
        # defining relation is cross-multiplication; both are kept in sync
        # by the canonicalization property tests
        return a.num == b.num and a.den == b.den

    def cross_eq(self, a, b):
        return a.num * b.den == b.num * a.den

    def from_int(self, n):
        return self.from_base(self.base.from_int(n))

    def is_zero(self, a):
        return a.num.is_zero()

    def parse(self, text):
        ring = PolynomialRing(self.base)
        parts = [part.strip() for part in text.split(" / ")]
        if len(parts) == 1:
            return self.from_poly(ring.parse(parts[0]))
        if len(parts) == 2 and all(parts):
            den = ring.parse(parts[1])
            if den.is_zero():
                raise InvalidInput("rational function with zero denominator")
            return self.make(ring.parse(parts[0]), den)
        raise InvalidInput(f"bad rational-function literal {text!r}")

    def format(self, a):
        ring = PolynomialRing(self.base)
        if self.is_polynomial(a):
            return ring.format(a.num)
        return f"{ring.format(a.num)} / {ring.format(a.den)}"

    # evaluation and the polynomial test

    def eval_at(self, a, point):
        """Value of a at X = point, a base field element."""
        dv = a.den(point)
        if self.base.is_zero(dv):
            raise DivisionByZero("denominator vanishes at the evaluation point")
        return self.base.div(a.num(point), dv)

    def is_polynomial(self, a):
        # a canonical denominator of degree 0 is 1
        return len(a.den.coeffs) == 1


class RatMatrixCode:
    """Common-denominator coding (g, A, d) of a matrix over F(X).

    Codes (1/g) * (A_0 + A_1 X + ... + A_d X^d) with g a nonzero polynomial
    and (A, d) a block-coded polynomial matrix.
    """

    __slots__ = ("g", "pm")

    def __init__(self, g, pm):
        if g.is_zero():
            raise DivisionByZero("zero common denominator")
        self.g = g
        self.pm = pm

    def decode(self, field):
        """Matrix over the given RationalFunctionField, =_rat-equal."""
        rows = []
        for i in range(1, self.pm.m + 1):
            rows.append([field.make(self.pm.entry(i, j), self.g)
                         for j in range(1, self.pm.n + 1)])
        return Matrix(field, rows)

    def __repr__(self):
        return f"RatMatrixCode(g deg {self.g.deg()}, {self.pm!r})"


def to_common_denominator(M):
    """Clear denominators entrywise: g is the product of every entry's
    denominator, and entry (i,j) becomes num_ij times the product of all the
    *other* denominators."""
    field = M.field
    if not isinstance(field, RationalFunctionField):
        raise InvalidInput("expected a matrix over a rational-function field")
    base = field.base
    entries = [e for r in M.rows for e in r]
    # product of the other denominators = prefix[i] * suffix[i+1]
    k = len(entries)
    prefix = [Polynomial.one(base)] * (k + 1)
    for i, e in enumerate(entries):
        prefix[i + 1] = prefix[i] * e.den
    g = prefix[k]
    suffix = [Polynomial.one(base)] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = entries[i].den * suffix[i + 1]
    scaled = [entries[i].num * (prefix[i] * suffix[i + 1]) for i in range(k)]
    d = max((0 if f.is_zero() else f.deg() for f in scaled), default=0)
    blocks = []
    for t in range(d + 1):
        blocks.append(Matrix(base, [[scaled[i * M.n + j].coeff(t)
                                     for j in range(M.n)] for i in range(M.m)]))
    return RatMatrixCode(g, PolyMatrix(base, blocks))


def rat_matrix_pow(k, code):
    """P_rat on the triple coding: (g, A, d)^k = (g^k, P_pol(k, A, d))."""
    g = Polynomial.one(code.g.field)
    for _ in range(k):
        g = g * code.g
    return RatMatrixCode(g, code.pm.pm_pow(k))
