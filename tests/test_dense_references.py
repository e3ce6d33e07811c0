"""polize and the counting gadget apply their structure directly: polize
scales row i of symm(A) by X^(i-1), and the gadget applies each
T_j = (1-chi_j) I + chi_j S to its vector entrywise.  The dense products they
replace are kept here as references, and the results must match them
entry for entry, down to the representation of every coefficient."""

from exactla.field import GF3, QQ
from exactla.matrix import Matrix, mat_vec
from exactla.poly import PolynomialRing
from exactla.rank import count_nonzero, polize, symm
from exactla.ratfunc import RationalFunctionField
from exactla.rng import SplitMix64


def _dense_polize(A, ring):
    """diag(X^0, ..., X^(N-1)) @ symm(A), as one ring-matrix product."""
    N = A.m + A.n
    x, power, diag = ring.gen(), ring.one(), []
    for i in range(N):
        diag.append([power if j == i else ring.zero() for j in range(N)])
        power = ring.mul(power, x)
    return Matrix(ring, diag) @ symm(A).map(ring.from_base, ring)


def _dense_count(field, v, k):
    """T_k ... T_1 e_1, each T_j built as a matrix."""
    size = len(v) + 1
    z, o = field.zero(), field.one()
    ident = Matrix.identity(field, size)
    shift = Matrix(field, [[o if r == c + 1 else z for c in range(size)]
                           for r in range(size)])
    w = [o] + [z] * len(v)
    for x in v[:k]:
        chi = field.indicator(not field.is_zero(x))
        w = mat_vec(ident.scale(field.sub(o, chi)) + shift.scale(chi), w)
    return w


def _coefficients(e):
    """Every coefficient of a ring element, with its Python type."""
    polys = (e.num, e.den) if hasattr(e, "num") else (e,)
    return [repr(p.coeffs) for p in polys]


def test_polize_equals_the_diagonal_product():
    rng = SplitMix64(17)
    for F in (QQ, GF3):
        for ring in (PolynomialRing(F), RationalFunctionField(F)):
            for m, n in ((1, 1), (1, 3), (2, 2), (3, 2)):
                A = Matrix(F, [[F.from_int(rng.randint(-2, 2)) for _ in range(n)]
                               for _ in range(m)])
                got, want = polize(A, ring), _dense_polize(A, ring)
                assert got.field == ring and got.shape == want.shape
                assert ([_coefficients(e) for r in got.rows for e in r]
                        == [_coefficients(e) for r in want.rows for e in r])


def test_count_nonzero_equals_the_matrix_product():
    rng = SplitMix64(29)
    for field in (QQ, GF3, RationalFunctionField(GF3)):
        for n in range(7):
            for k in range(n + 1):
                v = [field.from_int(rng.randint(-1, 1)) for _ in range(n)]
                got, want = count_nonzero(field, v, k), _dense_count(field, v, k)
                assert repr(got) == repr(want)
