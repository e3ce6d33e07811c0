"""The fast numeric charpoly kernel against independent references: the
generic F(X) path, and base-field Berkowitz at enough points X = x0 to pin
down every X-coefficient."""

import importlib
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exactla.charpoly import charpoly
from exactla.field import GF2, GF3, QQ, PrimeField
from exactla.matrix import Matrix
from exactla.rank import mulmuley_rank, symm
from exactla.rng import SplitMix64

kernel = importlib.import_module("exactla.rank")  # the package re-exports rank()

GFP = PrimeField(1000003)


def _charpoly_pair(A):
    fast = mulmuley_rank(A, method="fast")
    generic = mulmuley_rank(A, method="generic")
    return fast, generic


# --- int64 guard --------------------------------------------------------------

def test_int64_guard_threshold():
    # N = 5: a convolution sums at most N(N-1)/2 + 1 = 11 products
    below, above = 915690077, 915690137  # consecutive primes
    assert (below - 1) ** 2 * 11 < 2 ** 63 <= (above - 1) ** 2 * 11
    rng = SplitMix64(83)
    for p, dtype in ((below, "int64"), (above, "object")):
        F = PrimeField(p)
        A = Matrix(F, [[rng.below(p) for _ in range(3)] for _ in range(2)])
        num = kernel._sym_parts(F, A)[0]
        assert num.dtype.__name__ == dtype
        fast, generic = _charpoly_pair(A)
        assert fast.charpoly_of_polize == generic.charpoly_of_polize
        assert fast.rank == generic.rank == 2


# --- oracle: evaluation at enough points ------------------------------------

def _pointwise_case(field, A):
    """charpoly_of_polize(A) evaluated at X = x0 equals the base-field
    charpoly of diag(x0^i) symm(A), for N(N-1)/2 + 1 points x0; with the
    degree bound that pins every X-coefficient."""
    rep = mulmuley_rank(A)
    ch = rep.charpoly_of_polize
    fx = ch.field
    N = A.m + A.n
    D = N * (N - 1) // 2
    coeffs = [ch.coeff(i) for i in range(N + 1)]
    assert all(fx.is_polynomial(c) and c.num.deg() <= D for c in coeffs)
    S = symm(A)
    for x0 in range(D + 1):
        x = field.from_int(x0)
        rows, power = [], field.one()
        for row in S.rows:
            rows.append([field.mul(power, e) for e in row])
            power = field.mul(power, x)
        want = charpoly(Matrix(field, rows))
        for i in range(N + 1):
            assert field.eq(fx.eval_at(coeffs[i], x), want.coeff_of(i))
    return rep


def _with_zero_lines(rows, zero):
    rows[1] = [zero] * len(rows[1])
    for r in rows:
        r[-1] = zero
    return rows


def test_kernel_matches_pointwise_oracle():
    rng = SplitMix64(89)
    A = Matrix(GFP, [[rng.below(GFP.p) for _ in range(8)] for _ in range(8)])
    assert _pointwise_case(GFP, A).rank == 8
    rows = _with_zero_lines([[rng.below(GFP.p) for _ in range(9)] for _ in range(5)], 0)
    assert _pointwise_case(GFP, Matrix(GFP, rows)).rank == 4
    full = Matrix(QQ, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
                       for _ in range(6)])
    assert _pointwise_case(QQ, full).rank == 6
    rows = _with_zero_lines([[Fraction(rng.randint(-3, 3)) for _ in range(6)]
                             for _ in range(6)], Fraction(0))
    assert _pointwise_case(QQ, Matrix(QQ, rows)).rank == 5


# --- property: fast path equals the generic path ----------------------------

@st.composite
def small_matrices(draw):
    field = draw(st.sampled_from((QQ, GF2, GF3, GFP)))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if field is QQ:
        entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        entry = st.integers(0, field.p - 1)
    row = st.lists(entry, min_size=n, max_size=n)
    return Matrix(field, draw(st.lists(row, min_size=m, max_size=m)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_matrices())
def test_fast_charpoly_equals_generic(A):
    fast, generic = _charpoly_pair(A)
    assert fast.charpoly_of_polize == generic.charpoly_of_polize
    assert fast.mul == generic.mul
