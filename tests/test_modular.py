"""The modular layer over Q: the word primes, Garner's CRT and rational
reconstruction, against plain Python-int arithmetic."""

from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exactla._numeric import (_PRIMES, _berkowitz_mod_p, _crt, _int64_safe, _point_horner,
                              _point_matrix, _ratrecon)
from exactla.charpoly import charpoly
from exactla.field import QQ
from exactla.matrix import Matrix
from exactla.rng import SplitMix64

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _largest_primes_below(bound, count):
    out, n = [], bound - 1
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n -= 1
    return out


def test_primes_are_the_largest_below_2_28():
    # every entry is prime by trial division, and the tuple is the one
    # deterministic list: the 64 largest primes below 2^28, largest first
    assert all(_is_prime(p) for p in _PRIMES)
    assert list(_PRIMES) == _largest_primes_below(2 ** 28, 64)


def test_primes_keep_the_point_matrix_in_int64():
    # the scalar kernel sums at most N + 1 products
    assert all(_int64_safe(p, 128) for p in _PRIMES)
    assert not _int64_safe(_PRIMES[0], 129)
    assert _point_matrix(_PRIMES[0], [1] * 63 * 64, 63, 64).dtype == np.int64


def _symmetric(x, M):
    x %= M
    return x - M if 2 * x > M else x


moduli = st.lists(st.sampled_from(SMALL_PRIMES + _PRIMES[:6]), min_size=1, max_size=4,
                  unique=True)


@SETTINGS
@given(moduli, st.data())
def test_crt_is_the_symmetric_residue(primes, data):
    *head, p = primes
    M = prod(head)
    Mp = M * p
    x = data.draw(st.one_of(st.integers(-Mp, Mp), st.sampled_from(
        [Mp // 2, -(Mp // 2), (Mp - 1) // 2, -((Mp - 1) // 2), 0, Mp, -Mp])))
    r = data.draw(st.sampled_from([x % M, _symmetric(x, M), x % M - M]))
    got = _crt(r, M, x % p, p)
    assert type(got) is int
    assert got == _symmetric(x, Mp)
    assert -Mp < 2 * got <= Mp


@SETTINGS
@given(moduli, st.data())
def test_ratrecon_recovers_fractions_in_its_box(primes, data):
    M = prod(primes)
    B = isqrt((M - 1) // 2)
    assert 2 * B * B < M <= 2 * (B + 1) ** 2
    d = data.draw(st.integers(1, max(1, B)).filter(lambda d: gcd(d, M) == 1))
    n = data.draw(st.one_of(st.integers(-B, B), st.sampled_from([-B, B, 0])))
    u = n * pow(d, -1, M) % M
    if d <= B and gcd(n, d) == 1:
        assert _ratrecon(u, M) == Fraction(n, d)
    got = _ratrecon(u, M)
    if got is not None:  # whatever it returns is in the box and congruent
        assert abs(got.numerator) <= B and got.denominator <= B
        assert (got.numerator - got.denominator * u) % M == 0


@pytest.mark.parametrize("M", [1, 2, 3, 10, 30, 77, 210, 211, 1001])
def test_ratrecon_against_brute_force(M):
    B = isqrt((M - 1) // 2)
    for u in range(M):
        box = {Fraction(n, d) for d in range(1, B + 1) for n in range(-B, B + 1)
               if (n - d * u) % M == 0 and gcd(n, d) == 1}
        assert len(box) <= 1
        assert _ratrecon(u, M) == (box.pop() if box else None), u


@SETTINGS
@given(st.integers(1, 5), st.integers(1, 2 ** 200), st.sampled_from([-1, 1]))
def test_ratrecon_across_a_prime_boundary(k, num, sign):
    # a fraction just past the box of k primes is only recovered with k + 1
    M = prod(_PRIMES[:k])
    B = isqrt((M - 1) // 2)
    n = sign * (B + 1 + num % B)
    d = 1 + num % 97
    if gcd(n, d) != 1:
        return
    u = n * pow(d, -1, M * _PRIMES[k]) % (M * _PRIMES[k])
    assert _ratrecon(u % M, M) != Fraction(n, d)
    assert _ratrecon(u, M * _PRIMES[k]) == Fraction(n, d)


def test_crt_takes_the_scalar_kernels_residues():
    # residues come back as Python ints or numpy integers; Garner's M * (...)
    # would wrap silently on np.int64, so crt returns Python ints
    rng = SplitMix64(29)
    rows = [[rng.randint(-50, 50) for _ in range(9)] for _ in range(9)]
    want = [int(c) for c in charpoly(Matrix.from_ints(QQ, rows)).coeffs]
    acc, M = [0] * 10, 1
    for p in _PRIMES[:4]:
        res = _berkowitz_mod_p([[x % p for x in r] for r in rows], p)
        acc = [_crt(r, M, np.int64(a), p) for r, a in zip(acc, res)]
        M *= p
    assert all(type(c) is int for c in acc)
    assert acc == want
    # the point's Horner: b = A * 1 at the point, [1, ..., 1] back mod p
    C = _point_matrix(_PRIMES[0], [x for r in rows for x in r], 9, 9)
    ints = [sum(r) for r in rows]
    ch = _berkowitz_mod_p(C, _PRIMES[0])[::-1]
    out = _point_horner(C, ch[1:], ints, _PRIMES[0])
    assert all(type(v) is int for v in out)
    tau = pow(ch[0], -1, _PRIMES[0])
    y = [_ratrecon(_crt(0, 1, np.int64(-v * tau % _PRIMES[0]), _PRIMES[0]), _PRIMES[0])
         for v in out[9:]]
    assert y == [1] * 9
