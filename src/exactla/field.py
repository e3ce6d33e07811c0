"""Exact coefficient domains.

A *ring instance* is a value object bundling the operations (zero, one, add,
neg, mul, eq) on otherwise opaque element values; a *field instance* adds a
total inverse.  The same matrix/polynomial code runs over rationals, prime
fields and (see :mod:`exactla.ratfunc`) rational functions by passing a
different instance, so there is no global coefficient-type state.

The inverse is total with ``inv(0) == 0``; callers that need an actual
division use :meth:`Field.div`, which raises :class:`DivisionByZero`.
"""

from fractions import Fraction

from .errors import DivisionByZero, InvalidInput


class Ring:
    """Commutative ring operations on opaque element values."""

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def from_int(self, n: int):
        """Image of the integer n under the canonical ring map."""
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    # derived helpers

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero())

    def is_one(self, a) -> bool:
        return self.eq(a, self.one())

    def sum(self, items):
        acc = self.zero()
        for x in items:
            acc = self.add(acc, x)
        return acc

    def indicator(self, b) -> "element":
        """1 for a true condition, 0 otherwise."""
        return self.one() if b else self.zero()

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self), tuple(sorted(self.__dict__.items()))))


class Field(Ring):
    def inv(self, a):
        """Total inverse: a^{-1} for a != 0, and 0 for a == 0."""
        raise NotImplementedError

    def div(self, a, b):
        """Checked division; raises DivisionByZero for b == 0."""
        if self.is_zero(b):
            raise DivisionByZero(f"division by zero in {self.name}")
        return self.mul(a, self.inv(b))


class Rationals(Field):
    """Arbitrary-precision rationals; elements are Fraction values.

    Fraction keeps gcd-reduced form with positive denominator, which is
    exactly the canonical form we need for structural equality.
    """

    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return Fraction(0) if a == 0 else 1 / a

    def eq(self, a, b):
        return a == b

    def from_int(self, n):
        return Fraction(n)

    def parse(self, text):
        text = text.strip()
        if "e" in text or "E" in text:
            # Fraction would build 10**exponent, however large
            raise InvalidInput(f"bad rational literal {text!r} (no exponents)")
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad rational literal {text!r}") from exc
        return value

    def format(self, a):
        return str(a)


class PrimeField(Field):
    """GF(p); elements are plain ints in [0, p)."""

    def __init__(self, p: int):
        if not 2 <= p < _MR_BOUND or not _is_prime(p):
            raise InvalidInput(f"modulus {p} is not a prime below {_MR_BOUND}")
        self.p = p
        self.name = f"GF{p}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            return 0
        return pow(a, self.p - 2, self.p)

    def eq(self, a, b):
        return a % self.p == b % self.p

    def from_int(self, n):
        return n % self.p

    def parse(self, text):
        text = text.strip()
        try:
            return int(text, 10) % self.p
        except ValueError as exc:
            raise InvalidInput(f"bad GF({self.p}) literal {text!r}") from exc

    def format(self, a):
        return str(a % self.p)

    def elements(self):
        return range(self.p)


# Miller-Rabin to the prime bases up to 41 decides primality for every
# n < _MR_BOUND (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic for n < _MR_BOUND."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = Rationals()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
