"""Exact coefficient domains: rationals, prime fields GF(p), and the integers.

A domain is a reduction map, not an arithmetic: elements are plain Python
values (ints in range(p) for GF(p), Fraction for the rationals, int for the
integers), callers compute with Python's operators, and ``of`` brings an int
or Fraction result back into the domain.  Over GF(p) that is the one
reduction mod p; every reduced element is zero exactly when it is falsy.
The fields add ``inv``, which raises ZeroDivisionError on zero.  Domains are
stateless and hashable.
"""

from __future__ import annotations

from fractions import Fraction


def is_prime(n: int) -> bool:
    """Trial-division primality check; adequate for the field sizes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field GF(p).  Elements are ints reduced to range(p)."""

    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    def of(self, n) -> int:
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by p")
            return n.numerator * pow(n.denominator, -1, self.p) % self.p
        return n % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The field of rationals; elements are Fraction (ints are accepted)."""

    is_field = True

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, n) -> Fraction:
        return Fraction(n)

    def inv(self, a):
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


class IntegerRing:
    """The ring of integers (not a field; it has no ``inv``)."""

    is_field = False

    zero = 0
    one = 1

    def of(self, n) -> int:
        if isinstance(n, Fraction):
            if n.denominator != 1:
                raise ValueError(f"{n} is not an integer")
            return n.numerator
        return int(n)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("IntegerRing")

    def __repr__(self):
        return "ZZ"


QQ = RationalField()
ZZ = IntegerRing()
GF2 = PrimeField(2)

Domain = PrimeField | RationalField | IntegerRing


def domain_from_spec(spec: str) -> Domain:
    """Parse a domain name: 'q' (rationals), 'z' (integers), or 'gf:P'."""
    s = spec.strip().lower()
    if s == "q":
        return QQ
    if s == "z":
        return ZZ
    if s.startswith("gf:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise ValueError(f"bad field spec {spec!r}") from None
        return PrimeField(p)
    raise ValueError(f"bad field spec {spec!r} (expected q, z, or gf:P)")
