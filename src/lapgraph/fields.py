"""Exact coefficient domains: rationals, prime fields GF(p), and the integers.

A domain is a reduction map, not an arithmetic: elements are plain Python
values (ints in range(p) for GF(p), Fraction for the rationals, int for the
integers), callers compute with Python's operators, and ``of`` brings an int
or Fraction result back into the domain (ValueError on anything else).  Over
GF(p) that is the one reduction mod p; every reduced element is zero exactly
when it is falsy.  The fields add ``inv``, which raises ZeroDivisionError on
zero.  Domains are stateless and hashable.  :func:`parse_int` reads every
integer of a graph file or a command line; :func:`check_int` checks an integer
argument against its least value (a sublattice index, a fiber count).
"""

from __future__ import annotations

import re
from fractions import Fraction

_INTEGER = re.compile("[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """An integer of a graph file or a command line: an optional sign and ASCII
    digits, with surrounding whitespace.  int() also takes '١', '６' and '1_0'."""
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def check_int(name: str, v, least: int) -> None:
    """Raise ValueError unless v is an int at least ``least``."""
    if not isinstance(v, int) or v < least:
        raise ValueError(f"{name} must be an integer at least {least}, got {v!r}")


# Miller-Rabin on these bases decides primality exactly below _MR_BOUND
# (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2, 3, ..., 41.

    Exact for n < 3.3e24 (``_MR_BOUND``).  Above it a base that witnesses
    compositeness still proves n composite, but passing every base proves
    nothing, so that case raises ValueError.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: the test is exact only below {_MR_BOUND}")
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
        if isinstance(n, int):
            return n % self.p
        if not isinstance(n, Fraction):
            raise ValueError(f"{n!r} is not an int or a Fraction")
        if n.denominator % self.p == 0:
            raise ZeroDivisionError("denominator divisible by p")
        return n.numerator * pow(n.denominator, -1, self.p) % self.p

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
        if isinstance(n, (int, Fraction)):
            return Fraction(n)
        raise ValueError(f"{n!r} is not an int or a Fraction")

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
        if isinstance(n, int):
            return n
        if not isinstance(n, Fraction):
            raise ValueError(f"{n!r} is not an int or a Fraction")
        if n.denominator != 1:
            raise ValueError(f"{n} is not an integer")
        return n.numerator

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
            p = parse_int(s[3:])
        except ValueError:
            raise ValueError(f"bad field spec {spec!r}") from None
        return PrimeField(p)
    raise ValueError(f"bad field spec {spec!r} (expected q, z, or gf:P)")
