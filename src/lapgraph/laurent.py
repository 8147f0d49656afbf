"""Exact Laurent polynomials in one or two variables.

A polynomial is a sparse map from exponent vectors (tuples of length
``nvars``) to nonzero coefficients.  Coefficients are exact: Python ints,
Fractions, or ints reduced into a prime field.  The arithmetic operators
(+, -, *, **) use plain exact arithmetic and suit integer and rational
coefficients; the domain-aware operations (``normalize``, ``laurent_gcd``,
``divexact``, ``divides``) take an explicit coefficient domain from
:mod:`lapgraph.fields` and keep prime-field coefficients reduced.

The constructor is the one place zero coefficients are dropped: operations
build their coefficient maps freely and let the constructor discard zeros
(long division also pops them from its working remainder, whose leading term
it reads).

Division has one rule.  Both polynomials are shifted to ordinary
polynomials, and f is divided by g's leading term in lex order (the largest
exponent tuple) until the leading term of the remainder is not divisible by
it (over the integers, also when the leading coefficients do not divide).  A
single polynomial is a Groebner basis of the ideal it generates, so the
remainder is zero exactly when g divides f (in the Laurent ring too, whose
units are monomials).

The gcd has one algorithm, for one and two variables over the integers and
GF(p): the gcd of the contents in x times the last term of a primitive
pseudo-remainder sequence in x, whose pseudo-remainders come from the same
long division; ``gcd_many`` folds it lazily over any iterable and stops
reading at the first input after which the gcd is the unit 1.  Over the
rationals the inputs are cleared to primitive integer polynomials and the gcd
is taken over the integers (Gauss's lemma).  Zero is its own unit class:
``normalize`` returns it unchanged, so it needs no guard.

Polynomials are immutable by convention: no public method mutates ``coeffs``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd as int_gcd
from math import lcm as int_lcm

from .fields import ZZ, Domain, PrimeField, RationalField

Exponent = tuple[int, ...]

VAR_NAMES = ("x", "y")


class LaurentPoly:
    """A Laurent polynomial in ``nvars`` variables (1 or 2)."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict[Exponent, object] | None = None):
        if nvars not in (1, 2):
            raise ValueError("nvars must be 1 or 2")
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent {e} has wrong arity for {nvars} variables")
                if c != 0:
                    self.coeffs[tuple(e)] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, c, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, c, exps: Exponent) -> "LaurentPoly":
        return cls(len(exps), {tuple(exps): c})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "LaurentPoly":
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): 1})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self.nvars)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def min_exp(self, var: int) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(e[var] for e in self.coeffs)

    def max_exp(self, var: int) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(e[var] for e in self.coeffs)

    def degree_span(self) -> tuple[int, ...]:
        """Per-variable spread: max exponent minus min exponent of the support."""
        if not self.coeffs:
            raise ValueError("degree span of the zero polynomial is undefined")
        return tuple(self.max_exp(v) - self.min_exp(v) for v in range(self.nvars))

    # -- ring operations (plain exact arithmetic) ----------------------------

    def _check_compat(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self.nvars)
        self._check_compat(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly(self.nvars, {e: c * other for e, c in self.coeffs.items()})
        self._check_compat(other)
        out: dict[Exponent, object] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.constant(1, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, offsets: Exponent) -> "LaurentPoly":
        """Multiply by the monomial with the given exponent vector."""
        return LaurentPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, offsets)): c for e, c in self.coeffs.items()},
        )

    def reciprocal(self) -> "LaurentPoly":
        """Substitute every variable by its inverse."""
        return LaurentPoly(self.nvars, {tuple(-a for a in e): c for e, c in self.coeffs.items()})

    def evaluate(self, *points):
        """Evaluate at the given points (one per variable, nonzero)."""
        if len(points) != self.nvars:
            raise ValueError("wrong number of evaluation points")
        total = 0
        for e, c in self.coeffs.items():
            term = c
            for v, a in zip(points, e):
                if a:
                    if a < 0 and isinstance(v, int):
                        v = Fraction(v)  # keep integer evaluation exact
                    term = term * v**a
            total = total + term
        return total

    def substitute_power(self, s: int) -> "LaurentPoly":
        """For a two-variable polynomial, substitute y = x^s (one variable out)."""
        if self.nvars != 2:
            raise ValueError("substitute_power needs a two-variable polynomial")
        out: dict[Exponent, object] = {}
        for (a, b), c in self.coeffs.items():
            e = (a + s * b,)
            out[e] = out.get(e, 0) + c
        return LaurentPoly(1, out)

    def map_coefficients(self, fn) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: fn(c) for e, c in self.coeffs.items()})

    def reduce_to(self, dom: Domain) -> "LaurentPoly":
        """Map every coefficient into the given domain (reduces mod p for GF(p))."""
        return self.map_coefficients(dom.of)

    def coefficient_list(self) -> list:
        """Dense coefficient list of a one-variable polynomial, lowest first.

        The list starts at the minimal exponent, so it represents the ordinary
        polynomial obtained by clearing the monomial content; index 0 is
        nonzero, as is the last entry.
        """
        if self.nvars != 1:
            raise ValueError("coefficient_list needs a one-variable polynomial")
        if not self.coeffs:
            return []
        lo = self.min_exp(0)
        hi = self.max_exp(0)
        out = [0] * (hi - lo + 1)
        for (a,), c in self.coeffs.items():
            out[a - lo] = c
        return out

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


# -- normalization -----------------------------------------------------------


def normalize(f: LaurentPoly, dom: Domain) -> LaurentPoly:
    """Canonical representative of f's unit class in the Laurent ring.

    Zero is its own unit class, so the zero polynomial is returned as it is.
    Otherwise shifts so each variable's minimal exponent is 0, then fixes the
    scale: over the integers the sign is chosen so the coefficient of the
    lexicographically least exponent is positive (content preserved); over the
    rationals denominators are cleared and content divided out, giving a
    primitive integer polynomial with that coefficient positive; over GF(p)
    that coefficient is scaled to 1.
    """
    if f.is_zero():
        return f
    offs = tuple(-f.min_exp(v) for v in range(f.nvars))
    g = f.shift(offs)
    least = min(g.coeffs)
    c0 = g.coeffs[least]
    if isinstance(dom, PrimeField):
        inv = dom.inv(dom.of(c0))
        return g.map_coefficients(lambda c: dom.of(c * inv))
    if isinstance(dom, RationalField):
        denom_lcm = int_lcm(*(c.denominator for c in g.coeffs.values()))
        ints = {e: c.numerator * (denom_lcm // c.denominator) for e, c in g.coeffs.items()}
        content = int_gcd(*ints.values())
        if ints[least] < 0:
            content = -content
        return LaurentPoly(g.nvars, {e: c // content for e, c in ints.items()})
    # integers: preserve content, fix sign only
    if c0 < 0:
        g = -g
    return g


# -- division -----------------------------------------------------------------


def _divmod(f: LaurentPoly, g: LaurentPoly, dom: Domain) -> tuple[LaurentPoly, LaurentPoly]:
    """Long division of ordinary polynomials: (q, r) with f = q*g + r.

    Divides by g's lex-leading term and stops at the first leading term of the
    remainder that it does not divide; over the integers also when the
    coefficient quotient is inexact.  If g divides f, every step divides, so
    r is zero exactly when g divides f.  Coefficients must lie in the domain.
    """
    lead = max(g.coeffs)
    lc = g.coeffs[lead]
    rem = dict(f.coeffs)
    quot: dict[Exponent, object] = {}
    while rem:
        top = max(rem)
        shift = tuple(a - b for a, b in zip(top, lead))
        if min(shift) < 0:
            break
        if dom.is_field:
            qc = dom.of(rem[top] * dom.inv(lc))
        else:
            qc, r = divmod(rem[top], lc)
            if r:
                break
        quot[shift] = qc
        for e, c in g.coeffs.items():
            t = tuple(a + b for a, b in zip(e, shift))
            s = dom.of(rem.get(t, 0) - c * qc)
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)  # the loop reads max(rem)
    return LaurentPoly(f.nvars, quot), LaurentPoly(f.nvars, rem)


def try_divexact(f: LaurentPoly, g: LaurentPoly, dom: Domain) -> LaurentPoly | None:
    """Exact quotient f/g in the Laurent ring, or None if g does not divide f."""
    f = f.reduce_to(dom)
    g = g.reduce_to(dom)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(f.nvars)
    f._check_compat(g)
    # Shift both to ordinary polynomials; track the net monomial.
    foffs = tuple(f.min_exp(v) for v in range(f.nvars))
    goffs = tuple(g.min_exp(v) for v in range(g.nvars))
    fo = f.shift(tuple(-a for a in foffs))
    go = g.shift(tuple(-a for a in goffs))
    q, r = _divmod(fo, go, dom)
    if not r.is_zero():
        return None
    return q.shift(tuple(a - b for a, b in zip(foffs, goffs)))


def divexact(f: LaurentPoly, g: LaurentPoly, dom: Domain) -> LaurentPoly:
    q = try_divexact(f, g, dom)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


def divides(g: LaurentPoly, f: LaurentPoly, dom: Domain) -> bool:
    """Whether g divides f in the Laurent ring over the domain (units ignored)."""
    if f.is_zero():
        return True
    if g.is_zero():
        return False
    return try_divexact(f, g, dom) is not None


# -- greatest common divisors --------------------------------------------------


def _x_lead(f: LaurentPoly) -> tuple[int, LaurentPoly]:
    """x-degree of a nonzero polynomial and its x-leading coefficient, free of x."""
    d = max(f.coeffs)[0]
    return d, LaurentPoly(f.nvars, {(0,) + e[1:]: c for e, c in f.coeffs.items() if e[0] == d})


def _content(dom: Domain, *polys: LaurentPoly) -> LaurentPoly:
    """gcd of the coefficients in x of nonzero polynomials, free of x.

    In one variable it is the integer gcd over ZZ and 1 over a field; in two it
    is ``_gcd`` in one variable of the x-slices, a polynomial in y.
    """
    if polys[0].nvars == 1:
        coeffs = (c for f in polys for c in f.coeffs.values())
        return LaurentPoly.constant(1 if dom.is_field else int_gcd(*coeffs), 1)
    slices: dict[tuple[int, int], dict[Exponent, object]] = {}
    for i, f in enumerate(polys):
        for (a, b), c in f.coeffs.items():
            slices.setdefault((i, a), {})[(b,)] = c
    cont: LaurentPoly | None = None
    for s in slices.values():
        cont = LaurentPoly(1, s) if cont is None else _gcd(cont, LaurentPoly(1, s), dom)
        if cont == 1:
            break
    return LaurentPoly(2, {(0, b): c for (b,), c in cont.coeffs.items()})


def _primitive(f: LaurentPoly, dom: Domain) -> tuple[LaurentPoly, LaurentPoly]:
    """(content, primitive part) of a nonzero ordinary polynomial."""
    cont = _content(dom, f)
    return cont, f if cont == 1 else _divmod(f, cont, dom)[0]


def _gcd(f: LaurentPoly, g: LaurentPoly, dom: Domain) -> LaurentPoly:
    """gcd of nonzero polynomials over ZZ or GF(p), normalized.

    The content gcd times the last term of the primitive pseudo-remainder
    sequence in x.  The pseudo-remainder r of a by b is the remainder of
    lc(b)^k * a = q*b + r in the long division, lc(b) being b's x-leading
    coefficient and k = deg_x a - deg_x b + 1.  While the quotient is
    unfinished, the remainder's lex-leading term is that of (what is left of
    q) * b, whose x-degree is at least deg_x b > deg_x r and which b's leading
    term divides exactly; so the division recovers q and stops at r.
    """
    f = f.shift(tuple(-f.min_exp(v) for v in range(f.nvars)))
    g = g.shift(tuple(-g.min_exp(v) for v in range(g.nvars)))
    cf, a = _primitive(f, dom)
    cg, b = _primitive(g, dom)
    cont = _content(dom, cf, cg)
    if max(a.coeffs)[0] < max(b.coeffs)[0]:
        a, b = b, a
    while True:
        d, lc = _x_lead(b)
        if d == 0:  # a primitive b free of x is a unit
            return normalize(cont, dom)
        if lc != 1:
            a = (lc ** (max(a.coeffs)[0] - d + 1) * a).reduce_to(dom)
        r = _divmod(a, b, dom)[1]
        if r.is_zero():
            return normalize(b if cont == 1 else (cont * b).reduce_to(dom), dom)
        a, b = b, _primitive(r, dom)[1]


def laurent_gcd(f: LaurentPoly, g: LaurentPoly, dom: Domain) -> LaurentPoly:
    """gcd in the Laurent ring over the domain, in normalized form (zero if both vanish in it).

    Over ZZ and GF(p), in one or two variables: the gcd of the contents in x
    times the primitive pseudo-remainder sequence in x, with contents in y in
    two variables.  Over QQ it goes through ``gcd_many``, which takes it over
    ZZ (Gauss's lemma).
    """
    if isinstance(dom, RationalField):
        return gcd_many((f, g), dom)
    f = f.reduce_to(dom)
    g = g.reduce_to(dom)
    if not (f and g):
        return normalize(f or g, dom)
    return _gcd(f, g, dom)


def gcd_many(polys, dom: Domain) -> LaurentPoly:
    """gcd of an iterable of Laurent polynomials (zero if all vanish in the domain).

    One lazy fold that reads the iterable in order and stores none of it; it
    stops reading at the first input after which the running gcd is the unit
    1, since no later input can change it.  Over ZZ and GF(p) it folds
    ``laurent_gcd``, which reduces each input into the domain.  Over QQ each
    input is cleared to a primitive integer polynomial (``normalize``); by
    Gauss's lemma their gcd over ZZ is the gcd over QQ, so no rational
    arithmetic runs.  An empty iterable raises ValueError.
    """
    polys = iter(polys)
    first = next(polys, None)
    if first is None:
        raise ValueError("gcd of an empty collection")
    polys = chain((first,), polys)
    if isinstance(dom, RationalField):
        return normalize(gcd_many((normalize(p, dom) for p in polys), ZZ), dom)
    acc, one = LaurentPoly.zero(first.nvars), LaurentPoly.constant(1, first.nvars)
    for p in polys:
        acc = laurent_gcd(acc, p, dom)
        if acc == one:
            break
    return acc


# -- text form ----------------------------------------------------------------


def _term_sort_key(e: Exponent):
    return (sum(e), e)


def format_poly(f: LaurentPoly) -> str:
    """Render in the canonical text syntax, terms sorted by (total degree, lex)."""
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for e in sorted(f.coeffs, key=_term_sort_key):
        c = f.coeffs[e]
        neg = c < 0
        mag = -c if neg else c
        factors = []
        if all(a == 0 for a in e):
            factors.append(str(mag))
        else:
            if mag != 1:
                factors.append(str(mag))
            for name, a in zip(VAR_NAMES, e):
                if a == 1:
                    factors.append(name)
                elif a != 0:
                    factors.append(f"{name}^{a}")
        term = "*".join(factors)
        if not parts:
            parts.append(f"-{term}" if neg else term)
        else:
            parts.append(f"- {term}" if neg else f"+ {term}")
    return " ".join(parts)


class PolyParseError(ValueError):
    pass


# A term is its signs and its factors, each factor followed by any spaces and
# '*'; it ends where the next sign starts, so every later term has a sign.
_TERM = re.compile(r"([+\-\s]*)((?:(?:[0-9]+|[xy](?:\^[+-]?[0-9]+)?)[\s*]*)+)")
_FACTOR = re.compile(r"([0-9]+)|([xy])(?:\^([+-]?[0-9]+))?")


def parse_poly(text: str, nvars: int | None = None) -> LaurentPoly:
    """Parse the polynomial text syntax: terms like ``c``, ``c*x^a``, ``x^-1*y``.

    A text is one or more terms, and every term after the first starts with
    one or more signs (``+`` or ``-``, spaces allowed between them).  A term
    is one or more factors in any order, separated by nothing, spaces or
    ``*``: an ASCII integer, or ``x`` or ``y`` with an optional ``^`` and an
    optionally signed integer exponent.  The coefficient is the product of
    the integers, negated once per ``-``, and the exponents add.  Anything
    else raises :class:`PolyParseError` naming the unparsed rest: a sign with
    no term after it, a ``*`` before a term's first factor, a non-ASCII digit.
    The variable count is inferred (y present => 2) unless given.
    """
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    if nvars is None:
        nvars = 2 if "y" in s else 1
    coeffs: dict[Exponent, int] = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None:
            raise PolyParseError(f"cannot parse {s[pos:]!r} in {text!r}")
        signs, body = m.groups()
        c, exps = (-1) ** signs.count("-"), [0] * nvars
        for num, name, a in _FACTOR.findall(body):
            if num:
                c *= int(num)
                continue
            idx = VAR_NAMES.index(name)
            if idx >= nvars:
                raise PolyParseError(f"variable {name!r} not allowed here")
            exps[idx] += int(a or 1)
        e = tuple(exps)
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
    return LaurentPoly(nvars, coeffs)
