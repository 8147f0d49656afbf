"""A 60-digit reference for the Mahler measure of polynomials of degree at most 2, on ``decimal`` alone.

Test oracle for the closed form of ``lapgraph.mahler._poly_measure``.  Every coefficient, an int,
a float, a Fraction or a complex number, is taken exactly as a pair of
Decimals (real, imaginary), so the reference measures the very polynomial the
float code was given.  The roots come from the quadratic formula in complex
Decimal arithmetic: the root with no cancellation, -(c1 + s d)/(2 c2), where
s = +-1 makes c1 and s d point the same way, and the other from the product
of the roots, c0 / (c2 z).  Jensen's formula then adds ln|c2| and ln|z| for
each root with |z| > 1 + UNIT_CIRCLE_TOL, the library's rule for roots on the
unit circle, compared with the float edge itself.  The exponent range of ``decimal`` has no float limits, so no
coefficient is scaled.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

from lapgraph.mahler import UNIT_CIRCLE_TOL

DIGITS = 60
EDGE = Decimal(1 + UNIT_CIRCLE_TOL)  # the float the library compares |root| with, exactly


def _dec(x) -> Decimal:
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator)
    return Decimal(x)


def to_pair(c) -> tuple[Decimal, Decimal]:
    """c as an exact (real, imaginary) pair of Decimals (a Fraction is rounded to 60 digits)."""
    if isinstance(c, complex):
        return Decimal(c.real), Decimal(c.imag)
    return _dec(c), Decimal(0)


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n


def _abs(a) -> Decimal:
    return (a[0] * a[0] + a[1] * a[1]).sqrt()


def _sqrt(a):
    """The principal square root, each part taken where it does not cancel."""
    m = _abs(a)
    if m == 0:
        return Decimal(0), Decimal(0)
    if a[0] >= 0:
        re = ((m + a[0]) / 2).sqrt()
        return re, a[1] / (2 * re)
    im = ((m - a[0]) / 2).sqrt()
    im = im if a[1] >= 0 else -im
    return a[1] / (2 * im), im


def roots(coeffs) -> list[tuple[Decimal, Decimal]]:
    """The roots of c0 + c1 y (+ c2 y^2), nonzero ends, as pairs of Decimals at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        c = [to_pair(x) for x in coeffs]
        if len(c) == 2:
            return [_div((-c[0][0], -c[0][1]), c[1])]
        c0, c1, c2 = c
        four_c0c2 = _mul((4 * c0[0], 4 * c0[1]), c2)
        sq = _mul(c1, c1)
        d = _sqrt((sq[0] - four_c0c2[0], sq[1] - four_c0c2[1]))
        if c1[0] * d[0] + c1[1] * d[1] < 0:  # Re(conj(c1) d) < 0: take -d, so that c1 + d does not cancel
            d = -d[0], -d[1]
        z = _div((-(c1[0] + d[0]), -(c1[1] + d[1])), (2 * c2[0], 2 * c2[1]))
        return [z, _div(c0, _mul(c2, z))]


def measure(coeffs) -> Decimal:
    """m(c0 + c1 y + c2 y^2) of degree at most 2 with nonzero ends, to about 60 digits: ln|lead|
    plus ln|z| for each root z with |z| > 1 + UNIT_CIRCLE_TOL."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        value = _abs(to_pair(coeffs[-1])).ln()
        if len(coeffs) > 1:
            for r in map(_abs, roots(coeffs)):
                if r > EDGE:
                    value += r.ln()
        return value


def error_in_eps(got: float, coeffs) -> float:
    """|got - m| / (eps (1 + |m|)) for m the ``measure`` of coeffs, eps = 2^-52."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        want = measure(coeffs)
        return float(abs(Decimal(got) - want) / (Decimal(2) ** -52 * (1 + abs(want))))


def condition(coeffs) -> float:
    """The relative condition number of the root sizes of a quadratic, at least 1: the largest, over
    each root z and the other root w, of (sum |c_k| |z|^k) / (|c2| |z - w| |z|), the factor by which
    a relative change of eps in each coefficient moves log|z|, to first order."""
    zs = [complex(float(re), float(im)) for re, im in roots(coeffs)]
    out = 1.0
    for z, w in ((zs[0], zs[1]), (zs[1], zs[0])):
        size = sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))
        out = max(out, size / (abs(coeffs[-1]) * abs(z - w) * abs(z)))
    return out
