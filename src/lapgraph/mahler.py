"""Logarithmic Mahler measure of integer Laurent polynomials.

One pipeline serves one and two variables (``_measure``).  A nonzero f is
c x^a p, times y^b in two variables, with p the primitive integer polynomial of
``normalize``; log|c| comes from c's integer numerator and denominator, so a
content of any size is measured, and m(c f) = log|c| + m(f).  p is split
exactly into squarefree parts in its last variable v, x in one variable and y
in two, with every gcd and division over the integers, since float root
finders meet a k-fold root only to about eps^(1/k).  The split is the
repeated-gcd one (Yun 1976): while h = gcd(p, dp/dv) has v in it, p / h is a
part and the split goes on with h; once h is free of v, p is the last part.  A
p of degree at most 1 in v is the last part without a gcd, since its h is
always free of v; x - 1, which ends the split of a rank-1 Delta_0 whose only
repeated factor is (x - 1)^2, is one.  An h free of y, such as an x-content
(1 + x)^4, stays in the last part of two variables and so in its grid.  The
parts multiply to p and m is additive, so m(f) is log|c| plus the parts'
measures, added in order.  m(p) >= 0 for a nonzero integer p, so a sum that
rounding takes below log|c| reads as log|c|.

Every one-variable measure, of a part in one variable or of a fiber in two,
is ``_poly_measure``: Jensen's formula, m = log|lead| + sum of log|root| over
the roots outside the unit circle.  Roots on the circle, like the double root
1 of every Delta_0, add 0 (``UNIT_CIRCLE_TOL``).  When a nonzero |coefficient|
lies outside [2^-500, 2^500] every coefficient is divided by the largest and
its log added; low coefficients that this takes to 0 are roots at 0 and cut
off, and a lead that it takes below float range, so that the roots are past
it, raises OverflowError.  Degree at most 2 is measured in closed form: one
stable complex square root gives the root sizes (Press et al., Numerical
Recipes 5.6), with no iteration, start or validation; a part keeps its int
coefficients into it, so its discriminant is exact.  Higher degrees take their
roots from an Aberth simultaneous iteration (Aberth 1973; Bini 1996), started
from the roots of the last Aberth solve when the degree matches, else on a
perturbed circle, and retried from the circle when a warm start fails.  A run
whose last sweep moved every root by less than 1e-14, relative, has converged
and keeps its roots as they are.  Only a run that stops short of that, at
``ABERTH_MAX_ITER`` sweeps or when a shift below ``STALL_SHIFT`` no longer
halves per sweep, gets a float Newton polish.  Every root set then passes a
residual and coefficient-identity validation.

Two variables: fiberwise Jensen.  For each midpoint node theta of an N-point
grid the variable x is pinned to exp(2 pi i theta) and the one-variable
measure in y (complex coefficients) is taken; the node average converges to
the torus integral, with the inner log-singularities absorbed exactly.  The
error estimate compares the N- and N/2-point grids.  Only ``mahler_2var``,
and so ``mahler``, pays for the N/2 grid, a third of the fiber solves;
``mahler_value``, for callers that read the value alone, solves the N-point
grid only and returns the same float.  The conjugate fibers at theta and
1 - theta are solved once.  Every fiber of the grid's and Mitsubishi's Delta_0
is a quadratic in y.  A fiber at x of order q vanishes when Phi_q(x) divides
the part, decided exactly (rounding leaves it tiny, not zero); it takes the
mean of the fibers half a step to either side, or, where one of those vanishes
too, of the pair at half that offset, halving until neither vanishes.

The float kernel inlines one Horner loop per polynomial value and sums from the
int 0 as ``sum`` does, so its floats are those of a call per evaluation.  The
grid reads a fiber plan built once per part instead of rescanning it and
takes each node in one pass: x, each distinct x^a once, the y-coefficients and
their sizes, the strip (skipped when no coefficient is small), then
``_poly_measure``.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .fields import QQ, ZZ
from .laurent import LaurentPoly, divexact, divides, laurent_gcd, normalize

UNIT_CIRCLE_TOL = 1e-10  # |root| this close to 1 counts as on the circle
RESIDUAL_GATE = 1e-9
ABERTH_MAX_ITER = 400
STALL_SHIFT = 1e-10  # a sweep shift below this that no longer halves ends Aberth
STRIP_REL_TOL = 1e-13  # fiber coefficients this small next to the largest are zero
SAFE_MIN, SAFE_MAX = 2.0**-500, 2.0**500  # ``_poly_measure`` scales coefficients outside this range


class MahlerResult(NamedTuple):
    value: float
    method: str
    error_estimate: float
    samples: int | None = None


class RootFindingError(ArithmeticError):
    pass


# -- one variable: dense coefficient lists, low degree first ----------------------


def _refine_float(rmonic: list[complex], rderiv: list[complex], roots: list[complex]) -> None:
    """Up to 4 float Newton steps on u = p/p' per root, in place, ending early at a fixed point.

    rmonic and rderiv are the monic p and p', highest degree first, as ``_aberth_roots``
    builds them for its sweeps; it calls this only on a run that did not converge."""
    rsecond = [k * c for k, c in zip(range(len(rderiv) - 1, 0, -1), rderiv)]
    for k, z in enumerate(roots):
        for _ in range(4):
            pv = 0j
            for c in rmonic:
                pv = pv * z + c
            if pv == 0:
                break
            dv = 0j
            for c in rderiv:
                dv = dv * z + c
            if dv == 0:
                break
            sv = 0j
            for c in rsecond:
                sv = sv * z + c
            u = pv / dv
            du = 1 - pv * sv / (dv * dv)
            if du == 0:
                break
            step = u / du
            if abs(step) > 0.5 * max(1.0, abs(z)) or z - step == z:
                break
            z = z - step
        roots[k] = z


def _aberth_roots(coeffs: list[complex], start=None) -> list[complex]:
    """All roots of a polynomial with nonzero first and last coefficient.

    ``_poly_measure`` sends degree 2 and below to its closed form instead.
    Aberth's sweeps run from start, by default a perturbed circle.  Converged
    roots (a sweep moved each by less than 1e-14, relative) stand; a run cut
    at ``ABERTH_MAX_ITER`` sweeps or stagnated (a shift below ``STALL_SHIFT``
    that did not halve) gets ``_refine_float``.  Every result then passes the
    residual gate at each root and the root sum and product identities, else
    RootFindingError; the sum, which cancels to about eps times the sum of
    |root|, is held to 1e-6 (1 + max(|sum|, sum of |root|)).  A k-fold root
    comes out only to about eps^(1/k), so the measures hand it squarefree
    parts.
    """
    s = len(coeffs) - 1
    if s < 1:
        return []
    lead = coeffs[-1]
    rmonic = [c / lead for c in reversed(coeffs)]  # highest degree first, as Horner reads them
    rderiv = [k * c for k, c in zip(range(s, 0, -1), rmonic)]
    if start:
        roots = list(start)
    else:
        radius = max(1e-3, abs(rmonic[-1]) ** (1.0 / s))
        roots = [radius * cmath.exp(2j * math.pi * (k + 0.35) / s) * (1 + 0.02 * (k % 5)) for k in range(s)]
    last = math.inf
    for _ in range(ABERTH_MAX_ITER):
        shift = 0.0
        new_roots = list(roots)
        for k, z in enumerate(roots):
            pv = 0j
            for c in rmonic:
                pv = pv * z + c
            if pv == 0:
                continue
            dv = 0j
            for c in rderiv:
                dv = dv * z + c
            if dv == 0:
                new_roots[k] = z * (1 + 1e-8) + 1e-8
                shift = 1.0
                continue
            w = pv / dv
            rep = 0
            for zj in roots[:k]:
                rep = rep + 1 / (z - zj)
            for zj in roots[k + 1 :]:
                rep = rep + 1 / (z - zj)
            denom = 1 - w * rep
            if denom == 0:
                new_roots[k] = z * (1 + 1e-8)
                shift = 1.0
                continue
            corr = w / denom
            new_roots[k] = z - corr
            az = abs(z)
            r = abs(corr) / (az if az > 1.0 else 1.0)
            shift = r if r > shift else shift
        roots = new_roots
        if shift < 1e-14 or STALL_SHIFT > shift > 0.5 * last:  # converged, or the shift stopped halving
            break
        last = shift
    if shift >= 1e-14:  # only a run that did not converge is polished
        _refine_float(rmonic, rderiv, roots)
    # validation: the residual at each root, then the root sum and product against the coefficients
    gate, rcoeffs, prod, size = RESIDUAL_GATE * max(map(abs, coeffs)), coeffs[::-1], 1 + 0j, 0
    for z in roots:
        r = abs(z)
        pv = 0j
        for c in rcoeffs:
            pv = pv * z + c
        if abs(pv) > gate * (r if r > 1.0 else 1.0) ** s * (s + 1):
            raise RootFindingError("root residual exceeds tolerance")
        prod *= z
        size += r
    expect = -coeffs[-2] / lead
    if abs(sum(roots) - expect) > 1e-6 * (1 + max(abs(expect), size)):
        raise RootFindingError("root sum disagrees with coefficients")
    expect = coeffs[0] / lead * (-1) ** s
    if abs(prod - expect) > 1e-6 * (1 + abs(expect)):
        raise RootFindingError("root product disagrees with coefficients")
    return roots


def _poly_measure(coeffs: list, mags: list, warm: list) -> float:
    """m(c0 + c1 y + ... + cs y^s), with nonzero ends and mags their sizes |c|.

    The range rule and the dispatch are the module docstring's.  In closed form, Jensen's
    formula is one log: of |c0| when every root lies outside the circle, as the roots multiply
    to c0 / lead, and of |lead| when none does.  A line's root has size |c0|/|c1|.  A
    quadratic's roots have sizes q/|c2| >= |c0|/q, where d = sqrt(c1^2 - 4 c0 c2) and
    q = max(|c1 + d|, |c1 - d|)/2 takes the larger root with no cancellation (the stable
    quadratic formula, Numerical Recipes 5.6); with only the larger root outside, m = log q.
    From degree 3, Aberth starts from warm when it holds s roots, and warm then holds the
    roots found; degree 2 and below leave warm alone."""
    scale, big = 0.0, max(mags)
    if big > SAFE_MAX or min(mags) < SAFE_MIN and min(filter(None, mags)) < SAFE_MIN:  # a middle 0 is in range
        coeffs = [c / big for c in coeffs]
        mags = list(map(abs, coeffs))
        if mags[-1] < sys.float_info.min:
            raise OverflowError("coefficients too far apart for a float: the roots are past its range")
        low = next(k for k, m in enumerate(mags) if m)  # each c that underflowed below it is a root at 0
        coeffs, mags, scale = coeffs[low:], mags[low:], math.log(big)
    edge = 1 + UNIT_CIRCLE_TOL
    s = len(coeffs) - 1
    if s == 2:
        c0, c1, c2 = coeffs
        d = cmath.sqrt(c1 * c1 - 4 * c0 * c2)
        q = max(abs(c1 + d), abs(c1 - d)) / 2
        if q and mags[0] / q > edge:  # q is 0 only when c1 is 0 and c0 c2 underflows: both roots near 0
            return scale + math.log(mags[0])
        return scale + math.log(q if q / mags[2] > edge else mags[2])
    if s < 2:  # a constant, or a line whose root lies outside when |c0| / |c1| does
        return scale + math.log(mags[0] if s and mags[0] / mags[1] > edge else mags[-1])
    coeffs = list(map(complex, coeffs))
    start = warm if len(warm) == s else None
    try:
        roots = _aberth_roots(coeffs, start)
    except (RootFindingError, ZeroDivisionError):  # a warm start can stall, or hold two equal points
        if start is None:
            raise
        roots = _aberth_roots(coeffs)
    warm[:] = roots
    value = scale + math.log(mags[-1])
    for z in roots:
        r = abs(z)
        if r > edge:
            value += math.log(r)
    return value


# -- the shared pipeline ------------------------------------------------------------


def _content(f: LaurentPoly) -> tuple[LaurentPoly, float]:
    """(p, log|c|) for f = c p times a monomial, p the primitive integer polynomial of ``normalize``;
    log|c| comes from c's integer numerator and denominator, so it is taken for any size of c."""
    p = normalize(f, QQ)
    c = Fraction(f.coeffs[min(f.coeffs)]) / p.coeffs[min(p.coeffs)]
    return p, math.log(abs(c.numerator)) - math.log(c.denominator)


def _squarefree_parts(p: LaurentPoly):
    """The squarefree parts of the integer polynomial p in its last variable v, in the module
    docstring's order; their product is p."""
    v = p.nvars - 1
    while True:
        if p.max_exp(v) - p.min_exp(v) <= 1:  # gcd(p, dp/dv) is free of v
            yield p
            return
        dp = LaurentPoly(p.nvars, {e[:v] + (e[v] - 1,): e[v] * c for e, c in p.coeffs.items() if e[v]})
        h = laurent_gcd(p, dp, ZZ)
        if h.min_exp(v) == h.max_exp(v):
            yield p
            return
        yield divexact(p, h, ZZ)
        p = h


def _measure(f: LaurentPoly, part_value) -> float:
    """m(f): log|c| plus part_value(part) over the squarefree parts of p, f = c p times a monomial,
    added one by one (``sum`` compensates since 3.12), and at least log|c|."""
    if f.is_zero():
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    p, log_c = _content(f)
    value = log_c
    for part in _squarefree_parts(p):
        value += part_value(part)
    return max(value, log_c)


# -- one variable ----------------------------------------------------------------


def mahler_1var(f: LaurentPoly) -> MahlerResult:
    """Logarithmic Mahler measure of a nonzero one-variable Laurent polynomial, by ``_measure``;
    each squarefree part is measured from its own coefficients, with a cold start."""
    if f.nvars != 1:
        raise ValueError("mahler_1var needs a one-variable polynomial")

    def part_value(part: LaurentPoly) -> float:
        s = part.coefficient_list()
        return _poly_measure(s, list(map(abs, s)), [])

    return MahlerResult(value=_measure(f, part_value), method="jensen-roots", error_estimate=1e-11)


# -- two variables ----------------------------------------------------------------


def _fiber_plan(f: LaurentPoly) -> tuple:
    """What every fiber of the integer polynomial f reads: (f, its width in y, the distinct
    x-exponents a, the terms c x^a y^b as (b - min b, the index of a, c) in dict order, the sum
    of |c|).  That sum bounds every fiber coefficient; past float range it raises OverflowError."""
    total = sum(map(abs, f.coeffs.values()))
    if total > sys.float_info.max:
        raise OverflowError("coefficients too large for a float, also with the content taken out")
    lo = f.min_exp(1)
    exps = list(dict.fromkeys(a for a, _ in f.coeffs))
    at = {a: i for i, a in enumerate(exps)}
    terms = [(b - lo, at[a], c) for (a, b), c in f.coeffs.items()]
    return f, f.max_exp(1) - lo + 1, exps, terms, total


def _cyclotomic(q: int) -> LaurentPoly:
    """Phi_q(x) in two variables, by Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for the primes p of q."""
    def up(g, k):
        return LaurentPoly(2, {(a * k, b): c for (a, b), c in g.coeffs.items()})
    phi, m = LaurentPoly(2, {(0, 0): -1, (1, 0): 1}), 1
    for p in range(2, q + 1):
        if q % p == 0 and math.gcd(p, m) == 1:  # a composite p shares a prime with m
            phi, m = divexact(up(phi, p), phi, ZZ), m * p
    return up(phi, q // m)


def _fiber_measures(plan: tuple, nums, den: int, warm: list, node: bool = True) -> list:
    """m(f(exp(2 pi i num/den), y)) for each num, one pass per fiber: x, the y-coefficients with
    each x^a taken once and their sizes, each |c| <= STRIP_REL_TOL * max |c| set to 0 and the
    zero ends cut off, then ``_poly_measure`` with warm, the roots of the last Aberth fiber.  A
    zero fiber at a grid node takes the mean at (num -+ 1)/den, or where either of those
    vanishes too at (2 num -+ 1)/2 den, and so on; a zero fiber off the nodes gives None.  The
    halving ends, as f has finitely many cyclotomic factors in x.  Phi_q | f is tested only
    below RESIDUAL_GATE, far above the rounding a common root leaves."""
    f, width, exps, terms, total = plan
    out = []
    for num in nums:
        x = cmath.exp(2j * math.pi * (num / den))
        powers = [x**a for a in exps]
        coeffs = [0j] * width
        for row, i, c in terms:
            coeffs[row] += c * powers[i]
        mags = list(map(abs, coeffs))
        big = max(mags)
        tol = STRIP_REL_TOL * big
        if min(mags) <= tol:
            mags = [m if m > tol else 0 for m in mags]
            kept = [k for k, m in enumerate(mags) if m]
            cut = slice(kept[0], kept[-1] + 1) if kept else slice(0)
            coeffs = [c if m else 0 for c, m in zip(coeffs[cut], mags[cut])]
            mags = mags[cut]
        if not coeffs or big <= RESIDUAL_GATE * total and divides(_cyclotomic(den // math.gcd(num, den)), f, ZZ):
            if not node:
                out.append(None)
                continue
            k, d = num, den
            while None in (near := _fiber_measures(plan, (k - 1, k + 1), d, warm, False)):
                k, d = 2 * k, 2 * d
            out.append(math.fsum(near) / 2)
            continue
        out.append(_poly_measure(coeffs, mags, warm))
    return out


def _grid_average(plan: tuple, n: int) -> float:
    """Mean fiber measure over the nodes (2j + 1)/2n; nodes j < n//2 stand for 1 - theta too."""
    vals = _fiber_measures(plan, range(1, n + 1, 2), 2 * n, [])
    return math.fsum(vals[: n // 2] * 2 + vals[n // 2 :]) / n


def _check_int(name: str, v, least: int) -> None:
    if not isinstance(v, int) or v < least:
        raise ValueError(f"{name} must be an integer at least {least}, got {v!r}")


def mahler_2var(f: LaurentPoly, fibers: int = 1024) -> MahlerResult:
    """Fiberwise-Jensen Mahler measure of a nonzero two-variable polynomial, by ``_measure``.

    The error estimate is the difference against the half-resolution grid,
    summed over the squarefree parts in y.  That grid costs a third of the
    fiber solves and is run here only, for callers that read the estimate;
    :func:`mahler_value` skips it.  Conjugate fibers are solved once,
    warm-started; the module docstring has the zero rule.
    """
    if f.nvars != 2:
        raise ValueError("mahler_2var needs a two-variable polynomial")
    _check_int("fibers", fibers, 4)
    error = 0.0

    def part_value(part: LaurentPoly) -> float:
        nonlocal error
        plan = _fiber_plan(part)
        m = _grid_average(plan, fibers)
        error += abs(m - _grid_average(plan, fibers // 2))
        return m

    value = _measure(f, part_value)
    return MahlerResult(value=value, method="fiberwise", error_estimate=error, samples=fibers)


def mahler_limit_check(
    f: LaurentPoly, s: int, fibers: int = 1024
) -> tuple[MahlerResult, MahlerResult]:
    """Compare m(f(x, x^s)) with m(f(x, y)); they converge as s grows."""
    if f.nvars != 2:
        raise ValueError("mahler_limit_check needs a two-variable polynomial")
    _check_int("substitution exponent", s, 1)
    _check_int("fibers", fibers, 4)
    g = f.substitute_power(s)
    return mahler_1var(g), mahler_2var(f, fibers)


def mahler(f: LaurentPoly, fibers: int = 1024) -> MahlerResult:
    """Dispatch on the variable count; fibers is checked for both."""
    _check_int("fibers", fibers, 4)
    if f.nvars == 1:
        return mahler_1var(f)
    return mahler_2var(f, fibers)


def mahler_value(f: LaurentPoly, fibers: int = 1024) -> float:
    """``mahler(f, fibers).value``, the same float, without the half-resolution
    grid that only the error estimate reads."""
    _check_int("fibers", fibers, 4)
    if f.nvars == 1:
        return mahler_1var(f).value
    return _measure(f, lambda part: _grid_average(_fiber_plan(part), fibers))
