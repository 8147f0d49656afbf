"""Logarithmic Mahler measure of integer Laurent polynomials.

One variable: Jensen's formula, m(f) = log|lead| + sum of log|root| over the
roots outside the unit circle.  Roots come from an Aberth simultaneous
iteration started on a perturbed circle (Aberth 1973; Bini 1996).  A run whose
last sweep moved every root by less than 1e-14, relative, has converged and
keeps its roots as they are.  Only a run that stops short of that, at
``ABERTH_MAX_ITER`` sweeps or when a shift below ``STALL_SHIFT`` no longer
halves per sweep, gets a float Newton polish.  Every root set then passes a
residual and coefficient-identity validation.  Float Aberth meets a k-fold root
only to about eps^(1/k), so repeated roots are split off exactly first (the
repeated-gcd squarefree split, see Yun 1976): g_(i+1) = gcd(g_i, g_i') over
the integers until g is constant, and each part g_i / g_(i+1) has simple
roots.  A root of multiplicity k lies in k of the parts, so m(g_0) is the sum
of their measures plus log|the final constant|.  Roots on the unit circle,
like the double root 1 of every Delta_0, add 0 (``UNIT_CIRCLE_TOL``).

Two variables: fiberwise Jensen.  For each midpoint node theta of an N-point
grid the variable x is pinned to exp(2 pi i theta) and the exact one-variable
measure in y (complex coefficients) is taken; the node average converges to
the torus integral, with the inner log-singularities absorbed exactly.  The
error estimate compares the N- and N/2-point grids.  The conjugate fibers at
theta and 1 - theta are solved once, walking theta up with Aberth started from
the last fiber's roots.  A fiber at x of order q vanishes when Phi_q(x) divides
f, decided exactly (rounding leaves it tiny, not zero); it takes the mean of
the fibers half a step to either side.  A factor repeated in y would hand
every fiber a multiple root, so f is split first, as in one variable: with
h = gcd(f, df/dy) over the integers, m(f) = m(f/h) + m(h) while h has y in
it.  An h free of y, such as a content (1 + x)^4, leaves f to the grid.

The float kernel inlines one Horner loop per polynomial value and sums from the
int 0 as ``sum`` does, so its floats are those of a call per evaluation; the
grid reads a fiber plan built once per polynomial instead of rescanning f.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .fields import QQ, ZZ
from .laurent import LaurentPoly, divexact, divides, laurent_gcd

UNIT_CIRCLE_TOL = 1e-10  # |root| this close to 1 counts as on the circle
RESIDUAL_GATE = 1e-9
ABERTH_MAX_ITER = 400
STALL_SHIFT = 1e-10  # a sweep shift below this that no longer halves ends Aberth
STRIP_REL_TOL = 1e-13  # fiber coefficients this small next to the largest are zero


@dataclass(frozen=True)
class MahlerResult:
    value: float
    method: str
    error_estimate: float
    samples: int | None = None


class RootFindingError(ArithmeticError):
    pass


# -- polynomial helpers (dense complex coefficient lists, low degree first) -----


def _poly_deriv(coeffs: list[complex]) -> list[complex]:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _refine_float(monic: list[complex], deriv: list[complex], roots: list[complex]) -> None:
    """Up to 4 float Newton steps on u = p/p' per root, in place, ending early at a fixed point.

    ``_aberth_roots`` calls it only on a run that did not converge."""
    rmonic, rderiv, rsecond = monic[::-1], deriv[::-1], _poly_deriv(deriv)[::-1]
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

    Aberth starts from start, by default a perturbed circle.  Converged roots
    (a sweep moved each by less than 1e-14, relative) stand as they are; a run
    cut at ``ABERTH_MAX_ITER`` sweeps or stagnated (a shift below ``STALL_SHIFT``
    that did not halve) gets ``_refine_float``.  Every result is validated.  A
    k-fold root comes out only to about eps^(1/k), so ``mahler_1var`` hands it
    squarefree parts.
    """
    s = len(coeffs) - 1
    if s < 1:
        return []
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    deriv = _poly_deriv(monic)
    if start:
        roots = list(start)
    else:
        radius = max(1e-3, abs(monic[0]) ** (1.0 / s))
        roots = [radius * cmath.exp(2j * math.pi * (k + 0.35) / s) * (1 + 0.02 * (k % 5)) for k in range(s)]
    rmonic, rderiv = monic[::-1], deriv[::-1]
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
            for j, zj in enumerate(roots):
                if j != k:
                    rep = rep + 1 / (z - zj)
            denom = 1 - w * rep
            if denom == 0:
                new_roots[k] = z * (1 + 1e-8)
                shift = 1.0
                continue
            corr = w / denom
            new_roots[k] = z - corr
            r = abs(corr) / (abs(z) if abs(z) > 1.0 else 1.0)
            shift = r if r > shift else shift
        roots = new_roots
        if shift < 1e-14 or STALL_SHIFT > shift > 0.5 * last:  # converged, or the shift stopped halving
            break
        last = shift
    if shift >= 1e-14:  # only a run that did not converge is polished
        _refine_float(monic, deriv, roots)
    _validate_roots(coeffs, roots)
    return roots


def _validate_roots(coeffs: list[complex], roots: list[complex]):
    s = len(coeffs) - 1
    scale = max(map(abs, coeffs))
    for z in roots:
        bound = RESIDUAL_GATE * scale * max(1.0, abs(z)) ** s * (s + 1)
        pv = 0j
        for c in reversed(coeffs):
            pv = pv * z + c
        if abs(pv) > bound:
            raise RootFindingError("root residual exceeds tolerance")
    # coefficient identities: sum and product of roots
    sum_expect = -coeffs[-2] / coeffs[-1]
    sum_got = sum(roots)
    if abs(sum_got - sum_expect) > 1e-6 * (1 + abs(sum_expect)):
        raise RootFindingError("root sum disagrees with coefficients")
    prod_expect = coeffs[0] / coeffs[-1] * (-1) ** s
    prod_got = 1 + 0j
    for z in roots:
        prod_got *= z
    if abs(prod_got - prod_expect) > 1e-6 * (1 + abs(prod_expect)):
        raise RootFindingError("root product disagrees with coefficients")


def _jensen(coeffs: list[complex], roots: list[complex]) -> float:
    """log|lead| plus log|root| over the roots outside the unit circle.

    Expects a dense list with nonzero ends (monomial factors already stripped;
    they do not move the measure).
    """
    value = math.log(abs(coeffs[-1]))
    for z in roots:
        r = abs(z)
        if r > 1 + UNIT_CIRCLE_TOL:
            value += math.log(r)
    return value


def _strip_complex(coeffs: list[complex], big: float) -> list[complex]:
    """coeffs with each |c| <= STRIP_REL_TOL * big set to 0 and the zero ends cut off."""
    out = [0 if abs(c) <= STRIP_REL_TOL * big else c for c in coeffs]
    kept = [k for k, c in enumerate(out) if c != 0]
    return out[kept[0] : kept[-1] + 1] if kept else []


# -- one variable ----------------------------------------------------------------


def _int_coeff_list(f: LaurentPoly) -> tuple[list[int], float]:
    """Integer dense coefficients of a 1-variable poly and a log offset.

    Fractions are cleared by a common positive factor c, so
    m(f) = m(c f) - log c.
    """
    coeffs = f.coefficient_list()
    if any(isinstance(c, Fraction) for c in coeffs):
        denom = lcm(*(Fraction(c).denominator for c in coeffs))
        ints = [int(Fraction(c) * denom) for c in coeffs]
        return ints, math.log(denom)
    return [int(c) for c in coeffs], 0.0


def mahler_1var(f: LaurentPoly) -> MahlerResult:
    """Logarithmic Mahler measure of a nonzero one-variable Laurent polynomial."""
    if f.nvars != 1:
        raise ValueError("mahler_1var needs a one-variable polynomial")
    if f.is_zero():
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    coeffs, offset = _int_coeff_list(f)
    # the squarefree split of the module docstring
    g = LaurentPoly(1, {(k,): c for k, c in enumerate(coeffs)})
    value = -offset
    while g.max_exp(0) > 0:
        h = laurent_gcd(g, LaurentPoly(1, {(a - 1,): a * c for (a,), c in g.coeffs.items()}), ZZ)
        s = divexact(g, h, ZZ).coefficient_list()
        value += _jensen(s, _aberth_roots([complex(c) for c in s]))
        g = h
    value += math.log(abs(g.coeffs[(0,)]))
    return MahlerResult(value=value, method="jensen-roots", error_estimate=1e-11)


# -- two variables ----------------------------------------------------------------


def _fiber_plan(f: LaurentPoly) -> tuple:
    """What every fiber of f reads: (f, its width in y, the terms c x^a y^b as (b - min b, a, c)
    in dict order, the sum of |c|)."""
    lo = f.min_exp(1)
    terms = [(b - lo, a, c) for (a, b), c in f.coeffs.items()]
    return f, f.max_exp(1) - lo + 1, terms, sum(map(abs, f.coeffs.values()))


def _fiber_coeffs(plan: tuple, theta: float) -> list[complex]:
    """Dense y-coefficients of the plan's f with x pinned to exp(2 pi i theta)."""
    x = cmath.exp(2j * math.pi * theta)
    _, width, terms, _ = plan
    out = [0j] * width
    for row, a, c in terms:
        out[row] += c * x**a
    return out


def _cyclotomic(q: int) -> LaurentPoly:
    """Phi_q(x) in two variables, by Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for the primes p of q."""
    def up(g, k):
        return LaurentPoly(2, {(a * k, b): c for (a, b), c in g.coeffs.items()})
    phi, m = LaurentPoly(2, {(0, 0): -1, (1, 0): 1}), 1
    for p in range(2, q + 1):
        if q % p == 0 and math.gcd(p, m) == 1:  # a composite p shares a prime with m
            phi, m = divexact(up(phi, p), phi, QQ), m * p
    return up(phi, q // m)


def _fiber_measure(plan: tuple, num: int, den: int, warm: list, step: int = 1) -> float:
    """m(f(exp(2 pi i num/den), y)); a zero fiber takes the mean at (num -+ step)/den (step 0 raises).
    Phi_q | f is tested only below RESIDUAL_GATE, far above the rounding a common root leaves.
    Aberth starts from warm, the roots solved last, when the degree matches, and leaves these."""
    fiber = _fiber_coeffs(plan, num / den)
    big = max(map(abs, fiber))
    coeffs = _strip_complex(fiber, big)
    f, _, _, total = plan
    small = big <= RESIDUAL_GATE * total
    if not coeffs or small and divides(_cyclotomic(den // math.gcd(num, den)), f, QQ):
        if not step:
            raise ArithmeticError(f"fiber polynomial vanished at node {num / den}")
        return math.fsum(_fiber_measure(plan, num + s, den, warm, 0) for s in (-step, step)) / 2
    start = warm if len(warm) == len(coeffs) - 1 else None
    try:
        roots = _aberth_roots(coeffs, start)
    except RootFindingError:  # a warm start can stall on a symmetric configuration
        if start is None:
            raise
        roots = _aberth_roots(coeffs)
    warm[:] = roots
    return _jensen(coeffs, roots)


def _grid_average(plan: tuple, n: int) -> float:
    """Mean fiber measure over the nodes (2j + 1)/2n; nodes j < n//2 stand for 1 - theta too."""
    warm: list[complex] = []
    vals = [_fiber_measure(plan, 2 * j + 1, 2 * n, warm) for j in range((n + 1) // 2)]
    return math.fsum(vals[: n // 2] * 2 + vals[n // 2 :]) / n


def _check_int(name: str, v, least: int) -> None:
    if not isinstance(v, int) or v < least:
        raise ValueError(f"{name} must be an integer at least {least}, got {v!r}")


def mahler_2var(f: LaurentPoly, fibers: int = 1024) -> MahlerResult:
    """Fiberwise-Jensen Mahler measure of a nonzero two-variable polynomial.

    The error estimate is the difference against the half-resolution grid,
    summed over the parts of a repeated factor in y.  Conjugate fibers are
    solved once, warm-started; the module docstring has the zero rule.
    """
    if f.nvars != 2:
        raise ValueError("mahler_2var needs a two-variable polynomial")
    if f.is_zero():
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    _check_int("fibers", fibers, 4)
    value, error = _split_2var(f, fibers)
    return MahlerResult(value=value, method="fiberwise", error_estimate=error, samples=fibers)


def _split_2var(f: LaurentPoly, fibers: int) -> tuple[float, float]:
    """(m(f), error estimate): m(f / h) + m(h) with h = gcd(f, df/dy) while h has
    y in it, as in the module docstring, and the fiber grid once it has not.
    f / h is squarefree in y, so it goes to the grid with no gcd of its own.
    Only a Fraction coefficient makes the gcd run over QQ."""
    dom = QQ if any(isinstance(c, Fraction) for c in f.coeffs.values()) else ZZ
    h = laurent_gcd(f, LaurentPoly(2, {(a, b - 1): b * c for (a, b), c in f.coeffs.items() if b}), dom)
    split = h.min_exp(1) != h.max_exp(1)
    plan = _fiber_plan(divexact(f, h, dom) if split else f)
    value = _grid_average(plan, fibers)
    error = abs(value - _grid_average(plan, fibers // 2))
    if split:
        m2, e2 = _split_2var(h, fibers)
        return value + m2, error + e2
    return value, error


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
