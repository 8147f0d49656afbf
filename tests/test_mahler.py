"""Mahler measures: Jensen roots in one variable, fiberwise Jensen in two."""

import cmath
import functools
import importlib
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    aberth_roots_generic,
    aberth_sweeps_generic,
    example,
    fiber_coeffs_generic,
    fiber_measure_cold,
    grid_average_full,
    mahler_1var_exact_refined,
    refine_float_four_steps,
)
from lapgraph.fields import ZZ
from lapgraph.laurent import LaurentPoly, divexact, divides, gcd_many, laurent_gcd, parse_poly
from lapgraph.linalg import det_laurent
from lapgraph.mahler import (
    RootFindingError,
    _aberth_roots,
    _fiber_coeffs,
    _fiber_measure,
    _fiber_plan,
    _poly_deriv,
    _refine_float,
    _strip_complex,
    mahler,
    mahler_1var,
    mahler_2var,
    mahler_limit_check,
)
from lapgraph.spanning import laplacian_determinant_polynomial

mahler_module = importlib.import_module("lapgraph.mahler")  # lapgraph.mahler is also a function

LOG_2_PLUS_SQRT3 = math.log(2 + math.sqrt(3))
LOG_GOLDEN_SQ = math.log((3 + math.sqrt(5)) / 2)
FOUR_CATALAN_OVER_PI = 4 * 0.9159655941772190150 / math.pi


def poly1(t):
    return parse_poly(t, nvars=1)


def poly2(t):
    return parse_poly(t, nvars=2)


def test_reference_values_one_variable():
    assert abs(mahler_1var(poly1("x^2-4x+1")).value - LOG_2_PLUS_SQRT3) < 1e-12
    assert abs(mahler_1var(poly1("x^2+3x+1")).value - LOG_GOLDEN_SQ) < 1e-12
    assert mahler_1var(poly1("x^2-2x+1")).value == 0.0


def test_cyclotomic_products_measure_zero():
    assert mahler_1var(poly1("2 - x - x^-1")).value == 0.0
    assert mahler_1var(poly1("1 + x + x^2")).value <= 1e-12  # third roots of unity
    assert mahler_1var(poly1("7")).value == math.log(7)


def test_monomial_and_content_invariance():
    f = poly1("x^2-4x+1")
    shifted = f.shift((-3,))
    assert abs(mahler_1var(shifted).value - mahler_1var(f).value) < 1e-12
    scaled = 6 * f
    assert abs(mahler_1var(scaled).value - math.log(6) - mahler_1var(f).value) < 1e-12


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        mahler_1var(LaurentPoly.zero(1))
    with pytest.raises(ValueError):
        mahler_2var(LaurentPoly.zero(2))


@pytest.mark.parametrize("bad", [1024.0, Fraction(1024), "1024"])
def test_non_integer_fibers_are_rejected_at_entry(bad):
    f = poly2("4 - x - x^-1 - y - y^-1")
    for call in (mahler_2var, mahler, functools.partial(mahler_limit_check, s=2)):
        with pytest.raises(ValueError, match="fibers must be an integer"):
            call(f, fibers=bad)
    # the dispatcher checks fibers for one variable too, though mahler_1var takes none
    with pytest.raises(ValueError, match="fibers must be an integer"):
        mahler(poly1("x^2 - 4x + 1"), fibers=bad)


@pytest.mark.parametrize("bad", [2.0, Fraction(2), "2"])
def test_non_integer_substitution_exponent_is_rejected_at_entry(bad):
    with pytest.raises(ValueError, match="substitution exponent must be an integer"):
        mahler_limit_check(poly2("4 - x - x^-1 - y - y^-1"), bad)


def _random_int_poly(rng, degree):
    coeffs = {(0,): rng.randint(1, 4)}
    for a in range(1, degree + 1):
        c = rng.randint(-4, 4)
        if c:
            coeffs[(a,)] = c
    coeffs[(degree,)] = rng.choice((1, 2, 3, -1, -2))
    return LaurentPoly(1, coeffs)


@pytest.mark.parametrize("seed", range(60))
def test_multiplicativity_one_variable(seed):
    rng = random.Random(seed)
    f = _random_int_poly(rng, rng.randint(1, 4))
    g = _random_int_poly(rng, rng.randint(1, 4))
    mf = mahler_1var(f).value
    mg = mahler_1var(g).value
    mfg = mahler_1var(f * g).value
    assert abs(mfg - mf - mg) < 1e-9


@pytest.mark.parametrize("seed", range(60))
def test_reciprocal_invariance(seed):
    rng = random.Random(1000 + seed)
    f = _random_int_poly(rng, rng.randint(1, 5))
    assert abs(mahler_1var(f).value - mahler_1var(f.reciprocal()).value) < 1e-12


@pytest.mark.parametrize("seed", range(300))
def test_dyadic_refinement_matches_fraction_oracle_on_random_polys(seed):
    # the oracle refines every root of f at once, exactly at each dyadic
    # float iterate; a third are squares, so they have repeated roots, which
    # the library splits off instead; degree at most 14 either way
    rng = random.Random(3000 + seed)
    squared = seed % 3 == 0
    f = _random_int_poly(rng, rng.randint(1, 7 if squared else 14))
    g = f * f if squared else f
    assert abs(mahler_1var(g).value - mahler_1var_exact_refined(g)) < 1e-12
    if squared:
        assert abs(mahler_1var(g).value - 2 * mahler_1var(f).value) < 1e-12


# m(4 - x - 1/x - y - 1/y) at y = x^s, from 60-digit mpmath roots
SUBSTITUTED_GRID = {
    8: 1.1500596448090800759,
    16: 1.1621638201682342849,
    24: 1.1644276911782260383,
    32: 1.1652216338851918420,
}
LEHMER = 0.16235761200773813943  # log of Lehmer's number


@pytest.mark.parametrize(
    "f, value",
    [(poly2("4 - x - x^-1 - y - y^-1").substitute_power(s), v) for s, v in SUBSTITUTED_GRID.items()]
    + [(poly1("x^2-4x+1") ** k, k * LOG_2_PLUS_SQRT3) for k in range(1, 17)]
    + [(poly1("x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1"), LEHMER)],
    ids=[f"grid-x^{s}" for s in SUBSTITUTED_GRID] + [f"power-{k}" for k in range(1, 17)] + ["lehmer"],
)
def test_dyadic_refinement_matches_fraction_oracle(f, value):
    # reference constants and closed forms, up to 16-fold roots, within the reported bound
    res = mahler_1var(f)
    assert abs(res.value - value) <= res.error_estimate


def _frac_poly(*coeffs):
    return LaurentPoly(1, {(k,): Fraction(c) for k, c in enumerate(coeffs)})


@pytest.mark.parametrize(
    "f, value",
    [
        (
            6 * poly1("x-2") ** 3 * poly1("x+1") ** 2 * poly1("x^2+x+1") ** 2,
            math.log(6) + 3 * math.log(2),
        ),
        (poly1("x-1") ** 9 * poly1("x+1") ** 4 * poly1("x-3") ** 2, 2 * math.log(3)),
        (  # (2/9) (x^2 - 4x + 1)^2 (x - 1/10)
            _frac_poly("1/3", "-4/3", "1/3") ** 2 * _frac_poly("-1/5", 2),
            math.log(Fraction(2, 9)) + 2 * LOG_2_PLUS_SQRT3,
        ),
        (poly1("3x^5"), math.log(3)),
    ],
    ids=["content-and-sign", "powers-at-plus-minus-one", "fraction-coefficients", "monomial"],
)
def test_squarefree_split_keeps_content_and_multiplicity(f, value):
    assert abs(mahler_1var(f).value - value) < 1e-12


def test_closed_forms_at_degree_256_and_128():
    assert abs(mahler_1var(poly1("x^256 - 2")).value - math.log(2)) < 1e-12
    # roots x^64 = phi^2 or phi^-2, so 64 roots of modulus phi^(1/32) lie outside
    phi = (1 + math.sqrt(5)) / 2
    assert abs(mahler_1var(poly1("x^128 - 3x^64 + 1")).value - 2 * math.log(phi)) < 1e-12


def test_high_multiplicity_power_matches_closed_form():
    # 16-fold roots: float Aberth meets them to about eps^(1/16), but the
    # squarefree split hands it sixteen copies of x^2 - 4x + 1 instead
    assert abs(mahler_1var(poly1("x^2-4x+1") ** 16).value - 16 * LOG_2_PLUS_SQRT3) < 1e-9


def test_grid_polynomial_two_variables():
    res = mahler_2var(poly2("4 - x - x^-1 - y - y^-1"), fibers=256)
    assert abs(res.value - FOUR_CATALAN_OVER_PI) < 2e-3
    assert res.method == "fiberwise"
    assert res.samples == 256
    assert res.error_estimate < 1e-3


def test_two_variable_poly_without_y_dependence_matches_inner_measure():
    # f(x, y) = x * g(y): every fiber is the same one-variable measure
    g = poly1("x^2-4x+1")
    f = LaurentPoly(2, {(1, a): c for (a,), c in g.coeffs.items()})
    res = mahler_2var(f, fibers=8)
    assert abs(res.value - mahler_1var(g).value) < 1e-12
    assert res.error_estimate < 1e-12


def test_multiplicativity_two_variables():
    f = poly2("4 - x - x^-1 - y - y^-1")
    g = poly2("2 + x + y")
    mf = mahler_2var(f, 512)
    mg = mahler_2var(g, 512)
    mfg = mahler_2var(f * g, 512)
    est = mfg.error_estimate + mf.error_estimate + mg.error_estimate
    assert abs(mfg.value - mf.value - mg.value) < max(2 * est, 1e-6)


def test_limit_check_substitution_one():
    one, _ = mahler_limit_check(poly2("4 - x - x^-1 - y - y^-1"), 1, fibers=16)
    assert abs(one.value - math.log(2)) < 1e-12


def test_limit_check_converges_for_grid():
    one, two = mahler_limit_check(poly2("4 - x - x^-1 - y - y^-1"), 25, fibers=512)
    assert abs(one.value - two.value) < 0.02


def test_limit_check_cyclotomic_product_is_zero():
    f = poly2("2 - x - x^-1") * poly2("2 - y - y^-1")
    one, two = mahler_limit_check(f, 3, fibers=1024)
    assert abs(one.value) < 1e-12
    assert abs(two.value) < max(3 * two.error_estimate, 1e-3)


def test_singular_fiber_is_perturbed():
    # all y-coefficients vanish at x = -1; the node takes the mean of the
    # fibers half a step to either side, which are conjugate
    f = poly2("y + x*y + y^-1 + x*y^-1")
    h = 0.125
    val = _fiber_measure(_fiber_plan(f), 8, 16, [])  # theta = 1/2, neighbours at 1/2 -+ h/2
    assert abs(val - math.log(abs(1 + cmath.exp(1j * math.pi * (1 + h))))) < 1e-12
    res = mahler_2var(f, fibers=64)
    assert math.isfinite(res.value)


def _log_cos_grid(k, power, n, zeros):
    """Midpoint-grid mean of power * log|1 + x^k| = power * log|2 cos(k pi theta)|.

    A node in zeros takes the mean of the two points half a step away.
    """
    def at(t):
        return power * math.log(abs(2 * math.cos(k * math.pi * t)))

    h = Fraction(1, 2 * n)
    nodes = (Fraction(2 * j + 1, 2 * n) for j in range(n))
    return math.fsum((at(t - h) + at(t + h)) / 2 if t in zeros else at(t) for t in nodes) / n


@pytest.mark.parametrize(
    "f, fibers, k, inner, zeros, coarse_zeros",
    [
        (poly2("1 + x") * poly2("y + y^-1"), 7, 1, 0.0, {Fraction(1, 2)}, {Fraction(1, 2)}),
        (
            poly2("1 + x^2") * poly2("y^2 - 3y + 1"),
            6,
            2,
            LOG_GOLDEN_SQ,
            {Fraction(1, 4), Fraction(3, 4)},
            set(),
        ),
    ],
    ids=["(1+x)(y+1/y)-at-7", "(1+x^2)(y^2-3y+1)-at-6"],
)
def test_rounded_vanishing_fiber_counts_as_zero(f, fibers, k, inner, zeros, coarse_zeros):
    # the nodes at x = -1 and x = -+i vanish exactly, but x is rounded, so
    # their coefficients are about 1e-16; measured as they stand they gave
    # the grid -4.96 and -10.7.  Each fiber is log|1 + x^k| + m(inner).
    value = inner + _log_cos_grid(k, 1, fibers, zeros)
    coarse = inner + _log_cos_grid(k, 1, fibers // 2, coarse_zeros)
    res = mahler_2var(f, fibers)
    assert abs(res.value - value) < 1e-12
    assert abs(res.error_estimate - abs(value - coarse)) < 1e-12


@pytest.mark.parametrize(
    "power, fibers, tol",
    [(4, 4096, 1e-5), (5, 1024, 1e-5), (6, 1024, 1e-3), (4, 7, 1e-12), (5, 9, 1e-12)],
)
def test_high_power_of_an_x_factor_is_not_a_zero_fiber(power, fibers, tol):
    # next to x = -1 the fibers of (1+x)^k (y - 3) are nonzero but tiny
    # (|1+x|^4 is about 3.5e-13 at 4096 fibers); they are measured, not
    # replaced, and the grid is log 3 + k log 2 / N for even N.  Rounding of
    # the expanded (1+x)^k is a few percent of those tiny coefficients, so
    # the nearest nodes are off by about that much in log (1e-6 of the grid
    # at 4096); at (1+x)^6 and 1024 fibers the nearest node's coefficients
    # (about 1e-15) are below their rounding, about 0.1 for that node.  At
    # odd N the node 1/2 vanishes exactly and takes its neighbours' mean.
    f = poly2("1 + x") ** power * poly2("y - 3")
    res = mahler_2var(f, fibers)
    half = Fraction(1, 2)
    value = math.log(3) + _log_cos_grid(1, power, fibers, {half})
    coarse = math.log(3) + _log_cos_grid(1, power, fibers // 2, {half})
    assert abs(res.value - value) < tol
    assert abs(res.error_estimate - abs(value - coarse)) < 2 * tol


@pytest.mark.xfail(
    strict=True,
    reason="the midpoint grid converges like 1/N on an x-only factor with roots on "
    "the unit circle: m((1 - x)^2) at 64 fibers comes out 0.0217, not 0",
)
def test_x_only_factor_on_the_circle_measures_zero():
    # Delta_0 of a rank-2 quotient can be (1 - x)^2, as for verify-corpus's
    # rank2/05; its exact measure is 0.  Splitting off the x-content exactly
    # and measuring it with mahler_1var would give 0.
    res = mahler_2var(poly2("1 - 2x + x^2"), 64)
    assert abs(res.value) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_power_of_the_grid_polynomial_measures_k_times_its_measure(k):
    # a factor repeated in y gives every fiber a k-fold root, which Aberth
    # meets only to about eps^(1/k): unsplit, D^3 raised RootFindingError
    res = mahler_2var(poly2("4 - x - x^-1 - y - y^-1") ** k, 64)
    assert abs(res.value - k * FOUR_CATALAN_OVER_PI) <= res.error_estimate


def test_a_repeated_factor_in_y_is_split_off_and_an_x_content_is_not(monkeypatch):
    measured = []
    plan = mahler_module._fiber_plan
    monkeypatch.setattr(mahler_module, "_fiber_plan", lambda f: measured.append(f) or plan(f))
    grid = poly2("4 - x - x^-1 - y - y^-1")
    res = mahler_2var(grid**2 * poly2("y - 3"), 16)
    assert abs(res.value - 2 * FOUR_CATALAN_OVER_PI - math.log(3)) <= res.error_estimate
    assert [len(f.coeffs) for f in measured] == [8, 5]  # the grid times (y - 3), then the grid
    measured.clear()
    f = poly2("1 + x") ** 4 * poly2("y - 3")
    mahler_2var(f, 16)
    assert measured == [f]


def test_the_squarefree_part_takes_no_gcd_of_its_own(monkeypatch):
    # gcd(f, df/dy) takes every repeated factor, so f / h goes to the grid
    # unsplit: D^3 takes the gcds of D^3, D^2 and D, not also those of D and D
    calls = []
    monkeypatch.setattr(mahler_module, "laurent_gcd", lambda f, g, dom: calls.append(f) or laurent_gcd(f, g, dom))
    grid = poly2("4 - x - x^-1 - y - y^-1")
    res = mahler_2var(grid**3, 16)
    assert abs(res.value - 3 * FOUR_CATALAN_OVER_PI) <= res.error_estimate
    assert [len(f.coeffs) for f in calls] == [len((grid**k).coeffs) for k in (3, 2, 1)]


def test_fraction_coefficients_split_over_the_rationals():
    third = (poly2("4 - x - x^-1 - y - y^-1") ** 2).map_coefficients(lambda c: Fraction(c, 3))
    res = mahler_2var(third, 64)
    assert abs(res.value - 2 * FOUR_CATALAN_OVER_PI + math.log(3)) <= res.error_estimate
    half = LaurentPoly(2, {(0, 1): Fraction(1, 2), (0, 0): 3, (1, 0): 1})  # no repeated factor
    res = mahler_2var(half, 16)
    assert abs(res.value - math.log(3)) <= res.error_estimate


def test_dispatch_helper():
    assert mahler(poly1("x^2-4x+1")).method == "jensen-roots"
    assert mahler(poly2("4 - x - x^-1 - y - y^-1"), fibers=64).method == "fiberwise"


def test_growth_matches_mahler_for_ladder_at_64():
    from lapgraph.spanning import growth_covers

    report = growth_covers(example("ladder").graph, [64])
    gap = abs(report.rows[-1][2] - report.reference)
    # exact asymptotics: tau(CL_n) = (n/2)((2+sqrt3)^n + (2-sqrt3)^n) - n,
    # so the gap at n = 64 is log(n/2)/n + o(1/n), about 0.0542
    assert gap < 0.06
    report128 = growth_covers(example("ladder").graph, [128])
    assert abs(report128.rows[-1][2] - report.reference) < gap


# -- the mirrored, warm-started grid against the full cold grid -------------------


def _random_poly2(rng):
    coeffs = {}
    for _ in range(rng.randint(2, 5)):
        e = (rng.randint(-2, 2), rng.randint(-2, 2))
        coeffs[e] = coeffs.get(e, 0) + rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    f = LaurentPoly(2, coeffs)
    return f if not f.is_zero() else _random_poly2(rng)


def _fibers_simple(f, fibers):
    """No fiber at an x with x^(2N) = 1, N = fibers or fibers // 2, has a repeated root.

    Those x hold every node of both grids and the fibers a zero fiber moves
    to.  A repeated root there, or a drop in degree, is a common root of
    x^(2N) - 1 and Res_y(f, df/dy), the Sylvester determinant.
    """
    g = f.shift((0, -f.min_exp(1)))
    d = g.max_exp(1)
    col = [
        LaurentPoly(1, {(a,): c for (a, b), c in g.coeffs.items() if b == k})
        for k in range(d, -1, -1)
    ]
    der = [(d - i) * c for i, c in enumerate(col[:-1])]
    zero = LaurentPoly.zero(1)
    rows = [[zero] * i + col + [zero] * (d - 2 - i) for i in range(d - 1)]
    rows += [[zero] * i + der + [zero] * (d - 1 - i) for i in range(d)]
    disc = det_laurent(rows) if d else LaurentPoly.constant(1, 1)
    return all(
        laurent_gcd(disc, parse_poly(f"x^{2 * n} - 1", 1), ZZ) == LaurentPoly.constant(1, 1)
        for n in (fibers, fibers // 2)
    )


def _assert_equals_full_grid(f, fibers, rel):
    value = grid_average_full(f, fibers)
    error = abs(value - grid_average_full(f, fibers // 2))
    res = mahler_2var(f, fibers)
    tol = rel * max(1.0, abs(value))
    assert abs(res.value - value) <= tol
    assert abs(res.error_estimate - error) <= tol


@pytest.mark.parametrize("seed", range(400))
def test_grid_matches_full_grid_on_random_polys(seed):
    # every fourth is a square: float Aberth is only about sqrt(eps) accurate
    # at its double roots, so those may differ by about 1e-6
    rng = random.Random(6000 + seed)
    f = _random_poly2(rng)
    if seed % 4 == 3:
        f = f * f
    fibers = rng.choice((4, 5, 6, 7, 8, 16, 32))
    simple = seed % 4 != 3 and _fibers_simple(f, fibers)
    rel = 1e-13 if simple else 1e-6
    if _zero_nodes(f, fibers) or _zero_nodes(f, fibers // 2):
        # the cold grid measures such a node's rounding noise
        _assert_equals_content_oracle(f, fibers, rel)
    else:
        _assert_equals_full_grid(f, fibers, rel)


@pytest.mark.parametrize("fibers", [64, 1024, 4096])
@pytest.mark.parametrize("quotient", ["grid", "mitsubishi"])
def test_grid_matches_full_grid_on_delta0(quotient, fibers):
    _assert_equals_full_grid(laplacian_determinant_polynomial(example(quotient)), fibers, 1e-13)


# float.hex of mahler_2var(Delta_0) and its error estimate
DELTA0_BITS = {
    ("grid", 64): ("0x1.2a975204bf8ddp+0", "0x1.926840279b000p-12"),
    ("grid", 512): ("0x1.2a8f129114553p+0", "0x1.9220d6ab80000p-18"),
    ("grid", 1024): ("0x1.2a8ef96f147b5p+0", "0x1.921ffd9e00000p-20"),
    ("grid", 4096): ("0x1.2a8ef19475a42p+0", "0x1.921fb9d000000p-24"),
    ("mitsubishi", 64): ("0x1.b41f206e0782fp+1", "0x1.5c3fe9325a000p-12"),
    ("mitsubishi", 512): ("0x1.b41b8e465fdffp+1", "0x1.5c3fddca00000p-18"),
    ("mitsubishi", 1024): ("0x1.b41b836460f1ap+1", "0x1.5c3fddca00000p-20"),
    ("mitsubishi", 4096): ("0x1.b41b7ffdc1472p+1", "0x1.5c3fdde000000p-24"),
}


@pytest.mark.parametrize("quotient, fibers", list(DELTA0_BITS))
def test_delta0_measure_keeps_its_bits(quotient, fibers):
    res = mahler_2var(laplacian_determinant_polynomial(example(quotient)), fibers)
    assert (res.value.hex(), res.error_estimate.hex()) == DELTA0_BITS[quotient, fibers]


@pytest.mark.parametrize(
    "f, fibers",
    [
        (poly2("-4x^-2 + 3x^2y^2"), 8),  # a warm start stalls on these two
        (poly2("2x^-2 - 5y^2"), 8),
        (poly2("4 - x - x^-1 - y - y^-1"), 5),
        (poly2("4 - x - x^-1 - y - y^-1"), 7),
        (poly2("2 + x + y"), 5),
        (poly2("2 + x + y"), 7),
    ],
)
def test_grid_matches_full_grid_on_stalls_and_odd_grids(f, fibers):
    _assert_equals_full_grid(f, fibers, 1e-13)


@functools.lru_cache(maxsize=None)
def _cyclotomic_by_division(q):
    """Phi_q(x) = (x^q - 1) / the product of Phi_d over the proper divisors d of q."""
    phi = parse_poly(f"x^{q} - 1", 1)
    for d in range(1, q):
        if q % d == 0:
            phi = divexact(phi, _cyclotomic_by_division(d), ZZ)
    return phi


def _x_content(f):
    """The gcd c(x) of f's y-coefficients over the integers, so f = c g with g free of zero fibers."""
    cols = {}
    for (a, b), v in f.coeffs.items():
        cols.setdefault(b, {})[(a,)] = v
    return gcd_many((LaurentPoly(1, col) for col in cols.values()), ZZ)


def _zero_nodes(f, n):
    """Nodes (2j + 1)/2n where every y-coefficient of f vanishes, i.e. Phi_q | c for x of order q."""
    c = _x_content(f)
    nodes = (Fraction(2 * j + 1, 2 * n) for j in range(n))
    return {t for t in nodes if divides(_cyclotomic_by_division(t.denominator), c, ZZ)}


def _grid_by_content(f, n):
    """The n-node grid of f = c(x) g(x, y) from log|c(x)| and g's cold fibers (test oracle).

    A node where c vanishes takes the mean of the fibers half a step to
    either side; a fiber there that vanishes too raises, as in the library.
    """
    c = _x_content(f)
    g = divexact(f, LaurentPoly(2, {(a, 0): v for (a,), v in c.coeffs.items()}), ZZ)

    def fiber(t):
        if divides(_cyclotomic_by_division(t.denominator), c, ZZ):
            raise ArithmeticError(f"fiber polynomial vanished at node {t}")
        x = cmath.exp(2j * math.pi * float(t))
        return math.log(abs(sum(v * x**a for (a,), v in c.coeffs.items()))) + fiber_measure_cold(g, float(t))

    h = Fraction(1, 2 * n)
    zeros = _zero_nodes(f, n)
    nodes = (Fraction(2 * j + 1, 2 * n) for j in range(n))
    return math.fsum((fiber(t - h) + fiber(t + h)) / 2 if t in zeros else fiber(t) for t in nodes) / n


def _assert_equals_content_oracle(f, fibers, rel):
    value = _grid_by_content(f, fibers)
    error = abs(value - _grid_by_content(f, fibers // 2))
    res = mahler_2var(f, fibers)
    tol = rel * max(1.0, abs(value))
    assert abs(res.value - value) <= tol
    assert abs(res.error_estimate - error) <= tol


ZERO_FIBER_CASES = [
    (poly2("1 + x") * poly2("y + y^-1"), 7),  # the middle node vanishes, at 7 and at 3
    (poly2("1 + x^2") * poly2("y^2 - 3y + 1"), 6),  # nodes 1/4 and 3/4 vanish
    (poly2("1 + x") * poly2("4 - y - y^-1"), 5),
    (poly2("1 + x^2") * poly2("2 + x + y"), 10),
    (poly2("1 - x + x^2") * poly2("3 + x + y"), 9),  # nodes 1/6 and 5/6 vanish
]


@pytest.mark.parametrize("f, fibers", ZERO_FIBER_CASES)
def test_zero_fibers_match_content_oracle(f, fibers):
    assert _zero_nodes(f, fibers)
    _assert_equals_content_oracle(f, fibers, 1e-13)


def test_grid_solves_each_conjugate_pair_once_and_starts_warm(monkeypatch):
    built = []
    warm_starts = []
    fiber_coeffs = mahler_module._fiber_coeffs
    aberth_roots = mahler_module._aberth_roots

    def count_fiber(plan, theta):
        built.append(theta)
        return fiber_coeffs(plan, theta)

    def count_start(coeffs, start=None):
        warm_starts.append(start is not None)
        return aberth_roots(coeffs, start)

    monkeypatch.setattr(mahler_module, "_fiber_coeffs", count_fiber)
    monkeypatch.setattr(mahler_module, "_aberth_roots", count_start)
    mahler_2var(poly2("4 - x - x^-1 - y - y^-1"), 4096)
    assert len(built) == 2048 + 1024
    assert len(warm_starts) == 2048 + 1024 and sum(warm_starts) == 2047 + 1023


def _fiber_solves(f, fibers):
    """The stripped, nonconstant fiber polynomials of f at the grid's midpoint nodes."""
    plan = _fiber_plan(f)
    out = []
    for theta in ((2 * j + 1) / (2 * fibers) for j in range(fibers)):
        fiber = _fiber_coeffs(plan, theta)
        coeffs = _strip_complex(fiber, max(map(abs, fiber)))
        if len(coeffs) > 1:
            out.append(coeffs)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_float_refinement_matches_four_step_oracle(monkeypatch, seed):
    # Aberth polishes only a run that did not converge, so _refine_float is fed
    # here the roots of runs cut short after 3 sweeps and converged roots nudged off by 1e-6
    rng = random.Random(7000 + seed)
    f = _random_poly2(rng)
    if seed % 4 == 3:
        f = f * f
    solves = _fiber_solves(f, 8)
    fed = []
    with monkeypatch.context() as m:
        m.setattr(mahler_module, "ABERTH_MAX_ITER", 3)
        m.setattr(mahler_module, "_refine_float", lambda monic, deriv, roots: fed.append((monic, list(roots))))
        for coeffs in solves:
            _solved(_aberth_roots, coeffs)  # the unpolished roots may fail validation
    for coeffs in solves:
        roots = _solved(_aberth_roots, coeffs)
        if not isinstance(roots, str):
            fed.append(([c / coeffs[-1] for c in coeffs], [z * (1 + 1e-6) for z in roots]))
    assert fed or f.max_exp(1) == f.min_exp(1)  # constant in y: nothing to refine
    for monic, roots in fed:
        got = list(roots)
        _refine_float(monic, _poly_deriv(monic), got)
        assert _hexes(got) == _hexes(refine_float_four_steps(monic, roots))


def _polish_calls(monkeypatch):
    """The degree of each polynomial whose roots ``_refine_float`` polishes from now on."""
    calls = []
    refine = mahler_module._refine_float

    def spy(monic, deriv, roots):
        calls.append(len(roots))
        refine(monic, deriv, roots)

    monkeypatch.setattr(mahler_module, "_refine_float", spy)
    return calls


def test_newton_polish_runs_only_on_a_run_that_did_not_converge(monkeypatch):
    calls = _polish_calls(monkeypatch)
    lehmer = [complex(c) for c in (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)]
    _aberth_roots(lehmer)
    mahler_1var(poly1("x^2-4x+1") ** 8)
    assert calls == []
    monkeypatch.setattr(mahler_module, "ABERTH_MAX_ITER", 2)
    _solved(_aberth_roots, lehmer)  # two sweeps from the circle leave roots that may fail validation
    assert calls == [10]


@pytest.mark.parametrize("quotient, stalled", [("grid", 1), ("mitsubishi", 2)])
def test_no_fiber_of_delta0_runs_aberth_to_its_iteration_cap(monkeypatch, quotient, stalled):
    # the stalled fibers lie next to theta = 0, where Delta_0(1, 1) = 0 leaves a near-double
    # root and the shift sticks near 2e-14; the exits are read off the bit-identical generic sweeps
    exits = Counter()
    aberth_roots = mahler_module._aberth_roots

    def record(coeffs, start=None):
        exits[aberth_sweeps_generic([c / coeffs[-1] for c in coeffs], start)[1]] += 1
        return aberth_roots(coeffs, start)

    monkeypatch.setattr(mahler_module, "_aberth_roots", record)
    calls = _polish_calls(monkeypatch)
    mahler_2var(laplacian_determinant_polynomial(example(quotient)), 4096)
    assert exits == {"converged": 2048 + 1024 - stalled, "stalled": stalled}
    assert len(calls) == stalled


def _hexes(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


def _solved(aberth, coeffs, start=None):
    """The roots, or the RootFindingError message."""
    try:
        return aberth(coeffs, start)
    except RootFindingError as e:
        return str(e)


def _bits(roots):
    return roots if isinstance(roots, str) else _hexes(roots)


def _measured(f, fibers):
    """float.hex of m(f) and its error estimate, or the RootFindingError message;
    fibers None marks a one-variable f, measured at the default fiber count."""
    try:
        res = mahler(f) if fibers is None else mahler(f, fibers)
    except RootFindingError as e:
        return str(e)
    return res.value.hex(), res.error_estimate.hex()


def _kernel_cases():
    cases = []
    for seed in range(12):
        rng = random.Random(9100 + seed)
        f = _random_int_poly(rng, rng.randint(1, 8))
        cases.append(pytest.param(f * f if seed % 3 == 2 else f, None, id=f"x-{seed}"))
    for seed in range(12):
        rng = random.Random(9200 + seed)
        f = _random_poly2(rng)
        cases.append(pytest.param(f * f if seed % 3 == 2 else f, 16, id=f"xy-{seed}"))
    for text in ("-4x^-2+3x^2y^2", "2x^-2-5y^2"):  # a warm start stalls on these
        cases.append(pytest.param(poly2(text), 8, id=text))
    for k, (f, fibers) in enumerate(ZERO_FIBER_CASES):
        cases.append(pytest.param(f, fibers, id=f"zero-{k}"))
    return cases


@pytest.mark.parametrize("f, fibers", _kernel_cases())
def test_float_kernel_is_bit_identical_to_the_generic_oracle(monkeypatch, f, fibers):
    """Roots, fiber coefficients and measures equal the generic kernel's in every bit.

    Each polynomial, or each grid fiber of a two-variable one, is solved cold
    and warm-started: from the previous fiber's roots, or in one variable
    from its own roots nudged off by 1e-6.
    """
    if fibers is None:
        solves = [[complex(c) for c in f.coefficient_list()]]
    else:
        plan = _fiber_plan(f)
        solves = []
        for theta in ((2 * j + 1) / (2 * fibers) for j in range(fibers)):
            fiber = _fiber_coeffs(plan, theta)
            assert _hexes(fiber) == _hexes(fiber_coeffs_generic(f, theta))
            solves.append(_strip_complex(fiber, max(map(abs, fiber))))
    warm = []
    for coeffs in solves:
        if not coeffs:
            continue
        cold = _solved(_aberth_roots, coeffs)
        assert _bits(cold) == _bits(_solved(aberth_roots_generic, coeffs))
        if fibers is None and not isinstance(cold, str):
            warm = [z * (1 + 1e-6) for z in cold]
        if len(warm) == len(coeffs) - 1 > 0:
            got = _solved(_aberth_roots, coeffs, warm)
            assert _bits(got) == _bits(_solved(aberth_roots_generic, coeffs, warm))
        if not isinstance(cold, str):
            warm = cold
    got = _measured(f, fibers)
    monkeypatch.setattr(mahler_module, "_aberth_roots", aberth_roots_generic)
    monkeypatch.setattr(mahler_module, "_fiber_coeffs", lambda plan, theta: fiber_coeffs_generic(plan[0], theta))
    assert got == _measured(f, fibers)
