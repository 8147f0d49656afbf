"""Mahler measures: Jensen roots in one variable, fiberwise Jensen in two."""

import importlib
import math
import random

import pytest

from conftest import refine_exact_fraction
from lapgraph.laurent import LaurentPoly, parse_poly
from lapgraph.mahler import (
    RootFindingError,
    _fiber_measure,
    mahler,
    mahler_1var,
    mahler_2var,
    mahler_limit_check,
)

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


def _refinement_inputs(monkeypatch, f):
    """The (integer coefficients, Aberth roots) pairs mahler_1var(f) refines."""
    seen = []

    def record(int_coeffs, roots):
        seen.append((list(int_coeffs), list(roots)))
        return roots

    with monkeypatch.context() as m:
        m.setattr(mahler_module, "_refine_exact", record)
        try:
            mahler_1var(f)
        except RootFindingError:
            pass  # unrefined roots may miss the residual gate
    return seen


def _assert_refinements_agree(monkeypatch, f):
    inputs = _refinement_inputs(monkeypatch, f)
    for int_coeffs, roots in inputs:
        got = mahler_module._refine_exact(int_coeffs, roots)
        want = refine_exact_fraction(int_coeffs, roots)
        assert [(z.real, z.imag) for z in got] == [(z.real, z.imag) for z in want]
    return inputs


@pytest.mark.parametrize("seed", range(300))
def test_dyadic_refinement_matches_fraction_oracle_on_random_polys(monkeypatch, seed):
    # a third are squares, so they have repeated roots; degree at most 14 either way
    rng = random.Random(3000 + seed)
    squared = seed % 3 == 0
    f = _random_int_poly(rng, rng.randint(1, 7 if squared else 14))
    _assert_refinements_agree(monkeypatch, f * f if squared else f)


@pytest.mark.parametrize(
    "f",
    [poly2("4 - x - x^-1 - y - y^-1").substitute_power(s) for s in (8, 16, 24, 32)]
    + [poly1("x^2-4x+1") ** k for k in range(1, 9)]
    + [poly1("x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1")],
    ids=[f"grid-x^{s}" for s in (8, 16, 24, 32)] + [f"power-{k}" for k in range(1, 9)] + ["lehmer"],
)
def test_dyadic_refinement_matches_fraction_oracle(monkeypatch, f):
    assert _assert_refinements_agree(monkeypatch, f)


def test_closed_forms_at_degree_256_and_128():
    assert abs(mahler_1var(poly1("x^256 - 2")).value - math.log(2)) < 1e-12
    # roots x^64 = phi^2 or phi^-2, so 64 roots of modulus phi^(1/32) lie outside
    phi = (1 + math.sqrt(5)) / 2
    assert abs(mahler_1var(poly1("x^128 - 3x^64 + 1")).value - 2 * math.log(phi)) < 1e-12


@pytest.mark.xfail(strict=True, raises=(AssertionError, RootFindingError))
def test_high_multiplicity_power_matches_closed_form():
    # Aberth stalls on 16-fold roots: k = 12 is already 6.6e-8 off and k = 16
    # fails the root-sum identity; removing repeated roots first should fix it
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
    # all y-coefficients vanish at x = -1; the node moves half a step
    f = poly2("y + x*y + y^-1 + x*y^-1")
    val = _fiber_measure(f, 0.5, 0.125)
    assert math.isfinite(val)
    res = mahler_2var(f, fibers=64)
    assert math.isfinite(res.value)


def test_dispatch_helper():
    assert mahler(poly1("x^2-4x+1")).method == "jensen-roots"
    assert mahler(poly2("4 - x - x^-1 - y - y^-1"), fibers=64).method == "fiberwise"


def test_growth_matches_mahler_for_ladder_at_64():
    from lapgraph.library import ladder_quotient
    from lapgraph.spanning import growth_covers

    report = growth_covers(ladder_quotient(), [64])
    gap = abs(report.rows[-1][2] - report.reference)
    # exact asymptotics: tau(CL_n) = (n/2)((2+sqrt3)^n + (2-sqrt3)^n) - n,
    # so the gap at n = 64 is log(n/2)/n + o(1/n), about 0.0542
    assert gap < 0.06
    report128 = growth_covers(ladder_quotient(), [128])
    assert abs(report128.rows[-1][2] - report.reference) < gap
