"""Laurent polynomial arithmetic, normalization, gcd, and the text syntax."""

import importlib
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _long_divmod, gcd_fold_prefixes, laurent_gcd_euclid, laurent_gcd_prs, laurent_gcd_pseudo_rem
from lapgraph import fields as fields_module
from lapgraph import laurent as laurent_module
from lapgraph.fields import GF2, QQ, ZZ, IntegerRing, PrimeField, RationalField
from lapgraph.laurent import (
    LaurentPoly,
    PolyParseError,
    _divmod,
    divexact,
    divides,
    format_poly,
    gcd_many,
    laurent_gcd,
    normalize,
    parse_poly,
    try_divexact,
)

X = LaurentPoly.variable(0, 1)
XINV = LaurentPoly.monomial(1, (-1,))


def poly1(text):
    return parse_poly(text, nvars=1)


def poly2(text):
    return parse_poly(text, nvars=2)


# -- arithmetic -------------------------------------------------------------------


def test_product_of_units_expands():
    assert (X - 1) * (XINV - 1) == poly1("2 - x - x^-1")


def test_ladder_determinant_expansion():
    d = poly1("3 - x - x^-1")
    assert d * d - 1 == poly1("x^-2 - 6*x^-1 + 10 - 6*x + x^2")


def test_additive_identity():
    f = poly1("3*x^2 - x + 7")
    assert f + LaurentPoly.zero(1) == f


def test_mismatched_variable_count_rejected():
    with pytest.raises(ValueError):
        poly1("x + 1") + poly2("y")


def test_power():
    assert (X - 1) ** 3 == poly1("x^3 - 3x^2 + 3x - 1")
    assert (X - 1) ** 0 == poly1("1")


small_coeffs = st.integers(min_value=-6, max_value=6)


@st.composite
def laurent_polys(draw, nvars=1, max_terms=5, max_exp=3):
    terms = draw(st.integers(min_value=0, max_value=max_terms))
    coeffs = {}
    for _ in range(terms):
        e = tuple(
            draw(st.integers(min_value=-max_exp, max_value=max_exp)) for _ in range(nvars)
        )
        c = draw(small_coeffs)
        if c:
            coeffs[e] = c
    return LaurentPoly(nvars, coeffs)


@settings(max_examples=200, deadline=None)
@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)


@settings(max_examples=200, deadline=None)
@given(laurent_polys(nvars=2), laurent_polys(nvars=2))
def test_two_variable_commutativity(f, g):
    assert f * g == g * f
    assert f + g == g + f


# -- normalize ----------------------------------------------------------------------


def test_normalize_examples():
    assert normalize(poly1("2 - x - x^-1"), ZZ) == poly1("1 - 2x + x^2")
    assert normalize(poly1("x^-1 - 4 + x").shift((-2,)), ZZ) == poly1("1 - 4x + x^2")
    f = (X - 1) ** 2 * poly1("x^2 - 4x + 1")
    shifted = -f.shift((-2,))
    assert normalize(shifted, ZZ) == normalize(f, ZZ)


def test_normalize_zero_is_zero():
    # zero is its own unit class, in every domain
    for dom in (ZZ, QQ, GF2, GF5):
        for nvars in (1, 2):
            got = normalize(LaurentPoly.zero(nvars), dom)
            assert got.is_zero() and got.nvars == nvars


def test_normalize_rationals_gives_primitive_integers():
    from fractions import Fraction

    f = poly1("2x^2 - 6x + 4").map_coefficients(lambda c: Fraction(c, 3))
    g = normalize(f, QQ)
    assert g == poly1("2 - 3x + x^2")


def test_normalize_gf2_least_coefficient_one():
    f = poly1("x^3 + x").reduce_to(GF2)
    g = normalize(f, GF2)
    assert g == poly1("1 + x^2").reduce_to(GF2)
    # integer input is reduced first, so the zero test and the shift see its image
    for text, want in (("2 + x", "1"), ("4 + 2x + 3x^2", "1"), ("2 + x^2 + x^3", "1 + x"), ("2 - 4x", "0")):
        assert normalize(poly1(text), GF2) == poly1(want)


@settings(max_examples=150, deadline=None)
@given(laurent_polys(), st.integers(min_value=-3, max_value=3), st.booleans())
def test_normalize_constant_on_integer_unit_classes(f, shift, flip):
    if f.is_zero():
        return
    u = f.shift((shift,))
    if flip:
        u = -u
    assert normalize(u, ZZ) == normalize(f, ZZ)


@settings(max_examples=150, deadline=None)
@given(
    laurent_polys(),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=6),
)
def test_normalize_constant_on_gf7_unit_classes(f, shift, scale):
    fld = PrimeField(7)
    assert normalize(f, fld) == normalize(f.reduce_to(fld), fld)
    f = f.reduce_to(fld)
    if f.is_zero():
        return
    u = f.shift((shift,)).map_coefficients(lambda c: fld.of(c * scale))
    assert normalize(u, fld) == normalize(f, fld)


@settings(max_examples=150, deadline=None)
@given(laurent_polys())
def test_normalize_idempotent(f):
    if f.is_zero():
        return
    g = normalize(f, ZZ)
    assert normalize(g, ZZ) == g


# -- degree span ----------------------------------------------------------------------


def test_degree_span_examples():
    lad = (X - 1) ** 2 * poly1("x^2 - 4x + 1")
    assert lad.degree_span() == (4,)
    assert poly1("5").degree_span() == (0,)
    assert poly2("4 - x - x^-1 - y - y^-1").degree_span() == (2, 2)


def test_degree_span_zero_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.zero(1).degree_span()


# -- division and gcd ----------------------------------------------------------------


def test_divides_examples():
    lad = (X - 1) ** 2 * poly1("x^2 - 4x + 1")
    assert divides((X - 1) ** 2, lad, ZZ)
    assert not divides(poly1("x^2 - 3"), lad, ZZ)
    q = divexact(lad, (X - 1) ** 2, ZZ)
    assert q * (X - 1) ** 2 == lad


@pytest.mark.parametrize("nvars", [1, 2])
def test_divides_tests_zero_after_reducing_into_the_domain(nvars):
    two_x, four_x, x = (LaurentPoly.monomial(c, (1,) * nvars) for c in (2, 4, 1))
    assert not divides(two_x, x, GF2)  # 2x is zero in GF(2), and zero divides only zero
    assert divides(two_x, four_x, GF2)
    assert divides(x, four_x, GF2) and divides(two_x, x, PrimeField(3))
    assert try_divexact(four_x, x, GF2) == LaurentPoly.zero(nvars)
    with pytest.raises(ZeroDivisionError):
        try_divexact(x, two_x, GF2)


GF5 = PrimeField(5)
GF_P61 = PrimeField(2**61 - 1)
DOMAINS = (ZZ, QQ, GF5)


@pytest.mark.parametrize("seed", range(40))
def test_divexact_inverts_multiplication(seed):
    rng = random.Random(seed)
    for dom in DOMAINS:
        for nvars in (1, 2):
            f = _random_poly(rng, nvars).reduce_to(dom)
            g = _random_poly(rng, nvars).reduce_to(dom)
            if dom is QQ:
                g = g * Fraction(rng.randint(1, 4), rng.randint(1, 4))
            if f.is_zero() or g.is_zero():
                continue
            assert divexact(f * g, g, dom) == f
            # a perturbed product must never report a bogus quotient
            q = try_divexact(f * g + 1, g, dom)
            assert q is None or (q * g).reduce_to(dom) == (f * g + 1).reduce_to(dom)


@pytest.mark.parametrize("seed", range(40))
def test_divexact_rejects_remainders_narrower_than_the_divisor(seed):
    # If g divided f*g + r it would divide r, and spans add under
    # multiplication; so r != 0 narrower than g in some variable forbids it.
    rng = random.Random(3000 + seed)
    for dom in DOMAINS:
        for nvars in (1, 2):
            f = _random_poly(rng, nvars)
            g = _random_poly(rng, nvars, max_terms=5).reduce_to(dom)
            span = (0,) if g.is_zero() else g.degree_span()
            v = span.index(max(span))
            if span[v] == 0:
                continue
            # fold r's exponents in variable v into span[v] consecutive values
            lo = rng.randint(-3, 3)
            terms = _random_poly(rng, nvars, max_exp=3).coeffs.items()
            r = LaurentPoly(
                nvars, {e[:v] + (lo + e[v] % span[v],) + e[v + 1 :]: c for e, c in terms}
            ).reduce_to(dom)
            if r.is_zero():
                continue
            assert r.degree_span()[v] < span[v]
            assert try_divexact(f * g + r, g, dom) is None
            assert not divides(g, f * g + r, dom)


@pytest.mark.parametrize("seed", range(20))
def test_divmod_gives_the_euclidean_remainder(seed):
    # Build f = q*g + r with deg r < deg g over a field; (q, r) is unique.
    rng = random.Random(5000 + seed)
    for dom in (QQ, GF5):
        deg = rng.randint(0, 4)
        lead = {(deg,): rng.randint(1, 4)}  # nonzero mod 5
        g = LaurentPoly(1, {(i,): rng.randint(-4, 4) for i in range(deg)} | lead).reduce_to(dom)
        q = LaurentPoly(1, {(i,): rng.randint(-4, 4) for i in range(rng.randint(0, 4))}).reduce_to(dom)
        r = LaurentPoly(1, {(i,): rng.randint(-4, 4) for i in range(deg)}).reduce_to(dom)
        assert _divmod((q * g + r).reduce_to(dom), g, dom) == (q, r)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("dom", [ZZ, GF5, GF_P61], ids=repr)
def test_divmod_makes_no_integer_coercion_and_keeps_prime_fields_reduced(seed, dom, monkeypatch):
    # over ZZ an int minus an int is an int, so no IntegerRing.of; over GF(p)
    # every updated coefficient is reduced
    rng = random.Random(5100 + seed)
    polys = []
    while len(polys) < 3:
        p = _random_poly(rng, 2, max_terms=5).reduce_to(dom)
        if p:
            polys.append(p.shift(tuple(-p.min_exp(v) for v in range(2))))
    q, g, r = polys
    if dom == ZZ:
        g = g * rng.choice([1, 1, 2, -3])  # a leading coefficient that may not divide
    f = (q * g + r).reduce_to(dom)
    want = _long_divmod(f, g, dom)
    coerced = []
    of = IntegerRing.of
    monkeypatch.setattr(IntegerRing, "of", lambda self, n: coerced.append(n) or of(self, n))
    got = _divmod(f, g, dom)
    assert not coerced
    assert got == want
    for poly in got:
        assert all(type(c) is int for c in poly.coeffs.values())
        if dom != ZZ:
            assert all(0 < c < dom.p for c in poly.coeffs.values())


def _random_poly(rng, nvars, max_terms=4, max_exp=2):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-max_exp, max_exp) for _ in range(nvars))
        c = rng.randint(-5, 5)
        if c:
            coeffs[e] = c
    return LaurentPoly(nvars, coeffs)


@pytest.mark.parametrize("seed", range(30))
def test_gcd_divides_both_and_catches_common_factor(seed):
    rng = random.Random(1000 + seed)
    for nvars in (1, 2):
        c = _random_poly(rng, nvars, max_terms=3, max_exp=1)
        f = _random_poly(rng, nvars)
        g = _random_poly(rng, nvars)
        if c.is_zero() or f.is_zero() or g.is_zero():
            continue
        a, b = c * f, c * g
        h = laurent_gcd(a, b, ZZ)
        assert divides(h, a, ZZ) and divides(h, b, ZZ)
        assert divides(normalize(c, QQ), h, QQ)


def test_gcd_over_gf2():
    a = ((X - 1) ** 2 * poly1("x^2 - 4x + 1")).reduce_to(GF2)
    b = ((X - 1) ** 3).reduce_to(GF2)
    assert laurent_gcd(a, b, GF2) == poly1("1 + x + x^2 + x^3").reduce_to(GF2)


def test_gcd_two_variables():
    core = poly2("4 - x - x^-1 - y - y^-1")
    f = (core + 1) * (core - 3)
    g = (core + 1) * poly2("x*y - 2")
    assert laurent_gcd(f, g, ZZ) == normalize(core + 1, ZZ)


@pytest.mark.parametrize("seed", range(60))
def test_rational_gcd_two_variables_matches_pseudo_remainder_oracle(seed):
    rng = random.Random(7000 + seed)

    def rational(**sizes):
        while True:
            f = _random_poly(rng, 2, **sizes)
            if not f.is_zero():
                return f.map_coefficients(lambda c: Fraction(c, rng.randint(1, 4)))

    h = rational(max_terms=3, max_exp=1)
    f = rational()
    g = rational()
    got = laurent_gcd(f * h, g * h, QQ)
    want = laurent_gcd_pseudo_rem(f * h, g * h, QQ)
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs.values()] == [type(c) for c in want.coeffs.values()]
    assert divides(normalize(h, QQ), got, QQ)


def test_rational_gcd_of_a_coprime_pair_is_one():
    # over QQ the Fraction pseudo-remainder sequence took 25 s on this pair
    f = poly2("3x^-3 + x^-1y^-2 - 3xy^-3 + 6x^3 - 5x^2y^2")
    g = poly2("-6x^-3y^-2 + 3x^-2y^-3 - 5y^-3 - 3x^-3y^2 - 3x^2y^-1")
    assert laurent_gcd(f, g, QQ) == LaurentPoly.constant(1, 2)


def _gcd_case(rng, nvars, dom, kind):
    """Random f*h and g*h; kind picks what h, f or g is made of."""
    frac = isinstance(dom, RationalField)

    def rand(nv=nvars, **sizes):
        while True:
            p = _random_poly(rng, nv, **sizes)
            if not p.is_zero():
                return p.map_coefficients(lambda c: Fraction(c, rng.randint(1, 4))) if frac else p

    h, f, g = rand(max_terms=3, max_exp=1), rand(), rand()
    if kind == "integer content":
        h = h * rng.choice([2, 3, 6, 10])
    elif kind == "content in y" and nvars == 2:
        h = LaurentPoly(2, {(0, b): c for (b,), c in rand(1).coeffs.items()})
    elif kind == "free of x":
        f = LaurentPoly(nvars, {(0,) + e[1:]: c for e, c in f.coeffs.items()})
    elif kind == "unit":
        f = LaurentPoly.monomial(rng.choice([1, -1]), tuple(rng.randint(-2, 2) for _ in range(nvars)))
    return f * h, g * h


def _spy_prs_gcd(monkeypatch):
    """The variable counts of the inputs that ``_prs_gcd`` is called with."""
    calls = []
    prs = laurent_module._prs_gcd
    monkeypatch.setattr(laurent_module, "_prs_gcd", lambda a, b, dom: calls.append(a.nvars) or prs(a, b, dom))
    return calls


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("dom", [ZZ, QQ, GF2, PrimeField(3), GF5, GF_P61], ids=repr)
def test_gcd_matches_the_oracle_over_the_domain_itself(seed, dom, monkeypatch):
    rng = random.Random(9000 + seed)
    calls = _spy_prs_gcd(monkeypatch)
    for nvars, oracle in ((1, laurent_gcd_euclid), (2, laurent_gcd_pseudo_rem)):
        for kind in ("plain", "integer content", "content in y", "free of x", "unit"):
            a, b = _gcd_case(rng, nvars, dom, kind)
            zero = LaurentPoly.zero(nvars)
            # also inputs that are zero or vanish mod 2 and 5, against the sequence alone
            for f, g in ((a, b), (zero, b), (a, zero), (zero, zero), (10 * a, b), (10 * a, 10 * b)):
                got = laurent_gcd(f, g, dom)
                wants = [laurent_gcd_prs(f, g, dom)]
                if f.reduce_to(dom) and g.reduce_to(dom):
                    wants.append(oracle(f, g, dom))
                for want in wants:
                    assert got.coeffs == want.coeffs, (dom, kind, f, g)
                    assert [type(c) for c in got.coeffs.values()] == [type(c) for c in want.coeffs.values()]
    assert 1 not in calls  # one-variable gcds never take the pseudo-remainder sequence


_A, _B = laurent_module._POINTS  # the certificate's points y = _A and x = _B
_P61 = GF_P61.p
_BELOW = LaurentPoly(1, {(0,): 2**59, (1,): 2})  # lifts correctly
_ABOVE = LaurentPoly(1, {(0,): 2**61, (1,): 1})  # x + 1 mod P, which divides neither input
_P61_2 = 2**61 - 31
# (x - B)(y - A) + 1 is 1 at y = A and at x = B, so only the leading-coefficient test
# keeps a common factor of it from passing for a unit
_ONE_AT_BOTH = LaurentPoly(2, {(1, 1): 1, (1, 0): -_A, (0, 1): -_B, (0, 0): _A * _B + 1})
# (name, f, g, whether the pseudo-remainder sequence runs on the pair itself);
# a one-variable gcd never does, and the primes after P are _P61_2 and 2^61 - 45
CERTIFICATE_CASES = [
    ("1var unit", poly1("x + 2") * poly1("3x - 1"), poly1("x - 5") * 7, False),
    ("1var lifted gcd", poly1("6x - 4") * poly1("x + 3"), poly1("2x^2 + 3") * poly1("3x - 2"), False),
    ("1var gcd below 2^60", _BELOW * poly1("x + 3"), _BELOW * poly1("3x - 5"), False),
    ("1var lc divisible by P", (_P61 * X + 1) * poly1("x + 2"), poly1("x + 2") * poly1("x - 3"), False),
    ("1var lift wrong above 2^60", _ABOVE * poly1("x + 3"), _ABOVE * poly1("x - 5"), False),
    ("1var unlucky first prime", poly1("x - 1") * poly1("x + 5"), poly1("x - 1") * (X + 5 + _P61), False),
    ("1var unlucky second prime", _ABOVE * poly1("x + 5"), _ABOVE * (X + 5 + _P61_2), False),
    ("2var unit", poly2("x + y + 1") * 6, poly2("x*y - 2") * 4, False),
    ("2var x-lead vanishes at y = A", poly2("x*y + 1") - _A * poly2("x"), poly2("x + y"), True),
    ("2var y-lead vanishes at x = B", poly2("x*y + 1") - _B * poly2("y"), poly2("x + y"), True),
    ("2var gcd not a unit", poly2("x + y") * poly2("x - 2"), poly2("x + y") * poly2("y + 3"), True),
    ("2var common factor 1 at both points", _ONE_AT_BOTH * poly2("x + 2"), _ONE_AT_BOTH * poly2("y + 3"), True),
]


@pytest.mark.parametrize("name, f, g, fallback", CERTIFICATE_CASES, ids=[c[0] for c in CERTIFICATE_CASES])
def test_each_certificate_that_proves_nothing_falls_back_to_pseudo_remainders(
    name, f, g, fallback, monkeypatch
):
    calls = _spy_prs_gcd(monkeypatch)
    for a, b in ((f, g), (g, f), (f.shift((-3,) * f.nvars), g.shift((1,) * g.nvars))):
        calls.clear()
        got = laurent_gcd(a, b, ZZ)
        for oracle in (laurent_gcd_prs, laurent_gcd_euclid) if f.nvars == 1 else (laurent_gcd_prs,):
            want = oracle(a, b, ZZ)
            assert got.coeffs == want.coeffs and all(type(c) is int for c in got.coeffs.values()), name
        assert (f.nvars in calls) == fallback, name


def test_the_primes_of_the_modular_gcd_are_found_once(monkeypatch):
    f, g, want = _ABOVE * poly1("x + 5"), _ABOVE * (X + 5 + _P61_2), _ABOVE
    assert laurent_gcd(f, g, ZZ) == want  # finds the first three primes, if nothing has yet
    tests, is_prime = [], fields_module.is_prime
    for module in (fields_module, laurent_module):
        monkeypatch.setattr(module, "is_prime", lambda n: tests.append(n) or is_prime(n))
    assert laurent_gcd(f, g, ZZ) == want
    assert not tests
    assert [fld.p - 2**61 for fld in laurent_module._PRIMES[:3]] == [-1, -31, -45]


def _fold_cases(rng):
    """Lists of Laurent polynomials for gcd_many: all zero, zero first,
    inputs that vanish mod 2, 3 or 5, units first, mid-list and after zeros
    (-1 and +-x^a over ZZ, 3 over GF(5), 1/3 over QQ), a gcd that stays 2
    over ZZ, and random ones with a common factor."""
    z1, z2 = LaurentPoly.zero(1), LaurentPoly.zero(2)
    third = LaurentPoly.constant(Fraction(1, 3), 1)
    cases = [
        [z1],
        [z1, z1, z1],
        [z2, z2],
        [z1, poly1("2x - 2"), poly1("x^2 - 1")],
        [z2, poly2("2x*y - 2"), z2, poly2("x^2*y^2 - 1")],
        [poly1("10x + 20"), poly1("6x - 3"), poly1("x^2 - 1")],
        [poly1("10"), poly1("5x - 15x^-1"), z1],
        [poly2("2x*y - 4"), z2, poly2("6y + 10x")],
        [poly2("15x - 30y"), poly2("5y^-1")],
        [poly1("1"), poly1("x^2 - 1"), poly1("2x")],
        [poly1("x^2 - 1"), poly1("x^2 + x"), poly1("x + 2"), poly1("x^3 - 5")],
        [poly1("-1"), poly1("x - 1")],
        [poly1("2x + 2"), poly1("-x^3"), poly1("x + 1")],
        [poly2("x*y - 1"), poly2("x^-2*y"), z2],
        [poly2("6x - 6y"), poly2("-x*y^-1"), poly2("2")],
        [poly1("5x - 5"), poly1("3"), poly1("x - 1")],
        [poly1("6x^2 - 6"), third, poly1("x + 1")],
        [third * poly1("x - 1"), third * poly1("x^2 - 1")],
        [poly1("2"), poly1("2x + 4"), poly1("-2x^3"), poly1("6")],
        [poly2("2x - 2y"), poly2("4x^2*y^-1"), poly2("-2")],
        [z1, z1, poly1("x^-4"), poly1("x + 1")],
        [z2, poly2("-y^3"), poly2("x - y")],
    ]
    coeffs = (-10, -6, -5, -2, -1, 1, 2, 3, 5, 6, 10)
    for _ in range(12):
        nvars = rng.choice((1, 2))

        def rand_poly():
            return LaurentPoly(
                nvars,
                {
                    tuple(rng.randint(-2, 2) for _ in range(nvars)): rng.choice(coeffs)
                    for _ in range(rng.randint(1, 3))
                },
            )

        common = rand_poly()
        cases.append(
            [
                LaurentPoly.zero(nvars) if rng.random() < 0.3 else common * rand_poly()
                for _ in range(rng.randint(1, 5))
            ]
        )
    return cases


@pytest.mark.parametrize("dom", [ZZ, QQ, GF2, GF5], ids=repr)
def test_gcd_many_folds_a_one_shot_generator(dom, monkeypatch):
    """A generator gives the list's gcd, coefficient types included; the
    inputs are read in order, each is reduced into the domain once, right
    after it is read, and folded before the next one is read (no list of
    inputs): ``_gcd`` gets each image that does not vanish there, after the
    first, and reading stops right after the first input that brings the full
    fold's gcd to 1."""
    for polys in _fold_cases(random.Random(2024)):
        if dom == ZZ and any(isinstance(c, Fraction) for p in polys for c in p.coeffs.values()):
            continue
        want = gcd_many(polys, dom)
        nonzero = [p for p in polys if p.reduce_to(dom)]
        assert want == (gcd_many(nonzero, dom) if nonzero else LaurentPoly.zero(polys[0].nvars))
        prefixes = gcd_fold_prefixes(polys, dom)
        assert want == prefixes[-1], (dom, polys)
        assert [type(c) for c in want.coeffs.values()] == [type(c) for c in prefixes[-1].coeffs.values()]
        stop = prefixes.index(1) + 1 if want == 1 else len(polys)
        order, seen = [], False  # seen: a nonzero image came before
        for p in polys[:stop]:
            image = normalize(p, QQ) if dom == QQ else p.reduce_to(dom)
            order += [("read", None), ("reduce", None)]
            if image and seen:
                order.append(("gcd", image))
            seen = seen or bool(image)

        # the fold's own calls, not those made inside _gcd or normalize (which reduces over GF(p))
        events, inside = [], []

        def spy(name, call):
            def spied(*args):
                if not inside:
                    events.append((name, args[1] if name == "gcd" else None))
                inside.append(name)
                try:
                    return call(*args)
                finally:
                    inside.pop()

            return spied

        monkeypatch.setattr(laurent_module, "_gcd", spy("gcd", laurent_module._gcd))
        monkeypatch.setattr(laurent_module, "normalize", spy("normalize", normalize))
        monkeypatch.setattr(LaurentPoly, "reduce_to", spy("reduce", LaurentPoly.reduce_to))

        def one_shot():
            for p in polys:
                events.append(("read", None))
                yield p

        got = gcd_many(one_shot(), dom)
        monkeypatch.undo()
        assert got == want, (dom, polys)
        assert [type(c) for c in got.coeffs.values()] == [type(c) for c in want.coeffs.values()]
        assert [e for e in events if e[0] != "normalize"] == order, (dom, polys)
    with pytest.raises(ValueError):
        gcd_many(iter(()), dom)


def test_gcd_of_inputs_that_vanish_in_the_domain_is_zero():
    f, g = poly1("2x + 4"), poly1("6")
    assert laurent_gcd(f, g, GF2).is_zero()
    assert gcd_many([f, g], GF2).is_zero()
    assert gcd_many([poly2("3x*y - 6"), poly2("9y^-1")], PrimeField(3)) == LaurentPoly.zero(2)


@pytest.mark.parametrize("dom", [ZZ, QQ, GF2, GF5], ids=repr)
def test_gcd_refuses_a_float_coefficient(dom):
    # over ZZ the gcd of 2.5 + x and 1 + x used to come out as 1 (2.5 truncated to 2),
    # over QQ it died on 'float' object has no attribute 'denominator'
    f = LaurentPoly(1, {(0,): 2.5, (1,): 1})
    with pytest.raises(ValueError, match="2.5 is not an int or a Fraction"):
        laurent_gcd(f, poly1("1 + x"), dom)


def test_rational_gcd_runs_no_rational_division(monkeypatch):
    # both long divisions: on LaurentPoly (two variables) and on dense lists
    domains = []

    def spy(divide):
        return lambda f, g, dom: domains.append(dom) or divide(f, g, dom)

    monkeypatch.setattr(laurent_module, "_divmod", spy(_divmod))
    monkeypatch.setattr(laurent_module, "_list_divmod", spy(laurent_module._list_divmod))
    h = poly1("2x - 1").map_coefficients(lambda c: Fraction(c, 3))
    for f, g in (
        (h * poly1("3x + 1"), h * poly1("x^2 + 5")),
        (poly2("x*y + 2").map_coefficients(lambda c: Fraction(c, 3)), poly2("x^2 - y^2 + 1")),
    ):
        laurent_gcd(f, g, QQ)
        gcd_many([f, g, f * g], QQ)
    assert domains and not any(isinstance(d, RationalField) for d in domains)


def test_gcd_keeps_its_own_domains_after_a_reimport(monkeypatch):
    # a re-import puts a second lapgraph.fields in sys.modules (as a benchmark
    # that imports afresh does); the gcd must not pick up its QQ at call time
    laurent = importlib.import_module("lapgraph.laurent")
    for name in [m for m in sys.modules if m.split(".")[0] == "lapgraph"]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("lapgraph.fields")
    common = poly1("2x + 1")
    got = laurent.laurent_gcd(common * poly1("x - 3"), common * poly1("x + 5"), ZZ)
    assert got == common and all(type(c) is int for c in got.coeffs.values())


def _stores_no_zero(f, dom=None):
    return all(c if dom is None else dom.of(c) for c in f.coeffs.values())


@settings(max_examples=150, deadline=None)
@given(laurent_polys(nvars=2), laurent_polys(nvars=2), st.integers(min_value=-2, max_value=2))
def test_no_operation_stores_a_zero_coefficient(f, g, s):
    for h in (f + g, f - g, f - f, f * g, f * 0, (f * g).substitute_power(s)):
        assert _stores_no_zero(h)
    for dom in DOMAINS:
        for h in (f + g, f - g, f * g):
            assert _stores_no_zero(h.reduce_to(dom), dom)
        if not g.reduce_to(dom).is_zero():
            assert _stores_no_zero(divexact(f * g, g, dom), dom)


def test_cancellations_leave_no_zero_coefficient():
    assert parse_poly("x - x").coeffs == {}
    assert poly2("x*y^-1 - 1").substitute_power(1).coeffs == {}
    assert (poly1("3x + 1") + poly1("2x")).reduce_to(GF5).coeffs == {(0,): 1}
    # (x + 1)(x + 4) = x^2 + 5x + 4, whose middle term vanishes mod 5
    assert divexact(poly1("x^2 + 5x + 4"), poly1("x + 1"), GF5).coeffs == {(0,): 4, (1,): 1}
    assert divexact(poly1("x^2 + 4"), poly1("x + 4"), GF5).coeffs == {(0,): 1, (1,): 1}


# -- evaluation and substitution ----------------------------------------------------


def test_exact_evaluation_at_one():
    two = poly2("4 - x - x^-1 - y - y^-1")
    assert two.evaluate(1, 1) == 0
    assert isinstance(two.evaluate(1, 1), int) or two.evaluate(1, 1) == 0


def test_substitute_power():
    two = poly2("4 - x - x^-1 - y - y^-1")
    assert two.substitute_power(1) == poly1("4 - 2x - 2x^-1")
    assert two.substitute_power(2) == poly1("4 - x - x^-1 - x^2 - x^-2")


def test_reciprocal():
    f = poly1("1 + 2x - x^3")
    assert f.reciprocal() == poly1("1 + 2x^-1 - x^-3")


# -- text syntax ----------------------------------------------------------------------


def test_format_sorted_by_total_degree_then_lex():
    f = poly1("x^2 - 4x + 1")
    assert format_poly(f) == "1 - 4*x + x^2"
    lad = (X - 1) ** 2 * poly1("x^2 - 4x + 1")
    assert format_poly(normalize(lad, ZZ)) == "1 - 6*x + 10*x^2 - 6*x^3 + x^4"


def test_parse_negative_exponents_and_implicit_coefficients():
    f = parse_poly("4-x-x^-1-y-y^-1")
    assert f.nvars == 2
    assert f.coeffs == {(0, 0): 4, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1}


def test_parse_star_and_spaces():
    assert parse_poly("2*x^2 - 3*x*y + y^-2") == parse_poly("2x^2-3xy+y^-2")


@settings(max_examples=150, deadline=None)
@given(laurent_polys(nvars=1), laurent_polys(nvars=2))
def test_format_parse_round_trip(f, g):
    if not f.is_zero():
        assert parse_poly(format_poly(f), nvars=1) == f
    if not g.is_zero():
        assert parse_poly(format_poly(g), nvars=2) == g


def test_parse_errors():
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("x^")
    with pytest.raises(PolyParseError):
        parse_poly("3 + z")


@pytest.mark.parametrize("text", ["x^2 - 4x +", "x -", "*", "*x", "x + * y", "2 - *3", "\u0663x", "3\u00b2"])
def test_parse_rejects_dangling_signs_leading_stars_and_non_ascii_digits(text):
    with pytest.raises(PolyParseError):
        parse_poly(text)


def _render_term(rng, first, nvars):
    """A random surface form of one random term, and the term it denotes."""
    ints = [rng.randint(0, 10**25) if rng.random() < 0.05 else rng.randint(1, 12) for _ in range(rng.randint(0, 2))]
    pieces = [(rng.randrange(nvars), rng.randint(-4, 4)) for _ in range(rng.randint(0, 3))]
    if not ints and not pieces:
        ints = [rng.randint(0, 9)]
    factors = [("int", str(a)) for a in ints]
    for v, a in pieces:
        name = "xy"[v]
        if a == 1 and rng.random() < 0.5:
            factors.append(("var", name))
        else:
            factors.append(("pow", f"{name}^{'+' if a >= 0 and rng.random() < 0.3 else ''}{a}"))
    rng.shuffle(factors)
    text = factors[0][1]
    for (kind, _), (next_kind, factor) in zip(factors, factors[1:]):
        glued = next_kind != "int" or kind == "var"  # "23" and "x^23" would merge
        text += rng.choice(["", " ", "*", " * ", "  *"] if glued else [" ", "*", " * ", "  *"]) + factor
    minus = rng.randint(0, 2)
    signs = ["-"] * minus + ["+"] * rng.randint(0 if first else int(not minus), 1)
    rng.shuffle(signs)
    text = "".join(sg + rng.choice(["", " "]) for sg in signs) + text
    coeff = (-1) ** minus * math.prod(ints)
    exps = [0] * nvars
    for v, a in pieces:
        exps[v] += a
    return text, coeff, tuple(exps)


@pytest.mark.parametrize("seed", range(4))
def test_parse_reads_back_random_surface_forms(seed):
    rng = random.Random(9100 + seed)
    for _ in range(300):
        nvars = rng.choice((1, 2))
        coeffs, parts = {}, []
        for k in range(rng.randint(1, 5)):
            text, c, e = _render_term(rng, k == 0, nvars)
            coeffs[e] = coeffs.get(e, 0) + c
            parts.append(text)
        text = "".join(p + rng.choice(["", " ", "  "]) for p in parts).strip()
        want = LaurentPoly(nvars, coeffs)
        assert parse_poly(text, nvars=nvars) == want, text
        if nvars == 1 or "y" in text:
            assert parse_poly(text) == want, text
