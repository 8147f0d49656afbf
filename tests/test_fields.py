"""Coefficient domains: the reduction map ``of``, ``inv``, and domain specs."""

import time
from fractions import Fraction

import pytest

from lapgraph.fields import (
    GF2,
    QQ,
    ZZ,
    IntegerRing,
    PrimeField,
    RationalField,
    domain_from_spec,
    is_prime,
    parse_int,
)

GF5 = PrimeField(5)
GF7 = PrimeField(7)


@pytest.mark.parametrize(
    "dom, n, want",
    [
        (GF2, 3, 1),
        (GF2, -4, 0),
        (GF5, -1, 4),
        (GF5, 12, 2),
        (GF7, Fraction(1, 3), 5),
        (GF7, Fraction(-2, 5), 1),
        (GF5, Fraction(10, 3), 0),
        (GF5, Fraction(6, 2), 3),
    ],
)
def test_prime_field_of_reduces_into_range_p(dom, n, want):
    got = dom.of(n)
    assert got == want and type(got) is int
    assert 0 <= got < dom.p


@pytest.mark.parametrize("n", [-3, 0, 7, Fraction(-5, 6), Fraction(4, 2)])
def test_rationals_of_is_a_fraction(n):
    got = QQ.of(n)
    assert got == n and type(got) is Fraction


@pytest.mark.parametrize("n", [-3, 0, 7, Fraction(6, 3), Fraction(-4, 1)])
def test_integers_of_is_an_int(n):
    got = ZZ.of(n)
    assert got == n and type(got) is int


def test_prime_field_of_rejects_a_denominator_divisible_by_p():
    with pytest.raises(ZeroDivisionError, match="denominator divisible by p"):
        GF5.of(Fraction(1, 10))
    with pytest.raises(ZeroDivisionError, match="denominator divisible by p"):
        GF2.of(Fraction(3, 4))


def test_integers_of_rejects_a_proper_fraction():
    with pytest.raises(ValueError, match="1/2 is not an integer"):
        ZZ.of(Fraction(1, 2))


@pytest.mark.parametrize("dom", [ZZ, QQ, GF2, GF5])
@pytest.mark.parametrize("n", [2.7, 2.5, 2.0, "1/2", complex(1, 0)])
def test_of_rejects_a_value_that_is_neither_an_int_nor_a_fraction(dom, n):
    # a float used to be truncated over ZZ (2.7 -> 2) and kept over GF(5) (2.5)
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        dom.of(n)


@pytest.mark.parametrize("dom", [GF2, GF5, GF7])
def test_prime_field_inv(dom):
    for a in range(1, dom.p):
        assert dom.of(a * dom.inv(a)) == 1
    with pytest.raises(ZeroDivisionError, match="inverse of 0"):
        dom.inv(0)
    with pytest.raises(ZeroDivisionError, match="inverse of 0"):
        dom.inv(dom.p)


def test_rational_inv():
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert type(QQ.inv(4)) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_only_the_fields_invert():
    assert GF5.is_field and QQ.is_field and not ZZ.is_field
    assert not hasattr(ZZ, "inv")


@pytest.mark.parametrize("dom", [GF2, GF5, QQ, ZZ])
def test_zero_and_one_are_elements(dom):
    assert dom.of(dom.zero) == dom.zero and not dom.zero
    assert dom.of(dom.one) == dom.one == 1
    assert type(dom.of(0)) is type(dom.zero)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 15, -3])
def test_prime_field_rejects_a_non_prime(p):
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(p)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_10_5():
    assert [n for n in range(-5, 10**5) if is_prime(n)] == [
        n for n in range(-5, 10**5) if _is_prime_by_trial_division(n)
    ]


@pytest.mark.parametrize("n", [561, 41041, 2047, 3215031751, 2**61 + 1])
def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes(n):
    # 561 and 41041 are Carmichael numbers; 2047 and 3215031751 are strong
    # pseudoprimes to base 2
    assert not is_prime(n)
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(n)


def test_a_61_bit_mersenne_prime_is_a_field_at_once():
    start = time.perf_counter()
    field = PrimeField(2**61 - 1)
    assert time.perf_counter() - start < 0.1
    assert field.of(field.inv(3) * 3) == 1


def test_primality_above_the_miller_rabin_bound_is_not_guessed():
    # the bound itself is a strong pseudoprime to every base 2..41
    with pytest.raises(ValueError, match="cannot decide whether 3317044064679887385961981 is prime"):
        PrimeField(3317044064679887385961981)
    assert not is_prime(10**30) and not is_prime(2**89 + 1)
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(2**89 - 1)


def test_domains_compare_and_hash_by_value():
    assert PrimeField(5) == GF5 and hash(PrimeField(5)) == hash(GF5)
    assert GF5 != GF7 and GF5 != QQ and QQ != ZZ
    assert RationalField() == QQ and IntegerRing() == ZZ
    assert len({GF2, PrimeField(2), GF5, QQ, RationalField(), ZZ}) == 4
    assert [repr(d) for d in (GF5, QQ, ZZ)] == ["GF(5)", "QQ", "ZZ"]


@pytest.mark.parametrize(
    "spec, want",
    [("q", QQ), ("z", ZZ), ("gf:2", GF2), (" GF:7 ", GF7), ("Q", QQ)],
)
def test_domain_from_spec(spec, want):
    assert domain_from_spec(spec) == want


@pytest.mark.parametrize(
    "spec, match",
    [
        ("r", "expected q, z, or gf:P"),
        ("", "expected q, z, or gf:P"),
        ("gf:", "bad field spec"),
        ("gf:x", "bad field spec"),
        ("gf:4", "4 is not prime"),
        ("gf:1", "1 is not prime"),
        # P follows the graph files' integer rule: int() would read these as 2, 11 and 7
        ("gf:\u0662", "bad field spec"),
        ("gf:1_1", "bad field spec"),
        ("gf:\uff17", "bad field spec"),
    ],
)
def test_domain_from_spec_rejects(spec, match):
    with pytest.raises(ValueError, match=match):
        domain_from_spec(spec)


@pytest.mark.parametrize(
    "text, want", [("0", 0), ("-12", -12), ("+7", 7), (" 3\t", 3), ("007", 7), (str(10**30), 10**30)]
)
def test_parse_int_reads_a_sign_and_ascii_digits(text, want):
    assert parse_int(text) == want


@pytest.mark.parametrize("text", ["", "+", "\u0661", "1_0", "\u00b2", "\uff16\uff14", "+-1", "1.0", "0x10", "1 2"])
def test_parse_int_refuses_what_graph_files_refuse(text):
    with pytest.raises(ValueError, match="bad integer"):
        parse_int(text)
