"""Determinants, nullspaces, and elementary divisors."""

import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import (
    all_minor_dets,
    bareiss_det,
    bareiss_det_laurent,
    cofactor_det_poly,
    elementary_divisor_reduce_first,
    example,
    first_nonzero_divisor,
    fraction_det,
    gcd_fold_all,
    gcd_fold_prefixes,
    random_voltage_graph,
    rref_fraction,
    sized_voltage_graph,
    sparse_rows,
)
from lapgraph import linalg as linalg_module
from lapgraph.fields import GF2, QQ, ZZ, PrimeField, RationalField
from lapgraph.graphio import parse_graph_file
from lapgraph.graphs import (
    RectangleSpec,
    SublatticeSpec,
    cover_graph,
    laplacian_finite,
    restriction_subgraph,
    voltage_laplacian,
)
from lapgraph.laurent import LaurentPoly, divides, normalize, parse_poly
from lapgraph.linalg import (
    det_laurent,
    elementary_divisor,
    int_det,
    int_matrix_to_poly,
    nullspace,
    row_space_canonical,
    rref,
)

GF3 = PrimeField(3)
GF5 = PrimeField(5)


def test_int_det_against_cofactor_thousand_cases():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert cofactor_det_poly(int_matrix_to_poly(M)) == int_det(sparse_rows(M))


def _random_int_matrix(rng, n, density):
    M = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    if n >= 3 and rng.random() < 0.25:  # singular: one row a combination of two others
        a, b, c = rng.sample(range(n), 3)
        M[a] = [x - 2 * y for x, y in zip(M[b], M[c])]
    if n and rng.random() < 0.3:
        M[0][0] = 0
    return M


@pytest.mark.parametrize("density", [0.15, 0.4, 0.7, 1.0])
def test_int_det_matches_dense_bareiss(density):
    rng = random.Random(int(density * 100))
    zeros = 0
    for _ in range(600):
        M = _random_int_matrix(rng, rng.randint(0, 8), density)
        d = int_det(sparse_rows(M))
        assert d == bareiss_det(M), M
        zeros += d == 0
    assert 0 < zeros < 600


def test_int_det_sign_of_permutation_matrices():
    # most pivots of a permutation matrix are zero, so most steps swap rows
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 9)
        perm = list(range(n))
        rng.shuffle(perm)
        P = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
        assert int_det(sparse_rows(P)) == bareiss_det(P)


def test_int_det_invariant_under_symmetric_permutation():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 9)
        M = _random_int_matrix(rng, n, rng.choice((0.2, 0.5, 0.9)))
        perm = list(range(n))
        rng.shuffle(perm)
        PMPt = [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert int_det(sparse_rows(PMPt)) == int_det(sparse_rows(M)) == bareiss_det(M)


@pytest.mark.parametrize("seed", range(6))
def test_int_det_on_reduced_laplacians_of_covers_and_restrictions(seed):
    rng = random.Random(700 + seed)
    graphs = []
    for _ in range(4):
        vg = random_voltage_graph(rng, rank=1, max_vertices=5, max_edges=9)
        graphs.append(cover_graph(vg, SublatticeSpec.cyclic(rng.randint(2, 24))))
        graphs.append(restriction_subgraph(vg, RectangleSpec((rng.randint(2, 24),))))
        vg = random_voltage_graph(rng, rank=2, max_vertices=3, max_edges=7)
        a, d = rng.randint(1, 5), rng.randint(1, 5)
        graphs.append(cover_graph(vg, SublatticeSpec.lattice2(((a, rng.randint(-2, 2)), (0, d)))))
        graphs.append(restriction_subgraph(vg, RectangleSpec((rng.randint(1, 6), rng.randint(1, 6)))))
    vg = random_voltage_graph(rng, rank=1, max_vertices=5, max_edges=9)
    graphs.append(cover_graph(vg, SublatticeSpec.cyclic(150 // len(vg.base.vertices))))
    for g in graphs:
        R = [row[:-1] for row in laplacian_finite(g)[:-1]]
        assert int_det(sparse_rows(R)) == bareiss_det(R)


def test_int_det_examples():
    L0 = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    assert int_det(sparse_rows(L0)) == 16
    assert int_det(sparse_rows([[0, 0], [0, 0]])) == 0
    assert int_det(sparse_rows([])) == 1


def test_int_det_rejects_non_integer_entries():
    # int() would truncate these to 1 and 0; the determinants are 1/2 and 1
    for M in ([[Fraction(3, 2), 1], [1, 1]], [[0.5, 0], [0, 2]]):
        with pytest.raises(ValueError, match="integer entries"):
            int_det(sparse_rows(M))


def test_int_det_rejects_non_square():
    with pytest.raises(ValueError):
        int_det(sparse_rows([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError):
        det_laurent([[LaurentPoly.constant(1, 1)], [LaurentPoly.constant(2, 1)]])


def test_int_det_checks_sparse_rows():
    with pytest.raises(ValueError, match="columns"):
        int_det([{0: 1, 2: 1}, {1: 1}])
    with pytest.raises(ValueError, match="columns"):
        int_det([{-1: 1}])
    with pytest.raises(ValueError, match="integer entries"):
        int_det([{0: Fraction(1, 2)}, {1: 2}])
    rows = [{0: 2, 1: 0}, {0: 1, 1: 3}]
    assert int_det(rows) == 6
    assert rows == [{0: 2, 1: 0}, {0: 1, 1: 3}]  # dropped zeros from a copy


def test_nullspace_k4_examples():
    L0 = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    basis = nullspace(L0, GF2)
    want = row_space_canonical([[1, 1, 0], [0, 1, 1]], GF2)
    assert row_space_canonical(basis, GF2) == want
    assert nullspace(L0, QQ) == []
    assert nullspace([[1, 0], [0, 1]], QQ) == []


@pytest.mark.parametrize("fld", [GF2, GF3, QQ])
def test_nullspace_vectors_lie_in_kernel(fld):
    rng = random.Random(5)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [[fld.of(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace(M, fld)
        assert len(basis) == cols - len(rref(M, fld)[1])
        for v in basis:
            for row in M:
                assert not fld.of(sum(a * b for a, b in zip(row, v)))


def _rref_entry(rng, fld):
    """An int, a Fraction (denominator prime to p over GF(p)) or a 10^20-sized int."""
    k = rng.random()
    if k < 0.4:
        return 0
    if k < 0.7:
        return rng.randint(-5, 5)
    if k < 0.85:
        den = rng.choice([d for d in range(1, 8) if fld is QQ or d % fld.p])
        return Fraction(rng.randint(-9, 9), den)
    return rng.randint(-(10**20), 10**20)


def _rref_corpus(seed, count):
    """Random matrices over QQ, GF(2), GF(3) and GF(5), with zero and duplicate
    rows, empty and zero-column matrices among them."""
    rng = random.Random(seed)
    yield [], QQ
    yield [[], []], GF3
    for _ in range(count):
        fld = rng.choice((QQ, GF2, GF3, GF5))
        rows, cols = rng.randint(0, 6), rng.randint(0, 7)
        M = [[_rref_entry(rng, fld) for _ in range(cols)] for _ in range(rows)]
        if M and rng.random() < 0.3:
            M.append(list(rng.choice(M)))
        if M and rng.random() < 0.2:
            M.insert(rng.randint(0, len(M)), [0] * cols)
        yield M, fld


def _types(R):
    return [[type(v) for v in row] for row in R]


@pytest.mark.parametrize("seed", range(4))
def test_rref_equals_the_fraction_oracle_with_coefficient_types(seed):
    for M, fld in _rref_corpus(1800 + seed, 500):
        got, want = rref(M, fld), rref_fraction(M, fld)
        assert got == want, (M, fld)
        assert _types(got[0]) == _types(want[0]), (M, fld)


def test_rref_builds_fractions_only_when_dividing_pivot_rows(monkeypatch):
    made = []

    def spy(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg_module, "Fraction", spy)
    for M, fld in _rref_corpus(1900, 300):
        if fld is not QQ:
            continue
        made.clear()
        R, pivots = rref(M, QQ)
        assert len(made) == len(pivots) * (len(M[0]) if M else 0), M


def test_rref_leaves_its_input_alone():
    for M, fld in _rref_corpus(1950, 200):
        before = [list(row) for row in M]
        rref(M, fld)
        assert M == before and _types(M) == _types(before)


def test_rref_rejects_ragged_matrices_non_fields_and_denominators_divisible_by_p():
    for fld in (QQ, GF2, GF5):
        with pytest.raises(ValueError, match="ragged"):
            rref([[1, 2], [3]], fld)
    with pytest.raises(ValueError, match="field"):
        rref([[1, 2], [3, 4]], ZZ)
    with pytest.raises(ZeroDivisionError, match="denominator divisible by p"):
        rref([[1, Fraction(1, 10)]], GF5)
    assert rref([[1, Fraction(1, 10)]], GF3) == ([[1, 1]], [0])


def _random_entry(rng, nvars, density):
    if rng.random() >= density:
        return LaurentPoly.zero(nvars)
    return LaurentPoly(
        nvars,
        {
            tuple(rng.randint(-1, 1) for _ in range(nvars)): rng.randint(-2, 2)
            for _ in range(rng.randint(1, 2))
        },
    )


def _large_laurent_matrices(rng):
    """Orders 5-8 in one and two variables.  Random matrices, some sparse,
    some with a zero diagonal (a symmetric reordering keeps it, so the first
    pivot is zero and a row swap follows), some singular; then voltage
    Laplacians of random rank-1 and rank-2 quotients and non-principal
    minors of them."""
    for _ in range(60):
        nvars = rng.choice((1, 2))
        n = rng.randint(5, 8 if nvars == 1 else 7)
        density = rng.choice((0.3, 0.6, 1.0))
        M = [[_random_entry(rng, nvars, density) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4:
            for i in range(n):
                M[i][i] = LaurentPoly.zero(nvars)
        if rng.random() < 0.25:  # singular: one row x_t times a second minus a third
            a, b, c = rng.sample(range(n), 3)
            t = LaurentPoly.variable(rng.randrange(nvars), nvars)
            M[a] = [t * u - v for u, v in zip(M[b], M[c])]
        yield M
    for rank, count in ((1, 12), (2, 8)):
        while count:
            L = voltage_laplacian(random_voltage_graph(rng, rank, max_vertices=8, max_edges=14))
            n = len(L)
            if n < 5:
                continue
            count -= 1
            yield L
            if n >= 6:
                i, j = rng.sample(range(n), 2)
                yield [row[:j] + row[j + 1 :] for r, row in enumerate(L) if r != i]


def test_det_laurent_matches_cofactor_on_large_matrices():
    rng = random.Random(9)
    singular = 0
    for M in _large_laurent_matrices(rng):
        d = det_laurent(M)
        assert d == bareiss_det_laurent(M, ZZ)
        if len(M) <= 6:
            assert d == cofactor_det_poly(M)
        singular += d.is_zero()
    assert singular >= 5


def _coeff_types(f):
    return {e: (c, type(c)) for e, c in f.coeffs.items()}


@pytest.mark.parametrize("rank, vertices", [(1, 12), (1, 16), (1, 20), (2, 6), (2, 8), (2, 10)])
def test_det_laurent_matches_dense_oracle_on_large_quotients(rank, vertices):
    rng = random.Random(100 * rank + vertices)
    for _ in range(2):
        L = voltage_laplacian(sized_voltage_graph(rng, rank, vertices, 2 * vertices))
        d = det_laurent(L)
        assert _coeff_types(d) == _coeff_types(bareiss_det_laurent(L, ZZ))
        assert all(type(c) is int for c in d.coeffs.values())


def test_det_laurent_of_a_forty_vertex_quotient_at_two_points():
    L = voltage_laplacian(sized_voltage_graph(random.Random(40), 1, 40, 80))
    d = det_laurent(L)
    assert not d.is_zero()
    for x in (2, -3):
        assert d.evaluate(x) == fraction_det([[f.evaluate(x) for f in row] for row in L])


def test_det_laurent_of_wide_voltages():
    # A loop with a huge voltage encodes as one integer of millions of bits
    # whose digits are almost all zero; the decoder skips zero blocks.
    for e in ((10**6,), (1000, -1000)):
        loop = LaurentPoly(len(e), {(0,) * len(e): 2, e: -1, tuple(-v for v in e): -1})
        assert det_laurent([[loop]]) == loop
    for rank, vertices, span in ((1, 6, 1000), (2, 4, 20)):
        g = sized_voltage_graph(random.Random(span), rank, vertices, 2 * vertices, span)
        L = voltage_laplacian(g)
        assert _coeff_types(det_laurent(L)) == _coeff_types(bareiss_det_laurent(L, ZZ))


def _random_laurent(rng, nvars, terms, size):
    return LaurentPoly(
        nvars,
        {tuple(rng.randint(-5, 5) for _ in range(nvars)): rng.randint(-size, size) for _ in range(terms)},
    )


def test_det_laurent_matches_cofactor_on_wide_exponents_and_large_coefficients():
    rng = random.Random(13)
    for _ in range(150):
        nvars, n = rng.choice((1, 2)), rng.randint(1, 4)
        size = rng.choice((1, 9, 10**30))
        M = [[_random_laurent(rng, nvars, rng.randint(0, 3), size) for _ in range(n)] for _ in range(n)]
        assert _coeff_types(det_laurent(M)) == _coeff_types(cofactor_det_poly(M))


def test_det_laurent_top_digit_equals_the_coefficient_bound():
    # The determinant of a diagonal of monomials with positive coefficients
    # is +(product of the rows' 1-norms), the largest coefficient the
    # encoding must decode.
    for nvars, diag in (
        (1, [((3,), 7)]),
        (1, [((2,), 3), ((-4,), 5), ((0,), 7)]),
        (2, [((1, -2), 2**40 + 1), ((-5, 3), 3), ((0, 0), 10**30)]),
        (2, [((5, 5), 1), ((-5, -5), 1), ((0, 1), 2)]),
    ):
        n = len(diag)
        M = [[LaurentPoly.zero(nvars) for _ in range(n)] for _ in range(n)]
        for i, (e, c) in enumerate(diag):
            M[i][i] = LaurentPoly.monomial(c, e)
        exps = tuple(map(sum, zip(*(e for e, _ in diag))))
        want = LaurentPoly.monomial(math.prod(c for _, c in diag), exps)
        assert det_laurent(M) == cofactor_det_poly(M) == want


def test_det_laurent_of_singular_and_empty_matrices():
    rng = random.Random(3)
    for nvars in (1, 2):
        zero = LaurentPoly.zero(nvars)
        for n in (1, 2, 4):
            M = [[_random_laurent(rng, nvars, 2, 100) for _ in range(n)] for _ in range(n)]
            i, j = rng.randrange(n), rng.randrange(n)
            zero_row = [row if r != i else [zero] * n for r, row in enumerate(M)]
            zero_col = [[zero if c == j else f for c, f in enumerate(row)] for row in M]
            cases = [zero_row, zero_col]
            if n > 1:
                cases.append([M[0]] + M[:-1])
            for S in cases:
                assert det_laurent(S) == cofactor_det_poly(S) == zero
    assert det_laurent([]) == LaurentPoly.constant(1, 1)


def test_det_laurent_rejects_fraction_coefficients():
    one = LaurentPoly.constant(1, 1)
    for n in (1, 3, 5):  # every order: the check reads every entry
        M = [[one if i == j else LaurentPoly.zero(1) for j in range(n)] for i in range(n)]
        M[n - 1][0] = LaurentPoly(1, {(1,): Fraction(1, 2)})
        with pytest.raises(ValueError, match="integer coefficients"):
            det_laurent(M)
        with pytest.raises(ValueError, match="integer coefficients"):
            elementary_divisor(M, 0, QQ)


def test_delta0_examples_from_quotients():
    lad = elementary_divisor(voltage_laplacian(example("ladder").graph), 0, ZZ)
    assert lad == normalize(
        parse_poly("x^2-2x+1") * parse_poly("x^2-4x+1"), ZZ
    )
    gird = elementary_divisor(voltage_laplacian(example("girder").graph), 0, ZZ)
    assert gird == normalize(
        parse_poly("x^2-2x+1") * parse_poly("4x^2-17x+4"), ZZ
    )
    gird2 = elementary_divisor(voltage_laplacian(example("girder").graph), 0, GF2)
    assert gird2 == parse_poly("1 + x^2").reduce_to(GF2)  # (x+1)^2 mod 2
    mits = elementary_divisor(voltage_laplacian(example("mitsubishi")), 0, ZZ)
    core = parse_poly("6 - x - x^-1 - y - y^-1 - x*y^-1 - x^-1*y")
    assert mits == normalize(6 * core, ZZ)
    assert elementary_divisor(voltage_laplacian(example("mitsubishi")), 0, GF2).is_zero()


def test_k4_constant_matrix_divisors():
    P = int_matrix_to_poly(laplacian_finite(example("k4").graph))
    assert elementary_divisor(P, 0, ZZ).is_zero()
    assert elementary_divisor(P, 1, ZZ) == LaurentPoly.constant(16, 1)
    assert elementary_divisor(P, 4, ZZ) == LaurentPoly.constant(1, 1)
    with pytest.raises(ValueError):
        elementary_divisor(P, 5, ZZ)


def test_first_nonzero_divisor_scans():
    P = int_matrix_to_poly(laplacian_finite(example("k4").graph))
    s, d = first_nonzero_divisor(P, QQ)
    assert s == 1 and d == LaurentPoly.constant(1, 1)
    zero = [[LaurentPoly.zero(1)]]
    s, d = first_nonzero_divisor(zero, QQ)
    assert s == 1 and d == LaurentPoly.constant(1, 1)


def _random_laurent_matrix(rng, n):
    return [
        [
            LaurentPoly(
                1,
                {
                    (rng.randint(-2, 2),): rng.randint(-3, 3)
                    for _ in range(rng.randint(0, 2))
                },
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", range(25))
def test_divisor_chain_against_brute_force_minors(seed):
    rng = random.Random(200 + seed)
    M = _random_laurent_matrix(rng, 3)
    divisors = [elementary_divisor(M, k, QQ) for k in range(4)]
    # independent check: gcd of cofactor-expanded minors divides every minor
    for k in range(3):
        dets = [d for d in all_minor_dets(M, 3 - k) if not d.is_zero()]
        if not dets:
            assert divisors[k].is_zero()
            continue
        for d in dets:
            assert divides(divisors[k], d, QQ)
    # the chain: each divisor divides the previous one
    for k in range(3):
        if divisors[k].is_zero():
            continue
        assert divides(divisors[k + 1], divisors[k], QQ)


def _coefficient_types(f):
    return sorted((e, type(c).__name__) for e, c in f.coeffs.items())


@pytest.mark.parametrize("seed", range(12))
def test_elementary_divisor_equals_reduce_first_oracle(seed):
    """Integer minors reduced into the domain give the divisors of the matrix
    reduced first, in every domain, for every k, down to coefficient types."""
    rng = random.Random(1300 + seed)
    vgs = [
        random_voltage_graph(rng, rank=1, max_vertices=5, max_edges=9),
        random_voltage_graph(rng, rank=2, max_vertices=4, max_edges=7),
    ]
    for vg in vgs:
        L = voltage_laplacian(vg)
        for dom in (ZZ, QQ, GF2, GF3, GF5):
            for k in range(len(L) + 1):
                mine = elementary_divisor(L, k, dom)
                want = elementary_divisor_reduce_first(L, k, dom)
                assert mine == want, (vg, dom, k)
                assert _coefficient_types(mine) == _coefficient_types(want)


def _count_minors(L, k, dom, monkeypatch):
    """(Delta_k, the submatrices whose determinants elementary_divisor took)."""
    computed = []
    monkeypatch.setattr(linalg_module, "det_laurent", lambda M: computed.append(M) or det_laurent(M))
    got = elementary_divisor(L, k, dom)
    monkeypatch.undo()
    return got, computed


def _assert_minors_stop_at_the_first_unit_gcd(L, monkeypatch):
    n = len(L)
    assert _count_minors(L, n, ZZ, monkeypatch)[1] == []
    for k in range(n):
        subs = [
            [[L[i][j] for j in cols] for i in rows]
            for rows in combinations(range(n), n - k)
            for cols in combinations(range(n), n - k)
        ]
        minors = [cofactor_det_poly(S) for S in subs]
        for dom in (ZZ, QQ, GF2, GF3, GF5):
            got, computed = _count_minors(L, k, dom, monkeypatch)
            prefixes = gcd_fold_prefixes(minors, dom)
            assert got == prefixes[-1], (dom, k)
            assert _coefficient_types(got) == _coefficient_types(prefixes[-1])
            stop = prefixes.index(1) + 1 if got == 1 else len(subs)
            assert computed == subs[:stop], (dom, k)


@pytest.mark.parametrize("seed", range(24))
def test_elementary_divisor_computes_minors_up_to_the_first_unit_gcd(seed, monkeypatch):
    """The minors are computed in order, up to the first one after which the
    all-minors gcd is 1 when Delta_k = 1, and every one of them otherwise."""
    rng = random.Random(1500 + seed)
    for vg in (
        random_voltage_graph(rng, rank=1, max_vertices=6, max_edges=10),
        random_voltage_graph(rng, rank=2, max_vertices=4, max_edges=7),
    ):
        _assert_minors_stop_at_the_first_unit_gcd(voltage_laplacian(vg), monkeypatch)


@pytest.mark.parametrize("name", ["hexagon_chord", "pentagon_torus"])
def test_order_five_and_six_quotients_compute_minors_up_to_the_first_unit_gcd(name, monkeypatch):
    path = Path(__file__).with_name("data") / f"{name}.lapgraph"
    L = voltage_laplacian(parse_graph_file(path.read_text()))
    _assert_minors_stop_at_the_first_unit_gcd(L, monkeypatch)


def test_girder_delta1_over_gf2_computes_every_minor(monkeypatch):
    L = voltage_laplacian(example("girder").graph)
    got, computed = _count_minors(L, 1, GF2, monkeypatch)
    assert got == parse_poly("1 + x") and len(computed) == 4
    got, computed = _count_minors(L, 1, ZZ, monkeypatch)
    assert got == 1 and len(computed) < 4


@pytest.mark.parametrize("seed", range(6))
def test_rational_divisors_build_no_fraction(seed, monkeypatch):
    """Over QQ the minors stay integer polynomials: each is cleared by
    normalize and the gcd taken over ZZ, so RationalField.of never runs."""
    rng = random.Random(1400 + seed)
    vgs = [
        random_voltage_graph(rng, rank=1, max_vertices=5, max_edges=9),
        random_voltage_graph(rng, rank=2, max_vertices=4, max_edges=7),
    ]
    of_calls = []
    rational_of = RationalField.of

    def spy(self, n):
        of_calls.append(n)
        return rational_of(self, n)

    for vg in vgs:
        L = voltage_laplacian(vg)
        for k in range(len(L) + 1):
            monkeypatch.setattr(RationalField, "of", spy)
            got = elementary_divisor(L, k, QQ)
            monkeypatch.undo()
            assert of_calls == [], (vg, k)
            assert got == elementary_divisor_reduce_first(L, k, QQ), (vg, k)


@pytest.mark.parametrize("seed", range(15))
def test_gf2_divisors_match_brute_force_gcd(seed):
    rng = random.Random(400 + seed)
    M = _random_laurent_matrix(rng, 3)
    for k in range(3):
        mine = elementary_divisor(M, k, GF2)
        dets = [d.reduce_to(GF2) for d in all_minor_dets(M, 3 - k)]
        dets = [d for d in dets if not d.is_zero()]
        if not dets:
            assert mine.is_zero()
        else:
            assert mine == gcd_fold_all(dets, GF2)
