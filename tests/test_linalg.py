"""Determinants, nullspaces, and elementary divisors."""

import math
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import (
    all_minor_dets,
    bareiss_det,
    bareiss_det_laurent,
    cofactor_det_poly,
    dense,
    elementary_divisor_reduce_first,
    example,
    first_nonzero_divisor,
    fraction_det,
    gcd_fold_all,
    gcd_fold_prefixes,
    random_voltage_graph,
    rref_dense,
    rref_fraction,
    sized_voltage_graph,
    sparse_rows,
)
from lapgraph import linalg as linalg_module
from lapgraph.fields import GF2, QQ, ZZ, PrimeField, RationalField
from lapgraph.graphio import parse_graph_file
from lapgraph.graphs import (
    FiniteGraph,
    RectangleSpec,
    SublatticeSpec,
    VoltageGraph,
    cover_graph,
    incidence_matrix,
    laplacian_finite,
    restriction_subgraph,
    voltage_laplacian,
)
from lapgraph.laurent import LaurentPoly, divides, normalize, parse_poly
from lapgraph.linalg import (
    det_laurent,
    elementary_divisor,
    int_det,
    nullspace,
    row_space_canonical,
    rref,
    transpose,
)
from lapgraph.spanning import complexity, tree_count

GF3 = PrimeField(3)
GF5 = PrimeField(5)


def constant_matrix(M):
    """An integer matrix as constant one-variable Laurent polynomials."""
    return [[LaurentPoly.constant(v, 1) for v in row] for row in M]


def permuted(rows, order):
    """Square sparse rows with rows and columns alike put in order."""
    place = {j: t for t, j in enumerate(order)}
    return [{place[j]: v for j, v in rows[i].items()} for i in order]


def dets_by_order(M) -> set[int]:
    """The determinants of a dense integer matrix by int_det, and by _bareiss
    (and _bareiss_symmetric, if M is symmetric) on its rows permuted into
    Cuthill–McKee and into minimum-degree order; one value when they agree.
    int_det leaves the rows alone."""
    rows = sparse_rows(M)
    adj = linalg_module._pattern(rows)
    orders = (linalg_module._cuthill_mckee(adj)[0], linalg_module._minimum_degree(adj)[0])
    kernels = [linalg_module._bareiss] + [linalg_module._bareiss_symmetric] * (M == transpose(M))
    dets = {int_det(rows)} | {kernel(permuted(rows, order)) for kernel in kernels for order in orders}
    assert rows == sparse_rows(M)
    return dets


def test_int_det_against_cofactor_thousand_cases():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert cofactor_det_poly(constant_matrix(M)) == int_det(sparse_rows(M))


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
        d = bareiss_det(M)
        assert dets_by_order(M) == {d}, M
        zeros += d == 0
    assert 0 < zeros < 600


def test_int_det_sign_of_permutation_matrices():
    # most pivots of a permutation matrix are zero, so most steps swap rows;
    # without a fixed point the first pivot is zero in every order
    rng = random.Random(3)
    derangements = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        perm = list(range(n))
        rng.shuffle(perm)
        P = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
        assert dets_by_order(P) == {bareiss_det(P)}
        derangements += all(perm[i] != i for i in range(n))
    assert derangements > 50


def test_int_det_invariant_under_symmetric_permutation():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 9)
        M = _random_int_matrix(rng, n, rng.choice((0.2, 0.5, 0.9)))
        perm = list(range(n))
        rng.shuffle(perm)
        PMPt = [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert dets_by_order(PMPt) == dets_by_order(M) == {bareiss_det(M)}


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
        R = [row[:-1] for row in dense(laplacian_finite(g), len(g.vertices))[:-1]]
        assert dets_by_order(R) == {bareiss_det(R)}


def _random_symmetric_matrix(rng, n, density):
    """M + M^T for a random M, with some diagonal entries zeroed, and
    sometimes made singular as E S E^T, row a of E being e_b - 2 e_c."""
    M = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    S = [[M[i][j] + M[j][i] for j in range(n)] for i in range(n)]
    if n and rng.random() < 0.3:
        for i in rng.sample(range(n), rng.randint(1, n)):
            S[i][i] = 0
    if n >= 3 and rng.random() < 0.25:
        a, b, c = rng.sample(range(n), 3)
        E = [[int(i == j) for j in range(n)] for i in range(n)]
        E[a] = [int(j == b) - 2 * int(j == c) for j in range(n)]
        ES = [[sum(E[i][t] * S[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        S = [[sum(ES[i][t] * E[j][t] for t in range(n)) for j in range(n)] for i in range(n)]
    return S


@pytest.mark.parametrize("density", [0.15, 0.4, 0.7, 1.0])
def test_int_det_matches_the_general_kernel_on_symmetric_matrices(density, monkeypatch):
    rng = random.Random(500 + int(density * 100))
    zeros = fallbacks = 0
    for _ in range(400):
        S = _random_symmetric_matrix(rng, rng.randint(0, 8), density)
        d = bareiss_det(S)
        assert dets_by_order(S) == {d}, S
        names = [name for name, *_ in _kernel_calls(monkeypatch, int_det, sparse_rows(S))]
        assert names in (["_bareiss_symmetric"], ["_bareiss_symmetric", "_bareiss"])
        zeros += d == 0
        fallbacks += len(names) == 2
    assert 0 < zeros < 400 and 0 < fallbacks < 400


def test_a_symmetric_zero_pivot_hands_the_untouched_rows_to_the_general_kernel(monkeypatch):
    assert int_det(sparse_rows([[0, 1], [1, 0]])) == -1
    # the second pivot is zero after one step: 1 * 1 - 1 * 1
    M = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    assert int_det(sparse_rows(M)) == bareiss_det(M) == -1
    for M in ([[0, 1], [1, 0]], M):
        rows = sparse_rows(M)
        calls = _kernel_calls(monkeypatch, lambda: linalg_module._bareiss_symmetric(rows))
        assert calls == [("_bareiss_symmetric", rows, sparse_rows(M)), ("_bareiss", rows, sparse_rows(M))]
        assert calls[1][1] is rows


def test_reduced_laplacians_take_the_symmetric_kernel(monkeypatch):
    # the corpus graphs, and a cover and a box restriction of each voltage graph
    names = ("circulant12", "girder", "grid", "k4", "ladder", "mitsubishi", "single_loop")
    bases = [getattr(g, "graph", g) for g in map(example, names)]
    finite = [b.base for b in bases]
    rng = random.Random(26)
    for vg in bases:
        if isinstance(vg, FiniteGraph):
            continue
        if vg.rank == 1:
            finite.append(cover_graph(vg, SublatticeSpec.cyclic(rng.randint(2, 12))))
            finite.append(restriction_subgraph(vg, RectangleSpec((rng.randint(2, 12),))))
        else:
            a, d = rng.randint(2, 5), rng.randint(2, 5)
            finite.append(cover_graph(vg, SublatticeSpec.lattice2(((a, 1), (0, d)))))
            finite.append(restriction_subgraph(vg, RectangleSpec((rng.randint(2, 6), rng.randint(2, 6)))))
    for g in finite:
        (call,) = _kernel_calls(monkeypatch, complexity, g)
        assert call[0] == "_bareiss_symmetric"


def _filled_cost(adj, order):
    """sum_k m_k^2 (k+1)^2, with m_k the later neighbours of the k-th pivot in
    the pattern filled by eliminating in order (symbolic elimination)."""
    where = {v: k for k, v in enumerate(order)}
    later = [{where[u] for u in adj[v] if where[u] > k} for k, v in enumerate(order)]
    cost = 0
    for k, nbrs in enumerate(later):
        cost += (len(nbrs) * (k + 1)) ** 2
        for u in nbrs:
            later[u] |= {w for w in nbrs if w > u}
    return cost


def _kernel_calls(monkeypatch, f, *args) -> list[tuple[str, list[dict], list[dict]]]:
    """The Bareiss kernels that f(*args) calls, in call order, each with the
    rows it receives and a copy of them as received (_bareiss eliminates in
    place)."""
    calls = []
    with monkeypatch.context() as m:
        for name in ("_bareiss", "_bareiss_symmetric"):

            def spy(rows, name=name, kernel=getattr(linalg_module, name)):
                calls.append((name, rows, [dict(row) for row in rows]))
                return kernel(rows)

            m.setattr(linalg_module, name, spy)
        f(*args)
    return calls


def _order_calls(monkeypatch, f, *args) -> list[tuple[list[dict], list[int]]]:
    """The calls of _elimination_order that f(*args) makes, each with the rows
    it receives and the order it returns."""
    calls = []
    elimination_order = linalg_module._elimination_order

    def spy(rows):
        calls.append((rows, elimination_order(rows)))
        return calls[-1][1]

    with monkeypatch.context() as m:
        m.setattr(linalg_module, "_elimination_order", spy)
        f(*args)
    return calls


def _bareiss_pattern_and_order(monkeypatch, f, *args):
    """The nonzero pattern that f(*args) orders once, and its order, after
    checking that its one Bareiss kernel receives the rows in that order."""
    kernels = []
    ((rows, order),) = _order_calls(monkeypatch, lambda: kernels.extend(_kernel_calls(monkeypatch, f, *args)))
    ((_, _, received),) = kernels
    assert received == permuted(rows, order)
    return linalg_module._pattern(rows), order


def test_int_det_picks_minimum_degree_on_a_torus_and_cuthill_mckee_on_a_box(monkeypatch):
    torus = cover_graph(example("mitsubishi"), SublatticeSpec.lattice2(((8, 0), (0, 8))))
    adj, order = _bareiss_pattern_and_order(monkeypatch, complexity, torus)
    (md, _), (cm, envelope) = linalg_module._minimum_degree(adj), linalg_module._cuthill_mckee(adj)
    assert order == md != cm
    assert _filled_cost(adj, md) < _filled_cost(adj, cm) <= envelope
    box = restriction_subgraph(example("grid"), RectangleSpec((16, 16)))
    adj, order = _bareiss_pattern_and_order(monkeypatch, complexity, box)
    (md, _), (cm, envelope) = linalg_module._minimum_degree(adj), linalg_module._cuthill_mckee(adj)
    assert order == cm != md
    assert _filled_cost(adj, cm) <= envelope < _filled_cost(adj, md)


def test_det_laurent_takes_minimum_degree_on_a_forty_vertex_quotient(monkeypatch):
    # predicted costs: 538,549 in minimum-degree order, 1,450,683 by Cuthill–McKee's envelope
    L = voltage_laplacian(sized_voltage_graph(random.Random(40), 1, 40, 80))
    adj, order = _bareiss_pattern_and_order(monkeypatch, det_laurent, L)
    (md, cost), (cm, envelope) = linalg_module._minimum_degree(adj), linalg_module._cuthill_mckee(adj)
    assert order == md != cm
    assert cost == _filled_cost(adj, md) < envelope


@pytest.mark.parametrize("seed", range(4))
def test_minimum_degree_returns_a_permutation_and_its_filled_cost(seed):
    rng = random.Random(40 + seed)
    g = random_voltage_graph(rng, rank=2, max_vertices=3, max_edges=7)
    cover = cover_graph(g, SublatticeSpec.lattice2(((rng.randint(2, 5), 0), (0, rng.randint(2, 5)))))
    adj = linalg_module._pattern(laplacian_finite(cover))
    md, cost = linalg_module._minimum_degree(adj)
    assert cost == _filled_cost(adj, md)
    assert sorted(md) == list(range(len(adj)))


def test_a_dense_pattern_is_eliminated_in_index_order():
    rng = random.Random(5)
    for n in (1, 2, 5, 30):
        rows = [{j: rng.choice((-2, -1, 1, 2)) for j in range(n)} for _ in range(n)]
        adj = linalg_module._pattern(rows)
        identity = list(range(n))
        assert linalg_module._cuthill_mckee(adj)[0] == linalg_module._minimum_degree(adj)[0] == identity
        assert linalg_module._elimination_order(rows) == identity


def test_tree_count_of_a_random_400_vertex_graph_in_under_a_second():
    # over 3 s in Cuthill–McKee order alone (2-vCPU VM): a random graph has no narrow band
    rng = random.Random(400)
    names = [f"v{i}" for i in range(400)]
    pairs = {(rng.randrange(i), i) for i in range(1, 400)}  # a random spanning tree
    while len(pairs) < 600:
        pairs.add(tuple(sorted(rng.sample(range(400), 2))))
    g = FiniteGraph.build(names, [(f"e{k}", names[a], names[b]) for k, (a, b) in enumerate(sorted(pairs))])
    start = time.perf_counter()
    t = tree_count(g)
    assert time.perf_counter() - start < 1.0
    L = dense(laplacian_finite(g), 400)  # tree_count deletes the last vertex; here the first goes
    assert t == int_det(sparse_rows([row[1:] for row in L[1:]])) > 1


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
    L0 = sparse_rows([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    basis = nullspace(L0, 3, GF2)
    want = row_space_canonical([[1, 1, 0], [0, 1, 1]], GF2)
    assert row_space_canonical(basis, GF2) == want
    assert nullspace(L0, 3, QQ) == []
    assert nullspace([{0: 1}, {1: 1}], 2, QQ) == []


@pytest.mark.parametrize("fld", [GF2, GF3, QQ])
def test_nullspace_vectors_lie_in_kernel(fld):
    rng = random.Random(5)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [[fld.of(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace(sparse_rows(M), cols, fld)
        assert len(basis) == cols - len(rref(sparse_rows(M), cols, fld)[1])
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
    """Random dense matrices over QQ, GF(2), GF(3) and GF(5), with their
    column counts: zero, empty and duplicate rows, zero columns, and
    matrices with no rows or no columns among them."""
    rng = random.Random(seed)
    yield [], 0, QQ
    yield [[], []], 0, GF3
    yield [], 3, GF2
    for _ in range(count):
        fld = rng.choice((QQ, GF2, GF3, GF5))
        rows, cols = rng.randint(0, 6), rng.randint(0, 7)
        M = [[_rref_entry(rng, fld) for _ in range(cols)] for _ in range(rows)]
        if M and rng.random() < 0.3:
            M.append(list(rng.choice(M)))
        if M and rng.random() < 0.2:
            M.insert(rng.randint(0, len(M)), [0] * cols)
        yield M, cols, fld


def _types(R):
    return [[type(v) for v in row] for row in R]


def _oracle_kernel(M, cols, fld):
    """The nullspace basis read off rref_fraction's reduced form."""
    R, pivots = rref_fraction(M, fld)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [fld.zero] * cols
        v[fc] = fld.one
        for i, pc in enumerate(pivots):
            v[pc] = fld.of(-R[i][fc])
        basis.append(v)
    return basis


@pytest.mark.parametrize("seed", range(4))
def test_rref_equals_the_fraction_oracle_with_coefficient_types(seed):
    for M, cols, fld in _rref_corpus(1800 + seed, 500):
        got = rref(sparse_rows(M), cols, fld)
        for want in (rref_dense(M, fld), rref_fraction(M, fld)):
            assert got == want, (M, fld)
            assert _types(got[0]) == _types(want[0]), (M, fld)
        kernel = nullspace(sparse_rows(M), cols, fld)
        assert kernel == _oracle_kernel(M, cols, fld), (M, fld)
        assert _types(kernel) == _types(_oracle_kernel(M, cols, fld)), (M, fld)


@pytest.mark.parametrize("fld", [GF2, GF3, GF5, QQ])
def test_empty_rows_and_columns(fld):
    # a lone vertex: L = [{}] in one column, so every coloring is conservative
    assert nullspace([{}], 1, fld) == [[fld.one]]
    assert rref([{}], 1, fld) == ([[fld.zero]], [])
    assert nullspace([], 2, fld) == [[fld.one, fld.zero], [fld.zero, fld.one]]
    # a self-loop between two edges leaves its column of Q empty
    g = FiniteGraph.build(["a", "b"], [("e", "a", "b"), ("l", "b", "b"), ("f", "b", "a")])
    Q = incidence_matrix(g)
    assert Q == [{0: -1, 2: 1}, {0: 1, 2: -1}]
    assert nullspace(Q, 3, fld) == [[fld.zero, fld.one, fld.zero], [fld.one, fld.zero, fld.one]]
    R, pivots = rref(Q, 3, fld)
    assert pivots == [0] and R[0] == [fld.one, fld.zero, fld.of(-1)] and R[1] == [fld.zero] * 3


def test_rref_builds_fractions_only_when_dividing_pivot_rows(monkeypatch):
    made = []

    def spy(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg_module, "Fraction", spy)
    for M, cols, fld in _rref_corpus(1900, 300):
        if fld is not QQ:
            continue
        made.clear()
        R, pivots = rref(sparse_rows(M), cols, QQ)
        assert len(made) == sum(1 for row in R[: len(pivots)] for v in row if v), M


def test_rref_leaves_its_input_alone():
    for M, cols, fld in _rref_corpus(1950, 200):
        rows = sparse_rows(M)
        before = [dict(row) for row in rows]
        rref(rows, cols, fld)
        nullspace(rows, cols, fld)
        assert rows == before
        assert [[type(v) for v in row.values()] for row in rows] == [[type(v) for v in row.values()] for row in before]


def test_rref_rejects_columns_out_of_range_non_fields_and_denominators_divisible_by_p():
    for fld in (QQ, GF2, GF5):
        with pytest.raises(ValueError, match="columns"):
            rref([{0: 1, 2: 1}], 2, fld)
        with pytest.raises(ValueError, match="columns"):
            nullspace([{-1: 1}], 2, fld)
    with pytest.raises(ValueError, match="field"):
        rref([{0: 1, 1: 2}, {0: 3, 1: 4}], 2, ZZ)
    with pytest.raises(ZeroDivisionError, match="denominator divisible by p"):
        rref([{0: 1, 1: Fraction(1, 10)}], 2, GF5)
    assert rref([{0: 1, 1: Fraction(1, 10)}], 2, GF3) == ([[1, 1]], [0])


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
    P = constant_matrix(dense(laplacian_finite(example("k4").graph), 4))
    assert elementary_divisor(P, 0, ZZ).is_zero()
    assert elementary_divisor(P, 1, ZZ) == LaurentPoly.constant(16, 1)
    assert elementary_divisor(P, 4, ZZ) == LaurentPoly.constant(1, 1)
    with pytest.raises(ValueError):
        elementary_divisor(P, 5, ZZ)


def test_first_nonzero_divisor_scans():
    P = constant_matrix(dense(laplacian_finite(example("k4").graph), 4))
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
    reduced first, in every domain, for every k, down to coefficient types,
    and those are the types normalize gives (int, k = n included)."""
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
                assert _coefficient_types(mine) == _coefficient_types(normalize(mine, dom))


def _count_minors(L, k, dom, monkeypatch):
    """(Delta_k, the minors elementary_divisor drew from _laurent_minors).

    It draws them from one generator, makes no det_laurent call, and takes
    one integer determinant per minor drawn, so none is computed ahead."""
    computed, eliminated, det_calls = [], [], []
    minors, bareiss = linalg_module._laurent_minors, linalg_module._bareiss

    def spy(M, size):
        assert M is L and size == len(L) - k
        for d in minors(M, size):
            computed.append(d)
            yield d

    monkeypatch.setattr(linalg_module, "_laurent_minors", spy)
    monkeypatch.setattr(linalg_module, "_bareiss", lambda rows: eliminated.append(rows) or bareiss(rows))
    monkeypatch.setattr(linalg_module, "det_laurent", lambda M: det_calls.append(M) or det_laurent(M))
    got = elementary_divisor(L, k, dom)
    monkeypatch.undo()
    assert det_calls == [] and len(eliminated) == len(computed)
    return got, computed


def _assert_minors_stop_at_the_first_unit_gcd(L, monkeypatch, ks=None):
    n = len(L)
    assert _count_minors(L, n, ZZ, monkeypatch)[1] == []
    for k in range(n) if ks is None else ks:
        minors = all_minor_dets(L, n - k)
        for dom in (ZZ, QQ, GF2, GF3, GF5):
            got, computed = _count_minors(L, k, dom, monkeypatch)
            prefixes = gcd_fold_prefixes(minors, dom)
            assert got == prefixes[-1], (dom, k)
            assert _coefficient_types(got) == _coefficient_types(prefixes[-1])
            stop = prefixes.index(1) + 1 if got == 1 else len(minors)
            assert computed == minors[:stop], (dom, k)
            assert [_coefficient_types(d) for d in computed] == [_coefficient_types(d) for d in minors[:stop]]


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


def _edges(g):
    return [(e.name, e.tail, e.head) for e in g.edges]


@pytest.mark.parametrize("seed", range(3))
def test_one_wide_row_bounds_every_minor(seed, monkeypatch):
    """A loop of voltage 1000 makes one row 2000 wide.  K and b come from
    the n - k widest rows and largest 1-norms, so the minors with and
    without that row decode to the cofactor minors."""
    rng = random.Random(1700 + seed)
    vg = random_voltage_graph(rng, rank=1, max_vertices=5, max_edges=8)
    while len(vg.base.vertices) < 3:
        vg = random_voltage_graph(rng, rank=1, max_vertices=5, max_edges=8)
    v = rng.choice(vg.base.vertices)
    g = FiniteGraph.build(vg.base.vertices, _edges(vg.base) + [("wide", v, v)])
    L = voltage_laplacian(VoltageGraph(g, 1, vg.voltages + ((1000,),)))
    for size in (len(L) - 1, len(L) - 2):
        minors = list(linalg_module._laurent_minors(L, size))
        assert minors == all_minor_dets(L, size)
        assert all(type(c) is int for d in minors for c in d.coeffs.values())
    _assert_minors_stop_at_the_first_unit_gcd(L, monkeypatch, ks=(1, 2))


@pytest.mark.parametrize("seed", range(6))
def test_laurent_minors_inherit_the_order_of_their_matrix(seed, monkeypatch):
    """_laurent_minors orders the encoded matrix once, and each minor reaches
    _bareiss in that order: its t-th row and t-th column are paired, and the
    pairs are sorted by the column's place in the order, so a principal minor
    takes the order restricted to its indices."""
    rng = random.Random(1800 + seed)
    L = voltage_laplacian(random_voltage_graph(rng, rank=1 + seed % 2, max_vertices=5, max_edges=9))
    n = len(L)
    for size in range(n + 1):
        kernels = []

        def minors():
            kernels.extend(_kernel_calls(monkeypatch, lambda: list(linalg_module._laurent_minors(L, size))))

        ((encoded, order),) = _order_calls(monkeypatch, minors)
        assert sorted(order) == list(range(n))
        place = {j: t for t, j in enumerate(order)}
        expected = []
        for rs in combinations(range(n), size):
            for cs in combinations(range(n), size):
                pairs = sorted(zip(rs, cs), key=lambda rc: place[rc[1]])
                if rs == cs:
                    assert [i for i, _ in pairs] == [i for i in order if i in rs]
                col = {j: t for t, (_, j) in enumerate(pairs)}
                expected.append([{col[j]: v for j, v in encoded[i].items() if j in col} for i, _ in pairs])
        assert [(name, received) for name, _, received in kernels] == [("_bareiss", sub) for sub in expected]


def test_zero_rows_and_the_empty_matrix_give_the_oracles_minors(monkeypatch):
    """A lone vertex's zero row, in one and two variables, becomes an empty
    integer row; the 0 x 0 matrix has the one minor 1."""
    path = Path(__file__).with_name("data") / "ladder_lone_vertex.lapgraph"
    mits = example("mitsubishi")
    g = FiniteGraph.build((*mits.base.vertices, "lone"), _edges(mits.base))
    for vg in (parse_graph_file(path.read_text()).graph, VoltageGraph(g, 2, mits.voltages)):
        L = voltage_laplacian(vg)
        assert not any(L[-1])
        _assert_minors_stop_at_the_first_unit_gcd(L, monkeypatch)
    assert [_coeff_types(d) for d in linalg_module._laurent_minors([], 0)] == [{(0,): (1, int)}]


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
