"""Graph core: incidence/Laplacian matrices, voltage Laplacians, covers,
restrictions, components."""

import random
from fractions import Fraction

import pytest

from conftest import (
    brute_force_components,
    degree_certificate,
    dense,
    example,
    mat_mul,
    random_multigraph,
    random_voltage_graph,
    with_reversed_edge,
    wrapping_edge_count,
)
from lapgraph.graphs import (
    FiniteGraph,
    RectangleSpec,
    SublatticeSpec,
    VoltageGraph,
    bfs_potentials,
    connected_components,
    cover_graph,
    incidence_matrix,
    laplacian_finite,
    restriction_subgraph,
    voltage_laplacian,
)
from lapgraph.fields import ZZ
from lapgraph.laurent import LaurentPoly, parse_poly
from lapgraph.linalg import sparse_rows, transpose


def test_k4_incidence_matrix_matches_plane_example():
    Q = incidence_matrix(example("k4").graph)
    assert Q == [
        {0: -1, 2: 1, 3: -1},
        {0: 1, 1: -1, 4: -1},
        {1: 1, 2: -1, 5: -1},
        {3: 1, 4: 1, 5: 1},
    ]


def test_self_loop_column_is_zero():
    g = FiniteGraph.build(["v"], [("l", "v", "v")])
    assert incidence_matrix(g) == [{}]


def test_single_edge_column():
    g = FiniteGraph.build(["v1", "v2"], [("e", "v1", "v2")])
    assert incidence_matrix(g) == [{0: -1}, {0: 1}]


def test_k4_laplacian():
    assert laplacian_finite(example("k4").graph) == sparse_rows([
        [3, -1, -1, -1],
        [-1, 3, -1, -1],
        [-1, -1, 3, -1],
        [-1, -1, -1, 3],
    ])


def test_loop_laplacian_is_zero():
    g = FiniteGraph.build(["v"], [("l", "v", "v")])
    assert laplacian_finite(g) == [{}]
    assert g.degree("v") == 2


def test_double_edge_laplacian():
    g = FiniteGraph.build(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v1", "v2")])
    assert laplacian_finite(g) == [{0: 2, 1: -2}, {0: -2, 1: 2}]


@pytest.mark.parametrize("seed", range(30))
def test_laplacian_is_q_qt_without_loops_and_rows_sum_zero(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, 6, 10, loops=False)
    Q = dense(incidence_matrix(g), len(g.edges))
    L = laplacian_finite(g)
    if g.edges:
        assert sparse_rows(mat_mul(Q, transpose(Q))) == L
    else:
        assert L == [{} for _ in g.vertices]
    assert all(0 not in row.values() and sum(row.values()) == 0 for row in L)
    assert all(L[j][i] == v for i, row in enumerate(L) for j, v in row.items())


@pytest.mark.parametrize("seed", range(30))
def test_laplacian_rows_sum_zero_with_loops(seed):
    rng = random.Random(100 + seed)
    g = random_multigraph(rng, 6, 10, loops=True)
    L = laplacian_finite(g)
    assert all(0 not in row.values() and sum(row.values()) == 0 for row in L)
    for i, v in enumerate(g.vertices):
        loops = sum(1 for e in g.edges if e.tail == e.head == v)
        assert L[i].get(i, 0) == g.degree(v) - 2 * loops


def test_ladder_voltage_laplacian_matches_printed_matrix():
    L = voltage_laplacian(example("ladder").graph)
    d = parse_poly("3 - x - x^-1")
    m1 = parse_poly("-1")
    assert L == [[d, m1], [m1, d]]


def test_grid_voltage_laplacian():
    L = voltage_laplacian(example("grid"))
    assert L == [[parse_poly("4 - x - x^-1 - y - y^-1")]]


def test_mitsubishi_voltage_laplacian_round_trips_printed_matrix():
    L = voltage_laplacian(example("mitsubishi"))
    six = LaurentPoly.constant(6, 2)
    three = LaurentPoly.constant(3, 2)
    zero = LaurentPoly.zero(2)
    a12 = parse_poly("-1 - x^-1 - y^-1", nvars=2)
    a13 = parse_poly("-1 - y^-1 - x*y^-1", nvars=2)
    a21 = parse_poly("-1 - x - y", nvars=2)
    a31 = parse_poly("-1 - y - x^-1*y", nvars=2)
    assert L == [[six, a12, a13], [a21, three, zero], [a31, zero, three]]


def test_voltage_laplacian_rejects_rank_zero():
    g = example("k4").graph
    with pytest.raises(ValueError, match="rank must be 1 or 2"):
        VoltageGraph(g, 0, tuple(() for _ in g.edges))


@pytest.mark.parametrize("seed", range(20))
def test_voltage_laplacian_transpose_and_specialization(seed):
    rng = random.Random(300 + seed)
    rank_d = rng.choice((1, 2))
    vg = random_voltage_graph(rng, rank=rank_d)
    L = voltage_laplacian(vg)
    assert [[e.reciprocal() for e in row] for row in transpose(L)] == L
    ones = (1,) * rank_d
    spec = [[e.evaluate(*ones) for e in row] for row in L]
    assert spec == dense(laplacian_finite(vg.base), len(L))


@pytest.mark.parametrize("seed", range(20))
def test_laplacian_unchanged_by_edge_reversal(seed):
    rng = random.Random(500 + seed)
    vg = random_voltage_graph(rng, rank=1)
    if not vg.base.edges:
        return
    name = rng.choice(vg.base.edges).name
    flipped = with_reversed_edge(vg, name)
    assert voltage_laplacian(flipped) == voltage_laplacian(vg)


# -- covers ------------------------------------------------------------------------


def _circular_ladder(n):
    vertices = [f"t{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    edges = []
    for i in range(n):
        edges.append((f"rung{i}", f"t{i}", f"b{i}"))
        edges.append((f"top{i}", f"t{i}", f"t{(i + 1) % n}"))
        edges.append((f"bot{i}", f"b{i}", f"b{(i + 1) % n}"))
    return FiniteGraph.build(vertices, edges)


def test_ladder_cover_is_circular_ladder():
    cov = cover_graph(example("ladder").graph, SublatticeSpec.cyclic(3))
    assert len(cov.vertices) == 6
    assert len(cov.edges) == 9
    assert degree_certificate(cov) == degree_certificate(_circular_ladder(3))


def test_circulant_cover():
    cov = cover_graph(example("circulant12"), SublatticeSpec.cyclic(5))
    assert len(cov.vertices) == 5
    assert len(cov.edges) == 10
    assert all(cov.degree(v) == 4 for v in cov.vertices)


def test_index_one_cover_forgets_voltages():
    vg = example("ladder").graph
    cov = cover_graph(vg, SublatticeSpec.cyclic(1))
    assert degree_certificate(cov) == degree_certificate(vg.base)
    assert len(cov.edges) == len(vg.base.edges)


@pytest.mark.parametrize("seed", range(15))
def test_cover_counts(seed):
    rng = random.Random(700 + seed)
    rank_d = rng.choice((1, 2))
    vg = random_voltage_graph(rng, rank=rank_d)
    if rank_d == 1:
        lam = SublatticeSpec.cyclic(rng.randint(1, 5))
    else:
        while True:
            rows = ((rng.randint(-3, 3), rng.randint(-3, 3)),
                    (rng.randint(-3, 3), rng.randint(-3, 3)))
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det != 0:
                break
        lam = SublatticeSpec.lattice2(rows)
    cov = cover_graph(vg, lam)
    r = lam.index
    assert len(cov.vertices) == len(vg.base.vertices) * r
    assert len(cov.edges) == len(vg.base.edges) * r


def _cyclic_permutation_power(r, nu):
    P = [[0] * r for _ in range(r)]
    for c in range(r):
        P[(c + nu) % r][c] = 1
    # entry (c2, c1) = 1 iff c2 = c1 + nu; as acting on coset index columns
    return P


def test_cover_laplacian_is_block_circulant_specialization():
    for n in (2, 3, 4):
        for vg in (example("ladder").graph, example("circulant12")):
            L = voltage_laplacian(vg)
            r = n
            base_n = len(vg.base.vertices)
            big = [[0] * (base_n * r) for _ in range(base_n * r)]
            for i in range(base_n):
                for j in range(base_n):
                    for (nu,), c in L[i][j].coeffs.items():
                        # x^nu acts as the permutation sending coset a to a + nu
                        for a in range(r):
                            big[i * r + a][j * r + (a + nu) % r] += c
            cov = cover_graph(vg, SublatticeSpec.cyclic(n))
            assert laplacian_finite(cov) == sparse_rows(big)


# -- restrictions -----------------------------------------------------------------


def test_ladder_restriction_is_open_ladder():
    sub = restriction_subgraph(example("ladder").graph, RectangleSpec((3,)))
    assert len(sub.vertices) == 6
    assert len(sub.edges) == 3 * 3 - 2


def test_grid_restriction_two_by_two_is_four_cycle():
    sub = restriction_subgraph(example("grid"), RectangleSpec((2, 2)))
    assert len(sub.vertices) == 4
    assert len(sub.edges) == 4
    assert all(sub.degree(v) == 2 for v in sub.vertices)


def test_restriction_of_size_one_has_no_edges():
    sub = restriction_subgraph(example("ladder").graph, RectangleSpec((1,)))
    assert len(sub.vertices) == 2
    assert len(sub.edges) == 1  # only the rung (voltage 0) stays
    sub2 = restriction_subgraph(example("grid"), RectangleSpec((1, 1)))
    assert len(sub2.edges) == 0


@pytest.mark.parametrize("seed", range(15))
def test_restriction_edges_plus_wrapping_count(seed):
    rng = random.Random(900 + seed)
    rank_d = rng.choice((1, 2))
    vg = random_voltage_graph(rng, rank=rank_d)
    sizes = tuple(rng.randint(1, 4) for _ in range(rank_d))
    rect = RectangleSpec(sizes)
    sub = restriction_subgraph(vg, rect)
    m = len(vg.base.edges)
    total = m
    for s in sizes:
        total *= s
    assert len(sub.edges) + wrapping_edge_count(vg, rect) == total


def test_empty_rectangle_rejected():
    with pytest.raises(ValueError):
        RectangleSpec((0,))


# -- components --------------------------------------------------------------------


def test_component_examples():
    assert len(connected_components(example("k4").graph)) == 1
    g = FiniteGraph.build(
        ["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "c", "d")]
    )
    assert connected_components(g) == [["a", "b"], ["c", "d"]]
    cov = cover_graph(example("ladder").graph, SublatticeSpec.cyclic(4))
    assert len(connected_components(cov)) == 1


@pytest.mark.parametrize("seed", range(25))
def test_components_match_union_find(seed):
    rng = random.Random(1100 + seed)
    g = random_multigraph(rng, 7, 10)
    assert len(connected_components(g)) == brute_force_components(g)


# -- sublattices --------------------------------------------------------------------


def test_sublattice_reduce_is_canonical():
    rng = random.Random(3)
    for _ in range(100):
        while True:
            rows = ((rng.randint(-4, 4), rng.randint(-4, 4)),
                    (rng.randint(-4, 4), rng.randint(-4, 4)))
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det != 0:
                break
        lam = SublatticeSpec.lattice2(rows)
        reps = lam.coset_reps()
        assert len(reps) == lam.index
        assert len(set(reps)) == lam.index
        for _ in range(5):
            v = (rng.randint(-10, 10), rng.randint(-10, 10))
            red = lam.reduce(v)
            assert red in reps
            # difference must lie in the lattice: solve integer combination
            dx, dy = v[0] - red[0], v[1] - red[1]
            (a, b), (c, d) = rows
            det = a * d - b * c
            s = (dx * d - dy * b)
            t = (a * dy - c * dx)
            assert s % det == 0 and t % det == 0


def test_sublattice_form_is_canonical():
    # the form satisfies a, c > 0, 0 <= b < c and a c = |det|, and a second
    # basis of the same lattice, the columns times a unimodular U, gives it too
    rng = random.Random(28)
    for _ in range(200):
        while True:
            rows = ((rng.randint(-6, 6), rng.randint(-6, 6)), (rng.randint(-6, 6), rng.randint(-6, 6)))
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det:
                break
        lam = SublatticeSpec.lattice2(rows)
        a, b, c = lam.form
        assert a > 0 and c > 0 and 0 <= b < c and a * c == abs(det) == lam.index
        p, q = rng.randint(-5, 5), rng.randint(-5, 5)
        # (1 p; 0 1)(1 0; q 1) has determinant 1; a swap makes it -1
        u = ((1 + p * q, p), (q, 1))
        if rng.random() < 0.5:
            u = (u[1], u[0])
        other = tuple(tuple(r[0] * u[0][k] + r[1] * u[1][k] for k in range(2)) for r in rows)
        assert SublatticeSpec.lattice2(other) == lam
        # the form's own columns span the lattice
        assert SublatticeSpec.lattice2(((a, 0), (b, c))) == lam
    assert SublatticeSpec.cyclic(5).form == (5,)


def test_sublattice_fold_moves_by_the_first_column():
    lam = SublatticeSpec.lattice2(((-2, 4), (3, -1)))
    a, b, c = lam.form
    for x in range(-7, 8):
        for y in (-3, 0, 4):
            t, z = lam.fold(x, y)
            k, r = divmod(x - t, a)
            assert 0 <= t < a and r == 0 and z == y - k * b
            assert lam.reduce((x, y)) == (t, z % c)


def test_sublattice_rejects_singular():
    with pytest.raises(ValueError):
        SublatticeSpec.lattice2(((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        SublatticeSpec.cyclic(0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SublatticeSpec.lattice2(((Fraction(5, 2), 0), (0, 2.9))),
        lambda: SublatticeSpec.lattice2(((2, 0), (0, 2.0))),
        lambda: SublatticeSpec.cyclic(2.5),
        lambda: SublatticeSpec.cyclic(Fraction(4, 2)),
    ],
)
def test_sublattice_rejects_entries_that_are_not_integers(make):
    # int() would truncate them: the first lattice would become diag(2, 2)
    with pytest.raises(ValueError, match="integer"):
        make()


def test_graph_validation_errors():
    with pytest.raises(ValueError):
        FiniteGraph.build(["v", "v"], [])
    with pytest.raises(ValueError):
        FiniteGraph.build(["v"], [("e", "v", "w")])
    with pytest.raises(ValueError):
        FiniteGraph.build(["v"], [("e", "v", "v"), ("e", "v", "v")])
    with pytest.raises(ValueError):
        VoltageGraph.build(["v"], [("e", "v", "v", (1, 0))], rank=1)


def test_bfs_potentials_forest_roots_and_loops():
    # a -> b (2), b -> c (3), c -> a (7) closes a cycle; the loop on c and the
    # isolated d are skipped and rooted on their own.
    ends = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "c")]
    pot, tree, root = bfs_potentials(["a", "b", "c", "d"], ends, [2, 3, 7, 5], ZZ)
    # BFS from a takes a -> b and c -> a (crossed backwards), not b -> c
    assert pot == {"a": 0, "b": 2, "c": -7, "d": 0}
    assert tree == {0, 2}
    assert root == {"a": "a", "b": "a", "c": "a", "d": "d"}


@pytest.mark.parametrize("seed", range(20))
def test_bfs_potentials_roots_match_components(seed):
    rng = random.Random(8000 + seed)
    g = random_multigraph(rng, 7, 8)
    pot, tree, root = bfs_potentials(g.vertices, [(e.tail, e.head) for e in g.edges], [1] * len(g.edges), ZZ)
    comps = connected_components(g)
    assert sorted(set(root.values())) == sorted(c[0] for c in comps)
    assert len(tree) == len(g.vertices) - len(comps)
    for comp in comps:
        assert {root[v] for v in comp} == {comp[0]}
