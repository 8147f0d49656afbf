"""Vertex/edge colorings, cut/cycle/bicycle spaces."""

import random

import pytest

from conftest import (
    bicycle_meet_by_intersection,
    brute_force_components,
    constant_colorings_basis,
    dense,
    example,
    random_multigraph,
    random_plane_graph,
    rref_fraction,
    triangle_plane,
)
from lapgraph.colorings import (
    FAILS_CYCLE,
    FAILS_KIRCHHOFF,
    YES,
    based_vertex_basis,
    bicycle_basis,
    bicycle_basis_meet,
    conservative_vertex_basis,
    edge_from_vertex,
    is_conservative_edge,
)
from lapgraph.fields import GF2, QQ, PrimeField
from lapgraph.graphs import FiniteGraph, SublatticeSpec, cover_graph, incidence_matrix, laplacian_finite
from lapgraph.linalg import nullspace, row_space_canonical, sparse_rows, transpose
from lapgraph.planar import dehn_extend

GF3 = PrimeField(3)
GF5 = PrimeField(5)


def test_k4_conservative_dimensions():
    k4 = example("k4").graph
    assert len(conservative_vertex_basis(k4, GF2)) == 3
    assert len(conservative_vertex_basis(k4, QQ)) == 1


def test_edgeless_graph_kernel_is_everything():
    g = FiniteGraph.build(["a", "b", "c"], [])
    assert len(conservative_vertex_basis(g, QQ)) == 3


def test_constants_lie_in_kernel():
    rng = random.Random(1)
    for _ in range(50):
        g = random_multigraph(rng, 5, 8)
        fld = rng.choice((GF2, GF3, QQ))
        ker = conservative_vertex_basis(g, fld)
        span = row_space_canonical(ker, fld)
        for const in constant_colorings_basis(g, fld):
            ext = row_space_canonical(span + [const], fld)
            assert len(ext) == len(span)


def test_k4_based_basis_matches_plane_example():
    k4 = example("k4").graph
    basis = based_vertex_basis(k4, GF2, "v1")
    # the printed kernel of the reduced Laplacian, extended by 0 at the base
    want = row_space_canonical([[0, 1, 1, 0], [0, 0, 1, 1]], GF2)
    assert row_space_canonical(basis, GF2) == want
    assert based_vertex_basis(k4, QQ, "v1") == []
    single = FiniteGraph.build(["v"], [])
    assert based_vertex_basis(single, QQ, "v") == []


def test_based_basis_needs_connected_graph():
    g = FiniteGraph.build(["a", "b"], [])
    with pytest.raises(ValueError):
        based_vertex_basis(g, QQ, "a")


@pytest.mark.parametrize("fld", [GF2, QQ])
def test_based_basis_rejects_a_base_vertex_not_in_the_graph(fld):
    with pytest.raises(ValueError, match="base vertex 'nope' is not a vertex of the graph"):
        based_vertex_basis(example("k4").graph, fld, "nope")


def test_edge_from_vertex_k4_residues():
    k4 = example("k4").graph
    assert edge_from_vertex(k4, [0, 1, 1, 0], GF2) == [1, 0, 1, 0, 1, 1]
    assert edge_from_vertex(k4, [0, 1, 0, 1], GF2) == [1, 1, 0, 1, 0, 1]
    assert edge_from_vertex(k4, [1, 1, 1, 1], GF2) == [0] * 6


def test_conservative_edge_classification():
    k4 = example("k4").graph
    assert is_conservative_edge(k4, [1, 0, 1, 0, 1, 1], GF2) == YES
    tri = triangle_plane().graph
    # cyclic orientation: (1,1,1) satisfies Kirchhoff but not the cycle sum
    assert is_conservative_edge(tri, [1, 1, 1], QQ) == FAILS_CYCLE
    # (1,0,0) fails both; the cycle condition is reported first
    assert is_conservative_edge(tri, [1, 0, 0], QQ) == FAILS_CYCLE
    assert is_conservative_edge(tri, [0, 0, 0], QQ) == YES
    # a loop l at u, parallel edges p and q from u to v, and r back from v to u
    g = FiniteGraph.build("uv", [("l", "u", "u"), ("p", "u", "v"), ("q", "u", "v"), ("r", "v", "u")])
    for beta, over_gf2_gf3_qq in (
        ([0, 0, 0, 0], (YES, YES, YES)),
        ([1, 0, 0, 0], (FAILS_CYCLE, FAILS_CYCLE, FAILS_CYCLE)),
        ([2, 0, 0, 0], (YES, FAILS_CYCLE, FAILS_CYCLE)),  # the loop's 2 is 0 in GF(2)
        ([0, 1, 1, -1], (FAILS_KIRCHHOFF, YES, FAILS_KIRCHHOFF)),  # -3 at u is 0 in GF(3)
        ([0, 1, -1, -1], (FAILS_KIRCHHOFF, FAILS_CYCLE, FAILS_CYCLE)),  # p - q = 2 is 0 in GF(2)
    ):
        for fld, want in zip((GF2, GF3, QQ), over_gf2_gf3_qq):
            assert is_conservative_edge(g, beta, fld) == want, (beta, fld)


def test_conservative_edge_kirchhoff_failure():
    tri = triangle_plane().graph
    # image of a non-conservative vertex coloring: cycle holds, Kirchhoff fails
    beta = edge_from_vertex(tri, [1, 0, 0], QQ)
    assert is_conservative_edge(tri, beta, QQ) == FAILS_KIRCHHOFF


def test_loop_edge_coloring_must_vanish():
    g = FiniteGraph.build(["v"], [("l", "v", "v")])
    assert is_conservative_edge(g, [1], GF2) == FAILS_CYCLE
    assert is_conservative_edge(g, [0], GF2) == YES


@pytest.mark.parametrize("extra", [-4, -1, 1, 3])
def test_colorings_of_the_wrong_length_are_rejected(extra):
    # a long coloring was truncated without a word, a short one raised IndexError
    pg = example("k4")
    k4 = pg.graph
    alpha = [0, 1, 1, 0] + [1] * extra if extra > 0 else [0, 1, 1, 0][:extra]
    beta = [1, 0, 1, 0, 1, 1] + [0] * extra if extra > 0 else [1, 0, 1, 0, 1, 1][:extra]
    vertex_message = f"vertex coloring needs 4 entries, one per vertex, got {4 + extra}"
    with pytest.raises(ValueError, match=vertex_message):
        edge_from_vertex(k4, alpha, GF2)
    with pytest.raises(ValueError, match=vertex_message):
        dehn_extend(pg, alpha, 0, GF2)
    with pytest.raises(ValueError, match=f"edge coloring needs 6 entries, one per edge, got {6 + extra}"):
        is_conservative_edge(k4, beta, GF2)



def test_k4_bicycle_space():
    k4 = example("k4").graph
    basis = bicycle_basis(k4, GF2)
    assert len(basis) == 2
    want = row_space_canonical(
        [[1, 0, 1, 0, 1, 1], [1, 1, 0, 1, 0, 1]], GF2
    )
    assert row_space_canonical(basis, GF2) == want
    assert bicycle_basis(k4, QQ) == []


def test_ladder_cover_bicycle_dimension_over_gf3():
    # Two-method agreement is the oracle; the dimension on the finite cover
    # is its own fact (the infinite ladder has dimension 3 over any field).
    cov = cover_graph(example("ladder").graph, SublatticeSpec.cyclic(4))
    basis = bicycle_basis(cov, GF3)
    assert len(basis) == len(based_vertex_basis(cov, GF3, cov.vertices[0]))


@pytest.mark.parametrize("batch", range(10))
def test_bicycle_two_methods_agree_on_randoms(batch):
    rng = random.Random(2000 + batch)
    for _ in range(50):
        g = random_multigraph(rng, 6, 12)
        for fld in (GF2, GF3, QQ):
            assert bicycle_basis(g, fld) == bicycle_basis_meet(g, fld)


@pytest.mark.parametrize("batch", range(4))
def test_rational_bicycle_space_is_zero(batch):
    """Cut and cycle spaces are orthogonal under a positive-definite form, so
    over QQ they meet only in 0."""
    rng = random.Random(2200 + batch)
    for _ in range(60):
        g = random_multigraph(rng, 7, 14)
        assert bicycle_basis(g, QQ) == [] and bicycle_basis_meet(g, QQ) == []


@pytest.mark.parametrize("batch", range(4))
def test_bicycle_dimension_is_laplacian_nullity_minus_components(batch):
    """Q^T kills exactly the colorings constant on components, so
    dim bicycle = dim ker L - #components; the nullity comes from the oracle."""
    rng = random.Random(2300 + batch)
    for _ in range(40):
        g = random_multigraph(rng, 7, 14)
        L = dense(laplacian_finite(g), len(g.vertices))
        for fld in (GF2, GF3, GF5):
            dim = len(L) - len(rref_fraction(L, fld)[1]) - brute_force_components(g)
            assert len(bicycle_basis(g, fld)) == len(bicycle_basis_meet(g, fld)) == dim


@pytest.mark.parametrize("batch", range(6))
def test_meet_equals_the_span_intersection_with_coefficient_types(batch):
    rng = random.Random(2100 + batch)
    for i in range(30):
        g = random_multigraph(rng, 6, 12) if i % 2 else random_plane_graph(rng, 10, connected=False).base
        for fld in (GF2, GF3, GF5, QQ):
            got = bicycle_basis_meet(g, fld)
            want = bicycle_meet_by_intersection(g, fld)
            assert got == want
            assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]


@pytest.mark.parametrize("seed", range(30))
def test_kernel_of_qt_is_constants_on_connected(seed):
    rng = random.Random(3000 + seed)
    g = random_multigraph(rng, 6, 10, connected=True)
    fld = rng.choice((GF2, GF3, QQ))
    Qt = transpose(dense(incidence_matrix(g), len(g.edges)))  # no rows if no edges
    ker = nullspace(sparse_rows(Qt), len(g.vertices), fld)
    assert len(ker) == 1
    assert row_space_canonical(ker, fld) == row_space_canonical(
        [[fld.one] * len(g.vertices)], fld
    )


@pytest.mark.parametrize("seed", range(40))
def test_based_colorings_isomorphic_to_bicycles(seed):
    rng = random.Random(4000 + seed)
    g = random_multigraph(rng, 6, 10, connected=True)
    fld = rng.choice((GF2, GF3, GF5, QQ))
    base = g.vertices[0]
    based = based_vertex_basis(g, fld, base)
    bicycles = bicycle_basis(g, fld)
    assert len(based) == len(bicycles)
    images = [edge_from_vertex(g, v, fld) for v in based]
    assert row_space_canonical(images, fld) == row_space_canonical(bicycles, fld)


@pytest.mark.parametrize("seed", range(40))
def test_every_bicycle_is_a_conservative_edge_coloring(seed):
    rng = random.Random(5000 + seed)
    g = random_multigraph(rng, 6, 10)
    fld = rng.choice((GF2, GF3, QQ))
    for beta in bicycle_basis(g, fld):
        assert is_conservative_edge(g, beta, fld) == YES
