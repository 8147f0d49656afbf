"""Faces, Dehn colorings, medial components, residues, Shank basis."""

import itertools
import random
import time
from pathlib import Path

import pytest

from conftest import (
    GRAPHS,
    _grid_plane,
    cover_plane_graph,
    euler_characteristic,
    example,
    faces_by_names,
    first_nonzero_divisor,
    medial_components_by_names,
    parse_rotations,
    random_annulus_quotient,
    random_plane_graph,
    rotation_maps_by_names,
    triangle_plane,
)
from lapgraph.colorings import (
    YES,
    bicycle_basis,
    conservative_vertex_basis,
    is_conservative_edge,
)
from lapgraph.fields import GF2, QQ, PrimeField
from lapgraph.graphio import parse_graph_file
from lapgraph.graphs import FiniteGraph, VoltageGraph, connected_components, voltage_laplacian
from lapgraph.linalg import row_space_canonical
from lapgraph.planar import (
    Face,
    MedialComponent,
    PlaneGraph,
    compact_orbit_count,
    dehn_extend,
    dehn_restrict,
    face_index_of_darts,
    faces,
    medial_components,
    medial_components_voltage,
    noncompact_count,
    residue_vector,
    shank_basis,
)

GF5 = PrimeField(5)


def test_a_60_by_60_plane_grid_builds_in_under_a_second():
    # 3600 vertices and 7080 edges: the rotation check compares every vertex's rotation with its dart count
    vertices, edges, rot = _grid_plane(60, 60, wrap=False)
    t0 = time.perf_counter()
    PlaneGraph(FiniteGraph.build(vertices, [(n, t, h) for n, t, h, _ in edges]), rot)
    assert time.perf_counter() - t0 < 1.0


# -- faces -------------------------------------------------------------------------


def test_face_counts():
    assert len(faces(example("k4"))) == 4
    assert len(faces(triangle_plane())) == 2
    g = FiniteGraph.build(["v"], [("l", "v", "v")])
    pg = PlaneGraph(g, parse_rotations(g, {"v": "l.t l.h"}))
    assert len(faces(pg)) == 2


@pytest.mark.parametrize("seed", range(50))
def test_euler_formula_on_random_plane_graphs(seed):
    pg = random_plane_graph(random.Random(seed))
    assert euler_characteristic(pg) == 2


def _data_graph(name):
    return parse_graph_file((Path(__file__).with_name("data") / f"{name}.lapgraph").read_text())


def test_lone_vertex_has_one_face_and_one_strand():
    pg = _data_graph("lone_vertex")
    assert faces(pg) == [Face(())]
    assert euler_characteristic(pg) == 2
    assert medial_components(pg) == [MedialComponent((), (), None)]
    assert shank_basis(pg) == []
    dc = dehn_extend(pg, [3], 0, GF5)
    assert dc.face_colors == (0,) and dehn_restrict(dc) == [3]


def test_each_isolated_vertex_adds_one_face_and_one_strand():
    two = _data_graph("two_lone_vertices")
    assert faces(two) == [Face(()), Face(())]
    assert euler_characteristic(two) == 4
    comps = medial_components(two)
    assert len(comps) == 2 == len(conservative_vertex_basis(two.base, GF2))
    assert shank_basis(two, 1) == []
    pg, ladder = _data_graph("ladder_lone_vertex"), example("ladder")
    assert faces(pg) == faces(ladder) + [Face(())]
    assert euler_characteristic(pg) == euler_characteristic(ladder) + 2
    comps = medial_components_voltage(pg)
    assert comps == medial_components_voltage(ladder) + [MedialComponent((), (), 0)]
    assert compact_orbit_count(comps) == 1
    assert noncompact_count(comps) == noncompact_count(medial_components_voltage(ladder))


@pytest.mark.parametrize("seed", range(20))
def test_isolated_vertices_leave_the_rest_of_a_plane_graph_alone(seed):
    rng = random.Random(seed)
    pg = random_plane_graph(rng)
    lone = tuple(f"lone{i}" for i in range(rng.randint(1, 3)))
    g = FiniteGraph(pg.base.vertices + lone, pg.base.edges)
    pg2 = PlaneGraph(g, {**pg.rotations, **{v: () for v in lone}})
    assert faces(pg2) == faces(pg) + [Face(())] * len(lone)
    assert euler_characteristic(pg2) == 2 * (1 + len(lone))
    comps = medial_components(pg2)
    assert comps == medial_components(pg) + [MedialComponent((), (), None)] * len(lone)
    assert len(comps) == len(conservative_vertex_basis(g, GF2))
    assert shank_basis(pg2) == shank_basis(pg)


def _plane_corpus(seed, count=60):
    """Random finite plane graphs (not always connected) and annulus
    quotients, with loops and parallel edges, each with 0 to 2 isolated
    vertices added."""
    rng = random.Random(seed)
    for _ in range(count):
        for pg in (random_plane_graph(rng, connected=False), random_annulus_quotient(rng)):
            extra = tuple(f"lone{i}" for i in range(rng.randint(0, 2)))
            g = FiniteGraph(pg.base.vertices + extra, pg.base.edges)
            graph = g if pg.quotient is None else VoltageGraph(g, 1, pg.quotient.voltages)
            yield PlaneGraph(graph, {**pg.rotations, **dict.fromkeys(extra, ())})


def test_resolved_rotation_maps_equal_the_maps_rebuilt_by_names():
    loops = lone = 0
    for pg in _plane_corpus(4300):
        g = pg.base
        names = [(e.name, end) for e in g.edges for end in ("t", "h")]  # dart k is names[k]
        nxt, prv, opp = rotation_maps_by_names(pg)
        assert {names[k]: names[pg._next[k]] for k in range(len(names))} == nxt
        assert {names[k]: names[pg._prev[k]] for k in range(len(names))} == prv
        assert all(opp[names[k]] == names[k ^ 1] for k in range(len(names)))
        at = {d: v for v in g.vertices for d in pg.rotations.get(v, ())}
        assert all(g.vertices[g._ends[k >> 1][k & 1]] == at[names[k]] for k in range(len(names)))
        loops += any(e.tail == e.head for e in g.edges)
        lone += any(not pg.rotations.get(v) for v in g.vertices)
    assert loops >= 20 and lone >= 20  # the corpus has loops and isolated vertices


def test_dart_index_walks_equal_the_walks_by_names():
    loops = parallel = lone = quotients = 0
    for pg in _plane_corpus(4500, count=150):
        assert faces(pg) == faces_by_names(pg)
        assert medial_components(pg) == medial_components_by_names(pg)
        g = pg.base
        loops += any(t == h for t, h in g._ends)
        parallel += len(set(map(frozenset, g._ends))) < len(g._ends)
        lone += any(not pg.rotations.get(v) for v in g.vertices)
        quotients += pg.quotient is not None
    assert min(loops, parallel, lone) >= 150 and quotients == 150


def _grid(rows, cols, wrap):
    vertices, edges, rot = _grid_plane(rows, cols, wrap)
    if wrap:
        return PlaneGraph(VoltageGraph.build(vertices, [(n, t, h, (s,)) for n, t, h, s in edges], 1), rot)
    return PlaneGraph(FiniteGraph.build(vertices, [(n, t, h) for n, t, h, _ in edges]), rot)


@pytest.mark.parametrize(
    "name",
    ["k4", "ladder", "girder", "single_loop", "lone_vertex", "two_lone_vertices", "ladder_lone_vertex",
     "plane_grid_12x12", "annulus_grid_12x12"],
)
def test_dart_index_walks_equal_the_walks_by_names_on_bundled_and_grid_graphs(name):
    if name.endswith("grid_12x12"):
        pg = _grid(12, 12, wrap=name.startswith("annulus"))
    else:
        pg = example(name) if (GRAPHS / f"{name}.lapgraph").exists() else _data_graph(name)
    assert faces(pg) == faces_by_names(pg)
    assert medial_components(pg) == medial_components_by_names(pg)


def test_mutating_the_callers_rotations_leaves_the_plane_graph_alone():
    pg = example("k4")
    rot = {v: list(darts) for v, darts in pg.rotations.items()}
    own = PlaneGraph(pg.graph, rot)
    fl, comps = faces(own), medial_components(own)
    assert fl == faces(pg)
    for darts in rot.values():
        darts.reverse()
    rot[pg.base.vertices[0]] = ()
    assert own.rotations == pg.rotations
    assert faces(own) == fl and medial_components(own) == comps


def test_face_walks_partition_the_darts():
    pg = example("k4")
    fl = faces(pg)
    darts = [d for f in fl for d in f.darts]
    assert len(darts) == 2 * len(pg.base.edges)
    assert len(set(darts)) == len(darts)


def test_rotation_validation():
    g = FiniteGraph.build(["a", "b"], [("e", "a", "b")])
    with pytest.raises(ValueError):
        PlaneGraph(g, {"a": (("e", "t"), ("e", "t")), "b": (("e", "h"),)})
    with pytest.raises(ValueError):
        PlaneGraph(g, {"a": (), "b": (("e", "h"),)})
    with pytest.raises(ValueError):
        PlaneGraph(g, {"a": (("e", "h"),), "b": (("e", "t"),)})


def test_rotation_validation_messages():
    with pytest.raises(ValueError, match="plane graphs carry voltages of rank at most 1"):
        PlaneGraph(example("grid"), {})
    g = FiniteGraph.build(["a", "b"], [("e", "a", "b"), ("f", "a", "b")])
    with pytest.raises(ValueError, match=r"edge end \('e', 't'\) appears twice"):
        PlaneGraph(g, {"a": (("e", "t"), ("e", "t")), "b": (("e", "h"), ("f", "h"))})
    # an edge end left out of every rotation shortens its vertex's rotation
    with pytest.raises(ValueError, match="rotation at a has length 1, degree is 2"):
        PlaneGraph(g, {"a": (("e", "t"),), "b": (("e", "h"), ("f", "h"))})


def test_a_rotation_at_an_unknown_vertex_is_refused():
    # a key outside the graph would carry darts no vertex check ever reads
    g = FiniteGraph.build(["a", "b"], [("e", "a", "b")])
    rot = {"a": (("e", "t"),), "b": (("e", "h"),)}
    assert PlaneGraph(g, rot).rotations == rot
    for extra in ((("nope", "t"), ("e", "t")), ()):
        with pytest.raises(ValueError, match="rotation at unknown vertex 'zz'"):
            PlaneGraph(g, {**rot, "zz": extra})
    with pytest.raises(ValueError, match="rotation at unknown vertex 'zz'"):
        PlaneGraph(VoltageGraph.build(["a", "b"], [("e", "a", "b", (1,))], 1), {**rot, "zz": ()})
    text = "lapgraph v1\nvertex a\nvertex b\nedge e a b\nrot a: e.t\nrot b: e.h\nrot zz: nope.t e.t\n"
    with pytest.raises(ValueError, match="unknown vertex 'zz' in rot line"):
        parse_graph_file(text)


# -- Dehn colorings -------------------------------------------------------------------


def test_constant_coloring_extends_to_zero_faces():
    pg = example("k4")
    dc = dehn_extend(pg, [3, 3, 3, 3], 0, GF5)
    assert all(c == 0 for c in dc.face_colors)
    assert dc.vertex_colors == (3, 3, 3, 3)


def test_k4_dehn_extension_satisfies_edge_condition_everywhere():
    pg = example("k4")
    g = pg.base
    for base_face in range(4):
        dc = dehn_extend(pg, [0, 1, 1, 0], base_face, GF2)
        assert dc.face_colors[base_face] == 0
        fidx = face_index_of_darts(faces(pg))
        for e in g.edges:
            left = dc.face_colors[fidx[(e.name, "t")]]
            right = dc.face_colors[fidx[(e.name, "h")]]
            a1 = dc.vertex_colors[g.vertex_index(e.tail)]
            a2 = dc.vertex_colors[g.vertex_index(e.head)]
            assert GF2.of(a1 + right) == GF2.of(a2 + left)


def test_triangle_conservative_over_q_is_constant():
    pg = triangle_plane()
    basis = conservative_vertex_basis(pg.base, QQ)
    assert len(basis) == 1
    dc = dehn_extend(pg, basis[0], 0, QQ)
    assert all(c == 0 for c in dc.face_colors)


def test_nonconservative_coloring_rejected():
    pg = triangle_plane()
    with pytest.raises(ValueError):
        dehn_extend(pg, [1, 0, 0], 0, QQ)


def test_dehn_extend_rejects_a_base_face_out_of_range():
    with pytest.raises(ValueError, match=r"base face 2 out of range \(have 2 faces\)"):
        dehn_extend(triangle_plane(), [1, 1, 1], 2, QQ)


def test_dehn_roundtrip_k4():
    pg = example("k4")
    dc = dehn_extend(pg, [0, 1, 1, 0], 0, GF2)
    assert dehn_restrict(dc) == [0, 1, 1, 0]


@pytest.mark.parametrize("batch", range(10))
def test_dehn_roundtrip_on_random_plane_graphs_gf5(batch):
    rng = random.Random(6000 + batch)
    done = 0
    while done < 50:
        pg = random_plane_graph(rng)
        basis = conservative_vertex_basis(pg.base, GF5)
        if not basis:
            continue
        coeffs = [rng.randrange(5) for _ in basis]
        alpha = [
            sum(c * v[i] for c, v in zip(coeffs, basis)) % 5
            for i in range(len(pg.base.vertices))
        ]
        base_face = rng.randrange(len(faces(pg)))
        dc = dehn_extend(pg, alpha, base_face, GF5)
        assert dehn_restrict(dc) == alpha
        # the documented sign: gamma(left) - gamma(right) = color(tail) - color(head)
        fidx = face_index_of_darts(faces(pg))
        g = pg.base
        for e in g.edges:
            left = dc.face_colors[fidx[(e.name, "t")]]
            right = dc.face_colors[fidx[(e.name, "h")]]
            step = (alpha[g.vertex_index(e.tail)] - alpha[g.vertex_index(e.head)]) % 5
            assert (left - right) % 5 == step
        done += 1


def test_dehn_extend_colors_every_dual_component_of_a_disconnected_plane_graph():
    # a triangle and a 5-cycle: the faces off the base face's dual component
    # start at zero from their own first face, so every coloring extends
    pg = parse_graph_file((Path(__file__).with_name("data") / "triangle_and_pentagon.lapgraph").read_text())
    g = pg.base
    basis = conservative_vertex_basis(g, GF5)
    assert len(basis) == 3
    fidx = face_index_of_darts(faces(pg))
    for coeffs in itertools.product(range(5), repeat=len(basis)):
        alpha = [sum(c * v[i] for c, v in zip(coeffs, basis)) % 5 for i in range(len(g.vertices))]
        dc = dehn_extend(pg, alpha, 0, GF5)
        assert dehn_restrict(dc) == alpha
        for e in g.edges:
            left = dc.face_colors[fidx[(e.name, "t")]]
            right = dc.face_colors[fidx[(e.name, "h")]]
            assert (left - right) % 5 == (alpha[g.vertex_index(e.tail)] - alpha[g.vertex_index(e.head)]) % 5


# -- medial components -----------------------------------------------------------------


def test_k4_medial_components_and_residues():
    pg = example("k4")
    comps = medial_components(pg)
    assert len(comps) == 3
    residues = {tuple(residue_vector(pg.base, c)) for c in comps}
    assert (1, 0, 1, 0, 1, 1) in residues
    assert (1, 1, 0, 1, 0, 1) in residues


def test_single_loop_medial_is_one_component():
    # The pinched annulus boundary crosses itself at the lone edge, joining
    # the two boundary circles into one strand; this matches the kernel
    # dimension over GF(2), which is 1.
    g = FiniteGraph.build(["v"], [("l", "v", "v")])
    pg = PlaneGraph(g, parse_rotations(g, {"v": "l.t l.h"}))
    comps = medial_components(pg)
    assert len(comps) == 1
    assert comps[0].crossings == ("l", "l")
    assert len(conservative_vertex_basis(g, GF2)) == 1


def test_single_edge_medial_is_one_component():
    g = FiniteGraph.build(["a", "b"], [("e", "a", "b")])
    pg = PlaneGraph(g, parse_rotations(g, {"a": "e.t", "b": "e.h"}))
    assert len(medial_components(pg)) == 1


@pytest.mark.parametrize("seed", range(60))
def test_medial_crossings_and_component_count(seed):
    pg = random_plane_graph(random.Random(7000 + seed))
    comps = medial_components(pg)
    counts: dict[str, int] = {}
    for c in comps:
        for name in c.crossings:
            counts[name] = counts.get(name, 0) + 1
    assert all(counts.get(e.name, 0) == 2 for e in pg.base.edges)
    assert len(comps) == len(conservative_vertex_basis(pg.base, GF2))


@pytest.mark.parametrize("seed", range(60))
def test_residues_are_bicycles_random(seed):
    pg = random_plane_graph(random.Random(8000 + seed))
    for comp in medial_components(pg):
        beta = residue_vector(pg.base, comp)
        assert is_conservative_edge(pg.base, beta, GF2) == YES


# -- voltage medial ---------------------------------------------------------------------


def test_ladder_quotient_medial():
    comps = medial_components_voltage(example("ladder"))
    assert noncompact_count(comps) == 4
    assert compact_orbit_count(comps) == 0


def test_girder_quotient_medial():
    comps = medial_components_voltage(example("girder"))
    assert noncompact_count(comps) == 2
    assert compact_orbit_count(comps) == 0


def test_single_essential_loop_medial():
    comps = medial_components_voltage(example("single_loop"))
    assert noncompact_count(comps) == 2
    # cross-check: GF(2) degree of Delta_0 = 2
    L = voltage_laplacian(example("single_loop").graph)
    s, d = first_nonzero_divisor(L, GF2)
    assert s == 0 and d.degree_span()[0] == 2


@pytest.mark.parametrize("seed", range(60))
def test_gf2_degree_equals_noncompact_count_random(seed):
    pg = random_annulus_quotient(random.Random(9000 + seed))
    comps = medial_components_voltage(pg)
    L = voltage_laplacian(pg.graph)
    s, ds = first_nonzero_divisor(L, GF2)
    deg = 0 if ds.is_zero() else ds.degree_span()[0]
    assert deg == noncompact_count(comps)
    assert s == compact_orbit_count(comps)
    counts: dict[str, int] = {}
    for c in comps:
        for name in c.crossings:
            counts[name] = counts.get(name, 0) + 1
    assert all(counts.get(e.name, 0) == 2 for e in pg.base.edges)


def test_medial_dispatch_errors():
    with pytest.raises(ValueError):
        medial_components_voltage(example("k4"))


def _plane_graphs_on_disk():
    data = Path(__file__).with_name("data")
    paths = sorted(GRAPHS.glob("*.lapgraph")) + sorted(data.glob("*.lapgraph"))
    objs = [parse_graph_file(p.read_text()) for p in paths]
    return [o for o in objs if isinstance(o, PlaneGraph)]


def test_one_tracer_serves_every_voltage_plane_graph():
    quotients = [pg for pg in _plane_graphs_on_disk() if pg.quotient is not None]
    assert len(quotients) >= 4  # ladder, girder, single_loop, ladder_lone_vertex
    for pg in quotients:
        assert medial_components(pg) == medial_components_voltage(pg)
        assert all(c.winding is not None for c in medial_components(pg))


def test_shank_basis_rejects_a_voltage_quotient():
    with pytest.raises(ValueError, match="Shank basis needs a finite plane graph"):
        shank_basis(example("ladder"))


def test_shank_basis_rejects_a_base_component_out_of_range():
    pg = example("k4")
    with pytest.raises(ValueError, match="base component 3 out of range"):
        shank_basis(pg, len(medial_components(pg)))


def test_base_is_the_same_finite_graph_for_every_kind():
    pg = triangle_plane()
    g = pg.graph
    vg = VoltageGraph(g, 1, ((1,), (0,), (0,)))
    for obj, quotient in ((g, None), (vg, vg), (pg, None), (PlaneGraph(vg, pg.rotations), vg)):
        assert obj.base is g
        assert obj.quotient is quotient


# -- Shank basis ---------------------------------------------------------------------------


def test_k4_shank_basis_every_base_choice():
    pg = example("k4")
    for base in range(3):
        basis = shank_basis(pg, base)
        assert len(basis) == 2
        assert row_space_canonical(basis, GF2) == row_space_canonical(
            bicycle_basis(pg.base, GF2), GF2
        )
    # base component 2 leaves exactly the two residues printed in the example
    assert sorted(shank_basis(pg, 2)) == sorted(
        [[1, 0, 1, 0, 1, 1], [1, 1, 0, 1, 0, 1]]
    )


def test_tree_has_empty_shank_basis():
    g = FiniteGraph.build(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
    pg = PlaneGraph(
        g, parse_rotations(g, {"a": "e1.t", "b": "e1.h e2.t", "c": "e2.h"})
    )
    comps = medial_components(pg)
    assert len(comps) == 1
    assert shank_basis(pg, 0) == []


def _two_triangles() -> PlaneGraph:
    names = [f"{c}{i}" for c in "ab" for i in (1, 2, 3)]
    edges = [(f"{c}e{i}", f"{c}{i}", f"{c}{i % 3 + 1}") for c in "ab" for i in (1, 2, 3)]
    g = FiniteGraph.build(names, edges)
    rot = {f"{c}{i}": f"{c}e{i}.t {c}e{(i + 1) % 3 + 1}.h" for c in "ab" for i in (1, 2, 3)}
    return PlaneGraph(g, parse_rotations(g, rot))


def test_shank_basis_drops_one_strand_per_graph_component():
    pg = _two_triangles()
    assert len(medial_components(pg)) == 2  # one strand around each triangle
    assert shank_basis(pg, 0) == shank_basis(pg, 1) == []


@pytest.mark.parametrize("seed", range(30))
def test_shank_basis_on_random_disconnected_plane_graphs(seed):
    rng = random.Random(20000 + seed)
    while True:  # at least two graph components with edges, so with strands
        pg = random_plane_graph(rng, max_edges=12, connected=False)
        tails = {e.tail for e in pg.base.edges}
        if sum(1 for c in connected_components(pg.base) if tails & set(c)) >= 2:
            break
    for base in range(len(medial_components(pg))):
        shank_basis(pg, base)  # raises if the residues fail to be a basis


@pytest.mark.parametrize("seed", range(60))
def test_shank_basis_on_random_plane_graphs(seed):
    rng = random.Random(10000 + seed)
    pg = random_plane_graph(rng)
    comps = medial_components(pg)
    bases = range(len(comps)) if seed < 15 else [rng.randrange(len(comps))]
    for base in bases:
        shank_basis(pg, base)  # raises if the residues fail to be a basis


# -- covers -----------------------------------------------------------------------------


def test_cover_plane_graph_is_planar():
    for pg in (example("ladder"), example("girder"), example("single_loop")):
        for n in (2, 3, 5):
            cov = cover_plane_graph(pg, n)
            assert euler_characteristic(cov) == 2


def test_cover_medial_count_matches_quotient_prediction():
    # For an n-cover of an annulus quotient, each quotient trace with winding w
    # lifts to gcd(n, w) closed strands.
    from math import gcd

    pg = example("ladder")
    qcomps = medial_components_voltage(pg)
    for n in (2, 3, 4):
        cov = cover_plane_graph(pg, n)
        expect = sum(gcd(n, abs(c.winding)) for c in qcomps)
        assert len(medial_components(cov)) == expect
