"""Tree counts, complexity, CRSFs, annular connectivity, growth reports."""

import math
import random
from pathlib import Path

import pytest

from conftest import (
    brute_force_tree_count,
    crsf_tally_by_bfs,
    dense,
    example,
    random_annulus_quotient,
    random_multigraph,
    random_voltage_graph,
    root_of_unity_norm_by_division,
    single_loop_quotient,
    sparse_rows,
    wrapping_edge_count,
)
from lapgraph.fields import QQ, ZZ
from lapgraph.graphio import parse_graph_file
from lapgraph.graphs import (
    FiniteGraph,
    RectangleSpec,
    SublatticeSpec,
    VoltageGraph,
    connected_components,
    cover_graph,
    laplacian_finite,
    restriction_subgraph,
    voltage_laplacian,
)
from lapgraph.laurent import normalize, parse_poly
from lapgraph.linalg import det_laurent, elementary_divisor, int_det
from lapgraph import spanning
from lapgraph.spanning import (
    CRSF_MAX_EDGES,
    annular_connectivity,
    complexity,
    cover_complexity,
    cover_rows,
    crsf_coefficients,
    cyclic_cover_complexity,
    grimmett_bound,
    growth_covers,
    growth_restrictions,
    laplacian_determinant_polynomial,
    minimum_annular_cut,
    split_at_annular_cut,
    tree_count,
)

X_MINUS_1_SQ = parse_poly("1 - 2x + x^2")


def test_tree_count_examples():
    assert tree_count(example("k4").graph) == 16
    cl3 = cover_graph(example("ladder").graph, SublatticeSpec.cyclic(3))
    assert tree_count(cl3) == 75
    assert brute_force_tree_count(cl3) == 75
    single = FiniteGraph.build(["v"], [])
    assert tree_count(single) == 1


def test_tree_count_rejects_disconnected():
    g = FiniteGraph.build(["a", "b"], [])
    with pytest.raises(ValueError):
        tree_count(g)


@pytest.mark.parametrize("seed", range(25))
def test_tree_count_independent_of_deleted_index(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, 5, 9, connected=True)
    counts = set()
    for i in range(len(g.vertices)):
        L = dense(laplacian_finite(g), len(g.vertices))
        del L[i]
        counts.add(abs(int_det(sparse_rows([row[:i] + row[i + 1 :] for row in L]))))
    assert counts == {tree_count(g)}


@pytest.mark.parametrize("batch", range(10))
def test_tree_count_against_brute_force(batch):
    rng = random.Random(100 + batch)
    for _ in range(50):
        g = random_multigraph(rng, 5, 9, connected=True)
        assert tree_count(g) == brute_force_tree_count(g)


def _fourth_order(a: int, b: int, n: int) -> int:
    """n-th term of x_{k+1} = 4 x_k - x_{k-1} with x_0 = a, x_1 = b."""
    for _ in range(n):
        a, b = b, 4 * b - a
    return a


# Closed forms at sizes where a dense O(N^3) elimination takes minutes.


def test_ladder_cover_closed_form_at_512_sheets():
    # C_n x K2: n L_n / 2 - n with L_n = (2 + sqrt 3)^n + (2 - sqrt 3)^n
    n = 512
    cover = cover_graph(example("ladder").graph, SublatticeSpec.cyclic(n))
    assert complexity(cover) == n * _fourth_order(2, 4, n) // 2 - n


def test_circulant_cover_closed_form_at_1000_sheets():
    # C_n(1, 2): n F_n^2 (Boesch-Prodinger)
    n = 1000
    f0, f1 = 0, 1
    for _ in range(n):
        f0, f1 = f1, f0 + f1
    assert complexity(cover_graph(example("circulant12"), SublatticeSpec.cyclic(n))) == n * f0 * f0


@pytest.mark.parametrize("batch", range(8))
def test_cyclic_cover_complexity_matches_the_built_cover(batch):
    # Random rank-1 quotients, connected or not, with every voltage scaled by
    # 0 (cycle-voltage gcd g = 0), 1, 2 or 3 (g > 1: disconnected covers).
    rng = random.Random(9100 + batch)
    kinds = set()
    for _ in range(25):
        vg = random_voltage_graph(rng, 1, 5, 9, connected=rng.random() < 0.5)
        scale = rng.choice((0, 1, 1, 2, 3))
        vg = VoltageGraph(vg.base, 1, tuple((scale * s,) for (s,) in vg.voltages))
        parts = len(connected_components(vg.base))
        kinds.add("disconnected quotient" if parts > 1 else "connected quotient")
        for n in range(1, 14):
            cov = cover_graph(vg, SublatticeSpec.cyclic(n))
            if n > 1 and len(connected_components(cov)) > parts:
                kinds.add("disconnected cover")
            assert cyclic_cover_complexity(vg, n) == complexity(cov)
    assert kinds == {"connected quotient", "disconnected quotient", "disconnected cover"}


def test_cyclic_cover_complexity_closed_forms_at_ten_thousand_sheets():
    n = 10**4
    assert cyclic_cover_complexity(example("ladder").graph, n) == n * _fourth_order(2, 4, n) // 2 - n
    f0, f1 = 0, 1
    for _ in range(n):
        f0, f1 = f1, f0 + f1
    assert cyclic_cover_complexity(example("circulant12"), n) == n * f0 * f0


@pytest.mark.parametrize("seed", range(10))
def test_root_of_unity_norm_matches_the_long_division_oracle(seed):
    rng = random.Random(5200 + seed)
    for _ in range(30):
        h = [rng.randint(-9, 9) for _ in range(rng.randint(0, 7))] + [rng.choice([1, -1, 2, -3, 7, 60])]
        m = rng.randint(1, 40)
        assert spanning._root_of_unity_norm(h, m) == root_of_unity_norm_by_division(h, m), (h, m)


def test_cyclic_cover_complexity_of_degenerate_quotients():
    triangle = VoltageGraph.build(
        ["a", "b", "c"],
        [("x", "a", "b", (0,)), ("y", "b", "c", (0,)), ("z", "c", "a", (0,))],
        rank=1,
    )
    assert cyclic_cover_complexity(triangle, 5) == 3**5  # g = 0: five triangles
    assert cyclic_cover_complexity(single_loop_quotient(3), 6) == 2**3  # three 2-cycles
    lone = VoltageGraph.build(["v"], [], rank=1)
    assert cyclic_cover_complexity(lone, 7) == 1
    with pytest.raises(ValueError):
        cyclic_cover_complexity(example("grid"), 2)
    for bad in (0, -3, 2.0, 4.5, "4"):
        for vg in (lone, example("ladder").graph):
            with pytest.raises(ValueError, match="sublattice index must be an integer at least 1"):
                cyclic_cover_complexity(vg, bad)
        with pytest.raises(ValueError):
            cover_rows(example("ladder").graph, [bad])
        with pytest.raises(ValueError):
            growth_covers(example("ladder").graph, [bad], fibers=16)


def _union(p: VoltageGraph, q: VoltageGraph, scale: int) -> VoltageGraph:
    """Disjoint union of two quotients of one rank, q's voltages times scale."""
    vs = [f"p{v}" for v in p.base.vertices] + [f"q{v}" for v in q.base.vertices]
    es = [(f"p{e.name}", f"p{e.tail}", f"p{e.head}", s) for e, s in zip(p.base.edges, p.voltages)]
    es += [
        (f"q{e.name}", f"q{e.tail}", f"q{e.head}", tuple(scale * a for a in s))
        for e, s in zip(q.base.edges, q.voltages)
    ]
    return VoltageGraph.build(vs, es, p.rank)


def _random_lattice_rows(rng) -> tuple[tuple[int, int], tuple[int, int]]:
    while True:
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(2))
        if 0 < abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) <= 20:
            return m


# Hermite forms (a, b, c): index 1; a = 1 with b != 0, where the fold is the
# quotient with voltages s2 - b s1; and negative entries with a = 2, b != 0.
FIXED_LATTICES = (((1, 0), (0, 1)), ((1, 0), (2, 5)), ((-2, 4), (3, -1)))


@pytest.mark.parametrize("batch", range(8))
def test_rank2_cover_complexity_matches_the_built_cover(batch):
    # Random rank-2 quotients, connected or not, some of them the union of two
    # quotients with one's voltages scaled by 1, 2 or 3, against random
    # sublattices with entries in [-4, 4] and index <= 20 and FIXED_LATTICES.
    rng = random.Random(9300 + batch)
    kinds = set()
    for _ in range(12):
        vg = random_voltage_graph(rng, 2, 4, 7, connected=rng.random() < 0.5)
        if rng.random() < 0.4:
            vg = _union(vg, random_voltage_graph(rng, 2, 3, 5), rng.choice((1, 2, 3)))
        parts = len(connected_components(vg.base))
        kinds.add("disconnected quotient" if parts > 1 else "connected quotient")
        for rows in (_random_lattice_rows(rng), *FIXED_LATTICES):
            lam = SublatticeSpec.lattice2(rows)
            a, b, _ = lam.form
            if lam.index == 1:
                kinds.add("index 1")
            if a == 1 and b:
                kinds.add("a = 1, b != 0")
            if min(min(row) for row in rows) < 0:
                kinds.add("negative entries")
            cov = cover_graph(vg, lam)
            if len(connected_components(cov)) > parts:
                kinds.add("disconnected cover")
            assert cover_complexity(vg, lam) == complexity(cov)
    assert kinds == {
        "connected quotient",
        "disconnected quotient",
        "index 1",
        "a = 1, b != 0",
        "negative entries",
        "disconnected cover",
    }


def test_cover_count_from_an_inconsistent_delta0_raises_arithmetic_error():
    # the loop's cycle voltage is 2, so its Delta_0 must be a polynomial in x^2
    with pytest.raises(ArithmeticError, match=r"Delta_0 is not a polynomial in x\^c"):
        cyclic_cover_complexity(single_loop_quotient(2), 4, d0=X_MINUS_1_SQ)


def test_cover_complexity_rejects_a_rank_mismatch():
    with pytest.raises(ValueError):
        cover_complexity(example("ladder").graph, SublatticeSpec.lattice2(((2, 0), (0, 2))))
    with pytest.raises(ValueError):
        cover_complexity(example("grid"), SublatticeSpec.cyclic(2))


def test_torus_cover_closed_form_at_32_by_32():
    # log tau(C_n x C_n) = sum over (j, k) != (0, 0) of
    # log(4 - 2 cos(2 pi j / n) - 2 cos(2 pi k / n)) - 2 log n
    n = 32
    t = cover_complexity(example("grid"), SublatticeSpec.lattice2(((n, 0), (0, n))))
    expect = math.fsum(
        math.log(4 - 2 * math.cos(2 * math.pi * j / n) - 2 * math.cos(2 * math.pi * k / n))
        for j in range(n)
        for k in range(n)
        if (j, k) != (0, 0)
    ) - 2 * math.log(n)
    assert abs(math.log(t) - expect) <= 1e-12 * expect


def test_growth_covers_takes_delta0_once(monkeypatch):
    calls = []
    real = spanning.laplacian_determinant_polynomial
    monkeypatch.setattr(
        spanning, "laplacian_determinant_polynomial", lambda vg: calls.append(vg) or real(vg)
    )
    report = growth_covers(example("ladder").graph, [2, 4, 8], fibers=64)
    assert len(calls) == 1
    assert [t for _, t, _ in report.rows] == [12, 384, 8 * _fourth_order(2, 4, 8) // 2 - 8]


def test_ladder_strip_closed_form_at_512_vertices():
    # P_n x K2: ((2 + sqrt 3)^n - (2 - sqrt 3)^n) / (2 sqrt 3)
    assert [_fourth_order(0, 1, n) for n in range(1, 5)] == [1, 4, 15, 56]
    strip = restriction_subgraph(example("ladder").graph, RectangleSpec((256,)))
    assert len(strip.vertices) == 512
    assert tree_count(strip) == _fourth_order(0, 1, 256)


def test_complexity_examples():
    two_triangles = FiniteGraph.build(
        ["a", "b", "c", "d", "e", "f"],
        [
            ("t1", "a", "b"), ("t2", "b", "c"), ("t3", "c", "a"),
            ("s1", "d", "e"), ("s2", "e", "f"), ("s3", "f", "d"),
        ],
    )
    assert complexity(two_triangles) == 9
    assert complexity(example("k4").graph) == 16
    assert complexity(FiniteGraph.build(["a", "b"], [])) == 1


@pytest.mark.parametrize("batch", range(6))
def test_complexity_is_the_product_over_components(batch):
    # disconnected multigraphs with loops, multi-edges and isolated vertices
    rng = random.Random(150 + batch)
    for _ in range(40):
        g = random_multigraph(rng, 7, 8)
        want = 1
        for comp in connected_components(g):
            keep = set(comp)
            want *= brute_force_tree_count(
                FiniteGraph(tuple(comp), tuple(e for e in g.edges if e.tail in keep))
            )
        assert complexity(g) == want


def test_complexity_takes_one_determinant_whatever_the_components(monkeypatch):
    orders = []

    def spy(M):
        orders.append(len(M))
        return int_det(M)

    monkeypatch.setattr(spanning, "int_det", spy)
    k4 = example("k4").graph
    for parts in range(4):
        vertices = [f"{v}{i}" for i in range(parts) for v in k4.vertices] + ["lone"]
        edges = [(f"{e.name}{i}", f"{e.tail}{i}", f"{e.head}{i}") for i in range(parts) for e in k4.edges]
        orders.clear()
        assert complexity(FiniteGraph.build(vertices, edges)) == 16**parts
        assert orders == [3 * parts]
    rng = random.Random(160)
    for _ in range(50):
        g = random_multigraph(rng, 7, 8)
        orders.clear()
        complexity(g)
        assert orders == [len(g.vertices) - len(connected_components(g))]


def test_tree_counts_take_one_component_pass(monkeypatch):
    passes = []

    def spy(g):
        passes.append(g)
        return connected_components(g)

    monkeypatch.setattr(spanning, "connected_components", spy)
    ladder = example("ladder")
    for count in (
        lambda: tree_count(cover_graph(ladder.graph, SublatticeSpec.cyclic(5))),
        lambda: complexity(example("k4").graph),
        lambda: growth_restrictions(ladder.graph, [4], fibers=16),
    ):
        passes.clear()
        count()
        assert len(passes) == 1


def test_cover_counts_take_no_component_pass_of_their_own(monkeypatch):
    # the potentials that split the quotient into components are its only pass
    passes = []
    monkeypatch.setattr(spanning, "connected_components", lambda g: passes.append(g) or connected_components(g))
    ladder, grid = example("ladder").graph, example("grid")
    two_ladders = _union(ladder, ladder, 1)
    cases = [
        (ladder, SublatticeSpec.cyclic(8)),
        (two_ladders, SublatticeSpec.cyclic(6)),
        (grid, SublatticeSpec.lattice2(((2, 1), (1, 3)))),
    ]
    counts = [cover_complexity(vg, lam) for vg, lam in cases]
    assert passes == []
    monkeypatch.undo()
    assert counts == [complexity(cover_graph(vg, lam)) for vg, lam in cases]


def test_complexity_builds_no_dense_laplacian(monkeypatch):
    built = []

    def spy(g):
        rows = laplacian_finite(g)
        assert all(isinstance(row, dict) and 0 not in row.values() for row in rows)
        built.append(len(rows))
        return rows

    monkeypatch.setattr(spanning, "laplacian_finite", spy)
    rng = random.Random(161)
    for _ in range(40):
        g = random_multigraph(rng, 7, 10)
        built.clear()
        want = 1
        for comp in connected_components(g):
            keep = set(comp)
            want *= brute_force_tree_count(FiniteGraph(tuple(comp), tuple(e for e in g.edges if e.tail in keep)))
        assert complexity(g) == want
        assert built == [len(g.vertices)]  # the sparse rows, sliced once
    n = 64
    cover = cover_graph(example("ladder").graph, SublatticeSpec.cyclic(n))
    assert complexity(cover) == n * _fourth_order(2, 4, n) // 2 - n


# -- CRSFs ------------------------------------------------------------------------


def test_ladder_crsf_coefficients():
    rep = crsf_coefficients(example("ladder").graph)
    assert rep.coefficients == {1: 2, 2: 1}
    det = det_laurent(voltage_laplacian(example("ladder").graph))
    assert rep.reconstruction == det
    assert normalize(rep.reconstruction, ZZ) == laplacian_determinant_polynomial(
        example("ladder").graph
    )


def test_single_loop_crsf():
    rep = crsf_coefficients(example("single_loop").graph)
    assert rep.coefficients == {1: 1}
    assert rep.reconstruction == parse_poly("2 - x - x^-1")


def test_girder_crsf_reconstruction():
    rep = crsf_coefficients(example("girder").graph)
    det = det_laurent(voltage_laplacian(example("girder").graph))
    assert rep.reconstruction == det
    assert rep.max_winding == 1


def test_circulant_needs_general_form():
    rep = crsf_coefficients(example("circulant12"))
    det = det_laurent(voltage_laplacian(example("circulant12")))
    assert rep.max_winding == 2
    assert rep.general_reconstruction == det
    assert rep.reconstruction != det  # annulus specialization does not apply


def test_crsf_size_guard():
    n = CRSF_MAX_EDGES + 1
    edges = [(f"e{i}", f"v{i}", f"v{(i + 1) % n}", (1 if i == 0 else 0,)) for i in range(n)]
    vg = VoltageGraph.build([f"v{i}" for i in range(n)], edges, 1)
    with pytest.raises(ValueError, match="too large"):
        crsf_coefficients(vg)


@pytest.mark.parametrize("seed", range(40))
def test_general_crsf_reconstruction_equals_determinant(seed):
    rng = random.Random(300 + seed)
    vg = random_voltage_graph(rng, rank=1, max_vertices=4, max_edges=7, connected=False)
    rep = crsf_coefficients(vg)
    det = det_laurent(voltage_laplacian(vg))
    assert rep.general_reconstruction == det


@pytest.mark.parametrize("seed", range(25))
def test_annulus_crsf_reconstruction_matches_delta0(seed):
    pg = random_annulus_quotient(random.Random(600 + seed))
    vg = pg.graph
    rep = crsf_coefficients(vg)
    assert rep.max_winding <= 1
    d0 = elementary_divisor(voltage_laplacian(vg), 0, ZZ)
    if d0.is_zero():
        assert rep.reconstruction.is_zero()
    else:
        assert normalize(rep.reconstruction, ZZ) == d0


@pytest.mark.parametrize("seed", range(30))
def test_annulus_sum_is_the_product_form_when_every_winding_is_one(seed):
    rng = random.Random(900 + seed)
    for vg in (
        random_voltage_graph(rng, rank=1, max_vertices=4, max_edges=7, connected=False),
        random_annulus_quotient(rng).graph,
    ):
        rep = crsf_coefficients(vg)
        if rep.max_winding <= 1:
            assert rep.reconstruction == rep.general_reconstruction


@pytest.mark.parametrize("batch", range(6))
def test_crsf_union_find_tally_equals_the_bfs_enumeration(batch, monkeypatch):
    """Loops, multi-edges, zero voltages, isolated vertices, voltage spans 0-5;
    the union-find never calls bfs_potentials."""

    def no_bfs(*args):
        raise AssertionError("crsf_coefficients called bfs_potentials")

    monkeypatch.setattr(spanning, "bfs_potentials", no_bfs)
    rng = random.Random(1700 + batch)
    for _ in range(250):
        g = random_multigraph(rng, 7, 12, connected=rng.random() < 0.5)
        span = rng.randint(0, 5)
        vg = VoltageGraph(g, 1, tuple((rng.randint(-span, span),) for _ in g.edges))
        want = crsf_tally_by_bfs(vg)
        assert spanning._crsf_tally(vg) == want, vg
        rep = crsf_coefficients(vg)
        assert sum(rep.coefficients.values()) == sum(want.values())
        assert rep.max_winding == max((w[-1] for w in want), default=0)


# -- annular connectivity -----------------------------------------------------------


def test_kappa_examples():
    assert annular_connectivity(example("ladder").graph) == 2
    assert minimum_annular_cut(example("ladder").graph) == ["v1", "v2"]
    assert annular_connectivity(example("girder").graph) == 2
    assert annular_connectivity(example("single_loop").graph) == 1


def test_degree_equals_twice_kappa_on_plane_quotients():
    for vg in (example("ladder").graph, example("girder").graph, example("single_loop").graph):
        d0 = elementary_divisor(voltage_laplacian(vg), 0, QQ)
        assert d0.degree_span()[0] == 2 * annular_connectivity(vg)


def test_circulant_breaks_degree_formula_without_planarity():
    vg = example("circulant12")
    d0 = elementary_divisor(voltage_laplacian(vg), 0, QQ)
    assert annular_connectivity(vg) == 1
    assert d0.degree_span()[0] == 4  # 2 kappa would be 2


@pytest.mark.parametrize("seed", range(20))
def test_degree_twice_kappa_on_random_annulus_quotients(seed):
    pg = random_annulus_quotient(random.Random(900 + seed))
    vg = pg.graph
    d0 = elementary_divisor(voltage_laplacian(vg), 0, QQ)
    if d0.is_zero():
        return
    assert d0.degree_span()[0] == 2 * annular_connectivity(vg)


# -- the kappa = 1 split ---------------------------------------------------------------


def _kappa_one_cases():
    loop_plus_pendant_double = VoltageGraph.build(
        ["v", "u"],
        [("l", "v", "v", (1,)), ("p1", "v", "u", (0,)), ("p2", "v", "u", (0,))],
        rank=1,
    )
    loop_plus_skew_pendant = VoltageGraph.build(
        ["v", "u"],
        [("l", "v", "v", (1,)), ("p1", "v", "u", (0,)), ("p2", "v", "u", (1,))],
        rank=1,
    )
    loop_plus_triangle = VoltageGraph.build(
        ["v", "u", "w"],
        [
            ("l", "v", "v", (1,)),
            ("e1", "v", "u", (0,)),
            ("e2", "u", "w", (0,)),
            ("e3", "w", "v", (0,)),
        ],
        rank=1,
    )
    return [
        example("single_loop").graph,
        loop_plus_pendant_double,
        loop_plus_skew_pendant,
        loop_plus_triangle,
    ]


@pytest.mark.parametrize("case", range(4))
def test_kappa_one_corollary(case):
    vg = _kappa_one_cases()[case]
    assert annular_connectivity(vg) == 1
    H = split_at_annular_cut(vg)
    tau = tree_count(H)
    d0 = laplacian_determinant_polynomial(vg)
    assert d0 == normalize(tau * X_MINUS_1_SQ, ZZ)
    assert d0 == tau * X_MINUS_1_SQ  # normalized form keeps the content


def test_split_rejects_kappa_two():
    with pytest.raises(ValueError):
        split_at_annular_cut(example("ladder").graph)


# -- growth ------------------------------------------------------------------------------


def test_ladder_growth_covers_values():
    report = growth_covers(example("ladder").graph, [2, 3, 4])
    assert [t for _, t, _ in report.rows] == [12, 75, 384]
    assert abs(report.reference - math.log(2 + math.sqrt(3))) < 1e-12
    for r, t, lg in report.rows:
        assert abs(lg - math.log(t) / r) < 1e-15


def test_single_loop_growth_is_cycle_graph():
    report = growth_covers(example("single_loop").graph, [4, 8, 16])
    assert [t for _, t, _ in report.rows] == [4, 8, 16]  # tau(C_n) = n
    assert report.reference == 0.0
    assert report.rows[-1][2] == math.log(16) / 16


def test_growth_restrictions_ladder():
    report = growth_restrictions(example("ladder").graph, [4, 8, 16])
    assert report.rows[0][0] == 8  # vertex count
    assert abs(report.reference - math.log(2 + math.sqrt(3)) / 2) < 1e-12
    gaps = [abs(lg - report.reference) for _, _, lg in report.rows]
    assert gaps[-1] < gaps[0]


def test_single_loop_restriction_is_a_path():
    report = growth_restrictions(example("single_loop").graph, [4, 8])
    assert [t for _, t, _ in report.rows] == [1, 1]  # tau of a path
    assert [lg for _, _, lg in report.rows] == [0.0, 0.0]


def test_mitsubishi_growth_matches_two_variable_mahler():
    report = growth_covers(example("mitsubishi"), [8], fibers=1024)
    r, _, lg = report.rows[-1]
    assert r == 64
    assert abs(lg - report.reference) < 0.05


def test_growth_restrictions_counts_each_box_by_its_complexity():
    # the box of size 1 holds a@0 and b@0 and no edge: it is disconnected
    vg = VoltageGraph.build(
        ["a", "b"],
        [("la", "a", "a", (1,)), ("lb", "b", "b", (1,)), ("c", "a", "b", (1,))],
        rank=1,
    )
    assert len(connected_components(restriction_subgraph(vg, RectangleSpec((1,))))) == 2
    data = Path(__file__).with_name("data")
    sized = [parse_graph_file((data / f"{n}.lapgraph").read_text()) for n in ("sized_rank1_8", "sized_rank2_4")]
    for g in [vg, *sized]:
        schedule = [1, 2, 3]
        report = growth_restrictions(g, schedule, fibers=64)
        boxes = [restriction_subgraph(g, RectangleSpec((n,) * g.rank)) for n in schedule]
        assert [(s, t) for s, t, _ in report.rows] == [(len(b.vertices), complexity(b)) for b in boxes]
    # sized_rank1_8's first box at the CLI's schedule is disconnected too
    assert len(connected_components(restriction_subgraph(sized[0], RectangleSpec((2,))))) > 1


def test_growth_restrictions_rejects_a_quotient_with_no_vertices():
    for rank in (1, 2):
        with pytest.raises(ValueError, match="at least one vertex"):
            growth_restrictions(VoltageGraph.build([], [], rank), [2])


def test_disconnected_cover_uses_complexity_product():
    # loop with voltage 2: the 4-sheeted cover is two disjoint 2-cycles
    vg = single_loop_quotient(2)
    cov = cover_graph(vg, SublatticeSpec.cyclic(4))
    assert complexity(cov) == 4  # tau(C_2 with doubled edge) = 2 per part
    report = growth_covers(vg, [4])
    assert report.rows[0][1] == 4


def test_grimmett_bound_values():
    assert abs(grimmett_bound(example("ladder").graph) - 2.1972245773362196) < 1e-12
    assert abs(grimmett_bound(example("grid")) - 1.3862943611198906) < 1e-12
    same = VoltageGraph.build(
        ["a", "b"], [("e1", "a", "b", (0,)), ("e2", "a", "b", (1,))], rank=1
    )
    assert abs(grimmett_bound(same) - 2 * math.log(2)) < 1e-12


def test_grimmett_bound_dominates_mahler_on_corpus():
    from lapgraph.mahler import mahler_1var, mahler_2var

    for vg in (
        example("ladder").graph,
        example("girder").graph,
        example("single_loop").graph,
        example("circulant12"),
    ):
        d0 = laplacian_determinant_polynomial(vg)
        assert grimmett_bound(vg) >= mahler_1var(d0).value - 1e-9
    for vg in (example("grid"),):
        d0 = laplacian_determinant_polynomial(vg)
        assert grimmett_bound(vg) >= mahler_2var(d0, 256).value - 1e-6


def test_restriction_edge_identity_on_named_quotients():
    for vg, rect in ((example("ladder").graph, RectangleSpec((5,))),
                     (example("grid"), RectangleSpec((3, 4)))):
        sub = restriction_subgraph(vg, rect)
        m = len(vg.base.edges)
        size = 1
        for s in rect.sizes:
            size *= s
        assert len(sub.edges) + wrapping_edge_count(vg, rect) == m * size
