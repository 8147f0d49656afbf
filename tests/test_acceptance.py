"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 5 are asserted exactly as stated and marked strict-xfail: the
exact values they demand are unattainable by any implementation.
tau(CL_n) = (n/2)((2+sqrt3)^n + (2-sqrt3)^n) - n forces a ladder cover gap of
log(n/2)/n + o(1/n), which is 0.05415 at n = 64 (the criterion wants < 0.05),
and the gap rises from n = 4 to n = 8 before falling (384 -> 150528), so
"strictly decreasing" fails as well; tau(C_n^{1,2}) = n F_n^2 makes the
circulant gap (log n - log 5)/n + o(1/n), which rises from n = 8 to n = 16.
The 12 x 12 grid patch gives (1/144) log tau = 1.01490, a gap of 0.1511 to
1.166 against the stated 0.15.  Companion tests pin the true convergence.
"""

import math
import random
import time

import pytest

from conftest import brute_force_tree_count, example, first_nonzero_divisor, random_annulus_quotient, random_multigraph, random_plane_graph, random_voltage_graph
from lapgraph.colorings import (
    YES,
    bicycle_basis,
    bicycle_basis_meet,
    conservative_vertex_basis,
    is_conservative_edge,
)
from lapgraph.fields import GF2, QQ, ZZ, PrimeField
from lapgraph.graphs import voltage_laplacian
from lapgraph.laurent import divides, normalize, parse_poly
from lapgraph.linalg import elementary_divisor
from lapgraph.mahler import mahler_1var, mahler_2var
from lapgraph.planar import (
    compact_orbit_count,
    dehn_extend,
    dehn_restrict,
    faces,
    medial_components,
    medial_components_voltage,
    noncompact_count,
    residue_vector,
    shank_basis,
)
from lapgraph.spanning import (
    annular_connectivity,
    crsf_coefficients,
    grimmett_bound,
    growth_covers,
    growth_restrictions,
    laplacian_determinant_polynomial,
    split_at_annular_cut,
    tree_count,
)

GF5 = PrimeField(5)
LOG_2_PLUS_SQRT3 = math.log(2 + math.sqrt(3))
LOG_GOLDEN_SQ = math.log((3 + math.sqrt(5)) / 2)


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_delta_zero_exact_matches():
    t0 = time.perf_counter()
    checks = []

    def delta(vg, dom):
        return elementary_divisor(voltage_laplacian(vg), 0, dom)

    x12 = parse_poly("x^2-2x+1")
    checks.append(delta(example("ladder").graph, ZZ) == normalize(x12 * parse_poly("x^2-4x+1"), ZZ))
    checks.append(delta(example("girder").graph, QQ) == normalize(x12 * parse_poly("4x^2-17x+4"), QQ))
    checks.append(delta(example("girder").graph, GF2) == parse_poly("1+x^2").reduce_to(GF2))
    checks.append(
        delta(example("grid"), ZZ) == normalize(parse_poly("4-x-x^-1-y-y^-1"), ZZ)
    )
    mits = delta(example("mitsubishi"), ZZ)
    core = parse_poly("6 - x - x^-1 - y - y^-1 - x*y^-1 - x^-1*y")
    checks.append(mits == normalize(6 * core, ZZ))
    checks.append(delta(example("mitsubishi"), GF2).is_zero())
    checks.append(
        delta(example("circulant12"), ZZ) == normalize(x12 * parse_poly("x^2+3x+1"), ZZ)
    )
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 7.0  # < 1 s each
    assert report(1, ok, f"7 Delta_0 values exact in {elapsed:.3f}s"), checks
    assert elapsed < 7.0


def test_criterion_02_mahler_one_variable():
    mahler_1var(parse_poly("x^2-1"))  # warm up
    t0 = time.perf_counter()
    e1 = abs(mahler_1var(parse_poly("x^2-4x+1")).value - LOG_2_PLUS_SQRT3)
    e2 = abs(mahler_1var(parse_poly("x^2+3x+1")).value - LOG_GOLDEN_SQ)
    e3 = abs(mahler_1var(parse_poly("x^2-2x+1")).value)
    elapsed = time.perf_counter() - t0
    ok = e1 < 1e-9 and e2 < 1e-9 and e3 < 1e-12 and elapsed < 0.1
    assert report(
        2, ok, f"errors {e1:.2e}, {e2:.2e}, {e3:.2e} in {elapsed * 1000:.1f}ms"
    )


def test_criterion_03_mahler_two_variables():
    t0 = time.perf_counter()
    res = mahler_2var(parse_poly("4-x-x^-1-y-y^-1"), fibers=1024)
    elapsed = time.perf_counter() - t0
    gap = abs(res.value - 1.16624)
    ok = gap < 2e-3 and elapsed < 60.0
    assert report(3, ok, f"m = {res.value:.6f}, gap {gap:.2e}, {elapsed:.2f}s")


def _cover_gaps(vg, schedule):
    rep = growth_covers(vg, schedule)
    return [abs(lg - rep.reference) for _, _, lg in rep.rows]


@pytest.mark.xfail(
    strict=True,
    reason="exact values: ladder gap at n=64 is 0.05415 (not < 0.05) and the gap "
    "sequence rises from n=4 to n=8; the circulant gap rises from n=8 to n=16",
)
def test_criterion_04_tree_growth_as_stated():
    t0 = time.perf_counter()
    schedule = [4, 8, 16, 32, 64]
    ok = True
    for vg, name in ((example("ladder").graph, "ladder"), (example("circulant12"), "circulant")):
        gaps = _cover_gaps(vg, schedule)
        decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
        ok = ok and gaps[-1] < 0.05 and decreasing
        report(4, gaps[-1] < 0.05 and decreasing,
               f"{name} gaps {[f'{g:.4f}' for g in gaps]} (< 0.05 at 64: "
               f"{gaps[-1] < 0.05}, strictly decreasing: {decreasing})")
    elapsed = time.perf_counter() - t0
    assert ok and elapsed < 30.0


def test_criterion_04_companion_true_convergence():
    t0 = time.perf_counter()
    lad = _cover_gaps(example("ladder").graph, [4, 8, 16, 32, 64])
    # exact asymptotics: log(n/2)/n; frozen from the closed form for tau(CL_n)
    assert abs(lad[-1] - 0.05415) < 5e-4
    assert all(a > b for a, b in zip(lad[1:], lad[2:]))  # decreasing from n = 8
    circ = _cover_gaps(example("circulant12"), [4, 8, 16, 32, 64])
    assert circ[-1] < 0.05
    assert all(a > b for a, b in zip(circ[2:], circ[3:]))  # decreasing from n = 16
    elapsed = time.perf_counter() - t0
    report(4, True, f"true convergence pinned (ladder 0.0542, circulant {circ[-1]:.4f}) "
                    f"in {elapsed:.1f}s")
    assert elapsed < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="exact value: the 12x12 grid patch has (1/144) log tau = 1.01490, "
    "gap 0.1511 to 1.166, marginally above the stated 0.15",
)
def test_criterion_05_thermodynamic_limit_as_stated():
    ladder = growth_restrictions(example("ladder").graph, [4, 8, 16, 32, 64])
    lgap = abs(ladder.rows[-1][2] - 0.658)
    report(5, lgap < 0.02, f"ladder restriction gap {lgap:.4f} at 64 rungs")
    grid = growth_restrictions(example("grid"), [2, 3, 4, 6, 8, 10, 12])
    gaps = [abs(lg - 1.166) for _, _, lg in grid.rows]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    report(5, gaps[-1] < 0.15 and monotone,
           f"grid gap at 12x12 is {gaps[-1]:.4f} (monotone decreasing: {monotone})")
    assert lgap < 0.02 and monotone and gaps[-1] < 0.15


def test_criterion_05_companion_true_convergence():
    t0 = time.perf_counter()
    ladder = growth_restrictions(example("ladder").graph, [4, 8, 16, 32, 64])
    lgap = abs(ladder.rows[-1][2] - 0.658)
    assert lgap < 0.02
    grid = growth_restrictions(example("grid"), [2, 3, 4, 6, 8, 10, 12])
    gaps = [abs(lg - 1.166) for _, _, lg in grid.rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert abs(gaps[-1] - 0.1511) < 5e-4  # frozen exact value at 12 x 12
    elapsed = time.perf_counter() - t0
    report(5, True, f"ladder gap {lgap:.4f} < 0.02; grid gap 0.1511 monotone, {elapsed:.1f}s")


def test_criterion_06_k4_suite():
    k4 = example("k4").graph
    pg = example("k4")
    tau = tree_count(k4)
    basis = bicycle_basis(k4, GF2)
    comps = medial_components(pg)
    residues = {tuple(residue_vector(k4, c)) for c in comps}
    ok = (
        tau == 16
        and len(basis) == 2
        and (1, 0, 1, 0, 1, 1) in residues
        and (1, 1, 0, 1, 0, 1) in residues
        and len(comps) == 3
        and bicycle_basis(k4, QQ) == []
    )
    assert report(6, ok, f"tau = {tau}, dim B(GF2) = {len(basis)}, medial = {len(comps)}")


def test_criterion_07_medial_degree_cross_check():
    lad = medial_components_voltage(example("ladder"))
    d_lad = first_nonzero_divisor(voltage_laplacian(example("ladder").graph), GF2)
    gird = medial_components_voltage(example("girder"))
    d_gird = first_nonzero_divisor(voltage_laplacian(example("girder").graph), GF2)
    ok = (
        noncompact_count(lad) == 4 == d_lad[1].degree_span()[0]
        and noncompact_count(gird) == 2 == d_gird[1].degree_span()[0]
    )
    mismatches = 0
    rng = random.Random(77)
    for _ in range(50):
        pg = random_annulus_quotient(rng, max_edges=8)
        comps = medial_components_voltage(pg)
        s, ds = first_nonzero_divisor(voltage_laplacian(pg.graph), GF2)
        deg = 0 if ds.is_zero() else ds.degree_span()[0]
        if deg != noncompact_count(comps) or s != compact_orbit_count(comps):
            mismatches += 1
    ok = ok and mismatches == 0
    assert report(7, ok, f"ladder 4, girder 2, 50 random quotients, {mismatches} mismatches")


def test_criterion_08_forman_kenyon_reconstruction():
    rep = crsf_coefficients(example("ladder").graph)
    d0 = laplacian_determinant_polynomial(example("ladder").graph)
    ok = rep.coefficients == {1: 2, 2: 1} and normalize(rep.reconstruction, ZZ) == d0
    checked = 1
    # plane d=1 corpus members with at most 12 quotient edges
    for vg in (example("girder").graph, example("single_loop").graph):
        r = crsf_coefficients(vg)
        ok = ok and normalize(r.reconstruction, ZZ) == laplacian_determinant_polynomial(vg)
        checked += 1
    # random annulus-embedded quotients satisfy the same identity
    rng = random.Random(88)
    for _ in range(25):
        pg = random_annulus_quotient(rng, max_edges=8)
        r = crsf_coefficients(pg.graph)
        d = laplacian_determinant_polynomial(pg.graph)
        if d.is_zero():
            ok = ok and r.reconstruction.is_zero()
        else:
            ok = ok and normalize(r.reconstruction, ZZ) == d
        checked += 1
    # the circulant is not annulus-embedded: the general product form applies
    from lapgraph.linalg import det_laurent

    circ = example("circulant12")
    rc = crsf_coefficients(circ)
    ok = ok and rc.general_reconstruction == det_laurent(voltage_laplacian(circ))
    assert report(8, ok, f"ladder C = {rep.coefficients}; {checked} quotients reconstructed")


def test_criterion_09_degree_connectivity_and_split():
    ok = True
    for vg, kappa_want in ((example("ladder").graph, 2), (example("girder").graph, 2)):
        d0 = elementary_divisor(voltage_laplacian(vg), 0, QQ)
        kappa = annular_connectivity(vg)
        ok = ok and kappa == kappa_want and d0.degree_span()[0] == 2 * kappa
    from lapgraph.graphs import VoltageGraph

    cases = [
        example("single_loop").graph,
        VoltageGraph.build(
            ["v", "u"],
            [("l", "v", "v", (1,)), ("p1", "v", "u", (0,)), ("p2", "v", "u", (0,))],
            rank=1,
        ),
        VoltageGraph.build(
            ["v", "u"],
            [("l", "v", "v", (1,)), ("p1", "v", "u", (0,)), ("p2", "v", "u", (1,))],
            rank=1,
        ),
        VoltageGraph.build(
            ["v", "u", "w"],
            [
                ("l", "v", "v", (1,)),
                ("e1", "v", "u", (0,)),
                ("e2", "u", "w", (0,)),
                ("e3", "w", "v", (0,)),
            ],
            rank=1,
        ),
    ]
    x12 = parse_poly("1 - 2x + x^2")
    taus = []
    for vg in cases:
        assert annular_connectivity(vg) == 1
        tau = tree_count(split_at_annular_cut(vg))
        taus.append(tau)
        ok = ok and laplacian_determinant_polynomial(vg) == tau * x12
    assert report(9, ok, f"deg = 2 kappa on ladder/girder; kappa=1 split taus {taus}")


# -- criterion 10: the randomized property suites ---------------------------------


def test_criterion_10a_matrix_tree_vs_brute_force():
    rng = random.Random(101)
    failures = 0
    for _ in range(500):
        g = random_multigraph(rng, 5, 9, connected=True)
        if tree_count(g) != brute_force_tree_count(g):
            failures += 1
    assert report(10, failures == 0, f"matrix-tree vs brute force: 500 cases, {failures} failures")


def test_criterion_10b_bicycle_two_method_agreement():
    rng = random.Random(102)
    GF3 = PrimeField(3)
    failures = 0
    for _ in range(500):
        g = random_multigraph(rng, 6, 12)
        for fld in (GF2, GF3, QQ):
            if bicycle_basis(g, fld) != bicycle_basis_meet(g, fld):
                failures += 1
    assert report(10, failures == 0, f"bicycle two-method: 500 graphs x 3 fields, {failures} failures")


def test_criterion_10c_residues_are_bicycles():
    rng = random.Random(103)
    failures = 0
    cases = 0
    while cases < 500:
        pg = random_plane_graph(rng, max_edges=10)
        for comp in medial_components(pg):
            beta = residue_vector(pg.base, comp)
            if is_conservative_edge(pg.base, beta, GF2) != YES:
                failures += 1
            cases += 1
    assert report(10, failures == 0, f"residues are bicycles: {cases} residues, {failures} failures")


def test_criterion_10d_shank_basis_on_random_plane_graphs():
    rng = random.Random(104)
    failures = 0
    for i in range(500):
        pg = random_plane_graph(rng, max_edges=10)
        ncomp = len(medial_components(pg))
        bases = range(ncomp) if i < 50 else [rng.randrange(ncomp)]
        for base in bases:
            try:
                shank_basis(pg, base)
            except AssertionError:
                failures += 1
    assert report(10, failures == 0, f"Shank basis: 500 plane graphs, {failures} failures")


def test_criterion_10e_dehn_roundtrip_gf5():
    rng = random.Random(105)
    failures = 0
    cases = 0
    while cases < 500:
        pg = random_plane_graph(rng, max_edges=10)
        basis = conservative_vertex_basis(pg.base, GF5)
        if not basis:
            continue
        coeffs = [rng.randrange(5) for _ in basis]
        alpha = [
            sum(c * v[i] for c, v in zip(coeffs, basis)) % 5
            for i in range(len(pg.base.vertices))
        ]
        dc = dehn_extend(pg, alpha, rng.randrange(len(faces(pg))), GF5)
        if dehn_restrict(dc) != alpha:
            failures += 1
        cases += 1
    assert report(10, failures == 0, f"Dehn roundtrip over GF(5): {cases} cases, {failures} failures")


def test_criterion_10f_reciprocity_and_divisibility():
    rng = random.Random(106)
    failures = 0
    cases = 0
    x12 = parse_poly("1 - 2x + x^2")
    while cases < 500:
        rank_d = 1 if cases % 5 else 2
        vg = random_voltage_graph(rng, rank=rank_d, max_vertices=4, max_edges=7)
        L = voltage_laplacian(vg)
        d0 = elementary_divisor(L, 0, QQ)
        if d0.is_zero():
            continue
        if normalize(d0, QQ) != normalize(d0.reciprocal(), QQ):
            failures += 1
        if rank_d == 1:
            if not divides(x12, d0, QQ):
                failures += 1
        else:
            if d0.evaluate(1, 1) != 0:
                failures += 1
        cases += 1
    assert report(10, failures == 0, f"reciprocity + (x-1)^2 divisibility: {cases} cases, {failures} failures")


def test_criterion_10g_grimmett_bound_on_corpus():
    failures = 0
    for vg in (
        example("ladder").graph,
        example("girder").graph,
        example("single_loop").graph,
        example("circulant12"),
    ):
        d0 = laplacian_determinant_polynomial(vg)
        if grimmett_bound(vg) < mahler_1var(d0).value - 1e-9:
            failures += 1
    for vg in (example("grid"), example("mitsubishi")):
        d0 = laplacian_determinant_polynomial(vg)
        if grimmett_bound(vg) < mahler_2var(d0, 256).value - 1e-6:
            failures += 1
    assert report(10, failures == 0, f"Grimmett bound on 6 named quotients, {failures} failures")
