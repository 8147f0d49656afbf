"""The verify suite: every check can FAIL, and each invariant is computed once."""

import importlib
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    GRAPHS,
    euler_characteristic,
    example,
    random_annulus_quotient,
    random_multigraph,
    random_voltage_graph,
)
from lapgraph import laurent, linalg, spanning, verify
from lapgraph.cli import main
from lapgraph.fields import QQ, ZZ, RationalField
from lapgraph.graphio import parse_graph_file
from lapgraph.graphs import SublatticeSpec, VoltageGraph, voltage_laplacian
from lapgraph.laurent import LaurentPoly, normalize, parse_poly
from lapgraph.planar import PlaneGraph

mahler_module = importlib.import_module("lapgraph.mahler")  # lapgraph.mahler is the function


def _not_a_basis(*args):
    raise AssertionError("medial residues do not form a basis of the bicycle space")


# check -> (input, the function of verify's namespace the check reads, a wrong stand-in)
BREAKERS = {
    "laplacian-transpose": ("ladder", "transpose", lambda M: []),
    "reciprocity": ("ladder", "det_laurent", lambda M: parse_poly("1 + 2*x", 1)),
    "count-divisibility": ("ladder", "divides", lambda f, g, dom: False),
    "delta-chain": ("ladder", "divides", lambda f, g, dom: False),
    "forman-reconstruction": ("ladder", "det_laurent", lambda M: LaurentPoly.zero(1)),
    "grimmett-bound": ("ladder", "grimmett_bound", lambda vg: -1.0),
    "growth-vs-mahler": ("ladder", "cover_complexity", lambda vg, lam, d0: 1),
    "medial-crossings": ("ladder", "medial_components", lambda pg: []),
    "medial-gf2-degree": ("ladder", "noncompact_count", lambda comps: -1),
    "degree-connectivity": ("ladder", "annular_connectivity", lambda vg: 99),
    "medial-component-count": ("k4", "conservative_vertex_basis", lambda g, fld: []),
    "shank-basis": ("k4", "shank_basis", _not_a_basis),
    "dehn-roundtrip": ("k4", "dehn_restrict", lambda dc: []),
    "bicycle-two-method": ("k4", "bicycle_basis_meet", lambda g, fld: []),
}
# gf2-vanishing is recorded only when it holds, so no input can make it FAIL.
CANNOT_FAIL = {"gf2-vanishing"}

INPUTS = ("ladder", "k4", "mitsubishi")


def graph_file(name):
    return str(GRAPHS / f"{name}.lapgraph")


def test_every_check_is_either_breakable_or_a_known_exception():
    names = {r.name for name in INPUTS for r in verify.run_verify(example(name), 8, 64)}
    assert names == set(BREAKERS) | CANNOT_FAIL


@pytest.mark.parametrize("check", sorted(BREAKERS))
def test_each_check_reports_fail_through_the_cli(check, monkeypatch, capsys):
    name, attr, fake = BREAKERS[check]
    path = graph_file(name)
    assert main(["verify", path, "--max", "8", "--fibers", "64"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(verify, attr, fake)
    assert main(["verify", path, "--max", "8", "--fibers", "64"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {check}:" in out
    assert out.rstrip().endswith("FAILED")


def test_bicycle_disagreement_names_the_field(monkeypatch):
    monkeypatch.setattr(verify, "bicycle_basis_meet", lambda g, fld: [])
    (res,) = [r for r in verify.run_verify(example("k4"), 8, 64) if r.name == "bicycle-two-method"]
    assert res.status == "FAIL"
    # K4 has a 2-dimensional bicycle space over GF(2) and none over Q.
    assert res.detail == "over GF(2) the image of ker L has dim 2, row(Q) meet ker Q has dim 0"


def test_growth_check_fails_when_delta0_gives_no_cover_count(monkeypatch):
    # (x - 1)^2 does not divide 1 + 2x, so the resultant count cannot start
    monkeypatch.setattr(verify, "det_laurent", lambda M: parse_poly("1 + 2*x", 1))
    results = verify.run_verify(example("ladder"), 8, 64)
    (res,) = [r for r in results if r.name == "growth-vs-mahler"]
    assert res.status == "FAIL"
    assert res.detail == "no exact cover count from Delta_0: inexact polynomial division"


def test_delta_chain_fails_when_delta_k_vanishes_after_a_nonzero_one(monkeypatch, capsys):
    # Delta_1 over QQ is zero; the GF(2) search for the first nonzero divisor reads the real ones
    real = verify.elementary_divisor

    def fake(A, k, dom):
        return LaurentPoly.zero(1) if (k, dom) == (1, QQ) else real(A, k, dom)

    monkeypatch.setattr(verify, "elementary_divisor", fake)
    assert main(["verify", graph_file("ladder"), "--max", "8", "--fibers", "64"]) == 1
    out = capsys.readouterr().out
    assert "FAIL delta-chain: Delta_1 = 0 after nonzero Delta_0\n" in out


@pytest.mark.parametrize(
    "name, max_cover, form",
    [("ladder", 8, (8,)), ("ladder", 63, (32,)), ("grid", 8, (2, 0, 2)), ("grid", 64, (6, 0, 6)), ("grid", 3, None)],
)
def test_growth_check_counts_one_cover_with_the_quotients_delta0(monkeypatch, name, max_cover, form):
    # the largest scheduled nZ^d of index <= max_cover, counted once; none fits below index 4
    real, calls = verify.cover_complexity, []
    monkeypatch.setattr(verify, "cover_complexity", lambda vg, lam, d0: calls.append((lam, d0)) or real(vg, lam, d0))
    vg = example(name).quotient
    results = verify.run_verify(vg, max_cover, 64)
    (res,) = [r for r in results if r.name == "growth-vs-mahler"]
    if form is None:
        assert calls == [] and res.status == "SKIP"
    else:
        assert calls == [(SublatticeSpec(form), spanning.laplacian_determinant_polynomial(vg))]
        assert res.status == "PASS" and f"at cover index {SublatticeSpec(form).index} " in res.detail


def test_verify_computes_each_invariant_once(monkeypatch):
    calls = Counter()

    def count(module, attr, key):
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[key(*args)] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    for module in (linalg, verify):
        count(module, "elementary_divisor", lambda M, k, dom: ("delta", k, repr(dom)))
    for module in (linalg, spanning, verify):
        count(module, "det_laurent", lambda M: ("det", len(M)))
    # verify reads the value alone, never the estimate's half grid in mahler_2var.
    count(verify, "mahler_value", lambda *a: "mahler")
    count(mahler_module, "mahler_2var", lambda *a: "estimate")
    count(verify, "normalize", lambda f, dom: ("normalize", f, repr(dom)))

    # s is the first k with Delta_k nonzero over GF(2); Mitsubishi's Delta_0 vanishes mod 2.
    for obj, s in ((example("ladder"), 0), (example("mitsubishi"), 1)):
        calls.clear()
        verify.run_verify(obj, max_cover=8, fibers=64)
        assert (calls["mahler"], calls["estimate"]) == (1, 0)
        # Delta_0 in every domain is det L, normalized or reduced mod 2; over
        # GF(2) only Delta_1, ..., Delta_s are asked for, each once.
        assert not [key for key in calls if key[:2] == ("delta", 0)]
        gf2 = {key[1]: n for key, n in calls.items() if key[0] == "delta" and key[2] == "GF(2)"}
        assert gf2 == {k: 1 for k in range(1, s + 1)}
        # The full-L determinant over the integers is computed once, for
        # Delta_0, Delta_s and the Forman reconstruction alike.
        vg = obj.graph if isinstance(obj, PlaneGraph) else obj
        L = voltage_laplacian(vg)
        assert calls[("det", len(L))] == 1
        # Delta_0 over QQ is normalized once, for the chain and reciprocity alike.
        assert calls[("normalize", spanning.laplacian_determinant_polynomial(vg), "QQ")] == 1


@pytest.mark.parametrize("seed", range(3))
def test_verify_orders_each_voltage_laplacian_once(seed, monkeypatch):
    """Delta_0 and every Delta_k over GF(2) and QQ are minors of one
    LaurentEncoding of L, so _elimination_order runs once for all of them; a
    rank-2 cover count's fold is another voltage Laplacian, ordered once in
    its own det_laurent."""
    scope, orders, calls = [], [], Counter()
    elimination_order = linalg._elimination_order

    def order(rows):
        orders.append(scope[-1] if scope else None)
        return elimination_order(rows)

    monkeypatch.setattr(linalg, "_elimination_order", order)
    laurent_calls = ("LaurentEncoding", "det_laurent", "elementary_divisor")
    for module, attr in [(verify, attr) for attr in laurent_calls] + [(spanning, "det_laurent")]:

        def scoped(*args, f=getattr(module, attr), name=module.__name__, **kwargs):
            scope.append(name)
            calls[name] += 1
            try:
                return f(*args, **kwargs)
            finally:
                scope.pop()

        monkeypatch.setattr(module, attr, scoped)
    rng = random.Random(2600 + seed)
    inputs = [example("ladder"), example("mitsubishi")]
    inputs += [random_voltage_graph(rng, rank, max_vertices=5, max_edges=9) for rank in (1, 2)]
    folds = 0
    for obj in inputs:
        orders.clear()
        calls.clear()
        verify.run_verify(obj, max_cover=8, fibers=16)
        assert calls["lapgraph.verify"] >= 3  # the encoding, Delta_0 and Delta_1 over QQ at least
        assert orders.count("lapgraph.verify") == 1
        assert orders.count("lapgraph.spanning") == calls["lapgraph.spanning"]
        folds += calls["lapgraph.spanning"]
    assert folds  # Mitsubishi's 2 x 2 cover count takes Delta_0 of its fold


@pytest.mark.parametrize("seed", range(10))
def test_delta0_over_q_is_the_normalized_integer_delta0(seed):
    rng = random.Random(7000 + seed)
    vgs = [random_voltage_graph(rng, 1, 4, 7), random_voltage_graph(rng, 2, 3, 5)]
    vgs.append(random_annulus_quotient(rng, 8).graph)
    for vg in vgs:
        L = voltage_laplacian(vg)
        d0 = linalg.elementary_divisor(L, 0, ZZ)
        d0q = linalg.elementary_divisor(L, 0, QQ)
        assert d0q == (d0 if d0.is_zero() else normalize(d0, QQ))


def test_growth_check_skips_when_no_cover_fits(capsys):
    assert main(["verify", graph_file("ladder"), "--max", "2"]) == 0
    out = capsys.readouterr().out
    assert "SKIP growth-vs-mahler: no scheduled cover of index <= 2" in out
    assert "PASS grimmett-bound" in out


def test_forman_check_skips_a_quotient_past_the_brute_force_limit():
    # 17 loops of voltage 1 at one vertex: one edge past CRSF_MAX_EDGES
    vg = VoltageGraph.build(["v"], [(f"l{k}", "v", "v", (1,)) for k in range(17)], rank=1)
    (res,) = [r for r in verify.run_verify(vg, 8, 64) if r.name == "forman-reconstruction"]
    assert (res.status, res.detail) == ("SKIP", "quotient too large for brute force")


def test_verify_has_no_base_options():
    with pytest.raises(SystemExit):
        main(["verify", graph_file("k4"), "--base-face", "0"])


def test_verify_divides_no_rational_polynomial(monkeypatch):
    # Delta_k over QQ comes from a gcd over ZZ, and both divisibility checks
    # divide primitive integer polynomials over ZZ (Gauss's lemma)
    domains = []

    def spy(divide):
        return lambda f, g, dom: domains.append(dom) or divide(f, g, dom)

    # both long divisions: on LaurentPoly (two variables) and on dense lists
    monkeypatch.setattr(laurent, "_divmod", spy(laurent._divmod))
    monkeypatch.setattr(laurent, "list_divmod", spy(laurent.list_divmod))
    rng = random.Random(7100)
    objs = [example("ladder"), example("mitsubishi"), random_annulus_quotient(rng, 8)]
    objs += [random_voltage_graph(rng, 1, 5, 8) for _ in range(4)]
    objs += [random_voltage_graph(rng, 2, 3, 5) for _ in range(2)]
    for obj in objs:
        verify.run_verify(obj, max_cover=8, fibers=64)
    assert domains and not any(isinstance(d, RationalField) for d in domains)


# A rotation system of Euler characteristic 0 (a torus embedding).
TORUS_ROTATIONS = """lapgraph v1
vertex v0
vertex v1
vertex v2
vertex v3
edge e0 v3 v3
edge e1 v0 v1
edge e2 v1 v2
edge e3 v0 v3
edge e4 v1 v3
edge e5 v1 v0
edge e6 v2 v2
rot v0: e1.t e3.t e5.h
rot v1: e4.t e5.t e2.t e1.h
rot v2: e2.h e6.t e6.h
rot v3: e4.h e0.h e3.h e0.t
"""


def test_verify_reports_a_rotation_system_that_is_not_planar(tmp_path, capsys):
    assert euler_characteristic(parse_graph_file(TORUS_ROTATIONS)) == 0
    path = tmp_path / "torus.lapgraph"
    path.write_text(TORUS_ROTATIONS)
    assert main(["verify", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS medial-crossings",
        "FAIL medial-component-count",
        "FAIL shank-basis",
        "FAIL dehn-roundtrip",
        "PASS bicycle-two-method",
        "FAILED",
    ]
    assert "FAIL dehn-roundtrip: face coloring is path dependent" in lines


@pytest.mark.parametrize(
    "name, line",
    [
        ("lone_vertex", "PASS medial-component-count: 1 components, GF(2) nullity 1"),
        ("two_lone_vertices", "PASS medial-component-count: 2 components, GF(2) nullity 2"),
        (
            "ladder_lone_vertex",
            "PASS medial-gf2-degree: deg Delta_1 = 4, noncompact = 4, zero-winding orbits = 1",
        ),
    ],
)
def test_verify_passes_plane_graphs_with_isolated_vertices(name, line, capsys):
    path = Path(__file__).with_name("data") / f"{name}.lapgraph"
    assert main(["verify", str(path)]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_dehn_roundtrip_reports_a_failed_edge_check(monkeypatch):
    def fails_its_edge_check(*args):
        raise ValueError("face coloring is path dependent")

    monkeypatch.setattr(verify, "dehn_extend", fails_its_edge_check)
    (res,) = [r for r in verify.run_verify(example("k4"), 8, 64) if r.name == "dehn-roundtrip"]
    assert (res.status, res.detail) == ("FAIL", "face coloring is path dependent")


@pytest.mark.parametrize("seed", range(4))
def test_verify_reports_on_every_random_rotation_system(seed):
    # planar ones (Euler characteristic 2) pass every check; the others
    # report, and none raises
    rng = random.Random(7200 + seed)
    kinds = Counter()
    for _ in range(50):
        g = random_multigraph(rng, 4, 7, connected=True)
        if not g.edges:
            continue
        rot = {v: [] for v in g.vertices}
        for e in g.edges:
            rot[e.tail].append((e.name, "t"))
            rot[e.head].append((e.name, "h"))
        for darts in rot.values():
            rng.shuffle(darts)
        pg = PlaneGraph(g, {v: tuple(d) for v, d in rot.items()})
        results = verify.run_verify(pg, 8, 64)
        planar = euler_characteristic(pg) == 2
        kinds[planar] += 1
        assert verify.verify_ok(results) or not planar, [r for r in results if r.status == "FAIL"]
    assert kinds[True] and kinds[False]
