"""The lapgraph v1 format and the command-line front end."""

import json
import math
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import (
    GRAPHS,
    elementary_divisor_reduce_first,
    example,
    huge_loop_quotient,
    random_multigraph,
    single_loop_quotient,
)
from lapgraph import cli, graphs, spanning
from lapgraph.cli import main
from lapgraph.fields import domain_from_spec
from lapgraph.graphio import GraphParseError, format_graph_file, parse_graph_file
from lapgraph.graphs import FiniteGraph, SublatticeSpec, VoltageGraph, laplacian_finite, voltage_laplacian
from lapgraph.laurent import LaurentPoly, format_poly, parse_poly
from lapgraph.planar import PlaneGraph, faces
from lapgraph.spanning import GrowthReport

LADDER_TEXT = """\
lapgraph v1
d 1
vertex v1
vertex v2
edge r v1 v2 0
edge a v1 v1 1
edge b v2 v2 1
"""


def test_parse_ladder_file():
    g = parse_graph_file(LADDER_TEXT)
    assert isinstance(g, VoltageGraph)
    assert g.rank == 1
    assert len(g.base.vertices) == 2
    assert len(g.base.edges) == 3
    assert g.voltages == ((0,), (1,), (1,))


def test_parse_comments_and_blank_lines():
    text = "# a comment\nlapgraph v1\n\nvertex v1  # trailing\nedge e v1 v1\n"
    g = parse_graph_file(text)
    assert isinstance(g, FiniteGraph)
    assert g.edges[0].tail == "v1"


def test_unknown_vertex_error_names_line():
    text = "lapgraph v1\nvertex v1\nedge e v1 v9 0\n"
    with pytest.raises(GraphParseError) as err:
        parse_graph_file(text)
    assert "line 3" in str(err.value)
    assert "v9" in str(err.value)


def test_duplicate_names_rejected():
    with pytest.raises(GraphParseError):
        parse_graph_file("lapgraph v1\nvertex v\nvertex v\n")
    with pytest.raises(GraphParseError):
        parse_graph_file("lapgraph v1\nvertex v\nedge e v v\nedge e v v\n")


def test_voltage_arity_mismatch():
    with pytest.raises(GraphParseError):
        parse_graph_file("lapgraph v1\nd 2\nvertex v\nedge e v v 1\n")


def test_missing_header():
    with pytest.raises(GraphParseError):
        parse_graph_file("vertex v\n")


def test_rotation_lines_promote_to_plane_graph():
    text = (GRAPHS / "k4.lapgraph").read_text()
    pg = parse_graph_file(text)
    assert isinstance(pg, PlaneGraph)
    assert len(faces(pg)) == 4


def test_bad_rotation_rejected():
    text = LADDER_TEXT + "rot v1: r.t a.t\nrot v2: b.t b.h r.h a.h\n"
    with pytest.raises(GraphParseError):
        parse_graph_file(text)


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("lapgraph v1\nd 1\nd 1\n", 3, "duplicate d line"),
        ("lapgraph v1\nd one\n", 2, "d line needs one integer"),
        ("lapgraph v1\nd \u00b2\n", 2, "d line needs one integer"),
        ("lapgraph v1\nd \u0661\n", 2, "d line needs one integer"),
        ("lapgraph v1\nd +1\n", 2, "d line needs one integer"),
        ("lapgraph v1\nd 3\n", 2, "rank 3 not supported (0, 1 or 2)"),
        ("lapgraph v1\nvertex a b\n", 2, "vertex line needs exactly one name"),
        ("lapgraph v1\nvertex v\nedge e v\n", 3, "edge line needs: edge NAME TAIL HEAD [voltage...]"),
        ("lapgraph v1\nvertex v\nedge e w v\n", 3, "unknown vertex 'w' in edge 'e'"),
        ("lapgraph v1\nd 1\nvertex v\nedge e v v one\n", 4, "bad voltage 'one'"),
        ("lapgraph v1\nd 1\nvertex v\nedge e v v \u0661\n", 4, "bad voltage '\u0661'"),
        ("lapgraph v1\nd 1\nvertex v\nedge e v v 1_0\n", 4, "bad voltage '1_0'"),
        ("lapgraph v1\nd 2\nvertex v\nedge e v v 1 \u00b2\n", 4, "bad voltage '1 \u00b2'"),
        ("lapgraph v1\nd 1\nvertex v\nedge e v v +-1\n", 4, "bad voltage '+-1'"),
        ("lapgraph v1\nvertex v\nrot v\n", 3, "rot line needs: rot VERTEX: end end ..."),
        ("lapgraph v1\nvertex v\nrot w:\n", 3, "unknown vertex 'w' in rot line"),
        ("lapgraph v1\nvertex v\nrot v:\nrot v:\n", 4, "duplicate rot line for 'v'"),
        ("lapgraph v1\nvertex v\nface f\n", 3, "unknown directive 'face'"),
        ("# no header, only a comment\n", 1, "missing header 'lapgraph v1'"),
    ],
)
def test_parse_errors_name_their_line(text, line_no, message):
    with pytest.raises(GraphParseError) as err:
        parse_graph_file(text)
    assert (err.value.line_no, str(err.value)) == (line_no, f"line {line_no}: {message}")


def test_voltages_take_a_sign_and_leading_zeros():
    vg = parse_graph_file("lapgraph v1\nd 2\nvertex v\nedge e v v +2 -03\nedge f v v -0 007\n")
    assert vg.voltages == ((2, -3), (0, 7))


def test_cli_reports_a_parse_error_with_its_line(tmp_path, capsys):
    path = tmp_path / "rank3.lapgraph"
    path.write_text("lapgraph v1\nvertex v\nd 3\n")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 3: rank 3 not supported (0, 1 or 2)\n"


def test_round_trip_all_named_graphs():
    paths = sorted(GRAPHS.glob("*.lapgraph"))
    assert [p.stem for p in paths] == [
        "circulant12", "girder", "grid", "k4", "ladder", "mitsubishi", "single_loop"
    ]
    for path in paths:
        text = path.read_text()
        assert format_graph_file(parse_graph_file(text)) == text


@pytest.mark.parametrize(
    "path",
    sorted(GRAPHS.glob("*.lapgraph")) + sorted((Path(__file__).parent / "data").glob("*.lapgraph")),
    ids=lambda p: p.stem,
)
def test_format_then_parse_keeps_base_quotient_and_rotations(path):
    obj = parse_graph_file(path.read_text())
    text = format_graph_file(obj)
    again = parse_graph_file(text)
    assert format_graph_file(again) == text
    assert again.base == obj.base
    assert (obj.quotient is None) == (again.quotient is None)
    if obj.quotient is not None:  # the edgeless quotients keep their rank through the d line
        assert (again.quotient.rank, again.quotient.voltages) == (obj.quotient.rank, obj.quotient.voltages)
    assert isinstance(again, PlaneGraph) == isinstance(obj, PlaneGraph)
    if isinstance(obj, PlaneGraph):
        assert again.rotations == obj.rotations


# -- CLI -------------------------------------------------------------------------


@pytest.fixture
def graph_dir():
    return GRAPHS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_delta_golden(graph_dir, capsys):
    code, out = run_cli(capsys, "delta", str(graph_dir / "ladder.lapgraph"))
    assert code == 0
    assert out == "Delta_0 over z: 1 - 6*x + 10*x^2 - 6*x^3 + x^4\n"
    code, out2 = run_cli(capsys, "delta", str(graph_dir / "ladder.lapgraph"))
    assert out2 == out  # byte-stable


def test_cli_delta_fields_and_json(graph_dir, capsys):
    code, out = run_cli(
        capsys, "delta", str(graph_dir / "girder.lapgraph"), "--field", "gf:2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"k": 0, "field": "gf:2", "delta": "1 + x^2"}
    code, out = run_cli(
        capsys, "delta", str(graph_dir / "mitsubishi.lapgraph"), "--json"
    )
    assert json.loads(out)["delta"].startswith("6*")


@pytest.mark.parametrize("name", ["hexagon_chord", "pentagon_torus"])
@pytest.mark.parametrize("field", ["z", "q", "gf:2"])
def test_cli_delta_of_order_five_and_six_quotients(name, field, capsys):
    path = Path(__file__).with_name("data") / f"{name}.lapgraph"
    L = voltage_laplacian(parse_graph_file(path.read_text()))
    for k in (0, 1, 2):
        code, out = run_cli(capsys, "delta", str(path), "--field", field, "--k", str(k), "--json")
        assert code == 0
        want = elementary_divisor_reduce_first(L, k, domain_from_spec(field))
        assert json.loads(out)["delta"] == format_poly(want)


def test_cli_delta_k4_finite(graph_dir, capsys):
    code, out = run_cli(
        capsys, "delta", str(graph_dir / "k4.lapgraph"), "--k", "1", "--json"
    )
    assert code == 0
    assert json.loads(out)["delta"] == "16"


def test_cli_bicycle(graph_dir, capsys):
    code, out = run_cli(capsys, "bicycle", str(graph_dir / "k4.lapgraph"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 2
    assert data["edges"] == ["e1", "e2", "e3", "e4", "e5", "e6"]
    code, out = run_cli(
        capsys, "bicycle", str(graph_dir / "k4.lapgraph"), "--field", "q"
    )
    assert "dimension over q: 0" in out


def test_cli_bicycle_over_a_61_bit_prime_field(graph_dir, capsys):
    start = time.perf_counter()
    code, out = run_cli(
        capsys, "bicycle", str(graph_dir / "k4.lapgraph"), "--field", "gf:2305843009213693951"
    )
    assert time.perf_counter() - start < 1
    assert code == 0 and "dimension over gf:2305843009213693951: 0" in out
    code = main(["bicycle", str(graph_dir / "k4.lapgraph"), "--field", "gf:3317044064679887385961981"])
    assert code == 2
    assert "cannot decide whether 3317044064679887385961981 is prime" in capsys.readouterr().err


def test_cli_medial(graph_dir, capsys):
    code, out = run_cli(capsys, "medial", str(graph_dir / "k4.lapgraph"), "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["components"]) == 3
    assert all(c["winding"] is None for c in data["components"])
    code, out = run_cli(capsys, "medial", str(graph_dir / "ladder.lapgraph"), "--json")
    data = json.loads(out)
    assert sum(abs(c["winding"]) for c in data["components"]) == 4


def test_cli_medial_needs_rotations(graph_dir, capsys):
    assert main(["medial", str(graph_dir / "grid.lapgraph")]) == 2
    assert "error: medial needs rotation lines" in capsys.readouterr().err


def test_cli_medial_on_a_nonplanar_rotation_is_an_error(tmp_path, capsys):
    # Two loops interleaved at one vertex: a torus embedding, not a plane one.
    path = tmp_path / "torus.lapgraph"
    path.write_text("lapgraph v1\nvertex v\nedge a v v\nedge b v v\nrot v: a.t b.t a.h b.h\n")
    assert main(["medial", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: medial residues do not form a basis of the bicycle space")


def test_cli_medial_on_disjoint_triangles(tmp_path, capsys):
    lines = ["lapgraph v1"]
    for c in "ab":
        lines += [f"vertex {c}{i}" for i in (1, 2, 3)]
        lines += [f"edge {c}e{i} {c}{i} {c}{i % 3 + 1}" for i in (1, 2, 3)]
        lines += [f"rot {c}{i}: {c}e{i}.t {c}e{(i + 1) % 3 + 1}.h" for i in (1, 2, 3)]
    path = tmp_path / "two_triangles.lapgraph"
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli(capsys, "medial", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["components"]) == 2
    assert data["shank_basis"] == []


def test_cli_medial_has_no_base_face_option(graph_dir):
    with pytest.raises(SystemExit) as exc:
        main(["medial", str(graph_dir / "k4.lapgraph"), "--base-face", "0"])
    assert exc.value.code == 2


def test_bad_rotation_tokens_name_their_line():
    for rot, message in (
        ("rot v1: a.x r.t a.h", "bad edge-end token 'a.x' in rot 'v1'"),
        ("rot v1: .t r.t a.h", "bad edge-end token '.t' in rot 'v1'"),
        ("rot v1: a.t q.t a.h", "unknown edge 'q' in rot 'v1'"),
    ):
        with pytest.raises(GraphParseError) as err:
            parse_graph_file(LADDER_TEXT + rot + "\nrot v2: b.t b.h r.h\n")
        assert str(err.value) == f"line 8: {message}"


def test_cli_trees(graph_dir, capsys):
    code, out = run_cli(
        capsys, "trees", "--cover", "3", str(graph_dir / "ladder.lapgraph"), "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "index": 3,
        "vertices": 6,
        "edges": 9,
        "complexity": "75",
    }
    code, out = run_cli(capsys, "trees", str(graph_dir / "k4.lapgraph"), "--json")
    assert json.loads(out) == {"complexity": "16"}


def test_rank1_cyclic_covers_are_counted_without_building_them(graph_dir, capsys, monkeypatch):
    built = []
    real = graphs.cover_graph

    def spy(vg, lam):
        built.append(lam)
        return real(vg, lam)

    assert not hasattr(spanning, "cover_graph")
    monkeypatch.setattr(graphs, "cover_graph", spy)
    ladder = str(graph_dir / "ladder.lapgraph")
    code, out = run_cli(capsys, "trees", "--cover", "1000", ladder, "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["index"], data["vertices"], data["edges"]) == (1000, 2000, 3000)
    ladder_vg = example("ladder").graph
    assert [spanning.cover_complexity(ladder_vg, SublatticeSpec.cyclic(n)) for n in (2, 3, 4)] == [12, 75, 384]
    assert built == []
    # a torus cover is counted through its rank-1 fold, not built either
    assert run_cli(capsys, "trees", "--cover", "2", str(graph_dir / "grid.lapgraph"))[0] == 0
    assert built == []


def test_cli_reports_an_inexact_cover_count_as_an_error(tmp_path, capsys, monkeypatch):
    # a Delta_0 that is not a polynomial in x^2 cannot count the 4-fold cover
    # of a loop with voltage 2: exit 2 with the reason, not a traceback
    path = tmp_path / "loop2.lapgraph"
    path.write_text(format_graph_file(single_loop_quotient(2)))
    monkeypatch.setattr(spanning, "laplacian_determinant_polynomial", lambda vg: parse_poly("1 - 2x + x^2"))
    assert main(["trees", str(path), "--cover", "4"]) == 2
    assert "Delta_0 is not a polynomial in x^c" in capsys.readouterr().err


def test_cli_reports_an_exhausted_memory_as_an_error_not_a_failed_check(capsys, monkeypatch):
    def cmd_mahler(obj, args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_mahler", cmd_mahler)
    assert main(["mahler", "--poly", "x^100000000-2"]) == 2
    assert capsys.readouterr().err == "error: out of memory (MemoryError)\n"


@pytest.mark.parametrize("argv", [["delta"], ["mahler", "--from-graph"], ["verify"]])
def test_cli_refuses_a_voltage_too_wide_to_encode(argv, tmp_path, capsys):
    # x^(10^30) cannot be shifted into an int: the encoding names its span and bit sizes
    path = tmp_path / "loop_e30.lapgraph"
    path.write_text(format_graph_file(single_loop_quotient(10**30)))
    assert main([*argv, str(path)]) == 2
    K = 2 * 10**30 + 1
    assert capsys.readouterr().err == (
        f"error: Laurent matrix too wide to encode: x-span K = {K} at b = 4 bits per coefficient,"
        f" minors of up to {4 * K} bits\n"
    )


def _peak_of(argv):
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_refuses_a_voltage_too_wide_to_encode_before_encoding_it(tmp_path, capsys):
    # x^(10^9) fits a shift, but each encoded entry would take 1 GB: the
    # bit size of a minor is refused before any entry is built
    path = tmp_path / "loop_e9.lapgraph"
    path.write_text(format_graph_file(single_loop_quotient(10**9)))
    code, peak = _peak_of(["delta", str(path)])
    assert (code, peak < 10**7) == (2, True)
    K = 2 * 10**9 + 1
    assert capsys.readouterr().err == (
        f"error: Laurent matrix too wide to encode: x-span K = {K} at b = 4 bits per coefficient,"
        f" minors of up to {4 * K} bits\n"
    )
    # Delta_1 of a 1 x 1 matrix is the empty minor, 1, which needs no encoding
    code, peak = _peak_of(["delta", str(path), "--k", "1"])
    assert (code, peak < 10**7) == (0, True)
    assert capsys.readouterr().out == "Delta_1 over z: 1\n"


def test_cli_counts_the_cover_of_a_quotient_with_a_huge_voltage(tmp_path, capsys):
    # the 3-fold cover sees the loop's voltage 10^30 as 1: Delta_0 is taken of the residues
    path = tmp_path / "loop_e30_pendant.lapgraph"
    path.write_text(format_graph_file(huge_loop_quotient()))
    assert main(["trees", str(path), "--cover", "3"]) == 0
    assert capsys.readouterr().out == "cover index 3: 6 vertices, 9 edges\ncomplexity T = 75\n"


def test_cli_trees_matrix_cover(graph_dir, capsys):
    code, out = run_cli(
        capsys, "trees", "--cover", "2,0,0,2", str(graph_dir / "grid.lapgraph"), "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 4 and data["vertices"] == 4


def test_cli_growth(graph_dir, capsys):
    code, out = run_cli(
        capsys,
        "growth", "--mode", "covers", "--max", "8",
        str(graph_dir / "ladder.lapgraph"), "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert [row["scale"] for row in data["rows"]] == [2, 4, 8]
    assert data["rows"][1]["complexity"] == "384"
    code, out = run_cli(
        capsys,
        "growth", "--mode", "restrictions", "--max", "8",
        str(graph_dir / "ladder.lapgraph"),
    )
    assert code == 0 and "reference" in out


@pytest.mark.parametrize("name", ["ladder", "grid"])
@pytest.mark.parametrize("mode", ["covers", "restrictions"])
@pytest.mark.parametrize("max_n", ["1", "-5"])
def test_cli_growth_rejects_max_below_two(graph_dir, capsys, name, mode, max_n):
    argv = ["growth", str(graph_dir / f"{name}.lapgraph"), "--mode", mode, f"--max={max_n}"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --max must be at least 2, got {max_n}\n"


HUGE = 10**5000 + 7  # more digits than str() converts by default (4300)
HUGE_TEXT = "1" + "0" * 4999 + "7"


def test_cli_prints_tree_counts_of_any_size(graph_dir, capsys, monkeypatch):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    monkeypatch.setattr(cli, "complexity", lambda g: HUGE)
    monkeypatch.setattr(cli, "cover_complexity", lambda vg, lam: HUGE)
    report = GrowthReport("covers", ((2, HUGE, 1.0),), 1.0)
    monkeypatch.setattr(cli, "growth_covers", lambda vg, schedule, fibers: report)
    ladder = str(graph_dir / "ladder.lapgraph")
    code, out = run_cli(capsys, "trees", str(graph_dir / "k4.lapgraph"), "--json")
    assert code == 0 and json.loads(out) == {"complexity": HUGE_TEXT}
    code, out = run_cli(capsys, "trees", str(graph_dir / "k4.lapgraph"))
    assert code == 0 and out == f"complexity T = {HUGE_TEXT}\n"
    code, out = run_cli(capsys, "trees", "--cover", "3", ladder, "--json")
    assert code == 0 and json.loads(out)["complexity"] == HUGE_TEXT
    code, out = run_cli(capsys, "trees", "--cover", "3", ladder)
    assert code == 0 and out.endswith(f"complexity T = {HUGE_TEXT}\n")
    code, out = run_cli(capsys, "growth", "--max", "2", ladder, "--json")
    assert code == 0 and json.loads(out)["rows"][0]["complexity"] == HUGE_TEXT
    code, out = run_cli(capsys, "growth", "--max", "2", ladder)
    assert code == 0 and f"{HUGE_TEXT[:21]}..." in out
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_cli_crsf_and_kappa(graph_dir, capsys):
    code, out = run_cli(capsys, "crsf", str(graph_dir / "ladder.lapgraph"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == {"1": 2, "2": 1}
    assert data["matches_delta0"] is True
    code, out = run_cli(capsys, "kappa", str(graph_dir / "girder.lapgraph"), "--json")
    assert json.loads(out) == {"kappa": 2}


def test_cli_crsf_compares_only_the_product_form_past_winding_one(graph_dir, capsys):
    # circulant(1, 2) has a CRSF cycle winding twice, so the annulus sum is
    # not Delta_0; verify passes it on the product form, and so must crsf.
    path = str(graph_dir / "circulant12.lapgraph")
    code, out = run_cli(capsys, "crsf", path)
    assert code == 0
    assert "(match; windings up to 2: product form only)" in out
    code, out = run_cli(capsys, "crsf", path, "--json")
    assert code == 0 and json.loads(out)["matches_delta0"] is True
    code, out = run_cli(capsys, "verify", path, "--max", "8", "--fibers", "64")
    assert code == 0 and "PASS forman-reconstruction" in out


def test_cli_mahler(graph_dir, capsys):
    code, out = run_cli(
        capsys, "mahler", "--poly", "x^2-4x+1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 1.3169578969248166) < 1e-12
    assert data["method"] == "jensen-roots"
    code, out = run_cli(
        capsys,
        "mahler", "--from-graph", str(graph_dir / "ladder.lapgraph"), "--json",
    )
    assert abs(json.loads(out)["value"] - 1.3169578969248166) < 1e-12
    code, out = run_cli(
        capsys, "mahler", "--poly", "4-x-x^-1-y-y^-1", "--fibers", "128", "--json"
    )
    data = json.loads(out)
    assert data["method"] == "fiberwise" and data["samples"] == 128
    assert abs(data["value"] - 1.16624) < 2e-3


def test_cli_mahler_and_growth_on_three_copies_of_the_grid_quotient(tmp_path, capsys):
    # Delta_0 = D^3 for the grid's D = 4 - x - 1/x - y - 1/y: a cube in y
    path = tmp_path / "three_grids.lapgraph"
    lines = ["lapgraph v1", "d 2", *(f"vertex {v}" for v in "abc")]
    lines += [f"edge {e}{v} {v} {v} {s}" for v in "abc" for e, s in (("ex", "1 0"), ("ey", "0 1"))]
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli(capsys, "mahler", "--from-graph", str(path), "--fibers", "64", "--json")
    data = json.loads(out)
    assert code == 0 and abs(data["value"] - 3 * 4 * 0.9159655941772190150 / math.pi) <= data["error_estimate"]
    code, out = run_cli(capsys, "growth", str(path), "--max", "4", "--fibers", "64")
    assert code == 0 and capsys.readouterr().err == ""


def test_cli_mahler_needs_exactly_one_source(capsys):
    assert main(["mahler"]) == 2
    assert main(["mahler", "--poly", "x", "--from-graph", "nope"]) == 2
    assert capsys.readouterr().err.count("error: give exactly one of --poly or --from-graph") == 2


def test_cli_usage_errors_exit_2_not_the_fail_code(graph_dir, tmp_path, capsys):
    zero_delta = tmp_path / "zero.lapgraph"
    zero_delta.write_text("lapgraph v1\nd 1\nvertex a\nvertex b\nedge l a a 1\n")
    for argv, message in (
        (["crsf", str(graph_dir / "k4.lapgraph")], "needs a voltage graph"),
        (["bicycle", str(graph_dir / "k4.lapgraph"), "--field", "z"], "bicycle needs a field"),
        (["trees", str(graph_dir / "ladder.lapgraph"), "--cover", "1,2"], "--cover needs n or a,b,c,d"),
        (["mahler", "--from-graph", str(zero_delta)], "Delta_0 is zero"),
    ):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "ladder", "--k", "\u0661"],
        ["growth", "ladder", "--max", "1_6"],
        ["verify", "ladder", "--fibers", "\uff16\uff14"],
        ["medial", "k4", "--base-component", "\u0660"],
        ["mahler", "--poly", "x", "--fibers", "1_024"],
    ],
    ids=" ".join,
)
def test_cli_integer_options_take_ascii_digits_only(argv, graph_dir, capsys):
    # the graph files' rule: int() alone would read these as 1, 16, 64, 0 and 1024
    if argv[0] != "mahler":
        argv = [argv[0], str(graph_dir / f"{argv[1]}.lapgraph"), *argv[2:]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"invalid int value: {argv[-1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("ladder", ["trees", "--cover", "\u0663"], "bad integer '\u0663'"),
        ("ladder", ["trees", "--cover", "1_0"], "bad integer '1_0'"),
        ("grid", ["trees", "--cover", "2,0,1,\u0663"], "bad integer '\u0663'"),
        ("ladder", ["delta", "--k", "1", "--field", "gf:\u0662"], "bad field spec 'gf:\u0662'"),
    ],
)
def test_cli_cover_and_field_integers_take_ascii_digits_only(name, argv, message, graph_dir, capsys):
    assert main([argv[0], str(graph_dir / f"{name}.lapgraph"), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_integers_keep_a_sign_and_surrounding_whitespace(graph_dir, capsys):
    ladder = str(graph_dir / "ladder.lapgraph")
    assert run_cli(capsys, "trees", ladder, "--cover", " +3 ")[1].endswith("complexity T = 75\n")
    assert json.loads(run_cli(capsys, "delta", ladder, "--k", "+1", "--json")[1])["k"] == 1


@pytest.mark.parametrize("cover", ["-2", "0"])
def test_cli_refuses_a_bad_cover_index_alike_at_both_ranks(cover, graph_dir, capsys):
    # one index rule names nZ on the ladder (rank 1) and the n x n lattice on the grid (rank 2)
    errors = []
    for name in ("ladder", "grid"):
        assert main(["trees", str(graph_dir / f"{name}.lapgraph"), f"--cover={cover}"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: sublattice index must be an integer at least 1, got {cover}\n"] * 2


@pytest.mark.parametrize("name", ["ladder", "grid"])
def test_cli_fibers_below_4_exit_2_for_one_and_two_variables(name, graph_dir, capsys):
    # the ladder's Delta_0 has one variable, the grid's two
    path = str(graph_dir / f"{name}.lapgraph")
    for argv in (["growth", path, "--fibers", "0"], ["verify", path, "--fibers", "2"]):
        assert main(argv) == 2, argv
        assert "fibers must be an integer at least 4" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["-3", "0"])
def test_cli_verify_max_below_1_exits_2_before_any_work(bad, graph_dir, capsys):
    # --max -3 used to run every check and print a SKIP for the growth check
    for name in ("ladder", "k4"):
        assert main(["verify", str(graph_dir / f"{name}.lapgraph"), "--max", bad]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: max_cover must be an integer at least 1, got {bad}\n"


def test_cli_delta_of_a_finite_graph_reads_its_zero_voltage_quotient(tmp_path, capsys):
    """A finite graph is the trivial action: its zero-voltage rank-1 quotient
    has the integer Laplacian, and delta prints the gcds of its minors."""
    rng = random.Random(3200)
    corpus = [FiniteGraph((), ())] + [random_multigraph(rng, max_vertices=5, max_edges=8) for _ in range(12)]
    assert sum(any(e.tail == e.head for e in g.edges) for g in corpus) >= 3  # graphs with loops
    path = tmp_path / "g.lapgraph"
    for g in corpus:
        rows = laplacian_finite(g)
        L = [[LaurentPoly.constant(row.get(j, 0), 1) for j in range(len(rows))] for row in rows]
        assert voltage_laplacian(VoltageGraph(g, 1, ((0,),) * len(g.edges))) == L
        path.write_text(format_graph_file(g))
        for field in ("z", "q", "gf:2", "gf:3"):
            for k in range(len(rows) + 1):
                code, out = run_cli(capsys, "delta", str(path), "--field", field, "--k", str(k), "--json")
                want = elementary_divisor_reduce_first(L, k, domain_from_spec(field))
                assert code == 0 and json.loads(out)["delta"] == format_poly(want), (g, field, k)


@pytest.mark.parametrize(
    "argv",
    [[c] for c in ("delta", "bicycle", "medial", "trees", "growth", "crsf", "kappa", "verify")]
    + [["mahler", "--from-graph"]],
    ids=" ".join,
)
def test_cli_unreadable_graph_file_is_a_usage_error(argv, graph_dir, tmp_path, capsys):
    for path in (tmp_path / "missing.lapgraph", graph_dir):
        assert main(argv + [str(path)]) == 2, argv
        assert capsys.readouterr().err.startswith("error: [Errno ")


def test_cli_reads_and_prints_integers_past_the_digit_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    path = tmp_path / "loop.lapgraph"
    path.write_text(f"lapgraph v1\nd 1\nvertex v\nedge e v v {HUGE_TEXT}\n")
    assert run_cli(capsys, "kappa", str(path)) == (0, "kappa = 1\n")
    # the line's root, about 1e-5000, lies inside the circle: m is the log of the big integer
    code, out = run_cli(capsys, "mahler", "--poly", "1" * 5000 + "x + 1", "--json")
    assert code == 0 and json.loads(out)["value"] == math.log((10**5000 - 1) // 9)  # 11...1, 5000 ones
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_cli_takes_a_two_variable_content_past_float_range_out(capsys):
    sevens = "7" * 400
    code, out = run_cli(capsys, "mahler", "--poly", f"{sevens}x*y + {sevens}", "--fibers", "8", "--json")
    assert code == 0 and abs(json.loads(out)["value"] / math.log(int(sevens)) - 1) <= 1e-9
    assert main(["mahler", "--poly", f"{sevens}x*y + 3", "--fibers", "8"]) == 2
    assert capsys.readouterr().err == "error: coefficients too large for a float, also with the content taken out\n"


def test_cli_refuses_a_quadratic_whose_roots_are_past_float_range(capsys):
    # the roots of 11...1 + x^2, about 1e2500 in size: the lead over the largest coefficient underflows
    assert main(["mahler", "--poly", "1" * 5000 + " + x^2"]) == 2
    assert capsys.readouterr().err == "error: coefficients too far apart for a float: the roots are past its range\n"


def test_cli_measures_a_quadratic_whose_roots_are_far_inside_the_circle(capsys):
    # 11...1 x^2 + 3x + 1, 400 ones: both roots are about 1e-200 in size, so m is the log of the lead
    code, out = run_cli(capsys, "mahler", "--poly", "1" * 400 + "*x^2 + 3*x + 1", "--json")
    assert code == 0 and json.loads(out)["value"] == math.log(int("1" * 400))


def test_cli_measures_a_cubic_whose_roots_are_far_inside_the_circle(capsys):
    # 11...1 x^3 + 1, 400 ones: every root is about 1e-133 in size, so m is the log of the lead;
    # the constant over the lead underflows to 0 and is cut off as a root at 0
    code, out = run_cli(capsys, "mahler", "--poly", "1" * 400 + "*x^3 + 1")
    assert code == 0 and out.splitlines()[0].endswith(") = 918.8368126")
    code, out = run_cli(capsys, "mahler", "--poly", "1" * 400 + "*x^3 + 1", "--json")
    assert code == 0 and json.loads(out)["value"] == math.log((10**400 - 1) // 9)


def test_cli_refuses_a_cubic_whose_roots_are_past_float_range(capsys):
    # the roots of 11...1 + x^3, about 1e1667 in size: the lead over the largest coefficient underflows
    assert main(["mahler", "--poly", "1" * 5000 + " + x^3"]) == 2
    assert capsys.readouterr().err == "error: coefficients too far apart for a float: the roots are past its range\n"


def test_cli_measures_a_quadratic_whose_root_sum_cancels(capsys):
    # 3x^2 + 7x + 10^100: the roots -7/6 +- 5.77e49 i sum, in floats, only to about eps * 1e50
    code, out = run_cli(capsys, "mahler", "--poly", "3x^2 + 7x + 1" + "0" * 100)
    assert code == 0 and out.splitlines()[0].endswith(") = 230.2585093")  # 100 log 10


def test_cli_verify(graph_dir, capsys):
    code, out = run_cli(
        capsys, "verify", str(graph_dir / "ladder.lapgraph"), "--max", "16"
    )
    assert code == 0
    assert "PASS" in out and "FAILED" not in out
    code, out = run_cli(
        capsys, "verify", str(graph_dir / "mitsubishi.lapgraph"), "--max", "4", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    names = {c["name"]: c for c in data["checks"]}
    assert names["gf2-vanishing"]["detail"] == "Delta_0 = 0 mod 2"
    assert "medial-gf2-degree" not in names  # d = 1 planar checks skipped


def test_cli_unknown_flag_rejected(graph_dir):
    with pytest.raises(SystemExit):
        main(["delta", str(graph_dir / "ladder.lapgraph"), "--frobnicate"])


def test_cli_bad_field_is_reported(graph_dir, capsys):
    code = main(["delta", str(graph_dir / "ladder.lapgraph"), "--field", "gf:6"])
    assert code == 2
