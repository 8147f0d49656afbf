"""The value types: equality, hashing, immutability, validation, and a cold
import that loads no code generator."""

import ast
import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import lapgraph
from conftest import example
from lapgraph.colorings import conservative_vertex_basis
from lapgraph.fields import PrimeField
from lapgraph.graphs import FiniteGraph, RectangleSpec, SublatticeSpec, VoltageGraph, cover_graph, voltage_laplacian
from lapgraph.laurent import LaurentPoly
from lapgraph.mahler import MahlerResult
from lapgraph.planar import DehnColoring, Face, MedialComponent, PlaneGraph, dehn_extend, faces, medial_components, shank_basis
from lapgraph.spanning import CrsfReport, GrowthReport, complexity
from lapgraph.verify import CheckResult

# Two vertices joined by three parallel edges: each vertex has two cyclic orders.
THETA = FiniteGraph.build("ab", [(e, "a", "b") for e in ("e", "f", "g")])
ROT = {"a": (("e", "t"), ("f", "t"), ("g", "t")), "b": (("e", "h"), ("g", "h"), ("f", "h"))}
X = LaurentPoly.variable(0, 1)

# (type, positional fields, another value of the first field).
CASES = [
    (FiniteGraph, (THETA.vertices, THETA.edges), ("a", "b", "c")),
    (VoltageGraph, (THETA, 1, ((1,), (0,), (0,))), FiniteGraph.build("ab", [(e, "b", "a") for e in "efg"])),
    (SublatticeSpec, ((2, 1, 3),), (2, 0, 3)),
    (RectangleSpec, ((2, 3),), (3, 2)),
    (PlaneGraph, (THETA, ROT), None),  # rotations fit one graph; see the test after the next
    (Face, ((("e", "t"), ("f", "h")),), (("e", "t"),)),
    (DehnColoring, ((1, 0), (0, 1, 1), 0), (0, 0)),
    (MedialComponent, (("e", "f", "e"), ("f",), 1), ("e",)),
    (CrsfReport, ({1: 2}, X, X, 1), {1: 3}),
    (GrowthReport, ("covers", ((2, 3, 0.5),), 1.25), "restrictions"),
    (MahlerResult, (1.5, "fiberwise", 1e-8, 64), 2.5),
    (CheckResult, ("reciprocity", "PASS", "Delta_0 reciprocal"), "delta-chain"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def _names(cls):
    """The constructor's field names, in order."""
    return tuple(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls, args, other", CASES, ids=IDS)
def test_equal_fields_give_equal_records_with_the_hash_of_their_compared_fields(cls, args, other):
    a = cls(*args)
    b = cls(**dict(zip(_names(cls), args)))  # the same fields by keyword
    assert a == b and not a != b
    if other is not None:
        assert a != cls(other, *args[1:])
    if cls is CrsfReport:  # its coefficients are a dict, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
        return
    compared = args[:1] if cls is PlaneGraph else args
    assert hash(a) == hash(b) == hash(tuple(compared))


def test_plane_graphs_compare_by_graph_alone():
    other = {"a": ROT["a"], "b": (("e", "h"), ("f", "h"), ("g", "h"))}
    assert PlaneGraph(THETA, ROT) == PlaneGraph(THETA, other)
    assert hash(PlaneGraph(THETA, ROT)) == hash(PlaneGraph(THETA, other))
    line = FiniteGraph.build("ab", [("e", "a", "b")])
    assert PlaneGraph(line, {"a": (("e", "t"),), "b": (("e", "h"),)}) != PlaneGraph(THETA, ROT)


def test_graphs_compare_by_vertices_and_edges_alone():
    g = FiniteGraph(THETA.vertices, THETA.edges)
    g.degree("a")  # a reader that THETA has not run
    assert g == THETA and hash(g) == hash(THETA)
    assert FiniteGraph(("b", "a"), THETA.edges) != THETA  # vertex order is part of the graph


def test_graphs_ignore_their_edge_ends_in_equality_hashing_and_pickling():
    cov = cover_graph(VoltageGraph(THETA, 1, ((1,), (0,), (-1,))), SublatticeSpec.cyclic(3))
    stale = FiniteGraph(cov.vertices, cov.edges)
    object.__setattr__(stale, "_ends", ())  # only vertices and edges are compared
    assert stale == cov and hash(stale) == hash(cov)
    assert cov.__reduce__() == (FiniteGraph, (cov.vertices, cov.edges))  # the ends are not pickled
    for twin in (pickle.loads(pickle.dumps(cov)), copy.deepcopy(cov)):
        assert twin == cov and twin._ends == cov._ends == ((0, 4), (1, 5), (2, 3), (0, 3), (1, 4), (2, 5), (0, 5), (1, 3), (2, 4))


@pytest.mark.parametrize("cls, args, other", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, other):
    rec = cls(*args)
    for name in _names(cls):
        with pytest.raises(AttributeError):
            setattr(rec, name, other)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert tuple(getattr(rec, n) for n in _names(cls)) == args


@pytest.mark.parametrize("cls, args, other", CASES, ids=IDS)
def test_records_survive_pickle_and_copy(cls, args, other):
    rec = cls(*args)
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is cls and twin == rec


def test_defaults_and_repr():
    assert MahlerResult(1.0, "jensen-roots", 1e-11).samples is None
    assert MedialComponent((), ()).winding is None
    assert repr(RectangleSpec((2,))) == "RectangleSpec(sizes=(2,))"
    assert repr(Face(())) == "Face(darts=())"
    assert repr(CheckResult("a", "SKIP", "b")) == "CheckResult(name='a', status='SKIP', detail='b')"
    assert repr(FiniteGraph((), ())) == "FiniteGraph(vertices=(), edges=())"  # the index is not shown


def test_no_record_writes_a_field_after_construction():
    """Every slot of a finite and a voltage plane graph, of the graphs under
    them, and of a finite and a voltage graph that no plane graph has read,
    holds the same object after every reader has run."""
    plane, annulus = example("k4"), example("ladder")
    cov = cover_graph(annulus.graph, SublatticeSpec.cyclic(3))
    g, vg = FiniteGraph(plane.base.vertices, plane.base.edges), VoltageGraph(cov, 1, ((1,),) * len(cov.edges))
    records = [g, vg, vg.base] + [rec for pg in (plane, annulus) for rec in (pg, pg.graph, pg.base)]
    before = [(rec, slot, getattr(rec, slot)) for rec in records for slot in type(rec).__slots__]
    for graph in (g, vg.base, plane.base, annulus.base):
        assert [graph.degree(v) for v in graph.vertices]
        complexity(graph)
    for pg in (plane, annulus):
        faces(pg)
        medial_components(pg)
    voltage_laplacian(vg)
    voltage_laplacian(annulus.graph)
    gf5 = PrimeField(5)
    dehn_extend(plane, conservative_vertex_basis(plane.base, gf5)[0], 0, gf5)
    shank_basis(plane)
    for rec, slot, value in before:
        assert getattr(rec, slot) is value, (type(rec).__name__, slot)


def test_fields_are_stored_by_constructors_alone():
    """``Record._store`` is called from an ``__init__`` and from nowhere else."""
    for path in Path(lapgraph.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and fn.name != "__init__":
                calls = [
                    node.lineno for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_store"
                ]
                assert not calls, f"{path.name}:{calls} stores a field in {fn.name}"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FiniteGraph(("a", "a"), ()), "duplicate vertex names"),
        (lambda: FiniteGraph.build("ab", [("e", "a", "b"), ("e", "b", "a")]), "duplicate edge names"),
        (lambda: FiniteGraph.build("a", [("e", "a", "z")]), "edge e references an unknown vertex"),
        (lambda: VoltageGraph(THETA, 3, ((1,),) * 3), "voltage rank must be 1 or 2"),
        (lambda: VoltageGraph(THETA, 2, ((1, 0), (0,), (0, 0))), r"voltage \(0,\) has wrong arity for rank 2"),
        (lambda: RectangleSpec(()), r"rectangle sizes must be positive integers, got \(\)"),
        (lambda: RectangleSpec((2, 0)), r"rectangle sizes must be positive integers, got \(2, 0\)"),
        (lambda: RectangleSpec((2.0,)), r"rectangle sizes must be positive integers, got \(2.0,\)"),
        (
            lambda: PlaneGraph(FiniteGraph.build("ab", [("e", "a", "b")]), {"a": (("e", "h"),), "b": (("e", "t"),)}),
            r"edge end \('e', 'h'\) does not belong at vertex a",
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_import_loads_no_dataclasses():
    src = str(Path(lapgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, lapgraph.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "False\n"
