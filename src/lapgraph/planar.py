"""Plane graphs as rotation systems: faces, Dehn colorings, medial tracing.

A rotation system lists the edge-ends (darts) counterclockwise around each
vertex.  A dart is a pair (edge name, end) with end "t" at the tail and "h"
at the head; a loop contributes both of its ends to its vertex's rotation.
:class:`PlaneGraph` numbers each dart once, 2j for edge j's tail end and
2j + 1 for its head end, when it validates its copy of the rotations.  Faces
and strands walk those numbers and name only the darts and edges they return.

Faces are orbits of the next-corner permutation.  A dart d inside a face
means the boundary walk traverses d's edge away from d's end with the face on
its left.

Medial components are straight-ahead strand walks.  A walk state is
(dart, sign): sign +1 means the strand sits in the corner between d and its
rotation successor, moving toward the successor's edge; sign -1 means it sits
between the predecessor and d, moving toward the predecessor's edge.  Crossing
an edge straight through flips to the far end's matching corner:

    (d, +1) -> (opposite(next(d)), -1)     crossing next(d)'s edge
    (d, -1) -> (opposite(prev(d)), +1)     crossing prev(d)'s edge

Reversing a strand maps (d, +1) to (next(d), -1), which lets one undirected
component absorb both directed orbits.  In the voltage case each crossing
from the tail end accumulates +s and from the head end -s; the net winding of
a closed quotient trace counts how its lifts wrap the annulus.  One tracer,
:func:`medial_components`, serves both kinds of plane graph: it reports that
winding on a voltage quotient and None on a finite plane graph.  Which kind a
plane graph is, every reader asks ``pg.quotient``: the rank-1 voltage quotient
it carries, or None when it is finite.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .colorings import _check_length, bicycle_basis
from .fields import GF2, Domain
from .graphs import (
    FiniteGraph,
    Record,
    VoltageGraph,
    bfs_potentials,
    connected_components,
    laplacian_finite,
)
from .linalg import row_space_canonical

Dart = tuple[str, str]  # (edge name, "t" | "h")


class PlaneGraph(Record):
    """A finite graph or a rank-1 voltage graph with a rotation system, kept
    as {vertex: tuple of darts}; equality and hashing read the graph alone,
    and pickling ignores the resolved ``_next`` and ``_prev`` maps.  Dart k
    lies on edge k >> 1 at vertex ``_ends[k >> 1][k & 1]``, its opposite end
    is k ^ 1, and ``_next[k]`` and ``_prev[k]`` number its rotation
    successor and predecessor."""

    __slots__ = ("graph", "rotations", "_next", "_prev")
    _compared = ("graph",)

    def __init__(self, graph: FiniteGraph | VoltageGraph, rotations: dict[str, tuple[Dart, ...]]):
        if graph.quotient is not None and graph.quotient.rank > 1:
            raise ValueError("plane graphs carry voltages of rank at most 1")
        g = graph.base
        ends = g._ends
        number: dict[Dart, int] = {}
        darts_at = [0] * len(g.vertices)
        for j, (e, (t, h)) in enumerate(zip(g.edges, ends)):
            number[(e.name, "t")] = 2 * j
            number[(e.name, "h")] = 2 * j + 1
            darts_at[t] += 1
            darts_at[h] += 1
        rotations = {v: tuple(rot) for v, rot in rotations.items()}
        for v in rotations:
            if v not in g._vindex:
                raise ValueError(f"rotation at unknown vertex {v!r}")
        nxt = [0] * len(number)
        prv = [0] * len(number)
        placed = bytearray(len(number))
        for i, v in enumerate(g.vertices):
            rot = rotations.get(v, ())
            if len(rot) != darts_at[i]:
                raise ValueError(f"rotation at {v} has length {len(rot)}, degree is {darts_at[i]}")
            ks = []
            for d in rot:
                k = number.get(d)
                if k is not None and placed[k]:
                    raise ValueError(f"edge end {d} appears twice")
                if k is None or ends[k >> 1][k & 1] != i:
                    raise ValueError(f"edge end {d} does not belong at vertex {v}")
                placed[k] = 1
                ks.append(k)
            for a, b in zip(ks, ks[1:] + ks[:1]):
                nxt[a] = b
                prv[b] = a
        self._store(graph=graph, rotations=rotations, _next=tuple(nxt), _prev=tuple(prv))

    @property
    def base(self) -> FiniteGraph:
        return self.graph.base

    @property
    def quotient(self) -> VoltageGraph | None:
        return self.graph.quotient


def parse_dart(tok: str) -> Dart:
    """Parse one edge-end token such as 'a.t' or 'r.h'."""
    name, _, end = tok.rpartition(".")
    if end not in ("t", "h") or not name:
        raise ValueError(f"bad edge-end token {tok!r}")
    return (name, end)


# -- faces ---------------------------------------------------------------------


class Face(Record):
    """A face boundary walk: the cyclic sequence of darts kept on the left."""

    __slots__ = _compared = ("darts",)

    def __init__(self, darts: tuple[Dart, ...]):
        self._store(darts=darts)

    def __len__(self):
        return len(self.darts)


def _isolated(pg: PlaneGraph) -> list[str]:
    """Vertices with an empty rotation, in vertex order."""
    return [v for v in pg.base.vertices if not pg.rotations.get(v)]


def faces(pg: PlaneGraph) -> list[Face]:
    """Face orbits of the rotation system, in deterministic order.

    The orbits come in edge order, then one empty face for each isolated
    vertex (the sphere around it), so a lone vertex has Euler characteristic 2.
    """
    nxt = pg._next
    edges = pg.base.edges
    seen = bytearray(len(nxt))
    out: list[Face] = []
    for start in range(len(nxt)):
        if seen[start]:
            continue
        walk = []
        k = start
        while True:
            walk.append(k)
            seen[k] = 1
            k = nxt[k ^ 1]  # on from the far end of k's edge
            if k == start:
                break
        out.append(Face(tuple((edges[k >> 1].name, "th"[k & 1]) for k in walk)))
    out.extend(Face(()) for _ in _isolated(pg))
    return out


def face_index_of_darts(face_list: list[Face]) -> dict[Dart, int]:
    return {d: i for i, f in enumerate(face_list) for d in f.darts}


# -- Dehn colorings --------------------------------------------------------------


class DehnColoring(NamedTuple):
    """Vertex and face colors; every dual component starts at zero from its
    first face, the base face first and then the others in face order."""

    vertex_colors: tuple
    face_colors: tuple
    base_face: int


def dehn_extend(pg: PlaneGraph, alpha: list, base_face: int, fld: Domain) -> DehnColoring:
    """Integrate a conservative vertex coloring to face colors from a base face.

    The face on the left of an edge is the face of its dart (e, "t"), the face
    on its right that of (e, "h").  Crossing an edge from the face on its
    right to the face on its left adds color(tail) - color(head);
    on a planar rotation system conservativity makes the result independent
    of the traversal order.  Every dual component, one per component of the
    graph, starts at zero from its first face in the order base face, then the
    other faces in face order.  When the integration depends on the path, as
    it can on a rotation system of higher genus, or alpha has not one entry
    per vertex, it raises ValueError.
    """
    g = pg.base
    _check_length(alpha, len(g.vertices), "vertex")
    alpha = [fld.of(a) for a in alpha]
    if any(fld.of(sum(v * alpha[j] for j, v in row.items())) for row in laplacian_finite(g)):
        raise ValueError("vertex coloring is not conservative; integration would be path dependent")
    fl = faces(pg)
    if not 0 <= base_face < len(fl):
        raise ValueError(f"base face {base_face} out of range (have {len(fl)} faces)")
    fidx = face_index_of_darts(fl)
    # Dual edge e runs from the face right of tail -> head to the face on its
    # left; crossing it that way adds alpha(tail) - alpha(head).
    ends = [(fidx[(e.name, "h")], fidx[(e.name, "t")]) for e in g.edges]
    incs = [fld.of(alpha[t] - alpha[h]) for t, h in g._ends]
    order = [base_face] + [f for f in range(len(fl)) if f != base_face]
    pot, _, _ = bfs_potentials(order, ends, incs, fld)
    colors = [pot[f] for f in range(len(fl))]
    # the edge condition color(tail) + gamma(right) = color(head) + gamma(left)
    # can fail only off the plane
    for (right, left), inc in zip(ends, incs):
        if colors[left] != fld.of(colors[right] + inc):
            raise ValueError("face coloring is path dependent")
    return DehnColoring(tuple(alpha), tuple(colors), base_face)


def dehn_restrict(dc: DehnColoring) -> list:
    """Forget the face colors."""
    return list(dc.vertex_colors)


# -- medial components -------------------------------------------------------------


class MedialComponent(NamedTuple):
    """One closed strand of the medial graph.

    crossings: edge names in traversal order (each edge appears as often as
    this strand passes its crossing).  residue: edges crossed exactly once.
    winding: net annulus voltage of the quotient trace (voltage case only).
    """

    crossings: tuple[str, ...]
    residue: tuple[str, ...]
    winding: int | None = None


def medial_components(pg: PlaneGraph) -> list[MedialComponent]:
    """Strand components of the medial graph of a plane graph: with their
    windings on a voltage quotient, with winding None on a finite one."""
    nxt, prv = pg._next, pg._prev
    edges = pg.base.edges
    vg = pg.quotient
    volts = [s[0] for s in vg.voltages] if vg is not None else [0] * len(edges)
    seen: set[tuple[int, int]] = set()
    out: list[MedialComponent] = []
    for seed in ((k, sign) for k in range(len(nxt)) for sign in (1, -1)):
        if seed in seen:
            continue
        crossings: list[int] = []  # edge indices
        winding = 0
        k, sign = seed
        while True:
            d = nxt[k] if sign > 0 else prv[k]
            seen.add((k, sign))
            seen.add((d, -sign))
            crossings.append(d >> 1)
            winding += -volts[d >> 1] if d & 1 else volts[d >> 1]  # +s from the tail end
            k, sign = d ^ 1, -sign
            if (k, sign) == seed:
                break
        once = sorted(j for j, c in Counter(crossings).items() if c == 1)
        names = tuple(edges[j].name for j in crossings)
        residue = tuple(edges[j].name for j in once)
        out.append(MedialComponent(names, residue, None if vg is None else winding))
    # an isolated vertex is circled by one strand that crosses nothing
    out.extend(MedialComponent((), (), None if vg is None else 0) for _ in _isolated(pg))
    return out


def medial_components_voltage(pg: PlaneGraph) -> list[MedialComponent]:
    """Quotient strand traces with their annulus windings: :func:`medial_components`
    of a voltage quotient only.

    A trace with winding w != 0 lifts to |w| noncompact strands of the
    periodic graph's medial; a trace with winding 0 lifts to one Z-orbit of
    compact strands.
    """
    if pg.quotient is None:
        raise ValueError("finite plane graph: use medial_components")
    return medial_components(pg)


def noncompact_count(components: list[MedialComponent]) -> int:
    return sum(abs(c.winding) for c in components if c.winding)


def compact_orbit_count(components: list[MedialComponent]) -> int:
    return sum(1 for c in components if not c.winding)


# -- residues and the Shank basis ----------------------------------------------------


def residue_vector(g: FiniteGraph, comp: MedialComponent) -> list[int]:
    """GF(2) indicator of the edges the component crosses exactly once."""
    names = set(comp.residue)
    return [1 if e.name in names else 0 for e in g.edges]


def shank_basis(pg: PlaneGraph, base_component: int = 0) -> list[list[int]]:
    """Residues of all medial components but one per connected component of
    the graph: a GF(2) basis of the bicycles.

    The dropped strand is ``base_component`` in its own graph component and
    the first strand in every other one; an isolated vertex's empty strand is
    the only one of its component, so it is always dropped.  Raises
    ValueError on a voltage quotient, and AssertionError if the residues fail
    to be a basis of the bicycle space, which would contradict the rotation
    system being planar.
    """
    if pg.quotient is not None:
        raise ValueError("voltage quotient: a Shank basis needs a finite plane graph")
    g = pg.base
    comps = medial_components(pg)
    if not 0 <= base_component < len(comps):
        raise ValueError(f"base component {base_component} out of range")
    part = {v: i for i, vs in enumerate(connected_components(g)) for v in vs}
    tail = {e.name: e.tail for e in g.edges}
    lone = iter(_isolated(pg))  # the empty strands come last, in vertex order
    home = [part[tail[c.crossings[0]] if c.crossings else next(lone)] for c in comps]
    dropped = {home[base_component]: base_component}
    for i, h in enumerate(home):
        dropped.setdefault(h, i)
    vectors = [
        residue_vector(g, c) for i, c in enumerate(comps) if dropped[home[i]] != i
    ]
    got = row_space_canonical(vectors, GF2)
    if len(got) != len(vectors) or got != bicycle_basis(g, GF2):
        raise AssertionError("medial residues do not form a basis of the bicycle space")
    return vectors
