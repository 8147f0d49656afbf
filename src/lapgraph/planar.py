"""Plane graphs as rotation systems: faces, Dehn colorings, medial tracing.

A rotation system lists the edge-ends (darts) counterclockwise around each
vertex.  A dart is a pair (edge name, end) with end "t" at the tail and "h"
at the head; a loop contributes both of its ends to its vertex's rotation.

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

from dataclasses import dataclass, field

from .colorings import bicycle_basis
from .fields import GF2, Domain
from .graphs import (
    FiniteGraph,
    VoltageGraph,
    bfs_potentials,
    connected_components,
    laplacian_finite,
)
from .linalg import row_space_canonical

Dart = tuple[str, str]  # (edge name, "t" | "h")


@dataclass(frozen=True)
class PlaneGraph:
    """A finite graph or a rank-1 voltage graph with a rotation system."""

    graph: FiniteGraph | VoltageGraph
    rotations: dict[str, tuple[Dart, ...]] = field(compare=False)

    def __post_init__(self):
        if self.quotient is not None and self.quotient.rank > 1:
            raise ValueError("plane graphs carry voltages of rank at most 1")
        g = self.base
        expected: dict[Dart, str] = {}
        for e in g.edges:
            expected[(e.name, "t")] = e.tail
            expected[(e.name, "h")] = e.head
        seen: set[Dart] = set()
        for v in g.vertices:
            rot = self.rotations.get(v, ())
            if len(rot) != g.degree(v):
                raise ValueError(f"rotation at {v} has length {len(rot)}, degree is {g.degree(v)}")
            for d in rot:
                if d in seen:
                    raise ValueError(f"edge end {d} appears twice")
                if expected.get(d) != v:
                    raise ValueError(f"edge end {d} does not belong at vertex {v}")
                seen.add(d)
        if len(seen) != 2 * len(g.edges):
            raise ValueError("rotation system does not cover every edge end")

    @property
    def base(self) -> FiniteGraph:
        return self.graph.base

    @property
    def quotient(self) -> VoltageGraph | None:
        return self.graph.quotient

    def _maps(self):
        """next/prev in rotation, and the opposite-end involution."""
        nxt: dict[Dart, Dart] = {}
        prv: dict[Dart, Dart] = {}
        for v in self.base.vertices:
            rot = self.rotations.get(v, ())
            k = len(rot)
            for i, d in enumerate(rot):
                nxt[d] = rot[(i + 1) % k]
                prv[d] = rot[(i - 1) % k]
        opp = {}
        for e in self.base.edges:
            opp[(e.name, "t")] = (e.name, "h")
            opp[(e.name, "h")] = (e.name, "t")
        return nxt, prv, opp


def parse_dart(tok: str) -> Dart:
    """Parse one edge-end token such as 'a.t' or 'r.h'."""
    name, _, end = tok.rpartition(".")
    if end not in ("t", "h") or not name:
        raise ValueError(f"bad edge-end token {tok!r}")
    return (name, end)


# -- faces ---------------------------------------------------------------------


@dataclass(frozen=True)
class Face:
    """A face boundary walk: the cyclic sequence of darts kept on the left."""

    darts: tuple[Dart, ...]

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
    nxt, _, opp = pg._maps()
    order = [(e.name, end) for e in pg.base.edges for end in ("t", "h")]
    seen: set[Dart] = set()
    out: list[Face] = []
    for start in order:
        if start in seen:
            continue
        walk = []
        d = start
        while True:
            walk.append(d)
            seen.add(d)
            d = nxt[opp[d]]
            if d == start:
                break
        out.append(Face(tuple(walk)))
    out.extend(Face(()) for _ in _isolated(pg))
    return out


def face_index_of_darts(face_list: list[Face]) -> dict[Dart, int]:
    return {d: i for i, f in enumerate(face_list) for d in f.darts}


# -- Dehn colorings --------------------------------------------------------------


@dataclass(frozen=True)
class DehnColoring:
    """Vertex and face colors with a base face colored zero."""

    vertex_colors: tuple
    face_colors: tuple
    base_face: int


def dehn_extend(pg: PlaneGraph, alpha: list, base_face: int, fld: Domain) -> DehnColoring:
    """Integrate a conservative vertex coloring to face colors from a base face.

    The face on the left of an edge is the face of its dart (e, "t"), the face
    on its right that of (e, "h").  Crossing an edge from the face on its
    right to the face on its left adds color(tail) - color(head);
    on a planar rotation system conservativity makes the result independent
    of the traversal order.  When the integration depends on the path, as it
    can on a rotation system of higher genus, it raises ValueError.
    """
    g = pg.base
    alpha = [fld.of(a) for a in alpha]
    if any(fld.of(sum(v * alpha[j] for j, v in row.items())) for row in laplacian_finite(g)):
        raise ValueError("vertex coloring is not conservative; integration would be path dependent")
    fl = faces(pg)
    if not 0 <= base_face < len(fl):
        raise ValueError(f"base face {base_face} out of range (have {len(fl)} faces)")
    fidx = face_index_of_darts(fl)
    vidx = g.vertex_index
    # Dual edge e runs from the face right of tail -> head to the face on its
    # left; crossing it that way adds alpha(tail) - alpha(head).
    ends = [(fidx[(e.name, "h")], fidx[(e.name, "t")]) for e in g.edges]
    incs = [fld.of(alpha[vidx(e.tail)] - alpha[vidx(e.head)]) for e in g.edges]
    order = [base_face] + [f for f in range(len(fl)) if f != base_face]
    pot, _, root = bfs_potentials(order, ends, incs, fld)
    # a face in another dual component than the base face is colored zero
    colors = [pot[f] if root[f] == base_face else fld.zero for f in range(len(fl))]
    # the edge condition color(tail) + gamma(right) = color(head) + gamma(left);
    # it can fail inside the base face's dual component only off the plane
    for e, (right, left), inc in zip(g.edges, ends, incs):
        if colors[left] != fld.of(colors[right] + inc):
            if root[right] == base_face:
                raise ValueError("face coloring is path dependent")
            raise AssertionError(f"Dehn condition fails at edge {e.name}")
    return DehnColoring(tuple(alpha), tuple(colors), base_face)


def dehn_restrict(dc: DehnColoring) -> list:
    """Forget the face colors."""
    return list(dc.vertex_colors)


# -- medial components -------------------------------------------------------------


@dataclass(frozen=True)
class MedialComponent:
    """One closed strand of the medial graph.

    crossings: edge names in traversal order (each edge appears as often as
    this strand passes its crossing).  residue: edges crossed exactly once.
    winding: net annulus voltage of the quotient trace (voltage case only).
    """

    crossings: tuple[str, ...]
    residue: tuple[str, ...]
    winding: int | None = None


State = tuple[Dart, int]


def medial_components(pg: PlaneGraph) -> list[MedialComponent]:
    """Strand components of the medial graph of a plane graph: with their
    windings on a voltage quotient, with winding None on a finite one."""
    g = pg.base
    nxt, prv, opp = pg._maps()
    vg = pg.quotient
    with_winding = vg is not None
    volt = {e.name: s[0] for e, s in zip(g.edges, vg.voltages)} if with_winding else None
    edge_order = {e.name: i for i, e in enumerate(g.edges)}

    def step(state: State) -> tuple[State, str, int]:
        d, sign = state
        target = nxt[d] if sign > 0 else prv[d]
        w = 0
        if with_winding:
            w = volt[target[0]] if target[1] == "t" else -volt[target[0]]
        return (opp[target], -sign), target[0], w

    def reverse(state: State) -> State:
        d, sign = state
        return (nxt[d], -1) if sign > 0 else (prv[d], 1)

    seeds = [((e.name, end), sign) for e in g.edges for end in ("t", "h") for sign in (1, -1)]
    seen: set[State] = set()
    out: list[MedialComponent] = []
    for seed in seeds:
        if seed in seen:
            continue
        crossings: list[str] = []
        winding = 0
        s = seed
        while True:
            seen.add(s)
            seen.add(reverse(s))
            s, edge, w = step(s)
            crossings.append(edge)
            winding += w
            if s == seed:
                break
        counts: dict[str, int] = {}
        for name in crossings:
            counts[name] = counts.get(name, 0) + 1
        residue = tuple(sorted((n for n, c in counts.items() if c == 1), key=edge_order.get))
        out.append(
            MedialComponent(tuple(crossings), residue, winding if with_winding else None)
        )
    # an isolated vertex is circled by one strand that crosses nothing
    out.extend(MedialComponent((), (), 0 if with_winding else None) for _ in _isolated(pg))
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
