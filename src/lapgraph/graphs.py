"""Finite multigraphs, voltage graphs over Z^d, covers and restrictions.

Vertices and edges keep their input order throughout, so every derived matrix
is reproducible byte for byte.  All structures are immutable after
construction and all operations are pure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .fields import Domain
from .laurent import LaurentPoly


class Edge(NamedTuple):
    name: str
    tail: str
    head: str


@dataclass(frozen=True)
class FiniteGraph:
    """A finite multigraph; multi-edges and self-loops are allowed."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    _vindex: dict = field(init=False, repr=False, compare=False)
    quotient = None  # no voltage quotient: the trivial action, d = 0

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise ValueError("duplicate edge names")
        vset = set(self.vertices)
        for e in self.edges:
            if e.tail not in vset or e.head not in vset:
                raise ValueError(f"edge {e.name} references an unknown vertex")
        object.__setattr__(self, "_vindex", {v: i for i, v in enumerate(self.vertices)})

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> "FiniteGraph":
        return cls(tuple(vertices), tuple(Edge(*e) for e in edges))

    @property
    def base(self) -> "FiniteGraph":
        """The graph itself, so that ``obj.base`` is the underlying finite
        graph of every graph kind."""
        return self

    def vertex_index(self, v: str) -> int:
        return self._vindex[v]

    @cached_property
    def _degrees(self) -> dict[str, int]:
        # built on the first degree() call, not per graph: covers never ask for one
        deg = dict.fromkeys(self.vertices, 0)
        for e in self.edges:
            deg[e.tail] += 1
            deg[e.head] += 1
        return deg

    def degree(self, v: str) -> int:
        """Vertex degree; a self-loop counts as two edges."""
        return self._degrees[v]

    def __str__(self):
        return f"FiniteGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class VoltageGraph:
    """A finite quotient graph with Z^d voltages (d = 1 or 2) on its
    oriented edges.

    The voltage s on an edge v_i -> v_j says that the lift starting at the
    level-0 copy of v_i ends at the level-s copy of v_j.  A graph without
    voltages is a :class:`FiniteGraph`.
    """

    base: FiniteGraph
    rank: int
    voltages: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rank not in (1, 2):
            raise ValueError("voltage rank must be 1 or 2")
        if len(self.voltages) != len(self.base.edges):
            raise ValueError("one voltage vector per edge required")
        for s in self.voltages:
            if len(s) != self.rank:
                raise ValueError(f"voltage {s} has wrong arity for rank {self.rank}")

    @classmethod
    def build(
        cls,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str, str, tuple[int, ...]]],
        rank: int,
    ) -> "VoltageGraph":
        es = []
        volts = []
        for name, tail, head, s in edges:
            es.append(Edge(name, tail, head))
            volts.append(tuple(s))
        return cls(FiniteGraph(tuple(vertices), tuple(es)), rank, tuple(volts))

    @property
    def quotient(self) -> "VoltageGraph":
        """The graph itself, so that ``obj.quotient`` is the voltage quotient
        of every graph kind (None for a finite graph)."""
        return self


@dataclass(frozen=True)
class SublatticeSpec:
    """A finite-index sublattice of Z^d in Hermite form: (n,) for nZ, and
    (a, b, c) with a, c > 0 and 0 <= b < c for the span of the columns (a, b)
    and (0, c).  The form is canonical, so equal lattices give equal specs."""

    form: tuple[int, ...]

    @classmethod
    def cyclic(cls, n: int) -> "SublatticeSpec":
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"sublattice index must be an integer at least 1, got {n!r}")
        return cls((n,))

    @classmethod
    def lattice2(cls, rows: tuple[tuple[int, int], tuple[int, int]]) -> "SublatticeSpec":
        """The integer column span of the 2 x 2 matrix rows.  A column operation
        takes their first row to (a, 0), a = gcd(m00, m01)."""
        (m00, m01), (m10, m11) = rows
        if not all(isinstance(v, int) for v in (m00, m01, m10, m11)):
            raise ValueError(f"sublattice matrix needs integer entries, got {rows!r}")
        det = m00 * m11 - m01 * m10
        if det == 0:
            raise ValueError("sublattice matrix must have nonzero determinant")
        a, u, v = _ext_gcd(m00, m01)
        c = abs(det) // a
        return cls((a, (u * m10 + v * m11) % c, c))

    @property
    def rank(self) -> int:
        return 1 if len(self.form) == 1 else 2

    @property
    def index(self) -> int:
        return self.form[0] * self.form[-1] if self.rank == 2 else self.form[0]

    def coset_reps(self) -> list[tuple[int, ...]]:
        """Canonical coset representatives of Z^d modulo the sublattice, in order."""
        if self.rank == 1:
            return [(i,) for i in range(self.form[0])]
        a, _, c = self.form
        return [(i, j) for i in range(a) for j in range(c)]

    def fold(self, x: int, y: int) -> tuple[int, int]:
        """(t, y - b (x - t)/a), t = x mod a: the point of (x, y) + Z(a, b) with
        first coordinate in [0, a).  Rank 2 only."""
        a, b, _ = self.form
        t = x % a
        return t, y - (x - t) // a * b

    def reduce(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Canonical representative of vec's coset."""
        if self.rank == 1:
            return (vec[0] % self.form[0],)
        t, y = self.fold(*vec)
        return (t, y % self.form[-1])


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """g, u, v with g = gcd(a, b) >= 0 and g = u*a + v*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class RectangleSpec:
    """A box of coset representatives [0, n_1 - 1] x ... defining a restriction."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or not all(isinstance(n, int) and n >= 1 for n in self.sizes):
            raise ValueError(f"rectangle sizes must be positive integers, got {self.sizes!r}")

    def points(self) -> list[tuple[int, ...]]:
        return list(product(*(range(n) for n in self.sizes)))

    def __contains__(self, vec: tuple[int, ...]) -> bool:
        return all(0 <= a < n for a, n in zip(vec, self.sizes))


# -- matrices ------------------------------------------------------------------


def incidence_matrix(g: FiniteGraph) -> list[dict[int, int]]:
    """|V| x |E| incidence matrix as sparse rows {edge index: entry}, one per
    vertex: +1 at the head, -1 at the tail of each edge.

    A self-loop's column is empty (its +1 and -1 coincide).
    """
    Q: list[dict[int, int]] = [{} for _ in g.vertices]
    for j, e in enumerate(g.edges):
        if e.tail != e.head:
            Q[g.vertex_index(e.head)][j] = 1
            Q[g.vertex_index(e.tail)][j] = -1
    return Q


def laplacian_finite(g: FiniteGraph) -> list[dict[int, int]]:
    """Laplacian D - A of a finite multigraph as sparse rows {vertex index:
    entry}, one per vertex, holding only its nonzeros.  A self-loop adds
    nothing (its 2 in D cancels its 2 in A)."""
    index = g._vindex
    L: list[dict[int, int]] = [{} for _ in g.vertices]
    for e in g.edges:
        i, j = index[e.tail], index[e.head]
        if i != j:
            Li, Lj = L[i], L[j]
            Li[i] = Li.get(i, 0) + 1
            Lj[j] = Lj.get(j, 0) + 1
            Li[j] = Li.get(j, 0) - 1
            Lj[i] = Lj.get(i, 0) - 1
    return L


def voltage_laplacian(vg: VoltageGraph) -> list[list[LaurentPoly]]:
    """The matrix L(x) = D - A(x) over the Laurent ring in d = rank variables.

    A(x)_ij collects x^s for every edge from v_i to the level-s copy of v_j;
    a self-loop with voltage s contributes x^s + x^-s to its diagonal entry.
    Satisfies L(1/x) = L(x)^T.
    """
    g = vg.base
    n = len(g.vertices)
    d = vg.rank
    zero = LaurentPoly.zero(d)
    L = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        L[i][i] = LaurentPoly.constant(g.degree(g.vertices[i]), d)
    for e, s in zip(g.edges, vg.voltages):
        i = g.vertex_index(e.tail)
        j = g.vertex_index(e.head)
        neg_s = tuple(-a for a in s)
        L[i][j] = L[i][j] - LaurentPoly.monomial(1, s)
        L[j][i] = L[j][i] - LaurentPoly.monomial(1, neg_s)
    return L


# -- covers and restrictions -----------------------------------------------------


def _lift(
    vg: VoltageGraph, cells: list[tuple[int, ...]], land: Callable[[tuple[int, ...]], tuple[int, ...] | None]
) -> FiniteGraph:
    """Vertices v@c for each base vertex v and cell c (base-vertex major), and
    one edge e@c from tail@c to head@land(c + s) for each base edge e with
    voltage s and each cell c, skipped where land gives None."""
    names = {c: ",".join(map(str, c)) for c in cells}
    vertices = [f"{v}@{names[c]}" for v in vg.base.vertices for c in cells]
    edges = []
    for e, s in zip(vg.base.edges, vg.voltages):
        for c in cells:
            c2 = land(tuple(a + b for a, b in zip(c, s)))
            if c2 is not None:
                edges.append(Edge(f"{e.name}@{names[c]}", f"{e.tail}@{names[c]}", f"{e.head}@{names[c2]}"))
    return FiniteGraph(tuple(vertices), tuple(edges))


def cover_graph(vg: VoltageGraph, lam: SublatticeSpec) -> FiniteGraph:
    """The finite r-sheeted cover determined by a finite-index sublattice.

    Vertices are v@c for each base vertex v and canonical coset c; each base
    edge with voltage s yields one edge per coset, from (tail, c) to
    (head, c + s).  Vertex order is base-vertex major, coset minor.
    """
    if lam.rank != vg.rank:
        raise ValueError("sublattice rank does not match voltage rank")
    return _lift(vg, lam.coset_reps(), lam.reduce)


def restriction_subgraph(vg: VoltageGraph, rect: RectangleSpec) -> FiniteGraph:
    """Full subgraph of the periodic lift on the box of translates in rect."""
    if len(rect.sizes) != vg.rank:
        raise ValueError("rectangle rank does not match voltage rank")
    return _lift(vg, rect.points(), lambda c: c if c in rect else None)


# -- components ------------------------------------------------------------------


def connected_components(g: FiniteGraph) -> list[list[str]]:
    """Vertex partition into connected components, ordered by least vertex index."""
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.tail].append(e.head)
        adj[e.head].append(e.tail)
    seen: set[str] = set()
    comps: list[list[str]] = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = []
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp.sort(key=g.vertex_index)
        comps.append(comp)
    return comps


def bfs_potentials(
    vertices: Sequence[Hashable],
    ends: Sequence[tuple[Hashable, Hashable]],
    values: Sequence,
    dom: Domain,
) -> tuple[dict, set[int], dict]:
    """Integrate edge values along a breadth-first spanning forest.

    Edge j runs from ends[j][0] to ends[j][1]; crossing it that way adds
    values[j] and crossing it backwards subtracts it, each sum reduced with
    dom.of.  Roots are taken in the order of vertices and sit at dom.zero,
    each vertex's edges are walked in edge order, and loops are skipped.
    Returns (potential, tree, root): the potential of each vertex, the indices
    of the forest's edges, and the root of each vertex's tree.
    """
    adj: dict = {v: [] for v in vertices}
    for j, (tail, head) in enumerate(ends):
        if tail != head:
            adj[tail].append((j, head, values[j]))
            adj[head].append((j, tail, dom.of(-values[j])))
    pot: dict = {}
    root: dict = {}
    tree: set[int] = set()
    for r in vertices:
        if r in pot:
            continue
        pot[r] = dom.zero
        root[r] = r
        queue = deque([r])
        while queue:
            u = queue.popleft()
            for j, w, step in adj[u]:
                if w not in pot:
                    pot[w] = dom.of(pot[u] + step)
                    root[w] = r
                    tree.add(j)
                    queue.append(w)
    return pot, tree, root

