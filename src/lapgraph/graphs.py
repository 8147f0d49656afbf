"""Finite multigraphs, voltage graphs over Z^d, covers and restrictions.

Vertices and edges keep their input order throughout, so every derived matrix
is reproducible byte for byte.  No structure is written after construction
and all operations are pure.  A :class:`FiniteGraph` resolves its edge ends
to vertex indices once, when it is validated, and every per-edge pass, lifts
and degrees included, reads those indices instead of names.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .fields import Domain, check_int
from .laurent import LaurentPoly


class Edge(NamedTuple):
    name: str
    tail: str
    head: str


class Record:
    """Base of the immutable types that validate their fields.

    The fields are the ``__slots__`` without a leading underscore, in
    constructor order.  ``__init__`` validates them and stores each once with
    ``_store``; assigning or deleting an attribute afterwards raises
    AttributeError.  Two records of one type are equal, and hash alike, when
    the fields named in ``_compared`` are; a record equals no other type's.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _store(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        names = [name for name in self.__slots__ if name[0] != "_"]
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._values()))
        return f"{type(self).__name__}({shown})"


class FiniteGraph(Record):
    """A finite multigraph; multi-edges and self-loops are allowed.

    ``_ends`` holds each edge's (tail index, head index), resolved by the
    validation; equality, hashing and pickling see only the fields.
    """

    __slots__ = ("vertices", "edges", "_vindex", "_ends")
    _compared = ("vertices", "edges")
    quotient = None  # no voltage quotient: the trivial action, d = 0

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        vindex = {v: i for i, v in enumerate(vertices)}
        if len(vindex) != len(vertices):
            raise ValueError("duplicate vertex names")
        if len({e.name for e in edges}) != len(edges):
            raise ValueError("duplicate edge names")
        ends = []
        for e in edges:
            t, h = vindex.get(e.tail), vindex.get(e.head)
            if t is None or h is None:
                raise ValueError(f"edge {e.name} references an unknown vertex")
            ends.append((t, h))
        self._store(vertices=vertices, edges=edges, _vindex=vindex, _ends=tuple(ends))

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

    def degree(self, v: str) -> int:
        """Vertex degree, one pass over the edge ends; a self-loop counts twice."""
        i = self._vindex[v]
        return sum((t == i) + (h == i) for t, h in self._ends)

    def __str__(self):
        return f"FiniteGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class VoltageGraph(Record):
    """A finite quotient graph with Z^d voltages (d = 1 or 2) on its
    oriented edges.

    The voltage s on an edge v_i -> v_j says that the lift starting at the
    level-0 copy of v_i ends at the level-s copy of v_j.  A graph without
    voltages is a :class:`FiniteGraph`.
    """

    __slots__ = _compared = ("base", "rank", "voltages")

    def __init__(self, base: FiniteGraph, rank: int, voltages: tuple[tuple[int, ...], ...]):
        if rank not in (1, 2):
            raise ValueError("voltage rank must be 1 or 2")
        if len(voltages) != len(base.edges):
            raise ValueError("one voltage vector per edge required")
        for s in voltages:
            if len(s) != rank:
                raise ValueError(f"voltage {s} has wrong arity for rank {rank}")
        self._store(base=base, rank=rank, voltages=voltages)

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


class SublatticeSpec(NamedTuple):
    """A finite-index sublattice of Z^d in Hermite form: (n,) for nZ, and
    (a, b, c) with a, c > 0 and 0 <= b < c for the span of the columns (a, b)
    and (0, c).  The form is canonical, so equal lattices give equal specs."""

    form: tuple[int, ...]

    @classmethod
    def cyclic(cls, n: int) -> "SublatticeSpec":
        check_int("sublattice index", n, 1)
        return cls((n,))

    @classmethod
    def scaled(cls, n: int, rank: int) -> "SublatticeSpec":
        """nZ^rank, of index n^rank, under the index rule of :meth:`cyclic`."""
        lam = cls.cyclic(n)
        return lam if rank == 1 else cls((n, 0, n))

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


class RectangleSpec(Record):
    """A box of coset representatives [0, n_1 - 1] x ... defining a restriction."""

    __slots__ = _compared = ("sizes",)

    def __init__(self, sizes: tuple[int, ...]):
        if not sizes or not all(isinstance(n, int) and n >= 1 for n in sizes):
            raise ValueError(f"rectangle sizes must be positive integers, got {sizes!r}")
        self._store(sizes=sizes)

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
    for j, (t, h) in enumerate(g._ends):
        if t != h:
            Q[h][j] = 1
            Q[t][j] = -1
    return Q


def laplacian_finite(g: FiniteGraph) -> list[dict[int, int]]:
    """Laplacian D - A of a finite multigraph as sparse rows {vertex index:
    entry}, one per vertex, holding only its nonzeros.  A self-loop adds
    nothing (its 2 in D cancels its 2 in A)."""
    L: list[dict[int, int]] = [{} for _ in g.vertices]
    for i, j in g._ends:
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
    Satisfies L(1/x) = L(x)^T.  One pass over the edge ends tallies each row
    as {column: {exponent: coefficient}}, degrees included, and each nonzero
    entry is built once; the others share one zero, carrying the variable count.
    """
    g = vg.base
    d = vg.rank
    origin = (0,) * d
    rows = [{i: {origin: 0}} for i in range(len(g.vertices))]
    for (i, j), s in zip(g._ends, vg.voltages):
        rows[i][i][origin] += 1
        rows[j][j][origin] += 1
        for r, c, t in ((i, j, s), (j, i, tuple(-a for a in s))):
            entry = rows[r].setdefault(c, {})
            entry[t] = entry.get(t, 0) - 1
    zero = LaurentPoly.zero(d)
    L = [[zero] * len(rows) for _ in rows]
    for row, tally in zip(L, rows):
        for j, coeffs in tally.items():
            row[j] = LaurentPoly(d, coeffs)
    return L


# -- covers and restrictions -----------------------------------------------------


def _lift(vg: VoltageGraph, cells: list[tuple[int, ...]], move: Callable[[tuple[int, ...]], list]) -> FiniteGraph:
    """Vertices v@c for each base vertex v and cell c (base-vertex major), and
    one edge e@c from tail@c to head@c' for each base edge e with voltage s
    and each cell c, c' the cell numbered move(s)[k] for the k-th cell c;
    none where that is None.  Lifted ends are read off the vertex list."""
    names = [",".join(map(str, c)) for c in cells]
    m = len(cells)
    vertices = [f"{v}@{c}" for v in vg.base.vertices for c in names]
    edges = []
    for e, (t, h), s in zip(vg.base.edges, vg.base._ends, vg.voltages):
        tail, head = t * m, h * m  # the places of tail@c and head@c for the first cell c
        for k, (c, k2) in enumerate(zip(names, move(s))):
            if k2 is not None:
                edges.append(Edge(f"{e.name}@{c}", vertices[tail + k], vertices[head + k2]))
    return FiniteGraph(tuple(vertices), tuple(edges))


def _coset_move(lam: SublatticeSpec, s: tuple[int, ...]) -> list[int]:
    """The place in ``lam.coset_reps()`` of the coset of c + s, for each
    representative c in turn: a rotation of each run (i, 0), ..., (i, c - 1)
    of reps onto the run of the coset of (i + s_0, s_1)."""
    if lam.rank == 1:
        n = lam.form[0]
        r = s[0] % n
        return [*range(r, n), *range(r)]
    a, _, c = lam.form
    out = []
    for i in range(a):
        t, y = lam.fold(i + s[0], s[1])
        start, r = t * c, y % c
        out += range(start + r, start + c)
        out += range(start, start + r)
    return out


def _box_move(rect: RectangleSpec, s: tuple[int, ...]) -> list[int | None]:
    """The place in ``rect.points()`` of c + s for each point c in turn, or
    None where c + s leaves the box."""
    out: list[int | None] = [0]
    for n, t in zip(rect.sizes, s):
        axis = [x + t if 0 <= x + t < n else None for x in range(n)]
        out = [None if p is None or q is None else p * n + q for p in out for q in axis]
    return out


def cover_graph(vg: VoltageGraph, lam: SublatticeSpec) -> FiniteGraph:
    """The finite r-sheeted cover determined by a finite-index sublattice.

    Vertices are v@c for each base vertex v and canonical coset c; each base
    edge with voltage s yields one edge per coset, from (tail, c) to
    (head, c + s).  Vertex order is base-vertex major, coset minor.
    """
    if lam.rank != vg.rank:
        raise ValueError("sublattice rank does not match voltage rank")
    return _lift(vg, lam.coset_reps(), lambda s: _coset_move(lam, s))


def restriction_subgraph(vg: VoltageGraph, rect: RectangleSpec) -> FiniteGraph:
    """Full subgraph of the periodic lift on the box of translates in rect."""
    if len(rect.sizes) != vg.rank:
        raise ValueError("rectangle rank does not match voltage rank")
    return _lift(vg, rect.points(), lambda s: _box_move(rect, s))


# -- components ------------------------------------------------------------------


def connected_components(g: FiniteGraph) -> list[list[str]]:
    """Vertex partition into connected components, ordered by least vertex index."""
    adj: list[list[int]] = [[] for _ in g.vertices]
    for t, h in g._ends:
        adj[t].append(h)
        adj[h].append(t)
    seen = [False] * len(adj)
    comps: list[list[str]] = []
    for v in range(len(adj)):
        if seen[v]:
            continue
        comp = []
        stack = [v]
        seen[v] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comp.sort()
        comps.append([g.vertices[u] for u in comp])
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

