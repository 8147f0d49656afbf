"""Spanning-tree counts, complexity, CRSF coefficients, annular connectivity,
and growth-rate experiments over covers and restrictions.

Every cover's complexity is read off Delta_0 by one integer resultant
(:func:`cyclic_cover_complexity`; a rank-2 sublattice is first folded along
its Hermite form onto a rank-1 quotient, :func:`cover_complexity`), so no
cover is built.  Finite graphs and box restrictions are counted by the
matrix-tree theorem with one sparse Bareiss elimination per graph, however
many components it has (:func:`complexity`; :func:`tree_count` and the
quotient's components in a cover count reuse a component pass already
made).  The reduced Laplacian is symmetric and positive definite, so
:func:`~lapgraph.linalg.int_det` eliminates its upper triangle alone and
never meets a zero pivot.  On a built cover this count is also the test
oracle for the resultant count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .fields import ZZ
from .graphs import (
    FiniteGraph,
    RectangleSpec,
    SublatticeSpec,
    VoltageGraph,
    bfs_potentials,
    connected_components,
    laplacian_finite,
    restriction_subgraph,
    voltage_laplacian,
)
from .laurent import LaurentPoly, _list_divmod, divexact, normalize
from .linalg import det_laurent, int_det
from .mahler import mahler


def complexity(g: FiniteGraph) -> int:
    """Product of spanning-tree counts over connected components, by the
    matrix-tree theorem (exact).

    Equals the number of spanning forests with the minimal number of trees.
    The Laplacian is block diagonal by component, so deleting the row and
    column of the last vertex of each component leaves one matrix whose
    determinant is that product: one :func:`int_det` call on the rows of
    :func:`~lapgraph.graphs.laplacian_finite` with those vertices sliced out,
    of the empty matrix (1) when every component is a single vertex.
    """
    return _complexity(g, connected_components(g))


def _complexity(g: FiniteGraph, comps: list[list[str]]) -> int:
    """:func:`complexity` of g, given its connected components.  Each last
    vertex leaves the Laplacian's rows in place; components are sorted by
    index, so only a disconnected graph has its columns renumbered."""
    L = laplacian_finite(g)
    last = {g.vertex_index(comp[-1]) for comp in comps}
    for i in last:
        for j in L[i]:
            if j != i:
                del L[j][i]
    index = {i: k for k, i in enumerate(i for i in range(len(L)) if i not in last)}
    if len(comps) > 1:
        L = [{index[j]: v for j, v in L[i].items()} for i in index]
    return abs(int_det(L[: len(index)]))


def tree_count(g: FiniteGraph) -> int:
    """Number of spanning trees of a connected graph: its :func:`complexity`."""
    comps = connected_components(g)
    if len(comps) != 1:
        raise ValueError("tree count needs a connected graph")
    return _complexity(g, comps)


# -- cycle-rooted spanning forests ------------------------------------------------


@dataclass(frozen=True)
class CrsfReport:
    """Counts C_k of essential cycle-rooted spanning forests with k components.

    reconstruction is the annulus specialization sum C_k (2 - x - 1/x)^k,
    which equals Delta_0 when every essential cycle winds once (embedded
    quotients).  general_reconstruction is the product form
    sum over CRSFs of prod (2 - x^w - x^-w) over component windings w, which
    equals det L(x) for every rank-1 voltage graph.  max_winding tells which
    applies.
    """

    coefficients: dict[int, int]
    reconstruction: LaurentPoly
    general_reconstruction: LaurentPoly
    max_winding: int

    def matches(self, det: LaurentPoly) -> bool:
        """Whether the product form equals det L (not yet normalized).

        When every winding is at most 1 the annulus sum equals the product
        form term by term, so comparing it as well would add nothing.
        """
        return self.general_reconstruction == det


# Largest quotient crsf_coefficients enumerates: C(16, n) edge subsets.
CRSF_MAX_EDGES = 16


def _crsf_tally(vg: VoltageGraph) -> Counter:
    """Number of essential CRSFs of each sorted tuple of component windings.

    Each n-edge subset of the n-vertex quotient goes through a union-find on
    vertex indices that keeps every vertex's potential relative to its parent
    and every root's cycle winding.  The subset is rejected at a component's
    second cycle, either closed inside it or met by merging two cyclic
    components, and at a cycle of winding zero.  A subset that survives has
    as many cycles as components (n edges on n vertices), so every component
    has exactly one cycle, of nonzero winding.
    """
    g = vg.base
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    edges = [(index[e.tail], index[e.head], s[0]) for e, s in zip(g.edges, vg.voltages)]
    tally: Counter = Counter()
    for subset in combinations(edges, n):
        parent = list(range(n))
        off = [0] * n  # potential of a vertex minus its parent's
        cyc = [0] * n  # winding of a root's component cycle, 0 before it closes
        for t, h, v in subset:
            pt = ph = 0
            while parent[t] != t:
                pt += off[t]
                t = parent[t]
            while parent[h] != h:
                ph += off[h]
                h = parent[h]
            if t == h:
                w = v + pt - ph
                if not w or cyc[t]:
                    break
                cyc[t] = w
            elif cyc[t] and cyc[h]:
                break
            else:
                parent[t] = h
                off[t] = ph - pt - v
                cyc[h] = cyc[h] or cyc[t]
        else:
            tally[tuple(sorted(abs(cyc[i]) for i in range(n) if parent[i] == i))] += 1
    return tally


def crsf_coefficients(vg: VoltageGraph) -> CrsfReport:
    """Brute-force enumeration of essential CRSFs of a rank-1 quotient.

    A qualifying edge subset covers every vertex, gives each component exactly
    one independent cycle, and every component cycle has nonzero net voltage;
    the subsets are tallied by a union-find (``_crsf_tally``).  Quotients with
    more than ``CRSF_MAX_EDGES`` edges raise ValueError.
    """
    if vg.rank != 1:
        raise ValueError("CRSF coefficients are defined for rank-1 quotients")
    m = len(vg.base.edges)
    if m > CRSF_MAX_EDGES:
        raise ValueError(f"quotient too large for brute force ({m} > {CRSF_MAX_EDGES} edges)")
    tally = _crsf_tally(vg)
    counts: Counter = Counter()
    general = LaurentPoly.zero(1)
    for windings, c in tally.items():
        counts[len(windings)] += c
        term = LaurentPoly.constant(c, 1)
        for w in windings:
            term = term * LaurentPoly(1, {(0,): 2, (w,): -1, (-w,): -1})
        general = general + term
    max_w = max((windings[-1] for windings in tally if windings), default=0)
    u = LaurentPoly(1, {(0,): 2, (1,): -1, (-1,): -1})  # 2 - x - 1/x
    recon = LaurentPoly.zero(1)
    for k, c in sorted(counts.items()):
        recon = recon + c * u**k
    return CrsfReport(dict(sorted(counts.items())), recon, general, max_w)


# -- annular connectivity -----------------------------------------------------------


def _has_essential_cycle(vg: VoltageGraph, removed: set[str]) -> bool:
    """Whether some cycle avoiding the removed vertices has nonzero voltage.

    Tree edges close no cycle and a loop closes its own, so an edge is
    essential exactly when its voltage differs from its endpoints' potential
    difference.
    """
    kept = [v for v in vg.base.vertices if v not in removed]
    ends, volts = [], []
    for e, s in zip(vg.base.edges, vg.voltages):
        if e.tail not in removed and e.head not in removed:
            ends.append((e.tail, e.head))
            volts.append(s[0])
    pot, _, _ = bfs_potentials(kept, ends, volts, ZZ)
    return any(s + pot[t] - pot[h] != 0 for (t, h), s in zip(ends, volts))


def minimum_annular_cut(vg: VoltageGraph) -> list[str]:
    """Smallest vertex set whose deletion leaves no cycle with nonzero voltage."""
    if vg.rank != 1:
        raise ValueError("annular cuts are defined for rank-1 quotients")
    vs = vg.base.vertices
    for size in range(len(vs) + 1):
        for subset in combinations(vs, size):
            if not _has_essential_cycle(vg, set(subset)):
                return list(subset)
    raise AssertionError("unreachable: deleting all vertices leaves no cycles")


def annular_connectivity(vg: VoltageGraph) -> int:
    return len(minimum_annular_cut(vg))


# -- the kappa = 1 vertex split ---------------------------------------------------


def split_at_annular_cut(vg: VoltageGraph) -> FiniteGraph:
    """Split a kappa = 1 quotient at its cut vertex into the finite graph H.

    The cut vertex v is the minimum annular cut.  Gauges all voltages off v
    to zero, then opens v into two copies v@0 and v@1 so each former edge
    into v lands on the copy its lift meets.  Spanning trees of H biject with
    essential one-component CRSFs of the quotient.
    """
    if vg.rank != 1:
        raise ValueError("the vertex split applies to rank-1 quotients")
    cut = minimum_annular_cut(vg)
    if len(cut) != 1:
        raise ValueError(f"annular connectivity is {len(cut)}, not 1")
    (v,) = cut
    g = vg.base
    volts = {e.name: s[0] for e, s in zip(g.edges, vg.voltages)}
    others = [u for u in g.vertices if u != v]
    # potentials per component of the quotient minus v, keyed by tree root
    inner = [e for e in g.edges if e.tail != v and e.head != v]
    pot, _, comp_of = bfs_potentials(
        others, [(e.tail, e.head) for e in inner], [volts[e.name] for e in inner], ZZ
    )
    # the level at which each edge from u meets v, seen from u's level-0 lift;
    # minimum_annular_cut found no essential cycle on these same potentials
    at_v: dict[str, tuple[str, int]] = {}
    for e in g.edges:
        s = volts[e.name]
        if e.tail == v == e.head:
            if abs(s) > 1:
                raise ValueError("loop winds more than once; not an embedded kappa = 1 quotient")
        elif e.tail == v:
            at_v[e.name] = (e.head, pot[e.head] - s)
        elif e.head == v:
            at_v[e.name] = (e.tail, s + pot[e.tail])
    levels: dict[str, set[int]] = {}
    for u, t in at_v.values():
        levels.setdefault(comp_of[u], set()).add(t)
    if any(max(ls) - min(ls) > 1 for ls in levels.values()):
        raise ValueError("component attaches to more than two consecutive levels")
    base_level = {c: min(ls) for c, ls in levels.items()}
    v0, v1 = f"{v}@0", f"{v}@1"
    vertices = [v0, v1] + others
    edges = []
    for e in g.edges:
        if e.name in at_v:
            u, t = at_v[e.name]
            w = v0 if t == base_level[comp_of[u]] else v1
            edges.append((e.name, w, u) if e.tail == v else (e.name, u, w))
        elif e.tail == v == e.head:
            edges.append((e.name, v0, v0 if volts[e.name] == 0 else v1))
        else:
            edges.append((e.name, e.tail, e.head))
    return FiniteGraph.build(vertices, edges)


# -- cyclic covers from Delta_0 ------------------------------------------------------

X_MINUS_1_SQ = LaurentPoly(1, {(0,): 1, (1,): -2, (2,): 1})


def _root_of_unity_norm(h: list[int], m: int) -> int:
    """|prod over zeta^m = 1 of h(zeta)| for h in Z[x], coefficients lowest first.

    With lc the leading coefficient and d the degree, H(x) = lc^(d-1) h(x/lc)
    is monic in Z[x] and its roots are lc times those of h, alpha_i.  The
    product is |lc^m prod_i (alpha_i^m - 1)| = |N(x^m - lc^m)| / |lc|^(m(d-1)),
    where N(q) is the determinant of multiplication by q on Z[x]/(H): one
    d x d integer determinant of the remainders of q x^j mod H, with x^m mod H
    taken by repeated squaring, all on dense lists (``laurent._list_divmod``).
    """
    d = len(h) - 1
    lc = h[d]
    if d == 0:
        return abs(lc) ** m
    H = [c * lc ** (d - 1 - i) for i, c in enumerate(h[:d])] + [1]

    def mod(f: list[int]) -> list[int]:
        return _list_divmod(f, H, ZZ)[1]

    r = [1]
    for bit in bin(m)[2:]:
        sq = [0] * (2 * len(r) - 1)
        for i, a in enumerate(r):
            sq[2 * i] += a * a
            for j in range(i + 1, len(r)):
                sq[i + j] += 2 * a * r[j]
        r = mod(sq)
        if bit == "1":
            r = mod([0] + r)
    r = r + [0] * (d - len(r))
    r[0] -= lc**m
    rows = []
    for _ in range(d):
        rows.append({i: c for i, c in enumerate(r) if c})
        r = mod([0] + r)
    norm, rem = divmod(int_det(rows), lc ** (m * (d - 1)))
    if rem:
        raise ArithmeticError("lc^(m(d-1)) does not divide the norm")
    return abs(norm)


def cyclic_cover_complexity(vg: VoltageGraph, n: int, d0: LaurentPoly | None = None) -> int:
    """Complexity of the n-fold cyclic cover of a rank-1 quotient, read off
    Delta_0 in integer arithmetic without building the cover.

    Let C be a connected component of the quotient and g the gcd of its cycle
    voltages.  With c = gcd(n, g) (c = n when g = 0), C lifts to c copies of
    the connected m = n/c-fold cover of C with every voltage divided by c,
    whose Delta_0 is Delta_0 of C with every exponent divided by c (det L lies
    in Z[x^(+-g)]).  Writing that as (x - 1)^2 h, the copy has
    tau(C) m |prod_{zeta^m = 1} h(zeta)| / |h(1)| spanning trees
    (Boesch-Prodinger 1986, Lyons 2005), and tau(C) when m = 1.  h(1) is
    nonzero: every one-cycle CRSF adds -w^2 (x - 1)^2 to det L near x = 1,
    all with the same sign.  The complexity is the product over C of the
    copies' counts to the power c.

    d0, the normalized Delta_0 of vg, is used when vg is connected, so a
    caller that holds it takes no second determinant of L.
    """
    if vg.rank != 1:
        raise ValueError("cyclic covers need a rank-1 quotient")
    SublatticeSpec.cyclic(n)  # the index rule: an integer at least 1
    g = vg.base
    ends = [(e.tail, e.head) for e in g.edges]
    volts = [s[0] for s in vg.voltages]
    pot, _, root = bfs_potentials(g.vertices, ends, volts, ZZ)
    parts: dict = {}  # root -> [vertices, edge indices, gcd of cycle voltages]
    for v in g.vertices:
        parts.setdefault(root[v], [[], [], 0])[0].append(v)
    for j, (t, h) in enumerate(ends):
        part = parts[root[t]]
        part[1].append(j)
        part[2] = math.gcd(part[2], volts[j] + pot[t] - pot[h])  # 0 on tree edges
    total = 1
    for vs, js, cycle_gcd in parts.values():
        comp = VoltageGraph(
            FiniteGraph(tuple(vs), tuple(g.edges[j] for j in js)), 1, tuple(vg.voltages[j] for j in js)
        )
        c = math.gcd(n, cycle_gcd)
        m = n // c
        t = _complexity(comp.base, [vs])  # one component already: no second pass
        if m > 1:
            dc = d0 if d0 is not None and len(parts) == 1 else laplacian_determinant_polynomial(comp)
            if any(e % c for (e,) in dc.coeffs):
                raise ArithmeticError("Delta_0 is not a polynomial in x^c")
            dc = LaurentPoly(1, {(e // c,): a for (e,), a in dc.coeffs.items()})
            h = divexact(dc, X_MINUS_1_SQ, ZZ).coefficient_list()
            t, rem = divmod(t * m * _root_of_unity_norm(h, m), abs(sum(h)))
            if rem:
                raise ArithmeticError("h(1) does not divide the cover's tree count")
        total *= t**c
    return total


def cover_complexity(vg: VoltageGraph, lam: SublatticeSpec) -> int:
    """Complexity of the cover of vg for the sublattice lam, from Delta_0.

    Rank 1 is :func:`cyclic_cover_complexity`.  For rank 2 with Hermite form
    lam.form = (a, b, c), each edge v -> w with voltage (s1, s2) and each i < a
    give an edge v@i -> w@t with voltage y, (t, y) = lam.fold(i + s1, s2): the
    cover is the c-fold cyclic cover of that rank-1 quotient.
    """
    if lam.rank != vg.rank:
        raise ValueError("sublattice rank does not match voltage rank")
    if lam.rank == 1:
        return cyclic_cover_complexity(vg, lam.index)
    a, _, c = lam.form
    edges = []
    for e, (s1, s2) in zip(vg.base.edges, vg.voltages):
        for i in range(a):
            t, y = lam.fold(i + s1, s2)
            edges.append((f"{e.name}@{i}", f"{e.tail}@{i}", f"{e.head}@{t}", (y,)))
    H = VoltageGraph.build([f"{v}@{i}" for v in vg.base.vertices for i in range(a)], edges, 1)
    return cyclic_cover_complexity(H, c)


# -- growth experiments --------------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    """Rows (scale, exact complexity, normalized log) with a Mahler reference."""

    mode: str  # "covers" | "restrictions"
    rows: tuple[tuple[int, int, float], ...]
    reference: float


def laplacian_determinant_polynomial(vg: VoltageGraph) -> LaurentPoly:
    """Delta_0 over the integers, in normalized form: det L(x) up to a unit."""
    return normalize(det_laurent(voltage_laplacian(vg)), ZZ)


def _mahler_reference(d0: LaurentPoly, fibers: int) -> float:
    if d0.is_zero():
        raise ValueError("Delta_0 vanishes; no growth reference")
    return mahler(d0, fibers).value


def cover_rows(
    vg: VoltageGraph, schedule: list[int], d0: LaurentPoly | None = None
) -> tuple[tuple[int, int, float], ...]:
    """Rows (r, complexity, (1/r) log complexity) of finite covers along a schedule.

    For rank 1 the index n gives the cyclic cover nZ, counted from Delta_0
    (d0 if given) by :func:`cyclic_cover_complexity`; for rank 2 it gives the
    square sublattice nZ x nZ (r = n^2 sheets), counted through its rank-1
    fold (:func:`cover_complexity`), which takes no d0.
    """
    rows = []
    for n in schedule:
        if vg.rank == 1:
            r, t = n, cyclic_cover_complexity(vg, n, d0)
        else:
            r, t = n * n, cover_complexity(vg, SublatticeSpec.lattice2(((n, 0), (0, n))))
        rows.append((r, t, math.log(t) / r))
    return tuple(rows)


def growth_covers(
    vg: VoltageGraph, schedule: list[int], fibers: int = 512
) -> GrowthReport:
    """Complexity of finite covers along a schedule (see :func:`cover_rows`),
    with m(Delta_0) as the reference, taken first so that a bad fibers or
    Delta_0 = 0 fails before any cover is counted."""
    d0 = laplacian_determinant_polynomial(vg)
    reference = _mahler_reference(d0, fibers)
    return GrowthReport("covers", cover_rows(vg, schedule, d0), reference)


def growth_restrictions(
    vg: VoltageGraph, schedule: list[int], fibers: int = 512
) -> GrowthReport:
    """Spanning trees of box restrictions; the reference is m(Delta_0)/k.

    A box is counted by its :func:`complexity`, so a disconnected box counts
    as covers count a disconnected cover.  A quotient with no vertices is
    rejected: its boxes are empty, and (1/s) log T has s = 0.  The reference
    is taken before any box is counted, as in :func:`growth_covers`.
    """
    k = len(vg.base.vertices)
    if not k:
        raise ValueError("restrictions need a quotient with at least one vertex")
    reference = _mahler_reference(laplacian_determinant_polynomial(vg), fibers) / k
    rows = []
    for n in schedule:
        sub = restriction_subgraph(vg, RectangleSpec((n,) * vg.rank))
        tau = complexity(sub)
        s = len(sub.vertices)
        rows.append((s, tau, math.log(tau) / s))
    return GrowthReport("restrictions", tuple(rows), reference)


def grimmett_bound(vg: VoltageGraph) -> float:
    """|V| log(2|E| / |V|) for the quotient: an upper bound for m(Delta_0)."""
    nv = len(vg.base.vertices)
    ne = len(vg.base.edges)
    return nv * math.log(2 * ne / nv)
