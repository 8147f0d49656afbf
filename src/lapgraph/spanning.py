"""Spanning-tree counts, complexity, CRSF coefficients, annular connectivity,
and growth-rate experiments over covers and restrictions.

Every cover's complexity is read off Delta_0 by one integer resultant
(:func:`cover_complexity`, which first folds a rank-2 sublattice along its
Hermite form onto a rank-1 quotient), so no cover is built; the 2-part of
the cover index goes by Graeffe root squaring.  Finite graphs and box
restrictions are counted by the matrix-tree theorem with one sparse Bareiss
elimination per graph, however many components it has (:func:`complexity`;
:func:`tree_count` and the quotient's components in a cover count reuse a
component pass already made, and a connected quotient is counted on its own
base graph).  The component pass and the Laplacian read the edge ends the graph
resolved to vertex indices when it was built.  The reduced Laplacian is
symmetric, and a nonsingular M-matrix on each component, so
:func:`~lapgraph.linalg.int_det`, after one pass that checks it, builds its
pattern and finds it symmetric, eliminates its upper triangle alone, each
row scaled only by the determinants of the eliminated pieces it touches,
and never meets a zero pivot or a fill that cancels.  On a built cover this
count is also the test oracle for the resultant count.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import NamedTuple

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
from .laurent import LaurentPoly, divexact, list_divmod, normalize
from .linalg import det_laurent, int_det
from .mahler import mahler_value


def complexity(g: FiniteGraph) -> int:
    """Product of spanning-tree counts over connected components, by the
    matrix-tree theorem (exact).

    Equals the number of spanning forests with the minimal number of trees.
    The Laplacian is block diagonal by component, so deleting the row and
    column of the last vertex of each component leaves one matrix whose
    determinant is that product: one :func:`int_det` call on the rows of
    :func:`~lapgraph.graphs.laplacian_finite` with those vertices sliced out,
    of the empty matrix (1) when every component is a single vertex.  The
    components and the Laplacian come from the graph's edge ends by vertex
    index, and int_det checks and patterns the rows in one pass before it
    eliminates.
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


class CrsfReport(NamedTuple):
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
    edges = [(t, h, s[0]) for (t, h), s in zip(g._ends, vg.voltages)]
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


def _has_essential_cycle(vg: VoltageGraph, removed: set[int]) -> bool:
    """Whether some cycle avoiding the removed vertex indices has nonzero voltage.

    Tree edges close no cycle and a loop closes its own, so an edge is
    essential exactly when its voltage differs from its endpoints' potential
    difference.
    """
    kept = [i for i in range(len(vg.base.vertices)) if i not in removed]
    ends, volts = [], []
    for (t, h), s in zip(vg.base._ends, vg.voltages):
        if t not in removed and h not in removed:
            ends.append((t, h))
            volts.append(s[0])
    pot, _, _ = bfs_potentials(kept, ends, volts, ZZ)
    return any(s + pot[t] - pot[h] != 0 for (t, h), s in zip(ends, volts))


def minimum_annular_cut(vg: VoltageGraph) -> list[str]:
    """Smallest vertex set whose deletion leaves no cycle with nonzero voltage,
    the first by size and then in vertex order."""
    if vg.rank != 1:
        raise ValueError("annular cuts are defined for rank-1 quotients")
    vs = vg.base.vertices
    for size in range(len(vs) + 1):
        for subset in combinations(range(len(vs)), size):
            if not _has_essential_cycle(vg, set(subset)):
                return [vs[i] for i in subset]
    raise AssertionError("unreachable: deleting all vertices leaves no cycles")


def annular_connectivity(vg: VoltageGraph) -> int:
    return len(minimum_annular_cut(vg))


# -- the kappa = 1 vertex split ---------------------------------------------------


def split_at_annular_cut(vg: VoltageGraph) -> FiniteGraph:
    """Split a kappa = 1 quotient at its cut vertex into the finite graph H.

    The cut vertex v is the minimum annular cut.  Gauges all voltages off v
    to zero, then opens v into two copies v@0 and v@1 so each former edge
    into v lands on the copy its lift meets; if another vertex has either
    name, the copies are v@@0 and v@@1, with one more @ until neither
    clashes.  Spanning trees of H biject with essential one-component CRSFs
    of the quotient.
    """
    if vg.rank != 1:
        raise ValueError("the vertex split applies to rank-1 quotients")
    cut = minimum_annular_cut(vg)
    if len(cut) != 1:
        raise ValueError(f"annular connectivity is {len(cut)}, not 1")
    (v,) = cut
    g = vg.base
    names, ends = g.vertices, g._ends
    c = g.vertex_index(v)
    volts = [s[0] for s in vg.voltages]
    others = [u for u in range(len(names)) if u != c]
    # potentials per component of the quotient minus v, keyed by tree root
    inner = [j for j, (t, h) in enumerate(ends) if t != c and h != c]
    pot, _, comp_of = bfs_potentials(others, [ends[j] for j in inner], [volts[j] for j in inner], ZZ)
    # edge j from u -> (u, the level at which j meets v, seen from u's level-0 lift);
    # minimum_annular_cut found no essential cycle on these same potentials
    at_v: dict[int, tuple[int, int]] = {}
    for j, ((t, h), s) in enumerate(zip(ends, volts)):
        if t == c == h:
            if abs(s) > 1:
                raise ValueError("loop winds more than once; not an embedded kappa = 1 quotient")
        elif t == c:
            at_v[j] = (h, pot[h] - s)
        elif h == c:
            at_v[j] = (t, s + pot[t])
    levels: dict[int, set[int]] = {}
    for u, level in at_v.values():
        levels.setdefault(comp_of[u], set()).add(level)
    if any(max(ls) - min(ls) > 1 for ls in levels.values()):
        raise ValueError("component attaches to more than two consecutive levels")
    base_level = {r: min(ls) for r, ls in levels.items()}
    tag = "@"
    while f"{v}{tag}0" in g._vindex or f"{v}{tag}1" in g._vindex:
        tag += "@"
    v0, v1 = f"{v}{tag}0", f"{v}{tag}1"
    edges = []
    for j, (e, (t, h)) in enumerate(zip(g.edges, ends)):
        if j in at_v:
            u, level = at_v[j]
            w = v0 if level == base_level[comp_of[u]] else v1
            edges.append((e.name, w, names[u]) if t == c else (e.name, names[u], w))
        elif t == c == h:
            edges.append((e.name, v0, v0 if volts[j] == 0 else v1))
        else:
            edges.append(e)
    return FiniteGraph.build([v0, v1] + [names[u] for u in others], edges)


# -- cyclic covers from Delta_0 ------------------------------------------------------

X_MINUS_1_SQ = LaurentPoly(1, {(0,): 1, (1,): -2, (2,): 1})


def _square(f: list[int]) -> list[int]:
    """f^2 for a dense coefficient list f, lowest first, by schoolbook squaring."""
    sq = [0] * (2 * len(f) - 1)
    for i, a in enumerate(f):
        sq[2 * i] += a * a
        for j in range(i + 1, len(f)):
            sq[i + j] += 2 * a * f[j]
    return sq


def _root_of_unity_norm(h: list[int], m: int) -> int:
    """N(h, m) = |prod over zeta^m = 1 of h(zeta)| for h in Z[x], coefficients
    lowest first.

    The 2-part of m goes by Graeffe root squaring.  For h of degree d >= 1,
    g(x^2) = (-1)^d h(x) h(-x) has the squares of h's roots as its roots, and
    the 2m-th roots of unity are the square roots +-omega of the m-th ones,
    so N(h, 2m) = N(g, m).  With h(x) = E(x^2) + x O(x^2),
    g = (-1)^d (E^2 - x O^2): two squarings of degree d/2 per step, and no
    determinant.  N(h, 1) = |h(1)| and N(c, m) = |c|^m for a constant c.

    The odd part m > 1 takes the monic norm.  With lc the leading coefficient,
    H(x) = lc^(d-1) h(x/lc) is monic in Z[x] and its roots are lc times those
    of h, alpha_i.  The product is |lc^m prod_i (alpha_i^m - 1)| =
    |N(x^m - lc^m)| / |lc|^(m(d-1)), where N(q) is the determinant of
    multiplication by q on Z[x]/(H): one d x d integer determinant of the
    remainders of q x^j mod H, with x^m mod H taken by repeated squaring, all
    on dense lists (``laurent.list_divmod``).
    """
    while m % 2 == 0 and len(h) > 1:
        g = [0] * len(h)
        for i, c in enumerate(_square(h[::2])):
            g[i] += c
        for i, c in enumerate(_square(h[1::2])):
            g[i + 1] -= c
        h = g if len(h) % 2 else [-c for c in g]
        m //= 2
    d = len(h) - 1
    lc = h[d]
    if d == 0:
        return abs(lc) ** m
    if m == 1:
        return abs(sum(h))
    H = [c * lc ** (d - 1 - i) for i, c in enumerate(h[:d])] + [1]

    def mod(f: list[int]) -> list[int]:
        return list_divmod(f, H, ZZ)[1]

    r = [1]
    for bit in bin(m)[2:]:
        r = mod(_square(r))
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


def cover_complexity(vg: VoltageGraph, lam: SublatticeSpec, d0: LaurentPoly | None = None) -> int:
    """Complexity of the cover of vg for the sublattice lam, read off Delta_0
    in integer arithmetic without building the cover.

    A rank-2 lam with Hermite form (a, b, c) is first folded onto a rank-1
    quotient: each edge v -> w with voltage (s1, s2) and each i < a give an
    edge v@i -> w@t with voltage y, (t, y) = lam.fold(i + s1, s2), and the
    cover is the c-fold cyclic cover of that quotient.

    For the n-fold cyclic cover of a rank-1 quotient, let C be a connected
    component and g the gcd of its cycle voltages.  With c = gcd(n, g)
    (c = n when g = 0), C lifts to c copies of the connected m = n/c-fold
    cover of C with every voltage divided by c, whose Delta_0 is Delta_0 of C
    with every exponent divided by c (det L lies in Z[x^(+-g)]).  Writing
    that as (x - 1)^2 h, the copy has tau(C) m N(h, m) / |h(1)| spanning
    trees, with N(h, m) = |prod_{zeta^m = 1} h(zeta)| (Boesch-Prodinger
    1986, Lyons 2005), and tau(C) when m = 1.  The norm
    (:func:`_root_of_unity_norm`) takes the 2-part of m by Graeffe root
    squaring, N(h, 2m) = N(g, m) with g(x^2) = (-1)^d h(x) h(-x), so a
    power-of-two index takes no determinant (Householder, Amer. Math.
    Monthly 66, 1959), and only the odd part a monic norm.  h(1) is
    nonzero: every one-cycle CRSF adds -w^2 (x - 1)^2 to det L near x = 1,
    all with the same sign.  The complexity is the product over C of the
    copies' counts to the power c.

    Voltages are read modulo n, as residues in [-n/2, n/2), so a voltage of
    10^30 costs no more than one of 1.  A connected quotient is counted on
    its own base graph; only the components of a disconnected one are built
    as graphs of their own.  d0, the normalized Delta_0 of vg, counts the
    same cover and is used when vg is connected and of rank 1, so a caller
    that holds it takes no second determinant of L.
    """
    if lam.rank != vg.rank:
        raise ValueError("sublattice rank does not match voltage rank")
    a, n = lam.form[0], lam.form[-1]
    if lam.rank == 2:
        edges = []
        for e, (s1, s2) in zip(vg.base.edges, vg.voltages):
            for i in range(a):
                t, y = lam.fold(i + s1, s2)
                edges.append((f"{e.name}@{i}", f"{e.tail}@{i}", f"{e.head}@{t}", (y,)))
        vg, d0 = VoltageGraph.build([f"{v}@{i}" for v in vg.base.vertices for i in range(a)], edges, 1), None
    g = vg.base
    volts = [(s + n // 2) % n - n // 2 for (s,) in vg.voltages]
    pot, _, root = bfs_potentials(range(len(g.vertices)), g._ends, volts, ZZ)
    parts: dict = {}  # root index -> [vertices, edge indices, gcd of cycle voltages]
    for i, v in enumerate(g.vertices):
        parts.setdefault(root[i], [[], [], 0])[0].append(v)
    for j, (t, h) in enumerate(g._ends):
        part = parts[root[t]]
        part[1].append(j)
        part[2] = math.gcd(part[2], volts[j] + pot[t] - pot[h])  # 0 on tree edges
    total = 1
    for vs, js, cycle_gcd in parts.values():
        base = g if len(parts) == 1 else FiniteGraph(tuple(vs), tuple(g.edges[j] for j in js))
        c = math.gcd(n, cycle_gcd)
        m = n // c
        t = _complexity(base, [vs])  # one component already: no second pass
        if m > 1:
            comp = VoltageGraph(base, 1, tuple((volts[j],) for j in js))
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


# -- growth experiments --------------------------------------------------------------


class GrowthReport(NamedTuple):
    """Rows (scale, exact complexity, normalized log) with a Mahler reference."""

    mode: str  # "covers" | "restrictions"
    rows: tuple[tuple[int, int, float], ...]
    reference: float


def laplacian_determinant_polynomial(vg: VoltageGraph) -> LaurentPoly:
    """Delta_0 over the integers, in normalized form: det L(x) up to a unit,
    in vg.rank variables (1 without vertices, where L is 0 x 0)."""
    if not vg.base.vertices:
        return LaurentPoly.constant(1, vg.rank)
    return normalize(det_laurent(voltage_laplacian(vg)), ZZ)


def _mahler_reference(d0: LaurentPoly, fibers: int) -> float:
    if d0.is_zero():
        raise ValueError("Delta_0 vanishes; no growth reference")
    return mahler_value(d0, fibers)


def growth_covers(
    vg: VoltageGraph, schedule: list[int], fibers: int = 512
) -> GrowthReport:
    """Rows (r, complexity, (1/r) log complexity) of the covers nZ^d for n
    along a schedule (r = n^d sheets, :meth:`SublatticeSpec.scaled`), each
    counted by :func:`cover_complexity` from one Delta_0, with m(Delta_0) as
    the reference, taken first so that a bad fibers or Delta_0 = 0 fails
    before any cover is counted."""
    d0 = laplacian_determinant_polynomial(vg)
    reference = _mahler_reference(d0, fibers)
    rows = []
    for n in schedule:
        lam = SublatticeSpec.scaled(n, vg.rank)
        t = cover_complexity(vg, lam, d0)
        rows.append((lam.index, t, math.log(t) / lam.index))
    return GrowthReport("covers", tuple(rows), reference)


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
