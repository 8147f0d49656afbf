"""Shared oracles and random graph generators for the test suite.

The oracles here are deliberately independent of the library code paths they
check: spanning trees by edge-subset enumeration, determinants by cofactor
expansion, dense Bareiss elimination or Gaussian elimination over the
rationals, complexity by a dense reduced Laplacian per union-find component,
covers and restrictions by a lift that formats every vertex name afresh, elementary divisors from minors taken in the coefficient domain
itself and a gcd fold over every one of them (no stop at a unit),
connectivity by union-find, the bicycle space as an intersection of the
cut and cycle spans, reduced row echelon forms in the field's own
arithmetic (Fraction over QQ), essential CRSFs by one BFS forest per edge
subset, the minimum annular cut by a search over named vertex subsets, the
rotation maps of a plane graph rebuilt from its rotation system by names,
faces, medial strands and the kappa = 1 vertex split walked on those names
(edge-name darts, name-keyed voltages and levels), Newton root refinement in exact rationals
(Fraction) and in floats with every step taken, the generic float kernel of
``lapgraph.mahler`` (Aberth, refinement, validation and fiber coefficients by
one call per polynomial value, with builtin sum and max), the
two-variable Mahler grid solved at every node from a cold start with its own
strip and zero-fiber rule, the mirrored, warm-started grid composed of one
helper call per step (coefficients, strip, the library's closed form up to
degree 2, else Aberth and Jensen), one-variable
gcds by Euclid and two-variable gcds by a pseudo-remainder sequence, both over
the coefficient domain itself, the primitive pseudo-remainder gcd over ZZ and
GF(p) with no heuristic integer gcd, and the root-of-unity norm of cover
counts by LaurentPoly long division.  Small helpers that only tests need (matrix
product, edge reversal, wrapping-edge count, degree certificate, the scan
for the first nonzero elementary divisor, rotation strings, Euler
characteristic, plane cyclic covers, component indicators) live here too.

``example(name)`` reads the example graphs from ``graphs/*.lapgraph``, the
one place they are defined.

Random plane graphs and annulus quotients are built by mutating a grid patch
(or annular grid) whose embedding is known, using only mutations that keep
the rotation system planar: edge deletion, vertex deletion, parallel
duplication next to the original, contractible loop insertion, and edge
reversal.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd as int_gcd
from pathlib import Path

from lapgraph.graphs import (
    Edge,
    FiniteGraph,
    RectangleSpec,
    SublatticeSpec,
    VoltageGraph,
    bfs_potentials,
    connected_components,
    cover_graph,
    incidence_matrix,
)
from lapgraph.fields import QQ, ZZ, PrimeField, RationalField
from lapgraph.graphio import parse_graph_file
from lapgraph.laurent import LaurentPoly, divexact, divides, laurent_gcd, normalize
from lapgraph.linalg import elementary_divisor, int_det, nullspace, row_space_canonical, sparse_rows, transpose
from lapgraph.mahler import (
    ABERTH_MAX_ITER,
    RESIDUAL_GATE,
    STALL_SHIFT,
    STRIP_REL_TOL,
    UNIT_CIRCLE_TOL,
    RootFindingError,
    _aberth_roots,
    _fiber_measures,
    _poly_measure,
)
from lapgraph.planar import Dart, Face, MedialComponent, PlaneGraph, faces, parse_dart

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


# -- example graphs -------------------------------------------------------------


def example(name: str) -> FiniteGraph | VoltageGraph | PlaneGraph:
    """The example graph in graphs/<name>.lapgraph.

    The files with rotation lines (ladder, girder, single_loop, k4) parse to a
    PlaneGraph, whose ``.graph`` is the bare quotient or finite graph.
    """
    return parse_graph_file((GRAPHS / f"{name}.lapgraph").read_text())


def single_loop_quotient(voltage: int) -> VoltageGraph:
    """One vertex with one loop of the given voltage; graphs/single_loop has voltage 1."""
    return VoltageGraph.build(["v"], [("l", "v", "v", (voltage,))], rank=1)


def huge_loop_quotient() -> VoltageGraph:
    """A loop of voltage 10^30 at v, an edge v -> u of voltage 0 and a loop of
    voltage 1 at u; its 3-fold cover has 75 spanning trees."""
    return VoltageGraph.build(
        ["v", "u"], [("a", "v", "v", (10**30,)), ("b", "v", "u", (0,)), ("c", "u", "u", (1,))], rank=1
    )


def triangle_plane() -> PlaneGraph:
    g = FiniteGraph.build(
        ["v1", "v2", "v3"],
        [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")],
    )
    return PlaneGraph(g, parse_rotations(g, {"v1": "e1.t e3.h", "v2": "e2.t e1.h", "v3": "e3.t e2.h"}))


def parse_rotations(g: FiniteGraph, spec: dict[str, str]) -> dict[str, tuple[Dart, ...]]:
    """Build a rotation dict from strings like 'a.t r.t a.h' per vertex."""
    out = {v: tuple(parse_dart(tok) for tok in text.split()) for v, text in spec.items()}
    for v in g.vertices:
        out.setdefault(v, ())
    return out


def euler_characteristic(pg: PlaneGraph) -> int:
    g = pg.base
    return len(g.vertices) - len(g.edges) + len(faces(pg))


def rotation_maps_by_names(pg: PlaneGraph) -> tuple[dict, dict, dict]:
    """next and prev in each vertex's rotation, and the opposite-end
    involution, rebuilt from the rotation system and the edge names (test
    oracle for the maps ``PlaneGraph`` resolves when it validates)."""
    nxt: dict[Dart, Dart] = {}
    prv: dict[Dart, Dart] = {}
    for v in pg.base.vertices:
        rot = pg.rotations.get(v, ())
        k = len(rot)
        for i, d in enumerate(rot):
            nxt[d] = rot[(i + 1) % k]
            prv[d] = rot[(i - 1) % k]
    opp = {}
    for e in pg.base.edges:
        opp[(e.name, "t")] = (e.name, "h")
        opp[(e.name, "h")] = (e.name, "t")
    return nxt, prv, opp


def faces_by_names(pg: PlaneGraph) -> list[Face]:
    """Face orbits walked on (edge name, end) darts through the maps of
    :func:`rotation_maps_by_names`, in edge order and then one empty face per
    isolated vertex (test oracle for ``planar.faces``)."""
    nxt, _, opp = rotation_maps_by_names(pg)
    seen: set[Dart] = set()
    out = []
    for start in [(e.name, end) for e in pg.base.edges for end in ("t", "h")]:
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
    out.extend(Face(()) for v in pg.base.vertices if not pg.rotations.get(v))
    return out


def medial_components_by_names(pg: PlaneGraph) -> list[MedialComponent]:
    """Straight-ahead strand walks on ((edge name, end), sign) states, with
    windings from a voltage dict keyed by edge name on a quotient (test
    oracle for ``planar.medial_components``)."""
    nxt, prv, opp = rotation_maps_by_names(pg)
    g, vg = pg.base, pg.quotient
    volt = {e.name: s[0] for e, s in zip(g.edges, vg.voltages)} if vg is not None else None
    edge_order = {e.name: i for i, e in enumerate(g.edges)}

    def step(state):
        d, sign = state
        name, end = nxt[d] if sign > 0 else prv[d]
        w = 0 if volt is None else (volt[name] if end == "t" else -volt[name])
        return (opp[(name, end)], -sign), name, w

    def reverse(state):
        d, sign = state
        return (nxt[d], -1) if sign > 0 else (prv[d], 1)

    seen: set = set()
    out = []
    for seed in [((e.name, end), sign) for e in g.edges for end in ("t", "h") for sign in (1, -1)]:
        if seed in seen:
            continue
        crossings, winding, s = [], 0, seed
        while True:
            seen.add(s)
            seen.add(reverse(s))
            s, name, w = step(s)
            crossings.append(name)
            winding += w
            if s == seed:
                break
        counts = Counter(crossings)
        residue = tuple(sorted((n for n, c in counts.items() if c == 1), key=edge_order.get))
        out.append(MedialComponent(tuple(crossings), residue, None if vg is None else winding))
    lone = [v for v in g.vertices if not pg.rotations.get(v)]
    out.extend(MedialComponent((), (), None if vg is None else 0) for _ in lone)
    return out


def split_at_annular_cut_by_names(vg: VoltageGraph) -> FiniteGraph:
    """The kappa = 1 vertex split with vertices, voltages and levels keyed by
    name, at the cut of :func:`minimum_annular_cut_by_names`, raising the
    library's messages (test oracle for ``spanning.split_at_annular_cut``)."""
    if vg.rank != 1:
        raise ValueError("the vertex split applies to rank-1 quotients")
    cut = minimum_annular_cut_by_names(vg)
    if len(cut) != 1:
        raise ValueError(f"annular connectivity is {len(cut)}, not 1")
    (v,) = cut
    g = vg.base
    volts = {e.name: s[0] for e, s in zip(g.edges, vg.voltages)}
    others = [u for u in g.vertices if u != v]
    inner = [e for e in g.edges if e.tail != v and e.head != v]
    pot, _, comp_of = bfs_potentials(
        others, [(e.tail, e.head) for e in inner], [volts[e.name] for e in inner], ZZ
    )
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
    tag = "@"
    while {f"{v}{tag}0", f"{v}{tag}1"} & set(g.vertices):
        tag += "@"
    v0, v1 = f"{v}{tag}0", f"{v}{tag}1"
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
    return FiniteGraph.build([v0, v1] + others, edges)


def cover_plane_graph(pg: PlaneGraph, n: int) -> PlaneGraph:
    """The n-sheeted cyclic cover of a rank-1 plane quotient, rotations inherited.

    The dart (e, t) at the level-c copy of a vertex belongs to edge instance
    e@c; the dart (e, h) to instance e@(c - s) where s is e's voltage.
    """
    vg = pg.quotient
    if vg is None:
        raise ValueError("cover_plane_graph needs a rank-1 voltage quotient")
    cov = cover_graph(vg, SublatticeSpec.cyclic(n))
    volt = {e.name: s[0] for e, s in zip(vg.base.edges, vg.voltages)}
    rot: dict[str, tuple[Dart, ...]] = {}
    for v in vg.base.vertices:
        for c in range(n):
            darts = []
            for name, end in pg.rotations[v]:
                inst = c if end == "t" else (c - volt[name]) % n
                darts.append((f"{name}@{inst}", end))
            rot[f"{v}@{c}"] = tuple(darts)
    return PlaneGraph(cov, rot)


def constant_colorings_basis(g: FiniteGraph, fld) -> list[list]:
    """Indicator vector of each connected component (colorings constant per part)."""
    out = []
    for comp in connected_components(g):
        members = set(comp)
        out.append([fld.one if v in members else fld.zero for v in g.vertices])
    return out


# -- independent oracles --------------------------------------------------------


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def brute_force_tree_count(g: FiniteGraph) -> int:
    """Count spanning trees by checking every (n-1)-edge subset."""
    n = len(g.vertices)
    if n == 1:
        return 1
    useful = [e for e in g.edges if e.tail != e.head]
    count = 0
    for subset in combinations(useful, n - 1):
        uf = _UnionFind(g.vertices)
        acyclic = True
        for e in subset:
            if not uf.union(e.tail, e.head):
                acyclic = False
                break
        if acyclic:
            count += 1
    return count


def dense_complexity(g: FiniteGraph) -> int:
    """Product over the components of the spanning-tree counts, each the
    dense Bareiss determinant of the component's Laplacian, built from the
    edges' vertex names, without its last row and column; components by
    union-find (test oracle for ``spanning.complexity``)."""
    out = 1
    for comp in _components_list(g):
        where = {v: i for i, v in enumerate(comp)}
        L = [[0] * len(comp) for _ in comp]
        for e in g.edges:
            if e.tail in where and e.tail != e.head:
                i, j = where[e.tail], where[e.head]
                L[i][i] += 1
                L[j][j] += 1
                L[i][j] -= 1
                L[j][i] -= 1
        out *= bareiss_det([row[:-1] for row in L[:-1]])
    return out


def brute_force_components(g: FiniteGraph) -> int:
    uf = _UnionFind(g.vertices)
    for e in g.edges:
        uf.union(e.tail, e.head)
    return len({uf.find(v) for v in g.vertices})


def bicycle_meet_by_intersection(g: FiniteGraph, fld) -> list[list]:
    """row(Q) meet ker Q by intersecting the two spans (test oracle).

    Row-reduces Q for a basis A of its row space, takes a basis B of ker Q,
    and maps each kernel vector (a, b) of [A^T | -B^T] to sum a_i A_i.
    """
    Q, m = incidence_matrix(g), len(g.edges)
    A = row_space_canonical([[fld.of(v) for v in row] for row in dense(Q, m)], fld)
    B = nullspace(Q, m, fld)
    if not A or not B:
        return []
    stacked = transpose([list(v) for v in A] + [[fld.of(-x) for x in v] for v in B])
    combos = nullspace(sparse_rows(stacked), len(A) + len(B), fld)
    vectors = []
    for c in combos:
        vec = [fld.zero] * len(A[0])
        for coeff, basis_vec in zip(c[: len(A)], A):
            if coeff:
                vec = [fld.of(x + coeff * b) for x, b in zip(vec, basis_vec)]
        vectors.append(vec)
    return row_space_canonical(vectors, fld)


def dense(rows, ncols: int) -> list[list]:
    """The dense matrix of sparse rows {column: entry} with ncols columns."""
    out = [[0] * ncols for _ in rows]
    for row, d in zip(rows, out):
        for j, v in row.items():
            d[j] = v
    return out


def rref_dense(M, field):
    """Reduced row echelon form of a dense matrix over a field by the
    fraction-free elimination on dense integer rows (test oracle for
    ``linalg.rref``, which runs the same steps on sparse rows).

    The field enters on entry (a QQ row is scaled by the lcm of its
    denominators, a GF(p) entry goes through ``field.of``), at each step
    row_i <- piv*row_i - a*row_r (divided by its content over QQ, reduced mod
    p) and on exit, where each pivot row is divided by its pivot.
    """
    if M and any(len(r) != len(M[0]) for r in M):
        raise ValueError("ragged matrix")
    p = field.p if isinstance(field, PrimeField) else 0
    if p:
        R = [[field.of(v) for v in row] for row in M]
    else:
        R = []
        for row in M:
            den = math.lcm(*(v.denominator for v in row))
            R.append([v.numerator * (den // v.denominator) for v in row])
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if R[i][c]), None)
        if sel is None:
            continue
        R[r], R[sel] = R[sel], R[r]
        prow = R[r]
        piv = prow[c]
        for i in range(nrows):
            a = R[i][c]
            if a and i != r:
                if p:
                    R[i] = [(piv * x - a * y) % p for x, y in zip(R[i], prow)]
                    continue
                row = [piv * x - a * y for x, y in zip(R[i], prow)]
                g = int_gcd(*row)
                R[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i, c in enumerate(pivots):
        piv = R[i][c]
        if p:
            inv = field.inv(piv)
            R[i] = [v * inv % p for v in R[i]]
        else:
            R[i] = [Fraction(v, piv) for v in R[i]]
    for i in range(r, nrows):
        R[i] = [field.zero] * ncols
    return R, pivots


def rref_fraction(M, field):
    """Reduced row echelon form by Gauss-Jordan in the field's own arithmetic.

    Entries are reduced with ``field.of`` on the way in and after every row
    operation, and each pivot row is scaled by ``field.inv`` of its pivot as
    soon as it is chosen (test oracle for ``linalg.rref``).
    """
    if M and any(len(r) != len(M[0]) for r in M):
        raise ValueError("ragged matrix")
    of = field.of
    R = [[of(v) for v in row] for row in M]
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if R[i][c]), None)
        if sel is None:
            continue
        R[r], R[sel] = R[sel], R[r]
        inv = field.inv(R[r][c])
        R[r] = [of(v * inv) for v in R[r]]
        for i in range(nrows):
            if i != r and R[i][c]:
                factor = R[i][c]
                R[i] = [of(a - factor * b) for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def crsf_tally_by_bfs(vg: VoltageGraph) -> Counter:
    """Essential CRSFs by sorted winding tuple, one BFS forest per edge subset.

    n edges on n vertices leave one non-forest edge per tree; a subset counts
    when each tree gets its own, closing that component's unique cycle, and
    no such cycle has winding zero (test oracle for ``spanning._crsf_tally``).
    """
    g = vg.base
    n = len(g.vertices)
    volts = [s[0] for s in vg.voltages]
    tally: Counter = Counter()
    for subset in combinations(range(len(g.edges)), n):
        ends = [(g.edges[i].tail, g.edges[i].head) for i in subset]
        sub_volts = [volts[i] for i in subset]
        pot, tree, root = bfs_potentials(g.vertices, ends, sub_volts, ZZ)
        extras = [j for j in range(n) if j not in tree]
        if len({root[ends[j][0]] for j in extras}) != len(extras):
            continue
        windings = [abs(sub_volts[j] + pot[ends[j][0]] - pot[ends[j][1]]) for j in extras]
        if 0 in windings:
            continue
        tally[tuple(sorted(windings))] += 1
    return tally


def minimum_annular_cut_by_names(vg: VoltageGraph) -> list[str]:
    """The first vertex subset, by size and then in combination order, whose
    deletion leaves no cycle of nonzero voltage, each subset tried by name
    (test oracle for ``spanning.minimum_annular_cut``)."""

    def has_essential_cycle(removed: set[str]) -> bool:
        kept = [v for v in vg.base.vertices if v not in removed]
        ends, volts = [], []
        for e, s in zip(vg.base.edges, vg.voltages):
            if e.tail not in removed and e.head not in removed:
                ends.append((e.tail, e.head))
                volts.append(s[0])
        pot, _, _ = bfs_potentials(kept, ends, volts, ZZ)
        return any(s + pot[t] - pot[h] != 0 for (t, h), s in zip(ends, volts))

    vs = vg.base.vertices
    for size in range(len(vs) + 1):
        for subset in combinations(vs, size):
            if not has_essential_cycle(set(subset)):
                return list(subset)
    raise AssertionError("deleting every vertex leaves no cycle")


def cofactor_det_poly(M):
    """Cofactor-only determinant of a matrix of LaurentPoly (test oracle)."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = M[0][j] * cofactor_det_poly(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def bareiss_det(M) -> int:
    """Dense fraction-free (Bareiss) determinant of an integer matrix (test oracle)."""
    n = len(M)
    if n == 0:
        return 1
    a = [[int(v) for v in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            sel = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if sel is None:
                return 0
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def symmetrised_pattern(rows) -> list[set[int]]:
    """The symmetrised off-diagonal nonzero pattern of square sparse rows:
    j neighbours i when entry (i, j) or (j, i) is a nonzero, stored zeros
    and the diagonal left out (test oracle for the pattern that
    ``linalg._ordered`` hands ``_elimination_order``)."""
    nonzero = {(i, j) for i, row in enumerate(rows) for j, v in row.items() if v and j != i}
    return [{j for j in range(len(rows)) if (i, j) in nonzero or (j, i) in nonzero} for i in range(len(rows))]


def fraction_det(M) -> Fraction:
    """Determinant of a matrix of rationals by Gaussian elimination over
    Fraction (test oracle)."""
    a = [[Fraction(v) for v in row] for row in M]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        sel = next((i for i in range(k, n) if a[i][k]), None)
        if sel is None:
            return Fraction(0)
        if sel != k:
            a[k], a[sel] = a[sel], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            t = a[i][k] / a[k][k]
            a[i] = [u - t * v for u, v in zip(a[i], a[k])]
    return det


def bareiss_det_laurent(M, dom):
    """Dense fraction-free determinant of a Laurent-polynomial matrix with
    every division taken over dom (test oracle)."""
    n = len(M)
    nvars = M[0][0].nvars
    a = [row[:] for row in M]
    sign = 1
    prev = LaurentPoly.constant(dom.one, nvars)
    for k in range(n - 1):
        if a[k][k].is_zero():
            sel = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if sel is None:
                return LaurentPoly.zero(nvars)
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = divexact(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev, dom)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gcd_fold_prefixes(polys, dom):
    """The running gcds of ``laurent_gcd`` folded over every input, with no
    stop at a unit (test oracle).  Over QQ the inputs are cleared by
    ``normalize`` and folded over ZZ, and each running gcd is normalized back."""
    if dom == QQ:
        return [normalize(g, QQ) for g in gcd_fold_prefixes([normalize(p, QQ) for p in polys], ZZ)]
    acc, out = LaurentPoly.zero(polys[0].nvars), []
    for p in polys:
        acc = laurent_gcd(acc, p, dom)
        out.append(acc)
    return out


def gcd_fold_all(polys, dom):
    """gcd of every input by the full fold of ``laurent_gcd`` (test oracle)."""
    return gcd_fold_prefixes(list(polys), dom)[-1]


def elementary_divisor_reduce_first(M, k, dom):
    """gcd of the (n-k)-minors of M with the entries reduced into dom first
    and each minor taken by Bareiss over dom (test oracle)."""
    n = len(M)
    if k == n:
        return normalize(LaurentPoly.constant(dom.one, M[0][0].nvars if n else 1), dom)
    R = [[e.reduce_to(dom) for e in row] for row in M]
    dets = []
    for rows in combinations(range(n), n - k):
        for cols in combinations(range(n), n - k):
            d = bareiss_det_laurent([[R[i][j] for j in cols] for i in rows], dom).reduce_to(dom)
            if not d.is_zero():
                dets.append(d)
    return gcd_fold_all(dets, dom) if dets else LaurentPoly.zero(M[0][0].nvars)


def first_nonzero_divisor(M, dom):
    """Scan k = 0, 1, ... for the first nonzero elementary divisor."""
    for k in range(len(M) + 1):
        d = elementary_divisor(M, k, dom)
        if not d.is_zero():
            return k, d
    raise AssertionError("unreachable: the empty minor is 1")


def refine_exact_fraction(int_coeffs: list[int], roots: list[complex]) -> list[complex]:
    """Newton on u = p/p' with Gaussian-rational Horner evaluation (test oracle).

    Up to 3 steps per root.  A float iterate is a dyadic rational, so p, p'
    and p'' are exact there; every quantity is an exact Fraction rounded to
    float only for the step and the new iterate.  u has simple roots, so the
    steps converge quadratically at multiple roots of p too.
    """
    d1 = [k * c for k, c in enumerate(int_coeffs)][1:]
    d2 = [k * c for k, c in enumerate(d1)][1:]

    def horner(cs, zr, zi):
        ar = Fraction(0)
        ai = Fraction(0)
        for c in reversed(cs):
            ar, ai = ar * zr - ai * zi + c, ar * zi + ai * zr
        return ar, ai

    def cdiv(ar, ai, br, bi):
        den = br * br + bi * bi
        return (ar * br + ai * bi) / den, (ai * br - ar * bi) / den

    out = []
    for z in roots:
        for _ in range(3):
            zr, zi = Fraction(z.real), Fraction(z.imag)
            pr, pi = horner(int_coeffs, zr, zi)
            if pr == 0 and pi == 0:
                break
            dr, di = horner(d1, zr, zi)
            if dr == 0 and di == 0:
                break
            ur, ui = cdiv(pr, pi, dr, di)
            sr, si = horner(d2, zr, zi)
            qr, qi = cdiv(pr * sr - pi * si, pr * si + pi * sr, dr * dr - di * di, 2 * dr * di)
            den_r, den_i = 1 - qr, -qi
            if den_r == 0 and den_i == 0:
                break
            tr, ti = cdiv(ur, ui, den_r, den_i)
            step = complex(float(tr), float(ti))
            if abs(step) > 0.5 * max(1.0, abs(z)):
                break
            z = complex(float(zr - tr), float(zi - ti))
            if abs(step) < 1e-16 * max(1.0, abs(z)):
                break
        out.append(z)
    return out


def mahler_1var_exact_refined(f: LaurentPoly) -> float:
    """m(f) of a one-variable integer polynomial from all of its roots at once (test oracle).

    No squarefree split: the factors x -+ 1 are divided out, and the Aberth
    sweeps' roots of what is left are sharpened by ``refine_exact_fraction``
    (float Newton stalls at multiple roots) before they are validated and
    Jensen's formula sums them.
    """
    for r in (1, -1):
        while f.max_exp(0) > f.min_exp(0) and f.evaluate(r) == 0:
            f = divexact(f, LaurentPoly(1, {(1,): 1, (0,): -r}), ZZ)
    cs = f.coefficient_list()
    coeffs = [complex(c) for c in cs]
    roots = []
    if len(cs) > 1:
        roots = refine_exact_fraction(cs, aberth_sweeps_generic([c / coeffs[-1] for c in coeffs])[0])
        validate_roots_generic(coeffs, roots)
    return math.log(abs(cs[-1])) + sum(math.log(abs(z)) for z in roots if abs(z) > 1 + UNIT_CIRCLE_TOL)


# -- the generic float kernel: one call per evaluation, builtin sum and max ------
#
# ``lapgraph.mahler`` inlines these loops; the library's roots, fiber
# coefficients and measures must equal these bit for bit.


def poly_deriv(coeffs: list[complex]) -> list[complex]:
    return [k * c for k, c in enumerate(coeffs)][1:]


def poly_eval(coeffs: list[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def refine_float_generic(monic: list[complex], deriv: list[complex], roots: list[complex]) -> None:
    """``mahler._refine_float`` by ``poly_eval`` calls (test oracle)."""
    second = poly_deriv(deriv)
    for k, z in enumerate(roots):
        for _ in range(4):
            pv = poly_eval(monic, z)
            if pv == 0:
                break
            dv = poly_eval(deriv, z)
            if dv == 0:
                break
            u = pv / dv
            du = 1 - pv * poly_eval(second, z) / (dv * dv)
            if du == 0:
                break
            step = u / du
            if abs(step) > 0.5 * max(1.0, abs(z)) or z - step == z:
                break
            z = z - step
        roots[k] = z


def validate_roots_generic(coeffs: list[complex], roots: list[complex]) -> None:
    """The validation that ends ``mahler._aberth_roots``, by ``poly_eval`` calls, ``sum`` and
    ``max`` (test oracle).  The root sum is held to 1e-6 (1 + max(|expected sum|, sum of |root|)):
    a float sum of roots that cancel is good only to about eps times the sum of |root|."""
    s = len(coeffs) - 1
    scale = max(abs(c) for c in coeffs)
    for z in roots:
        bound = RESIDUAL_GATE * scale * max(1.0, abs(z)) ** s * (s + 1)
        if abs(poly_eval(coeffs, z)) > bound:
            raise RootFindingError("root residual exceeds tolerance")
    sum_expect = -coeffs[-2] / coeffs[-1]
    sum_got = sum(roots)
    if abs(sum_got - sum_expect) > 1e-6 * (1 + max(abs(sum_expect), sum(abs(z) for z in roots))):
        raise RootFindingError("root sum disagrees with coefficients")
    prod_expect = coeffs[0] / coeffs[-1] * (-1) ** s
    prod_got = 1 + 0j
    for z in roots:
        prod_got *= z
    if abs(prod_got - prod_expect) > 1e-6 * (1 + abs(prod_expect)):
        raise RootFindingError("root product disagrees with coefficients")


def aberth_sweeps_generic(monic: list[complex], start=None) -> tuple[list[complex], str]:
    """The Aberth sweeps of ``mahler._aberth_roots`` by ``poly_eval`` calls, ``sum`` and ``max``
    (test oracle): the roots, unpolished, and the exit taken, "converged", "stalled" or "cut"
    (at ``ABERTH_MAX_ITER``)."""
    s = len(monic) - 1
    deriv = poly_deriv(monic)
    radius = max(1e-3, abs(monic[0]) ** (1.0 / s))
    roots = list(start) if start else [
        radius * cmath.exp(2j * math.pi * (k + 0.35) / s) * (1 + 0.02 * (k % 5))
        for k in range(s)
    ]
    last = math.inf
    for _ in range(ABERTH_MAX_ITER):
        shift = 0.0
        new_roots = list(roots)
        for k, z in enumerate(roots):
            pv = poly_eval(monic, z)
            dv = poly_eval(deriv, z)
            if pv == 0:
                continue
            if dv == 0:
                new_roots[k] = z * (1 + 1e-8) + 1e-8
                shift = 1.0
                continue
            w = pv / dv
            rep = sum(1 / (z - zj) for j, zj in enumerate(roots) if j != k)
            denom = 1 - w * rep
            if denom == 0:
                new_roots[k] = z * (1 + 1e-8)
                shift = 1.0
                continue
            corr = w / denom
            new_roots[k] = z - corr
            shift = max(shift, abs(corr) / max(1.0, abs(z)))
        roots = new_roots
        if shift < 1e-14:
            return roots, "converged"
        if STALL_SHIFT > shift > 0.5 * last:
            return roots, "stalled"
        last = shift
    return roots, "cut"


def aberth_roots_generic(coeffs: list[complex], start=None) -> list[complex]:
    """``mahler._aberth_roots`` by ``poly_eval`` calls, ``sum`` and ``max`` (test oracle).

    Runs ``aberth_sweeps_generic``, refines with ``refine_float_generic`` when
    the sweeps did not converge, and validates with ``validate_roots_generic``.
    """
    if len(coeffs) < 2:
        return []
    monic = [c / coeffs[-1] for c in coeffs]
    roots, exit_taken = aberth_sweeps_generic(monic, start)
    if exit_taken != "converged":
        refine_float_generic(monic, poly_deriv(monic), roots)
    validate_roots_generic(coeffs, roots)
    return roots


def fiber_coeffs_generic(f: LaurentPoly, theta: float) -> list[complex]:
    """Dense y-coefficients of f at x = exp(2 pi i theta), rescanning f (test oracle)."""
    x = cmath.exp(2j * math.pi * theta)
    lo = min(b for (_, b) in f.coeffs)
    hi = max(b for (_, b) in f.coeffs)
    out = [0j] * (hi - lo + 1)
    for (a, b), c in f.coeffs.items():
        out[b - lo] += c * x**a
    return out


def strip_complex(coeffs: list[complex], big: float) -> list[complex]:
    """coeffs with each |c| <= STRIP_REL_TOL * big set to 0 and the zero ends cut off
    (test oracle: ``mahler``'s strip as a helper of its own, before the fiber pass took it in)."""
    out = [0 if abs(c) <= STRIP_REL_TOL * big else c for c in coeffs]
    kept = [k for k, c in enumerate(out) if c != 0]
    return out[kept[0] : kept[-1] + 1] if kept else []


def jensen(coeffs: list[complex], roots: list[complex]) -> float:
    """log|lead| plus log|root| over the roots outside the unit circle, added one by one (test oracle)."""
    value = math.log(abs(coeffs[-1]))
    for z in roots:
        r = abs(z)
        if r > 1 + UNIT_CIRCLE_TOL:
            value += math.log(r)
    return value


def primitive_part(f: LaurentPoly) -> tuple[LaurentPoly, float]:
    """(p, log|c|) with f = c p times a monomial: p has integer coefficients with gcd 1, least
    exponent 0 in each variable and a positive coefficient at its lexicographically least
    exponent; log|c| is taken from c's numerator and denominator (test oracle: the content of
    the Fractions is the gcd of their numerators over the lcm of their denominators)."""
    cs = {e: Fraction(v) for e, v in f.coeffs.items()}
    c = Fraction(math.gcd(*(v.numerator for v in cs.values())), math.lcm(*(v.denominator for v in cs.values())))
    c = c if cs[min(cs)] > 0 else -c
    low = [min(e[k] for e in cs) for k in range(f.nvars)]
    terms = {tuple(a - b for a, b in zip(e, low)): v / c for e, v in cs.items()}
    assert all(v.denominator == 1 for v in terms.values())
    p = LaurentPoly(f.nvars, {e: v.numerator for e, v in terms.items()})
    return p, math.log(abs(c.numerator)) - math.log(c.denominator)


@functools.lru_cache(maxsize=None)
def cyclotomic_by_division(q: int) -> LaurentPoly:
    """Phi_q(x) = (x^q - 1) / the product of Phi_d over the proper divisors d of q (test oracle)."""
    phi = LaurentPoly(1, {(q,): 1, (0,): -1})
    for d in range(1, q):
        if q % d == 0:
            phi = divexact(phi, cyclotomic_by_division(d), ZZ)
    return phi


def fiber_measure_by_helpers(f: LaurentPoly, num: int, den: int, warm: list, node: bool = True) -> float | None:
    """m(f(exp(2 pi i num/den), y)) as ``mahler`` took it before its one-pass fiber loop
    (test oracle): ``fiber_coeffs_generic``, ``strip_complex`` and ``fiber_solve_generic``,
    one helper call each.  A zero
    fiber at a node takes the mean of its neighbours (num -+ 1)/den, halving the offset
    while either vanishes; off the nodes it gives None."""
    fiber = fiber_coeffs_generic(f, num / den)
    big = max(abs(c) for c in fiber)
    coeffs = strip_complex(fiber, big)
    vanishes = not coeffs
    if not vanishes and big <= RESIDUAL_GATE * sum(abs(c) for c in f.coeffs.values()):
        phi = cyclotomic_by_division(den // int_gcd(num, den))
        vanishes = divides(LaurentPoly(2, {(a, 0): c for (a,), c in phi.coeffs.items()}), f, QQ)
    if vanishes:
        if not node:
            return None
        while None in (near := [fiber_measure_by_helpers(f, num + s, den, warm, False) for s in (-1, 1)]):
            num, den = 2 * num, 2 * den
        return math.fsum(near) / 2
    return fiber_solve_generic(coeffs, warm)


def fiber_solve_generic(coeffs: list[complex], warm: list) -> float:
    """The measure of one nonzero stripped fiber as the grid takes it (test oracle): the
    library's ``_poly_measure`` up to degree 2, its closed form, which leaves warm as it is;
    else ``aberth_roots_generic`` started from warm when the degree matches, cold if that
    start fails or divides by zero, and ``jensen``, leaving warm holding the roots."""
    if len(coeffs) <= 3:
        return _poly_measure(coeffs, [abs(c) for c in coeffs], warm)
    start = warm if len(warm) == len(coeffs) - 1 else None
    try:
        roots = aberth_roots_generic(coeffs, start)
    except (RootFindingError, ZeroDivisionError):
        if start is None:
            raise
        roots = aberth_roots_generic(coeffs)
    warm[:] = roots
    return jensen(coeffs, roots)


def _node_outcome(measure, start) -> tuple:
    """measure(warm) for warm = a copy of start: its float.hex and the hex of the roots
    left in warm, or the error's type and message."""
    warm = list(start or ())
    try:
        value = measure(warm)
    except ArithmeticError as e:
        return type(e).__name__, str(e)
    return value.hex(), [(complex(z).real.hex(), complex(z).imag.hex()) for z in warm]


def fused_node(coeffs: list, start=None) -> tuple:
    """One node of ``mahler._fiber_measures`` on the x-free sum of c_b y^b, started from
    start (test helper): ``_node_outcome`` of its measure.  With coefficients not all 0 and
    the plan's sum of |c| 0, the zero-fiber rule, the only reader of the plan's f, is never reached."""
    plan = None, len(coeffs), [0], [(b, 0, c) for b, c in enumerate(coeffs)], 0
    return _node_outcome(lambda warm: _fiber_measures(plan, [1], 4, warm)[0], start)


def fused_node_generic(coeffs: list, start=None) -> tuple:
    """``fused_node`` by the generic oracle: the node's fiber, 0j + c x^0 at x = exp(2 pi i / 4)
    for each coefficient, stripped, then ``fiber_solve_generic``."""
    x = cmath.exp(2j * math.pi * (1 / 4))
    fiber = [0j + c * x**0 for c in coeffs]
    fiber = strip_complex(fiber, max(map(abs, fiber)))
    return _node_outcome(lambda warm: fiber_solve_generic(fiber, warm), start)


def grid_average_by_helpers(plan: tuple, n: int) -> float:
    """The mirrored, warm-started n-node grid of ``mahler._grid_average`` by
    ``fiber_measure_by_helpers`` (test oracle); it reads only f = plan[0]."""
    warm: list[complex] = []
    vals = [fiber_measure_by_helpers(plan[0], 2 * j + 1, 2 * n, warm) for j in range((n + 1) // 2)]
    return math.fsum(vals[: n // 2] * 2 + vals[n // 2 :]) / n


def refine_float_four_steps(monic: list[complex], roots: list[complex]) -> list[complex]:
    """Double-precision Newton on u = p/p', 4 steps per root (test oracle).

    ``mahler._refine_float`` without its fixed-point exit: only the other
    early exits stop a root before its fourth step.
    """
    deriv = poly_deriv(monic)
    second = poly_deriv(deriv)
    out = []
    for z in roots:
        for _ in range(4):
            pv = poly_eval(monic, z)
            if pv == 0:
                break
            dv = poly_eval(deriv, z)
            if dv == 0:
                break
            u = pv / dv
            du = 1 - pv * poly_eval(second, z) / (dv * dv)
            if du == 0:
                break
            step = u / du
            if abs(step) > 0.5 * max(1.0, abs(z)):
                break
            z = z - step
        out.append(z)
    return out


def fiber_measure_cold(f: LaurentPoly, theta: float) -> float | None:
    """m(f(exp(2 pi i theta), y)) from Aberth's circle start, at every degree (test oracle).

    None when every rounded coefficient is exactly 0.  A fiber that vanishes
    exactly but keeps rounding-size coefficients is measured as it stands.
    """
    coeffs = fiber_coeffs_generic(f, theta)
    big = max(abs(c) for c in coeffs)
    if big == 0:
        return None
    coeffs = [0 if abs(c) <= STRIP_REL_TOL * big else c for c in coeffs]
    while coeffs[0] == 0:
        coeffs.pop(0)
    while coeffs[-1] == 0:
        coeffs.pop()
    roots = _aberth_roots(coeffs)
    return math.log(abs(coeffs[-1])) + sum(math.log(abs(z)) for z in roots if abs(z) > 1 + UNIT_CIRCLE_TOL)


def grid_average_full(f: LaurentPoly, n: int) -> float:
    """The n-node midpoint grid of ``mahler._grid_average`` fiber by fiber (test oracle).

    Every node (j + 1/2)/n is solved by ``fiber_measure_cold``: no conjugate
    mirror and no warm start.  A node whose rounded coefficients are all 0
    moves half a step forward.  So this agrees with the library only where no
    node is a common root of the y-coefficients.
    """
    step = 1.0 / n
    vals = []
    for j in range(n):
        theta = (j + 0.5) * step
        value = fiber_measure_cold(f, theta)
        if value is None:
            value = fiber_measure_cold(f, theta + 0.5 * step)
        if value is None:
            raise ArithmeticError(f"fiber polynomial vanished at node {theta}")
        vals.append(value)
    return math.fsum(vals) / n


def all_minor_dets(M, size):
    """Cofactor determinants of every size x size submatrix (test oracle)."""
    n = len(M)
    out = []
    for rows in combinations(range(n), size):
        for cols in combinations(range(n), size):
            out.append(cofactor_det_poly([[M[i][j] for j in cols] for i in rows]))
    return out


def _euclid_dense(a, b, dom):
    """gcd of dense coefficient lists (lowest first) over a field, by Euclid."""
    while b:
        while len(a) >= len(b):
            q = dom.of(a[-1] * dom.inv(b[-1]))
            s = len(a) - len(b)
            for i, c in enumerate(b):
                a[s + i] = dom.of(a[s + i] - q * c)
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return a


def laurent_gcd_euclid(f, g, dom):
    """gcd of one-variable Laurent polynomials by Euclid over dom itself (test oracle).

    Over a field, Euclid on dense coefficient lists in the field's own
    arithmetic (Fractions over QQ); over ZZ, the gcd of the integer contents
    times the gcd over QQ, which is primitive once normalized (Gauss's lemma).
    """
    f = f.reduce_to(dom)
    g = g.reduce_to(dom)
    if f.is_zero() and g.is_zero():
        return f
    if not dom.is_field:
        cont = int_gcd(*f.coeffs.values(), *g.coeffs.values())
        return normalize(laurent_gcd_euclid(f, g, QQ) * cont, ZZ)
    h = _euclid_dense(
        [dom.of(c) for c in f.coefficient_list()], [dom.of(c) for c in g.coefficient_list()], dom
    )
    return normalize(LaurentPoly(1, {(i,): c for i, c in enumerate(h)}), dom)


def _x_slices(f):
    """A two-variable polynomial as {a: the one-variable polynomial in y of x^a}."""
    slices = {}
    for (a, b), c in f.coeffs.items():
        slices.setdefault(a, {})[(b,)] = c
    return {a: LaurentPoly(1, d) for a, d in sorted(slices.items())}


def _from_x_slices(slices):
    return LaurentPoly(2, {(a, b): c for a, p in slices.items() for (b,), c in p.coeffs.items()})


def _primitive_x(f, dom):
    """(content in y, primitive part) of a two-variable polynomial."""
    cont = LaurentPoly.zero(1)
    for p in _x_slices(f).values():
        cont = laurent_gcd_euclid(cont, p, dom)
        if dom.is_field and cont.max_exp(0) == cont.min_exp(0):
            break  # unit content over a field
    prim = {a: divexact(p, cont, dom) for a, p in _x_slices(f).items()}
    return cont, _from_x_slices(prim)


def _pseudo_rem_x(f, g, dom):
    """Pseudo-remainder of two-variable polynomials in (dom[y])[x], term by term."""
    gs = _x_slices(g)
    gdeg = max(gs)
    glc = _from_x_slices({0: gs[gdeg]})
    rem = f
    while not rem.is_zero():
        rs = _x_slices(rem)
        rdeg = max(rs)
        if rdeg < gdeg:
            break
        # rem <- glc*rem - rlc*x^(rdeg-gdeg)*g
        rem = (glc * rem - _from_x_slices({rdeg - gdeg: rs[rdeg]}) * g).reduce_to(dom)
    return rem


def laurent_gcd_pseudo_rem(f, g, dom):
    """gcd of nonzero two-variable Laurent polynomials, computed over dom itself (test oracle).

    Content in y by one-variable Euclid and a primitive pseudo-remainder
    sequence in (dom[y])[x] that eliminates one x-leading term at a time, with
    every coefficient in dom: over QQ a Fraction loop, where ``laurent_gcd``
    works over the integers.
    """
    f = f.reduce_to(dom)
    g = g.reduce_to(dom)
    f = f.shift(tuple(-f.min_exp(v) for v in range(2)))
    g = g.shift(tuple(-g.min_exp(v) for v in range(2)))
    cf, pf = _primitive_x(f, dom)
    cg, pg = _primitive_x(g, dom)
    c = laurent_gcd_euclid(cf, cg, dom)
    a, b = pf, pg
    while not b.is_zero():
        r = _pseudo_rem_x(a, b, dom)
        if r.is_zero():
            a, b = b, r
        else:
            _, rp = _primitive_x(r, dom)
            a, b = b, rp
    _, a = _primitive_x(a, dom)
    return normalize((a * _from_x_slices({0: c})).reduce_to(dom), dom)


def _long_divmod(f, g, dom):
    """(q, r) with f = q*g + r for ordinary polynomials (test oracle): g's
    lex-leading term is divided into the remainder's, one LaurentPoly
    subtraction at a time, until it does not divide it (over ZZ also when the
    coefficient quotient is inexact)."""
    lead = max(g.coeffs)
    q, r = LaurentPoly.zero(f.nvars), f
    while r:
        top = max(r.coeffs)
        shift = tuple(a - b for a, b in zip(top, lead))
        if min(shift) < 0:
            break
        if dom.is_field:
            c = dom.of(r.coeffs[top] * dom.inv(g.coeffs[lead]))
        elif r.coeffs[top] % g.coeffs[lead]:
            break
        else:
            c = r.coeffs[top] // g.coeffs[lead]
        t = LaurentPoly.monomial(c, shift)
        q, r = q + t, (r - t * g).reduce_to(dom)
    return q, r


def _prs_content(dom, *polys):
    """gcd of the coefficients in x of nonzero polynomials, free of x."""
    if polys[0].nvars == 1:
        coeffs = (c for f in polys for c in f.coeffs.values())
        return LaurentPoly.constant(1 if dom.is_field else int_gcd(*coeffs), 1)
    slices = {}
    for i, f in enumerate(polys):
        for (a, b), c in f.coeffs.items():
            slices.setdefault((i, a), {})[(b,)] = c
    cont = None
    for s in slices.values():
        cont = LaurentPoly(1, s) if cont is None else _prs_gcd(cont, LaurentPoly(1, s), dom)
        if cont == 1:
            break
    return LaurentPoly(2, {(0, b): c for (b,), c in cont.coeffs.items()})


def _prs_primitive(f, dom):
    cont = _prs_content(dom, f)
    return cont, f if cont == 1 else _long_divmod(f, cont, dom)[0]


def _prs_gcd(f, g, dom):
    f = f.shift(tuple(-f.min_exp(v) for v in range(f.nvars)))
    g = g.shift(tuple(-g.min_exp(v) for v in range(g.nvars)))
    cf, a = _prs_primitive(f, dom)
    cg, b = _prs_primitive(g, dom)
    cont = _prs_content(dom, cf, cg)
    if max(a.coeffs)[0] < max(b.coeffs)[0]:
        a, b = b, a
    while True:
        d = max(b.coeffs)[0]
        lc = LaurentPoly(b.nvars, {(0,) + e[1:]: c for e, c in b.coeffs.items() if e[0] == d})
        if d == 0:
            return normalize(cont, dom)
        if lc != 1:
            a = (lc ** (max(a.coeffs)[0] - d + 1) * a).reduce_to(dom)
        r = _long_divmod(a, b, dom)[1]
        if r.is_zero():
            return normalize(b if cont == 1 else (cont * b).reduce_to(dom), dom)
        a, b = b, _prs_primitive(r, dom)[1]


def laurent_gcd_prs(f, g, dom):
    """gcd by the primitive pseudo-remainder sequence alone, in one and two
    variables (test oracle): the content gcd in x times the sequence's last
    term, every division a long division by LaurentPoly arithmetic, recursing
    into one-variable sequences for contents in y.  Over QQ, the inputs are
    cleared to primitive integer polynomials first."""
    if isinstance(dom, RationalField):
        f, g = normalize(f, QQ), normalize(g, QQ)
        return normalize(laurent_gcd_prs(f, g, ZZ), QQ) if f or g else f
    f = f.reduce_to(dom)
    g = g.reduce_to(dom)
    if not (f and g):
        return normalize(f or g, dom)
    return _prs_gcd(f, g, dom)


def root_of_unity_norm_by_division(h, m):
    """|prod over zeta^m = 1 of h(zeta)| for h in Z[x], lowest first (test
    oracle): x^m mod the monic H = lc^(d-1) h(x/lc) and its shifts by
    long division by LaurentPoly arithmetic, then one integer determinant."""
    d = len(h) - 1
    lc = h[d]
    if d == 0:
        return abs(lc) ** m
    H = LaurentPoly(1, {(i,): c * lc ** (d - 1 - i) for i, c in enumerate(h[:d])} | {(d,): 1})
    r = LaurentPoly.constant(1, 1)
    for bit in bin(m)[2:]:
        r = _long_divmod(r * r, H, ZZ)[1]
        if bit == "1":
            r = _long_divmod(r.shift((1,)), H, ZZ)[1]
    r = r - lc**m
    rows = []
    for _ in range(d):
        rows.append({i: c for (i,), c in r.coeffs.items()})
        r = _long_divmod(r.shift((1,)), H, ZZ)[1]
    norm, rem = divmod(int_det(rows), lc ** (m * (d - 1)))
    if rem:
        raise ArithmeticError("lc^(m(d-1)) does not divide the norm")
    return abs(norm)


# -- helpers only tests need --------------------------------------------------------


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def lift_by_names(vg: VoltageGraph, cells: list[tuple[int, ...]], land) -> FiniteGraph:
    """The lift of a voltage graph onto cells, every name formatted afresh
    (test oracle for ``graphs._lift``): vertices v@c for each base vertex v
    and cell c (base-vertex major), and one edge e@c from tail@c to
    head@land(c + s) for each base edge e with voltage s and each cell c,
    skipped where land gives None."""
    names = {c: ",".join(map(str, c)) for c in cells}
    vertices = [f"{v}@{names[c]}" for v in vg.base.vertices for c in cells]
    edges = []
    for e, s in zip(vg.base.edges, vg.voltages):
        for c in cells:
            c2 = land(tuple(a + b for a, b in zip(c, s)))
            if c2 is not None:
                edges.append(Edge(f"{e.name}@{names[c]}", f"{e.tail}@{names[c]}", f"{e.head}@{names[c2]}"))
    return FiniteGraph(tuple(vertices), tuple(edges))


def cover_by_names(vg: VoltageGraph, lam: SublatticeSpec) -> FiniteGraph:
    """``cover_graph`` by :func:`lift_by_names`, each end reduced by ``lam.reduce``."""
    return lift_by_names(vg, lam.coset_reps(), lam.reduce)


def restriction_by_names(vg: VoltageGraph, rect: RectangleSpec) -> FiniteGraph:
    """``restriction_subgraph`` by :func:`lift_by_names`, each end kept if it lies in rect."""
    return lift_by_names(vg, rect.points(), lambda c: c if c in rect else None)


def with_reversed_edge(vg: VoltageGraph, edge_name: str) -> VoltageGraph:
    """Same graph with one edge's orientation flipped and voltage negated."""
    es = []
    volts = []
    for e, s in zip(vg.base.edges, vg.voltages):
        if e.name == edge_name:
            es.append(Edge(e.name, e.head, e.tail))
            volts.append(tuple(-a for a in s))
        else:
            es.append(e)
            volts.append(s)
    return VoltageGraph(FiniteGraph(vg.base.vertices, tuple(es)), vg.rank, tuple(volts))


def wrapping_edge_count(vg: VoltageGraph, rect: RectangleSpec) -> int:
    """Number of (edge, translate) pairs leaving the box; complements the restriction."""
    count = 0
    for s in vg.voltages:
        for c in rect.points():
            c2 = tuple(a + b for a, b in zip(c, s))
            if c2 not in rect:
                count += 1
    return count


def degree_certificate(g: FiniteGraph):
    """A cheap isomorphism certificate: size data plus sorted local degree views."""
    degs = {v: g.degree(v) for v in g.vertices}
    local = []
    for v in g.vertices:
        nbrs = []
        for e in g.edges:
            if e.tail == v and e.head != v:
                nbrs.append(degs[e.head])
            elif e.head == v and e.tail != v:
                nbrs.append(degs[e.tail])
            elif e.tail == v and e.head == v:
                nbrs.append(-1)  # loop marker
        local.append((degs[v], tuple(sorted(nbrs))))
    return (len(g.vertices), len(g.edges), tuple(sorted(local)))


# -- random multigraphs ------------------------------------------------------------


def random_multigraph(
    rng: random.Random,
    max_vertices: int = 6,
    max_edges: int = 12,
    connected: bool = False,
    loops: bool = True,
) -> FiniteGraph:
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    m = rng.randint(0, max_edges)
    edges = []
    for j in range(m):
        tail = rng.choice(vertices)
        if loops and rng.random() < 0.15:
            head = tail
        else:
            head = rng.choice(vertices)
        edges.append((f"e{j}", tail, head))
    g = FiniteGraph.build(vertices, edges)
    if connected:
        comps = _components_list(g)
        extra = []
        for i in range(1, len(comps)):
            extra.append((f"j{i}", comps[0][0], comps[i][0]))
        if extra:
            g = FiniteGraph.build(vertices, edges + extra)
    return g


def _components_list(g: FiniteGraph):
    uf = _UnionFind(g.vertices)
    for e in g.edges:
        uf.union(e.tail, e.head)
    roots: dict[str, list[str]] = {}
    for v in g.vertices:
        roots.setdefault(uf.find(v), []).append(v)
    return list(roots.values())


def random_voltage_graph(
    rng: random.Random,
    rank: int = 1,
    max_vertices: int = 4,
    max_edges: int = 8,
    connected: bool = True,
) -> VoltageGraph:
    g = random_multigraph(rng, max_vertices, max_edges, connected=connected)
    volts = tuple(
        tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in g.edges
    )
    return VoltageGraph(g, rank, volts)


def sized_voltage_graph(
    rng: random.Random, rank: int, vertices: int, edges: int, span: int = 2
) -> VoltageGraph:
    """A connected quotient with exactly the given numbers of vertices and
    edges: a random spanning tree plus random edges (loops allowed), with
    voltages in [-span, span]."""
    vs = [f"v{i}" for i in range(vertices)]
    es = [(f"t{i}", vs[rng.randrange(i)], vs[i]) for i in range(1, vertices)]
    es += [(f"e{j}", rng.choice(vs), rng.choice(vs)) for j in range(edges - len(es))]
    volts = tuple(tuple(rng.randint(-span, span) for _ in range(rank)) for _ in es)
    return VoltageGraph(FiniteGraph.build(vs, es), rank, volts)


# -- plane graphs with known embeddings -----------------------------------------------


def _grid_plane(rows: int, cols: int, wrap: bool):
    """Rows x cols grid; wrap=True closes the angular direction with voltage 1."""
    vertices = [f"w{i}_{j}" for i in range(rows) for j in range(cols)]
    edges = []  # (name, tail, head, voltage)
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((f"a{i}_{j}", f"w{i}_{j}", f"w{i}_{j + 1}", 0))
            elif wrap:
                edges.append((f"a{i}_{j}", f"w{i}_{j}", f"w{i}_0", 1))
            if i + 1 < rows:
                edges.append((f"r{i}_{j}", f"w{i}_{j}", f"w{i + 1}_{j}", 0))
    rot = {}
    names = {e[0] for e in edges}
    for i in range(rows):
        for j in range(cols):
            darts = []
            if f"a{i}_{j}" in names:
                darts.append((f"a{i}_{j}", "t"))  # east
            if f"r{i}_{j}" in names:
                darts.append((f"r{i}_{j}", "t"))  # north
            west = f"a{i}_{(j - 1) % cols}" if (wrap or j > 0) else None
            if west in names and not (wrap and cols == 1 and False):
                darts.append((west, "h"))
            if i > 0 and f"r{i - 1}_{j}" in names:
                darts.append((f"r{i - 1}_{j}", "h"))
            rot[f"w{i}_{j}"] = darts
    return vertices, edges, rot


def _mutate_plane(rng, vertices, edges, rot, target_edges, allow_reverse=True):
    """Random embedding-preserving mutations; keeps at most target_edges edges."""
    edges = list(edges)
    rot = {v: list(d) for v, d in rot.items()}

    def delete_edge(name):
        nonlocal edges
        edges = [e for e in edges if e[0] != name]
        for v in rot:
            rot[v] = [d for d in rot[v] if d[0] != name]

    # drop random edges until small enough, then a few more at random
    names = [e[0] for e in edges]
    rng.shuffle(names)
    while len(edges) > target_edges:
        delete_edge(names.pop())
    for name in list(names):
        if edges and rng.random() < 0.2:
            delete_edge(name)

    # parallel duplicates, nested right next to the original
    for k in range(rng.randint(0, 2)):
        if not edges:
            break
        name, tail, head, volt = rng.choice(edges)
        dup = f"{name}d{k}"
        edges.append((dup, tail, head, volt))
        rt = rot[tail]
        rt.insert(rt.index((name, "t")) + 1, (dup, "t"))
        rh = rot[head]
        rh.insert(rh.index((name, "h")), (dup, "h"))

    # contractible loops
    for k in range(rng.randint(0, 2)):
        active = [v for v in vertices if rot[v]] or list(vertices)
        v = rng.choice(active)
        pos = rng.randrange(len(rot[v]) + 1)
        rot[v][pos:pos] = [(f"l{k}_{v}", "t"), (f"l{k}_{v}", "h")]
        edges.append((f"l{k}_{v}", v, v, 0))

    # orientation flips: swap the ends in the edge list and in the rotations
    if allow_reverse:
        for i, (name, tail, head, volt) in enumerate(edges):
            if rng.random() < 0.3:
                edges[i] = (name, head, tail, -volt)
                for v in rot:
                    rot[v] = [
                        (n, {"t": "h", "h": "t"}[end]) if n == name else (n, end)
                        for n, end in rot[v]
                    ]

    # drop isolated vertices sometimes
    kept = [v for v in vertices if rot[v] or rng.random() < 0.5]
    used = {e[1] for e in edges} | {e[2] for e in edges}
    kept = [v for v in vertices if v in used or v in kept]
    if not kept:
        kept = [vertices[0]]
    edges = [e for e in edges if e[1] in kept and e[2] in kept]
    rot = {v: tuple(rot[v]) for v in kept}
    return kept, edges, rot


def random_plane_graph(
    rng: random.Random, max_edges: int = 10, connected: bool = True
) -> PlaneGraph:
    """A random finite plane multigraph with a valid rotation system."""
    while True:
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        vertices, edges, rot = _grid_plane(rows, cols, wrap=False)
        vertices, edges, rot = _mutate_plane(rng, vertices, edges, rot, max_edges)
        if not edges:
            continue
        g = FiniteGraph.build(vertices, [(n, t, h) for n, t, h, _ in edges])
        if connected and brute_force_components(g) != 1:
            continue
        return PlaneGraph(g, rot)


def random_annulus_quotient(
    rng: random.Random, max_edges: int = 8, require_essential: bool = False
) -> PlaneGraph:
    """A random connected quotient genuinely embedded in the annulus."""
    while True:
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 2)
        vertices, edges, rot = _grid_plane(rows, cols, wrap=True)
        vertices, edges, rot = _mutate_plane(rng, vertices, edges, rot, max_edges)
        if not edges:
            continue
        g = FiniteGraph.build(vertices, [(n, t, h) for n, t, h, _ in edges])
        if brute_force_components(g) != 1:
            continue
        if require_essential and all(v == 0 for *_, v in edges):
            continue
        vg = VoltageGraph(g, 1, tuple((v,) for *_, v in edges))
        return PlaneGraph(vg, rot)
