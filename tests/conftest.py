"""Shared oracles and random graph generators for the test suite.

The oracles here are deliberately independent of the library code paths they
check: spanning trees by edge-subset enumeration, determinants by cofactor
expansion, dense Bareiss elimination or Gaussian elimination over the
rationals, elementary divisors from minors taken in the coefficient domain
itself and a gcd fold over every one of them (no stop at a unit),
connectivity by union-find, the bicycle space as an intersection of the
cut and cycle spans, reduced row echelon forms in the field's own
arithmetic (Fraction over QQ), essential CRSFs by one BFS forest per edge
subset, Newton root refinement in exact rationals
(Fraction) and in floats with every step taken, the
two-variable Mahler grid solved at every node from a cold start with its own
strip and zero-fiber rule, one-variable
gcds by Euclid and two-variable gcds by a pseudo-remainder sequence, both over
the coefficient domain itself.  Small helpers that only tests need (matrix
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

import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd as int_gcd
from pathlib import Path
from unittest import mock

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
from lapgraph.fields import QQ, ZZ
from lapgraph.graphio import parse_graph_file
from lapgraph.laurent import LaurentPoly, divexact, laurent_gcd, normalize
from lapgraph.linalg import elementary_divisor, nullspace, row_space_canonical, transpose
from lapgraph.mahler import (
    STRIP_REL_TOL,
    UNIT_CIRCLE_TOL,
    _aberth_roots,
    _fiber_coeffs,
    _poly_deriv,
    _poly_eval,
)
from lapgraph.planar import Dart, PlaneGraph, faces, parse_dart

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


def cover_plane_graph(pg: PlaneGraph, n: int) -> PlaneGraph:
    """The n-sheeted cyclic cover of a rank-1 plane quotient, rotations inherited.

    The dart (e, t) at the level-c copy of a vertex belongs to edge instance
    e@c; the dart (e, h) to instance e@(c - s) where s is e's voltage.
    """
    if not pg.is_voltage:
        raise ValueError("cover_plane_graph needs a rank-1 voltage quotient")
    vg = pg.graph
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
    Q = incidence_matrix(g)
    A = row_space_canonical([[fld.of(v) for v in row] for row in Q], fld)
    B = nullspace(Q, fld)
    if not A or not B:
        return []
    combos = nullspace(transpose([list(v) for v in A] + [[fld.of(-x) for x in v] for v in B]), fld)
    vectors = []
    for c in combos:
        vec = [fld.zero] * len(A[0])
        for coeff, basis_vec in zip(c[: len(A)], A):
            if coeff:
                vec = [fld.of(x + coeff * b) for x, b in zip(vec, basis_vec)]
        vectors.append(vec)
    return row_space_canonical(vectors, fld)


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


def sparse_rows(M) -> list[dict[int, int]]:
    """The nonzero entries of a dense matrix as the rows {column: entry} that
    :func:`lapgraph.linalg.int_det` takes."""
    return [{j: v for j, v in enumerate(row) if v} for row in M]


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
        return LaurentPoly.constant(dom.one, M[0][0].nvars if n else 1)
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

    No squarefree split: the factors x -+ 1 are divided out, the Aberth roots
    of what is left are sharpened by ``refine_exact_fraction`` in place of the
    float refinement (which stalls at multiple roots) before they are
    validated, and Jensen's formula sums them.
    """
    for r in (1, -1):
        while f.max_exp(0) > f.min_exp(0) and f.evaluate(r) == 0:
            f = divexact(f, LaurentPoly(1, {(1,): 1, (0,): -r}), ZZ)
    cs = f.coefficient_list()

    def refine(monic, deriv, roots):
        roots[:] = refine_exact_fraction(cs, roots)

    with mock.patch.object(sys.modules["lapgraph.mahler"], "_refine_float", refine):
        roots = _aberth_roots([complex(c) for c in cs])
    return math.log(abs(cs[-1])) + sum(math.log(abs(z)) for z in roots if abs(z) > 1 + UNIT_CIRCLE_TOL)


def refine_float_four_steps(monic: list[complex], roots: list[complex]) -> list[complex]:
    """Double-precision Newton on u = p/p', 4 steps per root (test oracle).

    ``mahler._refine_float`` without its fixed-point exit: only the other
    early exits stop a root before its fourth step.
    """
    deriv = _poly_deriv(monic)
    second = _poly_deriv(deriv)
    out = []
    for z in roots:
        for _ in range(4):
            pv = _poly_eval(monic, z)
            if pv == 0:
                break
            dv = _poly_eval(deriv, z)
            if dv == 0:
                break
            u = pv / dv
            du = 1 - pv * _poly_eval(second, z) / (dv * dv)
            if du == 0:
                break
            step = u / du
            if abs(step) > 0.5 * max(1.0, abs(z)):
                break
            z = z - step
        out.append(z)
    return out


def fiber_measure_cold(f: LaurentPoly, theta: float) -> float | None:
    """m(f(exp(2 pi i theta), y)) from Aberth's circle start (test oracle).

    None when every rounded coefficient is exactly 0.  A fiber that vanishes
    exactly but keeps rounding-size coefficients is measured as it stands.
    """
    coeffs = _fiber_coeffs(f, theta)
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


# -- helpers only tests need --------------------------------------------------------


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


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
