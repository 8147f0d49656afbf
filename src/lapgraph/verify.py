"""Cross-check suite replaying the structural identities on one input graph.

Each check reports PASS, FAIL, or SKIP.  The suite is the CLI's ``verify``
subcommand; any FAIL gives exit status 1.  L is the voltage Laplacian,
Delta_k its k-th elementary divisor, and s the first k with Delta_k nonzero
over GF(2).  L and det L are computed once per input and shared by the checks
below.  L is checked, Kronecker-encoded and ordered once
(:class:`~lapgraph.linalg.LaurentEncoding`, sized for det L), and det L and
every Delta_k are minors of that one encoding.  det L is taken over the
integers; its normalized form is Delta_0 over the integers and the
rationals, and reduced mod 2 it gives Delta_0 over GF(2).
Delta_k over GF(2) for k >= 1 is computed only while the divisors before it
vanish, so s and Delta_s cost no second determinant of L.  The divisors in
count-divisibility and delta-chain, (x - 1)^2 and Delta_k over the rationals,
are primitive integer polynomials, so by Gauss's lemma both checks divide
over the integers, and no Fraction is built between L and any Laurent check.

``max_cover`` must be an integer at least 1 and ``fibers`` one at least 4 on
every input, both checked before any work.  The voltage checks read the
input's quotient ``obj.quotient``.

Voltage graphs of rank 1 or 2, plain or with a rotation system:

- ``laplacian-transpose``: L(1/x) equals L(x)^T.
- ``gf2-vanishing``: recorded only when Delta_0 vanishes over the integers or
  mod 2 (s > 0); it cannot FAIL and is absent otherwise.
- ``reciprocity``: Delta_0 and Delta_s equal their reciprocals up to a unit
  over the rationals.
- ``count-divisibility``: (x - 1)^2 divides Delta_0 (rank 1), or
  Delta_0(1, 1) = 0 (rank 2).  SKIP when Delta_0 vanishes.
- ``delta-chain``: Delta_k divides Delta_{k-1} over the rationals for
  k <= n (n <= 5 vertices) or k <= 3.
- ``forman-reconstruction`` (rank 1): the CRSF product-form sum equals
  det L (:meth:`CrsfReport.matches`); when every CRSF cycle winds at most
  once that sum is sum C_k (2 - x - 1/x)^k term by term.  SKIP above
  ``CRSF_MAX_EDGES`` (16) edges.
- ``grimmett-bound``: |V| log(2|E|/|V|) >= m(Delta_0).
- ``growth-vs-mahler``: |(1/r) log T(G_r) - m(Delta_0)| at the largest
  cover nZ^d, n in ``GROWTH_SIDES``, of index r up to ``max_cover`` is below
  max(0.1, 2 log r / r).  T(G_r) is one :func:`cover_complexity` call, one
  integer resultant on Delta_0 of the quotient or of an n x n cover's
  n-sheeted rank-1 fold, and FAIL with the error's text when Delta_0 gives
  no exact count; the Bareiss count of the built cover is its test oracle.
  Both SKIP unless the quotient is connected with Delta_0 nonzero, and the
  growth check also when no cover index fits ``max_cover``; they share one
  value of m(Delta_0), taken on one grid of ``fibers`` nodes by
  :func:`~lapgraph.mahler.mahler_value` (no error estimate, so no
  half-resolution grid).

Graphs with a rotation system, whose strands one call of
:func:`medial_components` traces, with windings on a voltage quotient:

- ``medial-crossings``: the medial strands cross every edge exactly twice.
- ``medial-gf2-degree`` (rank 1): deg Delta_s over GF(2) equals the number of
  noncompact strands and s the number of zero-winding strand orbits.
- ``degree-connectivity`` (rank 1): deg Delta_0 equals twice the annular
  connectivity.  SKIP when Delta_0 vanishes.
- ``medial-component-count`` (finite): the strand count equals the GF(2)
  nullity of the Laplacian.
- ``shank-basis`` (finite): the residues of all strands but one per
  connected component form a basis of the GF(2) bicycle space.
- ``dehn-roundtrip`` (finite): extending a conservative coloring to faces
  and restricting back is the identity over GF(5).  FAIL with the error's
  text when the extension fails, as on a rotation system that is not
  planar.

Both run on every finite plane graph, connected or not.

Every input, on its finite graph ``obj.base``:

- ``bicycle-two-method``: :func:`bicycle_basis` (the image of ker L) equals
  :func:`bicycle_basis_meet` (row(Q) meet ker Q, computed as the kernel of
  Q stacked on a basis of ker Q, since row(Q) = (ker Q)^perp) over GF(2) and
  over the rationals.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .colorings import bicycle_basis, bicycle_basis_meet, conservative_vertex_basis
from .fields import GF2, QQ, ZZ, PrimeField, check_int
from .graphs import FiniteGraph, SublatticeSpec, VoltageGraph, connected_components, voltage_laplacian
from .laurent import divides, normalize
from .linalg import LaurentEncoding, det_laurent, elementary_divisor, transpose
from .mahler import mahler_value
from .planar import (
    PlaneGraph,
    compact_orbit_count,
    dehn_extend,
    dehn_restrict,
    medial_components,
    noncompact_count,
    shank_basis,
)
from .spanning import (
    CRSF_MAX_EDGES,
    X_MINUS_1_SQ,
    annular_connectivity,
    cover_complexity,
    crsf_coefficients,
    grimmett_bound,
)

GF5 = PrimeField(5)
# growth-vs-mahler counts the largest cover nZ^d of index at most max_cover, n among these
GROWTH_SIDES = {1: (4, 8, 16, 32, 64), 2: (2, 3, 4, 5, 6)}


class CheckResult(NamedTuple):
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str


def verify_ok(results: list[CheckResult]) -> bool:
    return all(r.status != "FAIL" for r in results)


def run_verify(
    obj: FiniteGraph | VoltageGraph | PlaneGraph,
    max_cover: int = 64,
    fibers: int = 512,
) -> list[CheckResult]:
    check_int("max_cover", max_cover, 1)  # before any work, whether or not a cover is counted
    check_int("fibers", fibers, 4)  # before any work, whether or not a measure is taken
    vg, base = obj.quotient, obj.base

    out: list[CheckResult] = []

    def record(name: str, passed: bool, detail: str):
        out.append(CheckResult(name, "PASS" if passed else "FAIL", detail))

    def skip(name: str, why: str):
        out.append(CheckResult(name, "SKIP", why))

    # ---- voltage-side checks -------------------------------------------------
    if vg is not None:
        L = voltage_laplacian(vg)
        n = len(L)
        lt = [[e.reciprocal() for e in row] for row in transpose(L)]
        record("laplacian-transpose", lt == L, "L(1/x) equals L(x)^T")

        A = LaurentEncoding(L, n)
        det = det_laurent(A)
        d0 = normalize(det, ZZ)  # Delta_0 over the integers
        d0q = normalize(d0, QQ)  # Delta_0 over the rationals
        s, ds = 0, normalize(det, GF2)  # Delta_0 over GF(2)
        while ds.is_zero():
            s += 1
            ds = elementary_divisor(A, s, GF2)
        if d0.is_zero():
            record("gf2-vanishing", True, "Delta_0 = 0 over the integers")
        elif s > 0:
            record("gf2-vanishing", True, "Delta_0 = 0 mod 2")

        # reciprocity of Delta_0 and the first nonzero divisor
        checked = []
        for label, poly in (("Delta_0", d0q), (f"Delta_{s}", normalize(ds, QQ))):
            if not poly.is_zero():
                checked.append((label, poly == normalize(poly.reciprocal(), QQ)))
        record(
            "reciprocity",
            all(ok for _, ok in checked),
            ", ".join(f"{lbl} reciprocal" for lbl, _ in checked) or "no nonzero divisor",
        )

        # divisibility at x = 1; with no vertices L(1) is 0 x 0, not singular
        if d0.is_zero():
            skip("count-divisibility", "Delta_0 vanishes")
        elif not n:
            skip("count-divisibility", "no vertices")
        elif vg.rank == 1:
            record(
                "count-divisibility",
                divides(X_MINUS_1_SQ, d0, ZZ),
                "(x-1)^2 divides Delta_0",
            )
        else:
            record("count-divisibility", d0.evaluate(1, 1) == 0, "Delta_0(1,1) = 0")

        # elementary divisor chain
        chain_ok = True
        details = []
        max_k = n if n <= 5 else 3
        prev = d0q
        for k in range(1, max_k + 1):
            cur = elementary_divisor(A, k, QQ)
            if not prev.is_zero() and cur.is_zero():
                chain_ok = False
                details.append(f"Delta_{k} = 0 after nonzero Delta_{k - 1}")
            elif not prev.is_zero() and not divides(cur, prev, ZZ):
                chain_ok = False
                details.append(f"Delta_{k} does not divide Delta_{k - 1}")
            prev = cur
        record("delta-chain", chain_ok, "; ".join(details) or f"checked k <= {max_k}")

        if vg.rank == 1 and len(vg.base.edges) <= CRSF_MAX_EDGES:
            rep = crsf_coefficients(vg)
            detail = f"C_k = {rep.coefficients}"
            if rep.max_winding > 1:
                detail += f" (windings up to {rep.max_winding}: product form only)"
            record("forman-reconstruction", rep.matches(det), detail)
        elif vg.rank == 1:
            skip("forman-reconstruction", "quotient too large for brute force")

        if len(connected_components(vg.base)) == 1 and not d0.is_zero():
            bound = grimmett_bound(vg)
            m0 = mahler_value(d0, fibers)
            record(
                "grimmett-bound",
                bound >= m0 - 1e-9,
                f"bound {bound:.4f} >= m(Delta_0) {m0:.4f}",
            )
            covers = [SublatticeSpec.scaled(side, vg.rank) for side in GROWTH_SIDES[vg.rank]]
            covers = [lam for lam in covers if lam.index <= max_cover]
            if not covers:
                skip("growth-vs-mahler", f"no scheduled cover of index <= {max_cover}")
            else:
                # The gap behaves like (log r + c)/r, so it need not shrink
                # monotonically from the first cover; gate the gap at the
                # largest scheduled index against that rate.
                r_last = covers[-1].index
                try:
                    lg_last = math.log(cover_complexity(vg, covers[-1], d0)) / r_last
                except ArithmeticError as exc:
                    record("growth-vs-mahler", False, f"no exact cover count from Delta_0: {exc}")
                else:
                    gap = abs(lg_last - m0)
                    limit = max(0.1, 2.0 * math.log(max(r_last, 3)) / r_last)
                    record(
                        "growth-vs-mahler",
                        gap < limit,
                        f"gap {gap:.4f} at cover index {r_last} (limit {limit:.4f})",
                    )
        else:
            skip("grimmett-bound", "needs a connected quotient with nonzero Delta_0")
            skip("growth-vs-mahler", "needs a connected quotient with nonzero Delta_0")

    # ---- planar checks ---------------------------------------------------------
    if isinstance(obj, PlaneGraph):
        comps = medial_components(obj)
        counts: dict[str, int] = {}
        for c in comps:
            for name in c.crossings:
                counts[name] = counts.get(name, 0) + 1
        ok = all(counts.get(e.name, 0) == 2 for e in base.edges)
        record("medial-crossings", ok, "every edge is crossed exactly twice")

        if vg is not None:  # reuse the quotient's s, Delta_s and Delta_0
            deg = ds.degree_span()[0]
            nc = noncompact_count(comps)
            zo = compact_orbit_count(comps)
            record(
                "medial-gf2-degree",
                deg == nc and s == zo,
                f"deg Delta_{s} = {deg}, noncompact = {nc}, zero-winding orbits = {zo}",
            )
            if d0q.is_zero():
                skip("degree-connectivity", "Delta_0 vanishes over the rationals")
            else:
                kappa = annular_connectivity(vg)
                record(
                    "degree-connectivity",
                    d0q.degree_span()[0] == 2 * kappa,
                    f"deg Delta_0 = {d0q.degree_span()[0]}, kappa = {kappa}",
                )
        else:
            nullity = len(conservative_vertex_basis(base, GF2))
            record(
                "medial-component-count",
                len(comps) == nullity,
                f"{len(comps)} components, GF(2) nullity {nullity}",
            )
            try:
                shank_basis(obj, 0)
                record("shank-basis", True, "residues of non-base components form a bicycle basis")
            except AssertionError as exc:
                record("shank-basis", False, str(exc))
            try:
                ok = all(
                    dehn_restrict(dehn_extend(obj, alpha, 0, GF5)) == [GF5.of(a) for a in alpha]
                    for alpha in conservative_vertex_basis(base, GF5)
                )
                record("dehn-roundtrip", ok, "extend then restrict is the identity over GF(5)")
            except ValueError as exc:
                record("dehn-roundtrip", False, str(exc))

    # ---- finite-graph checks ------------------------------------------------------
    dims = []
    mismatches = []
    for label, fld in (("GF(2)", GF2), ("Q", QQ)):
        via_kernel = bicycle_basis(base, fld)
        meet = bicycle_basis_meet(base, fld)
        dims.append(len(via_kernel))
        if via_kernel != meet:
            mismatches.append(
                f"over {label} the image of ker L has dim {len(via_kernel)}, "
                f"row(Q) meet ker Q has dim {len(meet)}"
            )
    record(
        "bicycle-two-method",
        not mismatches,
        "; ".join(mismatches)
        or f"both methods agree; dim over GF(2) = {dims[0]}, over Q = {dims[1]}",
    )
    return out


def format_report(results: list[CheckResult]) -> str:
    lines = [f"{r.status:4s} {r.name}: {r.detail}" for r in results]
    lines.append("OK" if verify_ok(results) else "FAILED")
    return "\n".join(lines)
