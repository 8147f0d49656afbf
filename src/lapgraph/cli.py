"""Command-line front end.

Subcommands: delta, bicycle, medial, trees, growth, crsf, kappa, mahler,
verify.  Every subcommand reads the lapgraph v1 file format and offers a
--json twin of its table output; all outputs are deterministic for a given
input.  Bad input or usage exits 2; a failed check (verify's FAIL, crsf's
MISMATCH) exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .colorings import bicycle_basis
from .fields import ZZ, domain_from_spec
from .graphio import parse_graph_file
from .graphs import (
    FiniteGraph,
    SublatticeSpec,
    VoltageGraph,
    laplacian_finite,
    voltage_laplacian,
)
from .laurent import format_poly, normalize, parse_poly
from .linalg import det_laurent, elementary_divisor, int_matrix_to_poly
from .mahler import mahler
from .planar import PlaneGraph, medial_components, medial_components_voltage, shank_basis
from .spanning import (
    annular_connectivity,
    complexity,
    cover_complexity,
    crsf_coefficients,
    growth_covers,
    growth_restrictions,
    laplacian_determinant_polynomial,
)
from .verify import format_report, run_verify, verify_ok


def _load(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_graph_file(text)


def _voltage_of(obj) -> VoltageGraph:
    if isinstance(obj, PlaneGraph) and isinstance(obj.graph, VoltageGraph):
        return obj.graph
    if isinstance(obj, VoltageGraph):
        return obj
    raise ValueError("this command needs a voltage graph (d >= 1)")


def _base_of(obj) -> FiniteGraph:
    if isinstance(obj, PlaneGraph):
        return obj.base
    if isinstance(obj, VoltageGraph):
        return obj.base
    return obj


def _digits(t: int) -> str:
    """Decimal text of an integer of any size.

    ``str`` refuses integers longer than ``sys.get_int_max_str_digits()``
    digits (4300 by default), and tree counts of large covers are longer; the
    limit is lifted for this one conversion.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the limit
        return str(t)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(t)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_delta(args) -> int:
    obj = _load(args.file)
    dom = domain_from_spec(args.field)
    vg = obj.graph if isinstance(obj, PlaneGraph) else obj
    if isinstance(vg, VoltageGraph):
        L = voltage_laplacian(vg)
    else:
        base = _base_of(obj)
        L = int_matrix_to_poly(laplacian_finite(base))
    d = elementary_divisor(L, args.k, dom)
    text = format_poly(d)
    if args.json:
        print(json.dumps({"k": args.k, "field": args.field, "delta": text}))
    else:
        print(f"Delta_{args.k} over {args.field}: {text}")
    return 0


def cmd_bicycle(args) -> int:
    obj = _load(args.file)
    base = _base_of(obj)
    fld = domain_from_spec(args.field)
    if not fld.is_field:
        raise ValueError("bicycle needs a field (q or gf:P)")
    basis = bicycle_basis(base, fld)
    if args.json:
        print(
            json.dumps(
                {
                    "field": args.field,
                    "dimension": len(basis),
                    "basis": [[str(v) for v in vec] for vec in basis],
                    "edges": [e.name for e in base.edges],
                }
            )
        )
    else:
        print(f"bicycle dimension over {args.field}: {len(basis)}")
        for vec in basis:
            print("  " + " ".join(str(v) for v in vec))
    return 0


def cmd_medial(args) -> int:
    obj = _load(args.file)
    if not isinstance(obj, PlaneGraph):
        raise ValueError("medial needs rotation lines in the graph file")
    payload = {"components": []}
    if obj.is_voltage:
        comps = medial_components_voltage(obj)
    else:
        comps = medial_components(obj)
    for c in comps:
        payload["components"].append(
            {
                "crossings": list(c.crossings),
                "residue": list(c.residue),
                "winding": c.winding,
            }
        )
    if not obj.is_voltage:
        try:
            basis = shank_basis(obj, args.base_component)
        except AssertionError as exc:
            raise ValueError(
                f"{exc} (the Shank basis needs a planar rotation system)"
            ) from None
        payload["shank_basis"] = basis
        payload["base_component"] = args.base_component
    if args.json:
        print(json.dumps(payload))
    else:
        for i, c in enumerate(comps):
            wind = "" if c.winding is None else f" winding {c.winding}"
            print(f"component {i}: crossings {' '.join(c.crossings) or '(empty)'}{wind}")
            print(f"  residue: {' '.join(c.residue) if c.residue else '(empty)'}")
        if "shank_basis" in payload:
            print(f"shank basis (base component {args.base_component}):")
            for vec in payload["shank_basis"]:
                print("  " + " ".join(str(v) for v in vec))
    return 0


def _parse_cover(spec: str, rank: int) -> SublatticeSpec:
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) == 1:
        n = int(parts[0])
        if rank == 1:
            return SublatticeSpec.cyclic(n)
        return SublatticeSpec.lattice2(((n, 0), (0, n)))
    if len(parts) == 4:
        a, b, c, d = (int(p) for p in parts)
        return SublatticeSpec.lattice2(((a, b), (c, d)))
    raise ValueError("--cover needs n or a,b,c,d (2x2 row-major)")


def cmd_trees(args) -> int:
    obj = _load(args.file)
    if args.cover is None:
        base = _base_of(obj)
        t = _digits(complexity(base))
        if args.json:
            print(json.dumps({"complexity": t}))
        else:
            print(f"complexity T = {t}")
        return 0
    vg = _voltage_of(obj)
    lam = _parse_cover(args.cover, vg.rank)
    t = _digits(cover_complexity(vg, lam))
    # every base vertex and edge has one lift per sheet
    vertices, edges = len(vg.base.vertices) * lam.index, len(vg.base.edges) * lam.index
    if args.json:
        print(
            json.dumps(
                {
                    "index": lam.index,
                    "vertices": vertices,
                    "edges": edges,
                    "complexity": t,
                }
            )
        )
    else:
        print(f"cover index {lam.index}: {vertices} vertices, {edges} edges")
        print(f"complexity T = {t}")
    return 0


def _schedule(rank: int, mode: str, max_n: int) -> list[int]:
    if rank == 1:
        out = []
        n = 2
        while n <= max_n:
            out.append(n)
            n *= 2
        return out or [2]
    if mode == "covers":
        return [n for n in (2, 3, 4, 5, 6, 8) if n <= max_n]
    return [n for n in (2, 3, 4, 6, 8, 10, 12) if n <= max_n]


def cmd_growth(args) -> int:
    obj = _load(args.file)
    vg = _voltage_of(obj)
    schedule = _schedule(vg.rank, args.mode, args.max)
    if args.mode == "covers":
        report = growth_covers(vg, schedule, fibers=args.fibers)
    else:
        report = growth_restrictions(vg, schedule, fibers=args.fibers)
    if args.json:
        print(
            json.dumps(
                {
                    "mode": report.mode,
                    "reference": report.reference,
                    "rows": [
                        {"scale": r, "complexity": _digits(t), "normalized_log": lg}
                        for r, t, lg in report.rows
                    ],
                }
            )
        )
    else:
        label = "r" if args.mode == "covers" else "s"
        print(f"{label:>6s} {'T':>24s} {'(1/' + label + ') log T':>14s}")
        for r, t, lg in report.rows:
            tstr = _digits(t)
            tstr = tstr if len(tstr) <= 24 else tstr[:21] + "..."
            print(f"{r:6d} {tstr:>24s} {lg:14.6f}")
        print(f"reference m = {report.reference:.6f}")
    return 0


def cmd_crsf(args) -> int:
    obj = _load(args.file)
    vg = _voltage_of(obj)
    rep = crsf_coefficients(vg)
    det = det_laurent(voltage_laplacian(vg))
    d0 = normalize(det, ZZ)
    matches = rep.matches(det)
    if args.json:
        print(
            json.dumps(
                {
                    "coefficients": {str(k): v for k, v in rep.coefficients.items()},
                    "reconstruction": format_poly(rep.reconstruction),
                    "delta0": format_poly(d0),
                    "matches_delta0": matches,
                }
            )
        )
    else:
        for k, c in rep.coefficients.items():
            print(f"C_{k} = {c}")
        print(f"sum C_k (2 - x - x^-1)^k = {format_poly(rep.reconstruction)}")
        status = "match" if matches else "MISMATCH"
        if rep.max_winding > 1:
            status += f"; windings up to {rep.max_winding}: product form only"
        print(f"Delta_0 = {format_poly(d0)}  ({status})")
    return 0 if matches else 1


def cmd_kappa(args) -> int:
    obj = _load(args.file)
    vg = _voltage_of(obj)
    k = annular_connectivity(vg)
    if args.json:
        print(json.dumps({"kappa": k}))
    else:
        print(f"kappa = {k}")
    return 0


def cmd_mahler(args) -> int:
    if (args.poly is None) == (args.from_graph is None):
        raise ValueError("give exactly one of --poly or --from-graph")
    if args.poly is not None:
        f = parse_poly(args.poly)
    else:
        obj = _load(args.from_graph)
        vg = _voltage_of(obj)
        f = laplacian_determinant_polynomial(vg)
        if f.is_zero():
            raise ValueError("Delta_0 is zero; Mahler measure undefined")
    result = mahler(f, args.fibers)
    if args.json:
        print(
            json.dumps(
                {
                    "poly": format_poly(f),
                    "value": result.value,
                    "method": result.method,
                    "error_estimate": result.error_estimate,
                    "samples": result.samples,
                }
            )
        )
    else:
        print(f"m({format_poly(f)}) = {result.value:.10g}")
        print(f"method {result.method}, error estimate {result.error_estimate:.3g}")
    return 0


def cmd_verify(args) -> int:
    obj = _load(args.file)
    results = run_verify(obj, max_cover=args.max, fibers=args.fibers)
    if args.json:
        print(
            json.dumps(
                {
                    "checks": [
                        {"name": r.name, "status": r.status, "detail": r.detail}
                        for r in results
                    ],
                    "ok": verify_ok(results),
                }
            )
        )
    else:
        print(format_report(results))
    return 0 if verify_ok(results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lapgraph", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, file_arg=True):
        if file_arg:
            sp.add_argument("file", help="graph file (lapgraph v1)")
        sp.add_argument("--json", action="store_true", help="emit JSON")

    sp = sub.add_parser("delta", help="Laplacian polynomial Delta_k")
    add_common(sp)
    sp.add_argument("--field", default="z", help="coefficient domain: q, z, or gf:P")
    sp.add_argument("--k", type=int, default=0)
    sp.set_defaults(func=cmd_delta)

    sp = sub.add_parser("bicycle", help="bicycle space dimension and basis")
    add_common(sp)
    sp.add_argument("--field", default="gf:2", help="field: q or gf:P")
    sp.set_defaults(func=cmd_bicycle)

    sp = sub.add_parser("medial", help="medial components, residues, windings")
    add_common(sp)
    sp.add_argument("--base-component", type=int, default=0)
    sp.set_defaults(func=cmd_medial)

    sp = sub.add_parser("trees", help="spanning-tree complexity, optionally of a cover")
    add_common(sp)
    sp.add_argument("--cover", default=None, help="n (cyclic / n x n) or a,b,c,d (2x2)")
    sp.set_defaults(func=cmd_trees)

    sp = sub.add_parser("growth", help="tree growth over covers or restrictions")
    add_common(sp)
    sp.add_argument("--mode", choices=("covers", "restrictions"), default="covers")
    sp.add_argument("--max", type=int, default=64)
    sp.add_argument("--fibers", type=int, default=512)
    sp.set_defaults(func=cmd_growth)

    sp = sub.add_parser("crsf", help="essential CRSF coefficients and reconstruction")
    add_common(sp)
    sp.set_defaults(func=cmd_crsf)

    sp = sub.add_parser("kappa", help="annular connectivity")
    add_common(sp)
    sp.set_defaults(func=cmd_kappa)

    sp = sub.add_parser("mahler", help="logarithmic Mahler measure")
    add_common(sp, file_arg=False)
    sp.add_argument("--poly", default=None, help='polynomial text, e.g. "4-x-x^-1-y-y^-1"')
    sp.add_argument("--from-graph", default=None, help="compute Delta_0 of this file first")
    sp.add_argument("--fibers", type=int, default=1024)
    sp.set_defaults(func=cmd_mahler)

    sp = sub.add_parser("verify", help="replay the cross-check identities")
    add_common(sp)
    sp.add_argument("--max", type=int, default=64, help="largest cover in the growth check")
    sp.add_argument("--fibers", type=int, default=512)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
