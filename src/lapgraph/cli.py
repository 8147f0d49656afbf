"""Command-line front end.

Subcommands: delta, bicycle, medial, trees, growth, crsf, kappa, mahler,
verify.  Every subcommand reads the lapgraph v1 file format and offers a
--json twin of its table output; all outputs are deterministic for a given
input.  A command reads what it needs through the graph layer: ``obj.base``
is the finite graph under every input kind, ``obj.quotient`` its voltage
quotient (None for a finite graph), :func:`medial_components` traces either
kind of plane graph, and ``delta`` reads a finite graph as its zero-voltage
rank-1 quotient (the trivial action).  Bad input or usage, and input too
large for the memory at hand, exits 2; a failed check (verify's FAIL,
crsf's MISMATCH) exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .colorings import bicycle_basis
from .fields import ZZ, domain_from_spec, parse_int
from .graphio import parse_graph_file
from .graphs import SublatticeSpec, VoltageGraph, voltage_laplacian
from .laurent import format_poly, normalize, parse_poly
from .linalg import det_laurent, elementary_divisor
from .mahler import mahler
from .planar import PlaneGraph, medial_components, shank_basis
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
    return parse_graph_file(Path(path).read_text(encoding="utf-8"))


def _voltage_of(obj) -> VoltageGraph:
    if obj.quotient is None:
        raise ValueError("this command needs a voltage graph (d >= 1)")
    return obj.quotient


def cmd_delta(obj, args) -> tuple[int, dict, str]:
    dom = domain_from_spec(args.field)
    # a finite graph carries the trivial action: its zero-voltage rank-1 quotient
    vg = obj.quotient or VoltageGraph(obj.base, 1, ((0,),) * len(obj.base.edges))
    text = format_poly(elementary_divisor(voltage_laplacian(vg), args.k, dom))
    payload = {"k": args.k, "field": args.field, "delta": text}
    return 0, payload, f"Delta_{args.k} over {args.field}: {text}"


def cmd_bicycle(obj, args) -> tuple[int, dict, str]:
    base = obj.base
    fld = domain_from_spec(args.field)
    if not fld.is_field:
        raise ValueError("bicycle needs a field (q or gf:P)")
    basis = [[str(v) for v in vec] for vec in bicycle_basis(base, fld)]
    payload = {
        "field": args.field,
        "dimension": len(basis),
        "basis": basis,
        "edges": [e.name for e in base.edges],
    }
    lines = [f"bicycle dimension over {args.field}: {len(basis)}"]
    lines += ["  " + " ".join(vec) for vec in basis]
    return 0, payload, "\n".join(lines)


def cmd_medial(obj, args) -> tuple[int, dict, str]:
    if not isinstance(obj, PlaneGraph):
        raise ValueError("medial needs rotation lines in the graph file")
    if obj.quotient is not None and args.base_component is not None:
        raise ValueError("--base-component needs a finite plane graph: a voltage quotient has no Shank basis")
    comps = medial_components(obj)
    payload = {"components": []}
    lines = []
    for i, c in enumerate(comps):
        payload["components"].append(
            dict(crossings=list(c.crossings), residue=list(c.residue), winding=c.winding)
        )
        wind = "" if c.winding is None else f" winding {c.winding}"
        lines.append(f"component {i}: crossings {' '.join(c.crossings) or '(empty)'}{wind}")
        lines.append(f"  residue: {' '.join(c.residue) if c.residue else '(empty)'}")
    if obj.quotient is None:
        base = args.base_component or 0
        try:
            basis = shank_basis(obj, base)
        except AssertionError as exc:
            raise ValueError(
                f"{exc} (the Shank basis needs a planar rotation system)"
            ) from None
        payload["shank_basis"] = basis
        payload["base_component"] = base
        lines.append(f"shank basis (base component {base}):")
        lines += ["  " + " ".join(str(v) for v in vec) for vec in basis]
    return 0, payload, "\n".join(lines)


def _parse_cover(spec: str, rank: int) -> SublatticeSpec:
    parts = spec.split(",")
    if len(parts) == 1:
        return SublatticeSpec.scaled(parse_int(spec), rank)
    if len(parts) == 4:
        a, b, c, d = map(parse_int, parts)
        return SublatticeSpec.lattice2(((a, b), (c, d)))
    raise ValueError("--cover needs n or a,b,c,d (2x2 row-major)")


def cmd_trees(obj, args) -> tuple[int, dict, str]:
    if args.cover is None:
        t = str(complexity(obj.base))
        return 0, {"complexity": t}, f"complexity T = {t}"
    vg = _voltage_of(obj)
    lam = _parse_cover(args.cover, vg.rank)
    t = str(cover_complexity(vg, lam))
    # every base vertex and edge has one lift per sheet
    vertices, edges = len(vg.base.vertices) * lam.index, len(vg.base.edges) * lam.index
    payload = {"index": lam.index, "vertices": vertices, "edges": edges, "complexity": t}
    text = f"cover index {lam.index}: {vertices} vertices, {edges} edges\n"
    return 0, payload, text + f"complexity T = {t}"


def _schedule(rank: int, mode: str, max_n: int) -> list[int]:
    if max_n < 2:
        raise ValueError(f"--max must be at least 2, got {max_n}")
    if rank == 1:
        return [2**k for k in range(1, max_n.bit_length())]  # the powers of 2 up to max_n
    if mode == "covers":
        return [n for n in (2, 3, 4, 5, 6, 8) if n <= max_n]
    return [n for n in (2, 3, 4, 6, 8, 10, 12) if n <= max_n]


def cmd_growth(obj, args) -> tuple[int, dict, str]:
    vg = _voltage_of(obj)
    schedule = _schedule(vg.rank, args.mode, args.max)
    if args.mode == "covers":
        report = growth_covers(vg, schedule, fibers=args.fibers)
    else:
        report = growth_restrictions(vg, schedule, fibers=args.fibers)
    rows = [(r, str(t), lg) for r, t, lg in report.rows]
    payload = {
        "mode": report.mode,
        "reference": report.reference,
        "rows": [{"scale": r, "complexity": t, "normalized_log": lg} for r, t, lg in rows],
    }
    label = "r" if args.mode == "covers" else "s"
    lines = [f"{label:>6s} {'T':>24s} {'(1/' + label + ') log T':>14s}"]
    for r, t, lg in rows:
        lines.append(f"{r:6d} {t if len(t) <= 24 else t[:21] + '...':>24s} {lg:14.6f}")
    lines.append(f"reference m = {report.reference:.6f}")
    return 0, payload, "\n".join(lines)


def cmd_crsf(obj, args) -> tuple[int, dict, str]:
    vg = _voltage_of(obj)
    rep = crsf_coefficients(vg)
    det = det_laurent(voltage_laplacian(vg))
    d0 = format_poly(normalize(det, ZZ))
    matches = rep.matches(det)
    payload = {
        "coefficients": {str(k): v for k, v in rep.coefficients.items()},
        "reconstruction": format_poly(rep.reconstruction),
        "delta0": d0,
        "matches_delta0": matches,
    }
    lines = [f"C_{k} = {c}" for k, c in rep.coefficients.items()]
    lines.append(f"sum C_k (2 - x - x^-1)^k = {payload['reconstruction']}")
    status = "match" if matches else "MISMATCH"
    if rep.max_winding > 1:
        status += f"; windings up to {rep.max_winding}: product form only"
    lines.append(f"Delta_0 = {d0}  ({status})")
    return (0 if matches else 1), payload, "\n".join(lines)


def cmd_kappa(obj, args) -> tuple[int, dict, str]:
    k = annular_connectivity(_voltage_of(obj))
    return 0, {"kappa": k}, f"kappa = {k}"


def cmd_mahler(obj, args) -> tuple[int, dict, str]:
    """obj is None: mahler has no file argument, and it loads --from-graph here."""
    if (args.poly is None) == (args.from_graph is None):
        raise ValueError("give exactly one of --poly or --from-graph")
    if args.poly is not None:
        f = parse_poly(args.poly)
    else:
        f = laplacian_determinant_polynomial(_voltage_of(_load(args.from_graph)))
        if f.is_zero():
            raise ValueError("Delta_0 is zero; Mahler measure undefined")
    result = mahler(f, args.fibers)
    payload = {
        "poly": format_poly(f),
        "value": result.value,
        "method": result.method,
        "error_estimate": result.error_estimate,
        "samples": result.samples,
    }
    text = (
        f"m({payload['poly']}) = {result.value:.10g}\n"
        f"method {result.method}, error estimate {result.error_estimate:.3g}"
    )
    return 0, payload, text


def cmd_verify(obj, args) -> tuple[int, dict, str]:
    results = run_verify(obj, max_cover=args.max, fibers=args.fibers)
    ok = verify_ok(results)
    checks = [{"name": r.name, "status": r.status, "detail": r.detail} for r in results]
    payload = {"checks": checks, "ok": ok}
    return (0 if ok else 1), payload, format_report(results)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lapgraph", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, help, file_arg=True):
        sp = sub.add_parser(name, help=help)
        sp.register("type", int, parse_int)  # type=int options read integers as graph files do
        if file_arg:
            sp.add_argument("file", help="graph file (lapgraph v1)")
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.set_defaults(func=func)
        return sp

    sp = add("delta", cmd_delta, "Laplacian polynomial Delta_k")
    sp.add_argument("--field", default="z", help="coefficient domain: q, z, or gf:P")
    sp.add_argument("--k", type=int, default=0)

    sp = add("bicycle", cmd_bicycle, "bicycle space dimension and basis")
    sp.add_argument("--field", default="gf:2", help="field: q or gf:P")

    sp = add("medial", cmd_medial, "medial components, residues, windings")
    sp.add_argument("--base-component", type=int, help="finite plane graphs only (default 0)")

    sp = add("trees", cmd_trees, "spanning-tree complexity, optionally of a cover")
    sp.add_argument("--cover", default=None, help="n (cyclic / n x n) or a,b,c,d (2x2)")

    sp = add("growth", cmd_growth, "tree growth over covers or restrictions")
    sp.add_argument("--mode", choices=("covers", "restrictions"), default="covers")
    sp.add_argument(
        "--max", type=int, default=64, help="largest n: at rank 1 the index or strip length, at rank 2 the side of n x n"
    )
    sp.add_argument("--fibers", type=int, default=512)

    add("crsf", cmd_crsf, "essential CRSF coefficients and reconstruction")
    add("kappa", cmd_kappa, "annular connectivity")

    sp = add("mahler", cmd_mahler, "logarithmic Mahler measure", file_arg=False)
    sp.add_argument("--poly", default=None, help='polynomial text, e.g. "4-x-x^-1-y-y^-1"')
    sp.add_argument("--from-graph", default=None, help="compute Delta_0 of this file first")
    sp.add_argument("--fibers", type=int, default=1024)

    sp = add("verify", cmd_verify, "replay the cross-check identities")
    sp.add_argument("--max", type=int, default=64, help="largest cover index in the growth check: n^2 for n x n")
    sp.add_argument("--fibers", type=int, default=512)

    # one line: Python 3.13's argparse wraps the generated usage differently
    p.usage = f"%(prog)s [-h] {{{','.join(sub.choices)}}} ..."
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: read its graph file, print text or JSON, return the exit code.

    Integers of any size are read and printed while it runs: Python's limit on
    decimal conversion (4300 digits by default) is lifted and then restored.
    """
    args = build_parser().parse_args(argv)
    has_limit = hasattr(sys, "set_int_max_str_digits")  # Python without the limit
    if has_limit:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code, payload, text = args.func(_load(args.file) if "file" in args else None, args)
        print(json.dumps(payload) if args.json else text)
        return code
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # input too large for this machine, not a failed check
        print("error: out of memory (MemoryError)", file=sys.stderr)
        return 2
    finally:
        if has_limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
