"""Quotients on the torus: the square grid and the Mitsubishi graph.

Two-variable Laplacian polynomials, mod-2 vanishing, fiberwise Mahler
measures, and the one-variable substitution y = x^s closing in on the
two-variable value.

Run:  python demos/two_variable_quotients.py
"""

from pathlib import Path

from lapgraph import GF2, ZZ, elementary_divisor, format_poly, parse_graph_file, voltage_laplacian
from lapgraph.mahler import mahler_2var, mahler_limit_check
from lapgraph.spanning import growth_covers

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def example(name):
    return parse_graph_file((GRAPHS / f"{name}.lapgraph").read_text())


for name, vg in (("grid", example("grid")), ("mitsubishi", example("mitsubishi"))):
    L = voltage_laplacian(vg)
    d0 = elementary_divisor(L, 0, ZZ)
    d0_gf2 = elementary_divisor(L, 0, GF2)
    print(f"{name}: Delta_0 = {format_poly(d0)}")
    print(f"  over GF(2): {'0  (closed medial strands)' if d0_gf2.is_zero() else format_poly(d0_gf2)}")
    m = mahler_2var(d0, fibers=1024)
    print(f"  m(Delta_0) = {m.value:.6f}  (error estimate {m.error_estimate:.1e})")
    growth = growth_covers(vg, [2, 3, 4, 5], fibers=512)
    r, t, lg = growth.rows[-1]
    print(f"  cover growth at {r} sheets: (1/r) log T = {lg:.4f}, gap {abs(lg - growth.reference):.4f}")

print("\nBoyd-style substitution y = x^s for the grid polynomial:")
from lapgraph.laurent import parse_poly

grid_poly = parse_poly("4 - x - x^-1 - y - y^-1")
for s in (1, 5, 25):
    one, two = mahler_limit_check(grid_poly, s, fibers=512)
    print(f"  s = {s:2d}: m(f(x, x^s)) = {one.value:.6f}   m(f(x, y)) = {two.value:.6f}")
