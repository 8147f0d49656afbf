"""A complete tour of one periodic graph: the infinite ladder.

The quotient has two vertices joined by a rung, with one loop of voltage 1 on
each vertex (the rails).  We compute its Laplacian polynomial, check the
structural identities, count spanning trees of finite covers, and watch the
normalized growth converge to the Mahler measure.

Run:  python demos/ladder_walkthrough.py
"""

import math
from pathlib import Path

from lapgraph import (
    GF2, QQ, ZZ,
    SublatticeSpec,
    cover_graph,
    elementary_divisor,
    format_poly,
    mahler_1var,
    normalize,
    parse_graph_file,
    tree_count,
    voltage_laplacian,
)
from lapgraph.planar import medial_components_voltage, noncompact_count
from lapgraph.spanning import annular_connectivity, crsf_coefficients

pg = parse_graph_file((Path(__file__).resolve().parent.parent / "graphs" / "ladder.lapgraph").read_text())
vg = pg.graph
print("quotient:", len(vg.base.vertices), "vertices,", len(vg.base.edges), "edges")

# 1. The voltage Laplacian L(x) = D - A(x)
L = voltage_laplacian(vg)
for row in L:
    print("  [", "  ".join(f"{format_poly(e):>16s}" for e in row), "]")

# 2. Delta_0 = det L(x), normalized; it factors as (x-1)^2 (x^2 - 4x + 1)
d0 = elementary_divisor(L, 0, ZZ)
print("\nDelta_0 =", format_poly(d0))
print("reciprocal:", normalize(d0, QQ) == normalize(d0.reciprocal(), QQ))

# 3. Over GF(2) the degree equals the number of noncompact medial strands
d0_gf2 = elementary_divisor(L, 0, GF2)
strands = medial_components_voltage(pg)
print("deg over GF(2):", d0_gf2.degree_span()[0], "| noncompact strands:", noncompact_count(strands))

# 4. Over Q the degree is twice the annular connectivity
print("deg over Q:", elementary_divisor(L, 0, QQ).degree_span()[0],
      "| 2 kappa =", 2 * annular_connectivity(vg))

# 5. Forman/Kenyon: counting essential cycle-rooted spanning forests
rep = crsf_coefficients(vg)
print("CRSF counts:", rep.coefficients, "-> reconstruction matches Delta_0:",
      normalize(rep.reconstruction, ZZ) == d0)

# 6. Spanning trees of the n-fold covers (circular ladders) and the growth rate
m = mahler_1var(d0).value
print(f"\nm(Delta_0) = {m:.6f} = log(2 + sqrt 3) = {math.log(2 + math.sqrt(3)):.6f}")
print(f"{'n':>4s} {'tau(CL_n)':>22s} {'(1/n) log tau':>14s} {'gap':>8s}")
for n in (3, 6, 12, 24, 48):
    cov = cover_graph(vg, SublatticeSpec.cyclic(n))
    tau = tree_count(cov)
    lg = math.log(tau) / n
    print(f"{n:4d} {tau:22d} {lg:14.6f} {abs(lg - m):8.4f}")
print("(the gap decays like log(n/2)/n)")
