"""Essential cycle-rooted spanning forests and annular connectivity.

The determinant of L(x) expands over CRSFs whose cycles all wind around the
annulus; the degree of Delta_0 is twice the minimal number of vertices whose
removal kills every winding cycle.  When that number is 1, the quotient splits
at its cut vertex into a finite graph H with Delta_0 = tau(H) (x - 1)^2.

Run:  python demos/crsf_and_connectivity.py
"""

from pathlib import Path

from lapgraph import QQ, ZZ, VoltageGraph, elementary_divisor, format_poly, normalize, voltage_laplacian
from lapgraph.graphio import parse_graph_file
from lapgraph.spanning import (
    annular_connectivity,
    crsf_coefficients,
    minimum_annular_cut,
    split_at_annular_cut,
    tree_count,
)

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def example(name):
    return parse_graph_file((GRAPHS / f"{name}.lapgraph").read_text())


for name, vg in (("ladder", example("ladder").graph), ("girder", example("girder").graph)):
    rep = crsf_coefficients(vg)
    d0 = elementary_divisor(voltage_laplacian(vg), 0, ZZ)
    print(f"{name}: C_k = {rep.coefficients}")
    print(f"  sum C_k (2 - x - 1/x)^k = {format_poly(rep.reconstruction)}")
    print(f"  matches Delta_0: {normalize(rep.reconstruction, ZZ) == d0}")
    kappa = annular_connectivity(vg)
    deg = elementary_divisor(voltage_laplacian(vg), 0, QQ).degree_span()[0]
    print(f"  annular cut {minimum_annular_cut(vg)} -> kappa = {kappa}, deg Delta_0 = {deg} = 2 kappa\n")

# kappa = 1: split the quotient at its cut vertex
print("kappa = 1 quotients split into a finite graph H with Delta_0 = tau(H)(x-1)^2:")
cases = [
    ("single loop", example("single_loop").graph),
    ("loop + doubled pendant", VoltageGraph.build(
        ["v", "u"],
        [("l", "v", "v", (1,)), ("p1", "v", "u", (0,)), ("p2", "v", "u", (0,))],
        rank=1)),
    ("loop + hanging triangle", VoltageGraph.build(
        ["v", "u", "w"],
        [("l", "v", "v", (1,)), ("e1", "v", "u", (0,)),
         ("e2", "u", "w", (0,)), ("e3", "w", "v", (0,))],
        rank=1)),
]
for name, vg in cases:
    H = split_at_annular_cut(vg)
    tau = tree_count(H)
    d0 = elementary_divisor(voltage_laplacian(vg), 0, ZZ)
    print(f"  {name}: tau(H) = {tau}, Delta_0 = {format_poly(d0)}")
