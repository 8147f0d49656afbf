"""Tree growth of covers and restrictions against the Mahler measure.

Three experiments:
  1. ladder covers: (1/n) log T -> m(Delta_0) = log(2 + sqrt 3)
  2. circulant C_n^{1,2}: (1/n) log tau -> log((3 + sqrt 5)/2)
  3. grid restrictions: per-vertex growth -> m(4 - x - 1/x - y - 1/y) ~ 1.1662

Run:  python demos/mahler_vs_tree_growth.py
"""

from pathlib import Path

from lapgraph import parse_graph_file
from lapgraph.spanning import growth_covers, growth_restrictions

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def example(name):
    return parse_graph_file((GRAPHS / f"{name}.lapgraph").read_text())


def show(title, report, label="r"):
    print(f"\n{title}  (reference m = {report.reference:.6f})")
    print(f"{label:>6s} {'T':>26s} {'normalized log':>15s} {'gap':>8s}")
    for r, t, lg in report.rows:
        ts = str(t) if len(str(t)) <= 26 else str(t)[:23] + "..."
        print(f"{r:6d} {ts:>26s} {lg:15.6f} {abs(lg - report.reference):8.4f}")


show("ladder covers (circular ladders)",
     growth_covers(example("ladder").graph, [4, 8, 16, 32, 64]))

show("circulant C_n^{1,2} covers",
     growth_covers(example("circulant12"), [4, 8, 16, 32, 64]))

show("ladder restrictions (open ladders), per vertex",
     growth_restrictions(example("ladder").graph, [4, 8, 16, 32, 64]), label="s")

show("grid restrictions (n x n patches), per vertex",
     growth_restrictions(example("grid"), [2, 4, 6, 8, 10, 12]), label="s")

print("""
Covers converge like log(r)/r; restrictions feel their boundary, so the grid
patch converges only like 1/n. Both limits are the same Mahler measure (per
vertex-orbit for restrictions).""")
