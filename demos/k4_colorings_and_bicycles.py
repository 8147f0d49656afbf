"""Colorings of the plane K4: kernel of the Laplacian, bicycles, medial residues.

Over GF(2) the complete graph on four vertices has a 2-dimensional bicycle
space; the medial graph has three strands, and the residues of any two of them
form a basis.  Over the rationals everything collapses (det of the reduced
Laplacian is 16).

Run:  python demos/k4_colorings_and_bicycles.py
"""

from pathlib import Path

from lapgraph import GF2, QQ, PrimeField, parse_graph_file
from lapgraph.colorings import (
    based_vertex_basis,
    bicycle_basis,
    conservative_vertex_basis,
    edge_from_vertex,
    is_conservative_edge,
)
from lapgraph.planar import dehn_extend, dehn_restrict, faces, medial_components, residue_vector, shank_basis
from lapgraph.spanning import tree_count

pg = parse_graph_file((Path(__file__).resolve().parent.parent / "graphs" / "k4.lapgraph").read_text())
k4 = pg.graph
print("tau(K4) =", tree_count(k4))

print("\nkernel dimensions: GF(2):", len(conservative_vertex_basis(k4, GF2)),
      "  Q:", len(conservative_vertex_basis(k4, QQ)))

print("based colorings at v1 over GF(2):")
for v in based_vertex_basis(k4, GF2, "v1"):
    print("  ", v, "->", edge_from_vertex(k4, v, GF2))

print("\nbicycle basis over GF(2):")
for b in bicycle_basis(k4, GF2):
    print("  ", b, is_conservative_edge(k4, b, GF2))
print("bicycle space over Q:", bicycle_basis(k4, QQ))

print("\nfaces:", len(faces(pg)))
comps = medial_components(pg)
print("medial strands:", len(comps))
for i, c in enumerate(comps):
    print(f"  strand {i}: crosses {' '.join(c.crossings)}  residue {residue_vector(k4, c)}")
print("Shank basis (dropping strand 2):", shank_basis(pg, 2))

# A Dehn coloring pairs vertex and face colors; restriction inverts extension.
dc = dehn_extend(pg, [0, 1, 1, 0], 0, GF2)
print("\nDehn coloring of (0,1,1,0): faces", dc.face_colors)
print("roundtrip:", dehn_restrict(dc) == [0, 1, 1, 0])

GF5 = PrimeField(5)
print("over GF(5) the kernel is constants only:", len(conservative_vertex_basis(k4, GF5)) == 1)
