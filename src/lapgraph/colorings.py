"""Conservative vertex and edge colorings, cut/cycle/bicycle spaces.

Colorings are plain lists of field elements indexed like the graph's vertex
or edge list.  Basis-returning functions give a list of such vectors in a
deterministic reduced-echelon form.
"""

from __future__ import annotations

from .fields import Domain
from .graphs import (
    FiniteGraph,
    bfs_potentials,
    connected_components,
    incidence_matrix,
    laplacian_finite,
)
from .linalg import nullspace, row_space_canonical, sparse_rows

YES = "yes"
FAILS_CYCLE = "fails-cycle"
FAILS_KIRCHHOFF = "fails-kirchhoff"


def check_length(coloring: list, n: int, kind: str) -> None:
    if len(coloring) != n:
        raise ValueError(f"{kind} coloring needs {n} entries, one per {kind}, got {len(coloring)}")


def conservative_vertex_basis(g: FiniteGraph, fld: Domain) -> list[list]:
    """Basis of the conservative vertex colorings: the kernel of the Laplacian."""
    return nullspace(laplacian_finite(g), len(g.vertices), fld)


def based_vertex_basis(g: FiniteGraph, fld: Domain, base_vertex: str) -> list[list]:
    """Basis of the conservative colorings that vanish at the base vertex.

    Requires a connected graph, where this subspace represents colorings up to
    an additive constant, and a base vertex of it, else ValueError.
    """
    if base_vertex not in g._vindex:
        raise ValueError(f"base vertex {base_vertex!r} is not a vertex of the graph")
    if len(connected_components(g)) != 1:
        raise ValueError("based colorings need a connected graph")
    base_row = {g.vertex_index(base_vertex): 1}
    return nullspace(laplacian_finite(g) + [base_row], len(g.vertices), fld)


def edge_from_vertex(g: FiniteGraph, alpha: list, fld: Domain) -> list:
    """The cut-space edge coloring Q^T alpha: each edge gets head minus tail
    color.  alpha needs one entry per vertex, else ValueError."""
    check_length(alpha, len(g.vertices), "vertex")
    alpha = [fld.of(a) for a in alpha]
    return [fld.of(alpha[h] - alpha[t]) for t, h in g._ends]


def is_conservative_edge(g: FiniteGraph, beta: list, fld: Domain) -> str:
    """Classify an edge coloring: conservative, or which condition fails.

    The cycle condition, reported first, is checked on a fundamental cycle
    basis from a spanning forest (sufficient by linearity): each edge's value
    less its ends' potential difference along the forest must vanish, as a
    forest edge's does.  The Kirchhoff condition is Q beta = 0.  beta needs
    one entry per edge, else ValueError.
    """
    check_length(beta, len(g.edges), "edge")
    beta = [fld.of(b) for b in beta]
    pot, _, _ = bfs_potentials(range(len(g.vertices)), g._ends, beta, fld)
    if any(fld.of(b + pot[t] - pot[h]) for (t, h), b in zip(g._ends, beta)):
        return FAILS_CYCLE
    for row in incidence_matrix(g):
        if fld.of(sum(q * beta[j] for j, q in row.items())):
            return FAILS_KIRCHHOFF
    return YES


def bicycle_basis(g: FiniteGraph, fld: Domain) -> list[list]:
    """Basis of the bicycle space, the cut space intersected with the cycle space.

    Computed as the image under Q^T of the Laplacian kernel (the conservative
    vertex colorings).  Returns the canonical echelon basis;
    :func:`bicycle_basis_meet` computes the same space independently.
    """
    kerL = conservative_vertex_basis(g, fld)
    return row_space_canonical([edge_from_vertex(g, v, fld) for v in kerL], fld)


def bicycle_basis_meet(g: FiniteGraph, fld: Domain) -> list[list]:
    """The bicycle space as the row space of Q meet the kernel of Q.

    Over every field row(Q) is the orthogonal complement of ker Q, so the
    meet is one kernel: that of Q stacked on a basis of ker Q.  It never
    touches L, so it stays an independent computation of
    :func:`bicycle_basis`, kept as its oracle; returns the same canonical
    echelon basis.
    """
    Q, m = incidence_matrix(g), len(g.edges)
    return row_space_canonical(nullspace(Q + sparse_rows(nullspace(Q, m, fld)), m, fld), fld)
