"""Algebraic invariants of finite and periodic graphs.

Laplacian polynomials of voltage graphs, coloring and bicycle spaces, medial
components of plane graphs, spanning-tree complexity of finite covers, and
the logarithmic Mahler measure tying them together.
"""

from .fields import GF2, QQ, ZZ, IntegerRing, PrimeField, RationalField, domain_from_spec
from .graphio import GraphParseError, format_graph_file, parse_graph_file
from .graphs import (
    Edge,
    FiniteGraph,
    RectangleSpec,
    SublatticeSpec,
    VoltageGraph,
    connected_components,
    cover_graph,
    incidence_matrix,
    laplacian_finite,
    restriction_subgraph,
    voltage_laplacian,
)
from .laurent import LaurentPoly, format_poly, laurent_gcd, normalize, parse_poly
from .linalg import det_laurent, elementary_divisor, int_det, nullspace
from .mahler import MahlerResult, mahler, mahler_1var, mahler_2var, mahler_limit_check, mahler_value
from .planar import (
    DehnColoring,
    Face,
    MedialComponent,
    PlaneGraph,
    dehn_extend,
    dehn_restrict,
    faces,
    medial_components,
    medial_components_voltage,
    shank_basis,
)
from .colorings import (
    based_vertex_basis,
    bicycle_basis,
    bicycle_basis_meet,
    conservative_vertex_basis,
    edge_from_vertex,
    is_conservative_edge,
)
from .spanning import (
    CrsfReport,
    GrowthReport,
    annular_connectivity,
    complexity,
    cover_complexity,
    crsf_coefficients,
    grimmett_bound,
    growth_covers,
    growth_restrictions,
    split_at_annular_cut,
    tree_count,
)
from .verify import CheckResult, run_verify, verify_ok

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
