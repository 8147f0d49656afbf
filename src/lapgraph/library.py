"""The ladder quotient as code, kept for the benchmark tests.

Every example graph, this one included, is defined by its file in
``graphs/``; this builder equals ``graphs/ladder.lapgraph`` without its
rotation lines.  Its one caller is ``bench/test_bench.py``.
"""

from __future__ import annotations

from .graphs import VoltageGraph


def ladder_quotient() -> VoltageGraph:
    """Two rails and a rung: quotient of the infinite ladder.

    Laplacian: [[3 - x - 1/x, -1], [-1, 3 - x - 1/x]].
    """
    return VoltageGraph.build(
        ["v1", "v2"],
        [
            ("r", "v1", "v2", (0,)),
            ("a", "v1", "v1", (1,)),
            ("b", "v2", "v2", (1,)),
        ],
        rank=1,
    )
