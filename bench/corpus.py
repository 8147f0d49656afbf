"""Seeded random inputs for the verify-corpus workload.

These generators follow the ones in ``tests/conftest.py`` but live here so
that the benchmark's inputs for a seed stay fixed when the test helpers
change.  Plane graphs and annulus quotients are grid patches mutated only in
ways that keep the rotation system planar: edge deletion, parallel edges
next to the original, contractible loops, edge reversal and dropping
isolated vertices.
"""

from __future__ import annotations

import random

from lapgraph.graphs import Edge, FiniteGraph, VoltageGraph, connected_components
from lapgraph.planar import PlaneGraph


def random_voltage_graph(
    rng: random.Random, rank: int, max_vertices: int, max_edges: int
) -> VoltageGraph:
    """A connected random multigraph (loops allowed) with voltages in [-2, 2]."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for j in range(rng.randint(0, max_edges)):
        tail = rng.choice(vertices)
        head = tail if rng.random() < 0.15 else rng.choice(vertices)
        edges.append((f"e{j}", tail, head))
    comps = connected_components(FiniteGraph.build(vertices, edges))
    edges += [(f"j{i}", comps[0][0], comps[i][0]) for i in range(1, len(comps))]
    g = FiniteGraph.build(vertices, edges)
    volts = tuple(tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in g.edges)
    return VoltageGraph(g, rank, volts)


def _grid_plane(rows: int, cols: int, wrap: bool):
    """Rows x cols grid; wrap=True closes the angular direction with voltage 1."""
    vertices = [f"w{i}_{j}" for i in range(rows) for j in range(cols)]
    edges = []  # (name, tail, head, voltage)
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((f"a{i}_{j}", f"w{i}_{j}", f"w{i}_{j + 1}", 0))
            elif wrap:
                edges.append((f"a{i}_{j}", f"w{i}_{j}", f"w{i}_0", 1))
            if i + 1 < rows:
                edges.append((f"r{i}_{j}", f"w{i}_{j}", f"w{i + 1}_{j}", 0))
    names = {e[0] for e in edges}
    rot = {}
    for i in range(rows):
        for j in range(cols):
            darts = []
            if f"a{i}_{j}" in names:
                darts.append((f"a{i}_{j}", "t"))  # east
            if f"r{i}_{j}" in names:
                darts.append((f"r{i}_{j}", "t"))  # north
            west = f"a{i}_{(j - 1) % cols}" if (wrap or j > 0) else None
            if west in names:
                darts.append((west, "h"))
            if i > 0 and f"r{i - 1}_{j}" in names:
                darts.append((f"r{i - 1}_{j}", "h"))
            rot[f"w{i}_{j}"] = darts
    return vertices, edges, rot


def _mutate_plane(rng: random.Random, vertices, edges, rot, target_edges: int):
    edges = list(edges)
    rot = {v: list(d) for v, d in rot.items()}

    def delete_edge(name):
        nonlocal edges
        edges = [e for e in edges if e[0] != name]
        for v in rot:
            rot[v] = [d for d in rot[v] if d[0] != name]

    names = [e[0] for e in edges]
    rng.shuffle(names)
    while len(edges) > target_edges:
        delete_edge(names.pop())
    for name in list(names):
        if edges and rng.random() < 0.2:
            delete_edge(name)

    for k in range(rng.randint(0, 2)):  # parallel edges nested next to the original
        if not edges:
            break
        name, tail, head, volt = rng.choice(edges)
        dup = f"{name}d{k}"
        edges.append((dup, tail, head, volt))
        rot[tail].insert(rot[tail].index((name, "t")) + 1, (dup, "t"))
        rot[head].insert(rot[head].index((name, "h")), (dup, "h"))

    for k in range(rng.randint(0, 2)):  # contractible loops
        v = rng.choice([v for v in vertices if rot[v]] or list(vertices))
        pos = rng.randrange(len(rot[v]) + 1)
        rot[v][pos:pos] = [(f"l{k}_{v}", "t"), (f"l{k}_{v}", "h")]
        edges.append((f"l{k}_{v}", v, v, 0))

    for i, (name, tail, head, volt) in enumerate(edges):  # reversals
        if rng.random() < 0.3:
            edges[i] = (name, head, tail, -volt)
            for v in rot:
                rot[v] = [
                    (n, {"t": "h", "h": "t"}[end]) if n == name else (n, end)
                    for n, end in rot[v]
                ]

    kept = [v for v in vertices if rot[v] or rng.random() < 0.5]
    used = {e[1] for e in edges} | {e[2] for e in edges}
    kept = [v for v in vertices if v in used or v in kept] or [vertices[0]]
    edges = [e for e in edges if e[1] in kept and e[2] in kept]
    return kept, edges, {v: tuple(rot[v]) for v in kept}


def _mutated_patch(rng: random.Random, max_cols: int, wrap: bool, max_edges: int):
    """A connected mutated grid patch with at least one edge."""
    while True:
        rows, cols = rng.randint(1, 3), rng.randint(1, max_cols)
        vertices, edges, rot = _mutate_plane(rng, *_grid_plane(rows, cols, wrap), max_edges)
        if not edges:
            continue
        g = FiniteGraph.build(vertices, [(n, t, h) for n, t, h, _ in edges])
        if len(connected_components(g)) == 1:
            return g, edges, rot


def random_plane_graph(rng: random.Random, max_edges: int) -> PlaneGraph:
    """A connected finite plane multigraph with a valid rotation system."""
    g, _, rot = _mutated_patch(rng, 3, False, max_edges)
    return PlaneGraph(g, rot)


def random_annulus_quotient(rng: random.Random, max_edges: int) -> PlaneGraph:
    """A connected rank-1 quotient embedded in the annulus."""
    g, edges, rot = _mutated_patch(rng, 2, True, max_edges)
    return PlaneGraph(VoltageGraph(g, 1, tuple((v,) for *_, v in edges)), rot)


_OTHER_END = {"t": "h", "h": "t"}


def relabel(obj, rng: random.Random):
    """An isomorphic copy of a finite, voltage or plane graph.

    Edge order is shuffled, each edge is reversed with probability 1/2
    (negating its voltage) and each rotation starts at a random dart.  Every
    invariant lapgraph computes is unchanged, so outputs can be pinned for
    all seeds while the inputs still differ.  Vertex order is kept: it orders
    the Laplacian's rows, and the cost of elementary_divisor depends on that
    order (one rank-2 quotient ran 2.1 s slower under another vertex order),
    so the cost of a pass would depend on the seed.
    """
    if isinstance(obj, PlaneGraph):
        graph, flipped = _relabel(obj.graph, rng)
        base = graph.base if isinstance(graph, VoltageGraph) else graph
        rot = {}
        for v in base.vertices:
            darts = [(n, _OTHER_END[end] if n in flipped else end) for n, end in obj.rotations.get(v, ())]
            k = rng.randrange(len(darts)) if darts else 0
            rot[v] = tuple(darts[k:] + darts[:k])
        return PlaneGraph(graph, rot)
    return _relabel(obj, rng)[0]


def _relabel(obj, rng: random.Random):
    g = obj.base if isinstance(obj, VoltageGraph) else obj
    volts = obj.voltages if isinstance(obj, VoltageGraph) else ((),) * len(g.edges)
    order = list(range(len(g.edges)))
    rng.shuffle(order)
    edges, new_volts, flipped = [], [], set()
    for i in order:
        e, s = g.edges[i], volts[i]
        if rng.random() < 0.5:
            flipped.add(e.name)
            e, s = Edge(e.name, e.head, e.tail), tuple(-a for a in s)
        edges.append(e)
        new_volts.append(s)
    base = FiniteGraph(g.vertices, tuple(edges))
    if isinstance(obj, VoltageGraph):
        return VoltageGraph(base, obj.rank, tuple(new_volts)), flipped
    return base, flipped
