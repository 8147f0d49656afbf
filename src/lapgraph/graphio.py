"""The lapgraph v1 text format.

Line-oriented, UTF-8, '#' starts a comment.  A file declares vertices, edges
with optional Z^d voltages, and optional rotation lines:

    lapgraph v1
    d 1
    vertex v1
    vertex v2
    edge r v1 v2 0
    edge a v1 v1 1
    edge b v2 v2 1
    rot v1: a.t r.t a.h
    rot v2: b.t b.h r.h

The voltage field carries d integers (omitted means all zero); the d line may
be omitted for d = 0.  Rotation lines promote the result to a PlaneGraph.
Whatever the kind, ``obj.base`` is the graph the vertex and edge lines spell,
and ``obj.quotient`` the voltage quotient the d line and voltages give (None
for d = 0).
"""

from __future__ import annotations

from .graphs import Edge, FiniteGraph, VoltageGraph
from .planar import PlaneGraph, parse_dart


class GraphParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph_file(text: str) -> FiniteGraph | VoltageGraph | PlaneGraph:
    """Parse graph text; the presence of d/rot lines selects the richer types."""
    rank: int | None = None
    vertices: list[str] = []
    vseen: set[str] = set()
    edges: list[tuple[str, str, str]] = []
    eseen: set[str] = set()
    voltages: list[tuple[int, ...]] = []
    edge_lines: list[int] = []
    rotations: dict[str, str] = {}
    rot_lines: dict[str, int] = {}
    header_done = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_done:
            if line != "lapgraph v1":
                raise GraphParseError(line_no, f"expected header 'lapgraph v1', got {line!r}")
            header_done = True
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "d":
            if rank is not None:
                raise GraphParseError(line_no, "duplicate d line")
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise GraphParseError(line_no, "d line needs one integer")
            rank = int(tokens[1])
            if rank not in (0, 1, 2):
                raise GraphParseError(line_no, f"rank {rank} not supported (0, 1 or 2)")
        elif kind == "vertex":
            if len(tokens) != 2:
                raise GraphParseError(line_no, "vertex line needs exactly one name")
            name = tokens[1]
            if name in vseen:
                raise GraphParseError(line_no, f"duplicate vertex {name!r}")
            vseen.add(name)
            vertices.append(name)
        elif kind == "edge":
            if len(tokens) < 4:
                raise GraphParseError(line_no, "edge line needs: edge NAME TAIL HEAD [voltage...]")
            name, tail, head = tokens[1], tokens[2], tokens[3]
            if name in eseen:
                raise GraphParseError(line_no, f"duplicate edge {name!r}")
            if tail not in vseen:
                raise GraphParseError(line_no, f"unknown vertex {tail!r} in edge {name!r}")
            if head not in vseen:
                raise GraphParseError(line_no, f"unknown vertex {head!r} in edge {name!r}")
            volt_tokens = tokens[4:]
            try:
                volt = tuple(int(t) for t in volt_tokens)
            except ValueError:
                raise GraphParseError(line_no, f"bad voltage {' '.join(volt_tokens)!r}") from None
            eseen.add(name)
            edges.append((name, tail, head))
            voltages.append(volt)
            edge_lines.append(line_no)
        elif kind == "rot":
            if len(tokens) < 2 or not tokens[1].endswith(":"):
                raise GraphParseError(line_no, "rot line needs: rot VERTEX: end end ...")
            vname = tokens[1][:-1]
            if vname not in vseen:
                raise GraphParseError(line_no, f"unknown vertex {vname!r} in rot line")
            if vname in rotations:
                raise GraphParseError(line_no, f"duplicate rot line for {vname!r}")
            rotations[vname] = " ".join(tokens[2:])
            rot_lines[vname] = line_no
        else:
            raise GraphParseError(line_no, f"unknown directive {kind!r}")

    if not header_done:
        raise GraphParseError(1, "missing header 'lapgraph v1'")
    d = rank if rank is not None else 0

    padded = []
    for (name, _, _), volt, line_no in zip(edges, voltages, edge_lines):
        if not volt:
            volt = (0,) * d
        if len(volt) != d:
            raise GraphParseError(
                line_no, f"edge {name!r} carries {len(volt)} voltage entries, rank is {d}"
            )
        padded.append(volt)

    base = FiniteGraph(tuple(vertices), tuple(Edge(*e) for e in edges))
    graph: FiniteGraph | VoltageGraph
    if d == 0:
        graph = base
    else:
        graph = VoltageGraph(base, d, tuple(padded))

    if rotations:
        rot = {}
        last_rot_line = max(rot_lines.values())
        for v, text_rot in rotations.items():
            darts = []
            for tok in text_rot.split():
                try:
                    dart = parse_dart(tok)
                except ValueError as exc:
                    raise GraphParseError(rot_lines[v], f"{exc} in rot {v!r}") from None
                if dart[0] not in eseen:
                    raise GraphParseError(rot_lines[v], f"unknown edge {dart[0]!r} in rot {v!r}")
                darts.append(dart)
            rot[v] = tuple(darts)
        for v in vertices:
            rot.setdefault(v, ())
        try:
            return PlaneGraph(graph, rot)
        except ValueError as exc:
            raise GraphParseError(last_rot_line, f"bad rotation system: {exc}") from None
    return graph


def format_graph_file(obj: FiniteGraph | VoltageGraph | PlaneGraph) -> str:
    """Serialize back to lapgraph v1 text (inverse of parse up to comments)."""
    base, vg = obj.base, obj.quotient
    lines = ["lapgraph v1"]
    volts = [()] * len(base.edges)
    if vg is not None:
        lines.append(f"d {vg.rank}")
        volts = vg.voltages
    for v in base.vertices:
        lines.append(f"vertex {v}")
    for e, s in zip(base.edges, volts):
        volt = (" " + " ".join(str(a) for a in s)) if s else ""
        lines.append(f"edge {e.name} {e.tail} {e.head}{volt}")
    if isinstance(obj, PlaneGraph):
        for v in base.vertices:
            ends = " ".join(f"{name}.{end}" for name, end in obj.rotations.get(v, ()))
            lines.append(f"rot {v}: {ends}".rstrip())
    return "\n".join(lines) + "\n"
