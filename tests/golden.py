"""Golden outputs of the lapgraph command line.

``tests/data/golden/<name>.json`` holds, for one input, a list of entries
``{"argv", "exit", "stdout", "stderr"}``: one per command of ``corpus()``,
run through ``lapgraph.cli.main`` in this process from the repository root,
so every path in an entry is relative to it.  ``tests/test_golden.py``
replays the entries and compares them byte for byte.

Regenerate after an intended change of output, and review the diff::

    PYTHONPATH=src python tests/golden.py --write
"""

from __future__ import annotations

import argparse
import io
import json
import os
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from lapgraph.cli import main
from lapgraph.graphio import parse_graph_file
from lapgraph.laurent import format_poly, parse_poly

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
INPUTS = sorted(ROOT.glob("graphs/*.lapgraph")) + sorted(ROOT.glob("tests/data/*.lapgraph"))

# the polynomials CI measures, malformed texts included
POLYS = (
    "x^2 - 4x + 1",
    format_poly(parse_poly("x^2-4x+1") ** 16),
    "-4x^-2+3x^2y^2",
    "2x^-2-5y^2",
    "y + x*y + y^-1 + x*y^-1",
    "y+4x*y+6x^2*y+4x^3*y+x^4*y-3-12x-18x^2-12x^3-3x^4",
    "4-x-x^-1-y-y^-1",
    "x^2 - 4x +",
    "*",
    "x + * 3",
    "x^",
    "3 + z",
)

FILE_COMMANDS = ("delta", "bicycle", "medial", "trees", "growth", "crsf", "kappa", "verify")


def _graph_commands(path: str, order: int) -> list[list[str]]:
    """Every subcommand on one file; ``delta`` at k = 0, ..., order + 1 (the
    last one out of range) and at least at k <= 3, over each domain."""
    cmds = [
        ["verify", path, "--max", "8", "--fibers", "64"],
        ["trees", path],
        ["trees", path, "--cover", "8"],
        ["trees", path, "--cover", "2,1,0,3"],
        ["growth", path, "--max", "8", "--fibers", "64"],
        ["growth", path, "--mode", "restrictions", "--max", "8", "--fibers", "64"],
        ["kappa", path],
        ["crsf", path],
        ["medial", path],
        *(["bicycle", path, "--field", f] for f in ("gf:2", "q", "z")),
        ["mahler", "--from-graph", path, "--fibers", "64"],
        *(
            ["delta", path, "--field", f, "--k", str(k)]
            for f in ("z", "q", "gf:2", "gf:3")
            for k in range(max(4, order + 2))
        ),
    ]
    return [c + j for c in cmds for j in ([], ["--json"])]


def _usage_commands() -> list[list[str]]:
    ladder = "graphs/ladder.lapgraph"
    cmds = [
        [],
        ["frobnicate"],
        ["delta"],
        ["delta", ladder, "--frobnicate"],
        ["delta", ladder, "--k", "one"],
        ["delta", ladder, "--k", "9"],
        ["delta", ladder, "--field", "gf:6"],
        ["growth", ladder, "--mode", "sideways"],
        ["growth", ladder, "--max", "1"],
        ["growth", "graphs/grid.lapgraph", "--mode", "restrictions", "--max", "1"],
        ["trees", ladder, "--cover", "1,2"],
        ["mahler"],
        ["mahler", "--poly", "x", "--from-graph", "no-such-file.lapgraph"],
    ]
    # unreadable graph files: a missing path and a directory
    for bad in ("no-such-file.lapgraph", "graphs"):
        cmds += [[c, bad] for c in FILE_COMMANDS]
        cmds.append(["mahler", "--from-graph", bad])
    return cmds


def corpus() -> dict[str, list[list[str]]]:
    """Golden file name -> the argv lists it holds, in order."""
    out = {}
    for p in INPUTS:
        obj = parse_graph_file(p.read_text(encoding="utf-8"))
        order = len(getattr(obj, "base", obj).vertices)  # of the Laplacian
        out[p.stem] = _graph_commands(str(p.relative_to(ROOT)), order)
    out["mahler-poly"] = [
        ["mahler", f"--poly={p}", "--fibers", "16", *j] for p in POLYS for j in ([], ["--json"])
    ]
    out["usage"] = _usage_commands()
    return out


def run(argv: list[str]) -> dict:
    """One in-process CLI run, from the repository root, as a golden entry.

    argparse's usage errors raise SystemExit and keep its code; an exception
    that escapes ``main`` is recorded as the interpreter reports it, exit 1
    and the last line of its traceback.  COLUMNS is fixed because argparse
    wraps usage lines to the terminal width.
    """
    out, err = io.StringIO(), io.StringIO()
    columns = mock.patch.dict(os.environ, {"COLUMNS": "80"})
    with columns, redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = 1
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load(name: str) -> list[dict]:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def write() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, cmds in corpus().items():
        entries = [run(argv) for argv in cmds]
        text = "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="rewrite tests/data/golden/*.json")
    if not ap.parse_args().write:
        ap.error("nothing to do without --write")
    os.chdir(ROOT)
    write()
