"""The command line's output, byte for byte, against the goldens in tests/data/golden/.

``tests/golden.py`` defines the commands and writes the goldens; see its
docstring for how to regenerate them after an intended change of output.
"""

import random

import pytest

from conftest import sized_voltage_graph
from golden import GOLDEN, ROOT, corpus, load, run
from lapgraph.graphio import format_graph_file, parse_graph_file

CORPUS = corpus()


def test_the_goldens_hold_the_corpus():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CORPUS)
    for name, cmds in CORPUS.items():
        assert [e["argv"] for e in load(name)] == cmds, name


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_output_matches_its_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = load(name)
    assert [run(e["argv"]) for e in expected] == expected


@pytest.mark.parametrize("rank, n", [(1, 8), (2, 4)])
def test_the_generated_quotients_are_drawn_from_their_seeds(rank, n):
    """tests/data/sized_rank<r>_<n>.lapgraph is sized_voltage_graph(random.Random(n), r, n, 2n)."""
    text = (ROOT / "tests" / "data" / f"sized_rank{rank}_{n}.lapgraph").read_text(encoding="utf-8")
    drawn = sized_voltage_graph(random.Random(n), rank, n, 2 * n)
    assert format_graph_file(parse_graph_file(text)) == format_graph_file(drawn)
