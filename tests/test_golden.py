"""The command line's output, byte for byte, against the goldens in tests/data/golden/.

``tests/golden.py`` defines the commands and writes the goldens; see its
docstring for how to regenerate them after an intended change of output.
"""

import pytest

from golden import GOLDEN, ROOT, corpus, load, run

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
