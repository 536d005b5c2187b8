"""Every corpus input rebuilds to its pinned documents and results (see corpus.py).

A refactor of the build, extraction, core or kernel shows here as the first
input and the first value that moved; python tests/corpus.py prints them all.
"""

import json

import pytest

from ksgeom.trace import extract_triad_system

import corpus
from test_trace import reference_extract, refiled


@pytest.fixture(scope="module")
def built():
    """(name, trace or None, record) for every input, in the corpus's order."""
    return [(name, *corpus.build(make)) for name, make in corpus.inputs()]


def test_every_input_rebuilds_its_record(built):
    pinned = corpus.pinned()
    assert [name for name, _, _ in built] == list(pinned)
    for name, _, record in built:
        for key, value in pinned[name].items():
            assert record.get(key) == value, f"{name}: {key} differs (python tests/corpus.py)"
        assert record.keys() == pinned[name].keys(), name


def test_extraction_equals_the_reference(built):
    for name, t, _ in built:
        if t is not None:
            assert extract_triad_system(t) == reference_extract(t), name


def test_cell_record_equals_a_fresh_filing(built):
    # the seed copies' images file under their rays' cells, permuted
    for name, t, _ in built:
        if t is not None:
            assert (t._ray_cells, t._cells) == refiled(t), name


def test_script_exits_1_on_a_difference_unless_it_writes(tmp_path, monkeypatch, capsys):
    two = corpus.inputs()[:2]
    pinned = {name: rec for name, rec in corpus.pinned().items() if name in dict(two)}
    path = tmp_path / "corpus.json"
    monkeypatch.setattr(corpus, "inputs", lambda: two)
    monkeypatch.setattr(corpus, "CORPUS", path)
    path.write_text(json.dumps(pinned))
    assert corpus.main([]) == 0 and capsys.readouterr().out == ""
    doctored = json.dumps({**pinned, two[0][0]: {**pinned[two[0][0]], "nodes": -1}})
    path.write_text(doctored)
    assert corpus.main([]) == 1 and path.read_text() == doctored
    assert two[0][0] in capsys.readouterr().out
    assert corpus.main(["--write"]) == 0 and corpus.pinned() == pinned
    assert corpus.main([]) == 0
