"""Every corpus input rebuilds to its pinned documents and results (see corpus.py).

A refactor of the build, extraction, core or kernel shows here as the first
input and the first value that moved; python tests/corpus.py prints them all.
"""

import pytest

from ksgeom.trace import extract_triad_system

import corpus
from test_trace import reference_extract


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
