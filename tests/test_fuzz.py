"""Property tests over the document loaders and the commands that read them.

Hostile documents (random bytes, random JSON, near-valid documents with
one field swapped for junk) must end in a documented exit code: the
loaders either return or raise a library error, and `ks color` and
`ks verify` always return a code from the README's exit-code table
without printing a traceback.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ksgeom.cli import main
from ksgeom.errors import EXIT_INTERNAL, KsError
from ksgeom.serialize import load_certificate
from ksgeom.system import load_system

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_exit_codes() -> set[int]:
    """Codes in the README's exit-code table, less the retired ones."""
    table = README.read_text(encoding="utf-8").split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"\|\s*(\d+)\s*\|\s*([^|]*?)\s*(?=\|)", table)
    return {int(code) for code, meaning in rows if not meaning.startswith("retired")}


EXIT_TABLE = readme_exit_codes()

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

numbers = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -1, 1e-9, 1e-3, 0.6, 0.8, 1e308, 5e-324]),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=8))
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)

VALID_SYSTEM = {
    "eps": 1e-9,
    "rays": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "triads": [[0, 1, 2]],
    "pairs": [[0, 1]],
}
VALID_CERTIFICATE = {
    "eps": 1e-9,
    "shell_n": None,
    "points": [[0.0, 0.6, 0.8], [0.0, 0.8, 0.6]],
    "residuals": [],
}

indices = st.one_of(st.integers(-3, 5), scalars)
rays = st.lists(st.one_of(st.lists(numbers, min_size=3, max_size=3), json_values), max_size=5)
system_fields = {
    "eps": st.one_of(numbers, scalars),
    "rays": st.one_of(rays, json_values),
    "triads": st.one_of(st.lists(st.lists(indices, min_size=3, max_size=3), max_size=3), json_values),
    "pairs": st.one_of(st.lists(st.lists(indices, min_size=2, max_size=2), max_size=3), json_values),
}
certificate_fields = {
    "eps": st.one_of(numbers, scalars),
    "shell_n": st.one_of(st.integers(-3, 5000), scalars),
    "points": st.one_of(rays, json_values),
    "residuals": st.one_of(st.lists(numbers, max_size=3), json_values),
}


def near_valid(valid: dict, fields: dict) -> st.SearchStrategy[dict]:
    """valid with some fields replaced by fuzz, dropped, or joined by an extra key."""

    @st.composite
    def build(draw):
        doc = dict(valid)
        for key in draw(st.sets(st.sampled_from(sorted(fields)))):
            doc[key] = draw(fields[key])
        for key in draw(st.sets(st.sampled_from(sorted(valid)), max_size=1)):
            del doc[key]
        if draw(st.booleans()) and draw(st.booleans()):
            doc[draw(st.text(max_size=6))] = draw(scalars)
        return doc

    return build()


def documents(valid: dict, fields: dict) -> st.SearchStrategy[bytes]:
    as_json = st.one_of(near_valid(valid, fields), json_values).map(
        lambda doc: json.dumps(doc).encode("utf-8")
    )
    return st.one_of(as_json, st.binary(max_size=64))


system_documents = documents(VALID_SYSTEM, system_fields)
certificate_documents = documents(VALID_CERTIFICATE, certificate_fields)


def test_exit_table_read_from_readme():
    assert EXIT_TABLE == set(range(24)) - {9}


class TestLoaders:
    @FUZZ
    @given(system_documents)
    def test_load_system_returns_or_raises_library_error(self, text):
        try:
            load_system(text)
        except KsError as exc:
            assert exc.exit_code in EXIT_TABLE and exc.exit_code != EXIT_INTERNAL

    @FUZZ
    @given(certificate_documents)
    def test_load_certificate_returns_or_raises_library_error(self, text):
        try:
            load_certificate(text)
        except KsError as exc:
            assert exc.exit_code in EXIT_TABLE and exc.exit_code != EXIT_INTERNAL


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


class TestCommands:
    @FUZZ
    @given(system_documents, st.booleans())
    def test_color_exits_with_a_documented_code(self, doc_path, text, as_json):
        doc_path.write_bytes(text)
        code, err = run_cli(["color", str(doc_path), *(["--json"] if as_json else [])])
        assert code in EXIT_TABLE and code != EXIT_INTERNAL
        assert "Traceback" not in err

    @FUZZ
    @given(certificate_documents, st.booleans())
    def test_verify_exits_with_a_documented_code(self, doc_path, text, as_json):
        doc_path.write_bytes(text)
        code, err = run_cli(["verify", str(doc_path), *(["--json"] if as_json else [])])
        assert code in EXIT_TABLE and code != EXIT_INTERNAL
        assert "Traceback" not in err
