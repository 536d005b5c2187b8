"""Property tests over the document loaders and the commands that read them.

Hostile documents (random bytes, random JSON, near-valid documents with
one field swapped for junk) must end in a documented exit code: the
loaders either return or raise a library error, and `ks color` and
`ks verify` always return a code from the README's exit-code table
without printing a traceback. Hostile geometry (`ks reach` across a tiny
height gap, `ks demo first` with a target near the pole or the rim) is
refused, or admitted with no chain past the spiral cap. The one-pass
loaders must also agree with the step-by-step loaders they replaced, kept
here as the reference: the same object, or the same first error with the
same message.
"""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ksgeom.cli import main
from ksgeom.errors import (
    EXIT_CODES,
    EXIT_INTERNAL,
    InvalidSystem,
    KsError,
    ParseError,
    ValidationError,
)
from ksgeom.reach import MAX_SPIRAL_STEPS, ReachCertificate
from ksgeom.serialize import load_certificate
from ksgeom.sphere import Ray, canonicalize
from ksgeom.system import (
    TriadSystem,
    _json_eps,
    _json_float,
    _json_int,
    _load_doc,
    load_system,
)

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

# Documents whose eps and keys are valid and whose lists are often well
# formed, so that they reach the later checks: canonical and non-canonical
# unit vectors, JSON integers, zero, underflowing and non-finite vectors;
# indices in and out of range, repeated, or not integers.
UNIT_VECTORS = [
    [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.6, 0.8, 0.0],
    [0.0, 0.6, 0.8], [0.0, 0.8, -0.6], [0, 0, 1], [1, 0, 0], [0.0, 1.0, 0],
    [1e-10, 0.0, 1.0], [0.0, 2e-9, 1.0],  # off the z axis by less and by more than eps
]
EDGE_VECTORS = [[0.0, 0.0, 0.0], [1e-300, 0.0, 0.0], [math.nan, 0.0, 1.0], [0.0, -math.inf, 1.0]]
close_coordinates = st.sampled_from(3 * UNIT_VECTORS + EDGE_VECTORS)


def often_well_formed(good: st.SearchStrategy, bad: st.SearchStrategy, min_size: int = 0):
    """Lists of min_size to 5 good items, or of up to 5 good and bad items mixed."""
    return st.one_of(
        st.lists(good, min_size=min_size, max_size=5), st.lists(st.one_of(good, bad), max_size=5)
    )


close_rays = often_well_formed(
    close_coordinates, st.one_of(st.lists(numbers, min_size=2, max_size=4), json_values), 3
)


def close_records(size: int) -> st.SearchStrategy[list]:
    record = st.lists(st.integers(0, 2), min_size=size, max_size=size, unique=True)
    return often_well_formed(record, st.lists(indices, min_size=size - 1, max_size=size + 1))


def close_documents(fields: dict) -> st.SearchStrategy[bytes]:
    doc = st.fixed_dictionaries({"eps": st.just(1e-9), **fields})
    return doc.map(lambda doc: json.dumps(doc).encode("utf-8"))


close_system_documents = close_documents(
    {"rays": close_rays, "triads": close_records(3), "pairs": close_records(2)}
)
close_certificate_documents = close_documents(
    {"shell_n": certificate_fields["shell_n"], "points": close_rays}
)


def reference_load_system(text: str | bytes) -> TriadSystem:
    """load_system, with validate_system's dot loop, before the one-pass
    loader: read every ray, then every triad, then every pair, then check
    indices, then orthogonality through Ray.dot."""
    keys = ("eps", "rays", "triads", "pairs")
    doc = _load_doc(text, "document", keys, keys)
    eps = _json_eps(doc["eps"])

    def load_ray(i: int, v: list) -> Ray:
        x, y, z = (_json_float(c, f"ray {i} coordinate") for c in v)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise InvalidSystem(f"ray {i} has a non-finite coordinate: {[x, y, z]!r}")
        try:
            return Ray(x, y, z)
        except ValueError:
            return canonicalize((x, y, z))

    try:
        rays = tuple(load_ray(i, v) for i, v in enumerate(doc["rays"]))
        triads = tuple(
            tuple(_json_int(i, "triad index") for i in (a, b, c)) for a, b, c in doc["triads"]
        )
        pairs = tuple(tuple(_json_int(i, "pair index") for i in (a, b)) for a, b in doc["pairs"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc
    n = len(rays)
    for t in triads:
        if len(set(t)) != 3 or not all(0 <= i < n for i in t):
            raise ValidationError(f"triad indices out of range or repeated: {t}")
    for p in pairs:
        if len(set(p)) != 2 or not all(0 <= i < n for i in p):
            raise ValidationError(f"pair indices out of range or repeated: {p}")
    worst = 0.0
    offenders: list[tuple[int, int]] = []

    def check(i: int, j: int) -> None:
        nonlocal worst
        r = abs(rays[i].dot(rays[j]))
        if r > worst or math.isnan(r):
            worst = r
        if not r <= eps:
            offenders.append((i, j))

    for a, b, c in triads:
        check(a, b)
        check(a, c)
        check(b, c)
    for a, b in pairs:
        check(a, b)
    if offenders:
        raise ValidationError(
            f"orthogonality violated at {tuple(offenders)[:4]}, worst residual {worst!r}"
        )
    return TriadSystem(rays=rays, triads=triads, pairs=pairs, eps=eps)


def reference_load_certificate(text: str | bytes) -> ReachCertificate:
    """load_certificate before the one-pass point loop."""
    keys = ("eps", "shell_n", "points", "residuals")
    doc = _load_doc(text, "certificate", keys, ("eps", "points"))
    eps = _json_eps(doc["eps"])
    try:
        points = tuple(
            tuple(_json_float(c, f"point {i} coordinate") for c in (x, y, z))
            for i, (x, y, z) in enumerate(doc["points"])
        )
        shell_n = doc.get("shell_n")
        return ReachCertificate(
            points=points,
            eps=eps,
            shell_n=_json_int(shell_n, "shell_n") if shell_n is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from exc


def outcome(load, text) -> tuple:
    """What load makes of text: the object's repr (which tells NaN and -0.0
    apart), or the library error's type and message."""
    try:
        return ("ok", repr(load(text)))
    except KsError as exc:
        return (type(exc), str(exc))


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


REFERENCE = settings(FUZZ, max_examples=400)


def system_text(rays: list, triads: list, pairs: list) -> str:
    return json.dumps({"eps": 1e-9, "rays": rays, "triads": triads, "pairs": pairs})


AXES = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


class TestReferenceLoaders:
    @REFERENCE
    @given(st.one_of(system_documents, close_system_documents))
    # a pair orthogonal only within eps; a float index after two ints; an
    # index error before a later parse error; an index error before a
    # non-orthogonal triad; a non-canonical ray before a later non-finite
    # one; offenders in triad-then-pair order; a triad repeating its first
    # index last; a negative pair index; an integer after two floats
    @example(system_text([[1e-10, 0.0, 1.0], [1.0, 0.0, 0.0]], [], [[0, 1]]))
    @example(system_text(AXES, [[0, 1, 2.0]], []))
    @example(system_text(AXES, [[0, 1, 3]], [[0, "1"]]))
    @example(system_text(AXES + [[0.6, 0.8, 0.0]], [[0, 1, 2], [0, 1, 3], [0, 0, 1]], []))
    @example(system_text([[0.0, 0.0, -1.0], [math.inf, 0.0, 0.0]], [], []))
    @example(system_text(AXES + [[0.6, 0.8, 0.0]], [[0, 1, 3]], [[2, 3]]))
    @example(system_text(AXES, [[0, 1, 0]], []))
    @example(system_text(AXES, [], [[0, -1]]))
    @example(system_text([[0.0, 1.0, 0]], [], []))
    def test_load_system_matches_reference(self, text):
        assert outcome(load_system, text) == outcome(reference_load_system, text)

    @REFERENCE
    @given(st.one_of(certificate_documents, close_certificate_documents))
    @example(json.dumps({"eps": 1e-9, "points": [[0.0, 0.6, 0.8], [0.0, 0.8, 1]]}))
    def test_load_certificate_matches_reference(self, text):
        assert outcome(load_certificate, text) == outcome(reference_load_certificate, text)


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


def polar(theta: float, phi: float) -> str:
    """Vector text of the point theta from the pole at azimuth phi."""
    st = math.sin(theta)
    return f"{st * math.cos(phi)!r},{st * math.sin(phi)!r},{math.cos(theta)!r}"


def height_point(z: float, phi: float) -> str:
    """Vector text of the point at height z and azimuth phi."""
    s = math.sqrt(1.0 - z * z)
    return f"{s * math.cos(phi)!r},{s * math.sin(phi)!r},{z!r}"


HOSTILE = settings(FUZZ, max_examples=40)


class TestBoundedWork:
    @HOSTILE
    @given(
        st.floats(0.01, 0.99),
        st.floats(0.0, 1e-5),
        st.floats(-math.pi, math.pi),
    )
    @example(0.6, 1e-5, math.pi)  # some 190,000 steps: NoSuchN
    def test_reach_small_height_gap(self, z, gap, turn):
        argv = ["reach", f"--from={height_point(z, 0.0)}", f"--to={height_point(z - gap, turn)}"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--json"])
        assert code in EXIT_TABLE and code != EXIT_INTERNAL
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert json.loads(out.getvalue())["summary"]["points"] <= MAX_SPIRAL_STEPS + 3

    @HOSTILE
    @given(
        st.one_of(st.floats(0.0, 5e-4), st.floats(math.pi / 4 - 2.5e-4, math.pi / 2)),
        st.floats(0.0, 2 * math.pi),
    )
    @example(1e-4, math.pi / 2)  # the longest chain would hold about 12,500 points
    def test_demo_first_near_an_edge(self, theta, phi):
        code, err = run_cli(["demo", "first", f"--pole={polar(theta, phi)}"])
        assert code in (EXIT_CODES["BadPole"], EXIT_CODES["NoSuchN"]), err
        assert "Traceback" not in err
