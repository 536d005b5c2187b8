"""Property tests over the document loaders and the commands that read them.

Hostile documents (random bytes, random JSON, near-valid documents with
one field swapped for junk) must end in a documented exit code: the
loaders either return or raise a library error, and `ks color` and
`ks verify` always return a code from the README's exit-code table
without printing a traceback. Hostile geometry (`ks reach` across a tiny
height gap, `ks demo first` with a target near the pole or the rim) is
refused, or admitted with no chain past the spiral cap; a vector that
starts with '-' is read either way it is spelled, under the option's name
or a unique prefix of it. `step_one` either
refuses a target or links it to q in two steps within EPS. The one-pass
loaders must also agree with the step-by-step loaders they replaced, kept
here as the reference: the same object, or the same first error with the
same message. The writers that bypass json's encoder must give its bytes:
a ray's cached text on random vectors, and save_system on random systems.
The trace builder's rule surface, instances included, is driven as a state
machine: a refused rule call leaves the trace as it was, its document
passes tests/trace_check.py but for its open leaves, ray_index gives a
brute-force scan's index, an instance maps each body ray to its exact
image or a stored ray within EPS of it, and replaying the accepted calls on
a fresh trace gives the same document.
"""

import io
import itertools
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from ksgeom.cli import main
from ksgeom.errors import (
    EXIT_CODES,
    EXIT_INTERNAL,
    InvalidSystem,
    KsError,
    NotReachableDirectly,
    ParseError,
    ValidationError,
)
from ksgeom.reach import MAX_SPIRAL_STEPS, ReachCertificate, step_one
from ksgeom.serialize import load_certificate, save_trace
from ksgeom.sphere import (
    CANON_EPS,
    EPS,
    NORTH_POLE,
    Ray,
    Rotation,
    Vec3,
    canonicalize,
    circle_partners,
    cross,
    dot,
    norm,
    third_point,
)
from ksgeom.system import (
    TriadSystem,
    _json_eps,
    _json_float,
    _json_int,
    _load_doc,
    load_system,
    save_system,
)
from ksgeom.trace import CELL, DerivationTrace, _image_plan, _images, to_world

from conftest import PlanePoint, canonical_json, unproject
from trace_check import Rejected, check_trace

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
    {"shell_n": certificate_fields["shell_n"], "points": close_rays,
     "residuals": certificate_fields["residuals"]}
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
    """load_certificate before the one-pass point loop, with the residuals
    checked after shell_n: a list of JSON numbers, each read as eps is."""
    keys = ("eps", "shell_n", "points", "residuals")
    doc = _load_doc(text, "certificate", keys, ("eps", "points"))
    eps = _json_eps(doc["eps"])
    try:
        points = tuple(
            tuple(_json_float(c, f"point {i} coordinate") for c in (x, y, z))
            for i, (x, y, z) in enumerate(doc["points"])
        )
        shell_n = doc.get("shell_n")
        shell_n = _json_int(shell_n, "shell_n") if shell_n is not None else None
        residuals = doc.get("residuals", [])
        if not isinstance(residuals, list):
            raise ParseError(f"residuals must be a list, got {residuals!r}")
        for i, r in enumerate(residuals):
            _json_float(r, f"residual {i}")
        return ReachCertificate(points=points, eps=eps, shell_n=shell_n)
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
    # residuals that are no list, or a list holding a boolean and a string
    @example('{"eps":1e-9,"shell_n":null,"points":[[0.0,0.6,0.8]],"residuals":"garbage"}')
    @example('{"eps":1e-9,"points":[[0.0,0.6,0.8]],"residuals":{"r":[true,"x"]}}')
    @example('{"eps":1e-9,"points":[[0.0,0.6,0.8]],"residuals":[true,"x"]}')
    @example('{"eps":1e-9,"points":[[0.0,0.6,0.8]],"residuals":[0,NaN,-Infinity,1e999]}')
    @example('{"eps":1e-9,"points":[[0.0,0.6,0.8]],"residuals":[1e-17,%s]}' % ("9" * 400))
    def test_load_certificate_matches_reference(self, text):
        assert outcome(load_certificate, text) == outcome(reference_load_certificate, text)


# Nonzero vectors whose canonical coordinates often print with an exponent:
# tiny, subnormal and huge components beside ordinary ones, and integers.
coordinates = st.one_of(
    st.floats(-1e100, 1e100, allow_nan=False),
    st.integers(-3, 3),
    st.sampled_from([1e-300, -5e-324, 1e-17, 3e16, -1e-5]),
)
vectors = st.tuples(coordinates, coordinates, coordinates).filter(lambda v: norm(v) > EPS)


@st.composite
def systems(draw) -> TriadSystem:
    """Systems of 0 to 6 random rays with random in-range triads and pairs;
    orthogonality is not asked for, since the writer does not check it."""
    rays = tuple(canonicalize(v) for v in draw(st.lists(vectors, max_size=6)))
    index = st.integers(0, max(len(rays) - 1, 0))
    triads = pairs = st.just([])
    if len(rays) >= 3:
        triads = st.lists(st.lists(index, min_size=3, max_size=3, unique=True), max_size=4)
    if len(rays) >= 2:
        pairs = st.lists(st.lists(index, min_size=2, max_size=2, unique=True), max_size=4)
    eps = draw(st.sampled_from([EPS, 1e-12, 5e-4]))
    return TriadSystem(
        rays=rays,
        triads=tuple(map(tuple, draw(triads))),
        pairs=tuple(map(tuple, draw(pairs))),
        eps=eps,
    )


class TestWriters:
    """A ray's cached text and save_system against json's encoder."""

    @FUZZ
    @given(vectors)
    @example((1e-300, 0.0, 1.0))
    @example((0, 0, 1))
    @example((-5e-324, 3e16, 0.0))
    def test_ray_text_is_the_encoders(self, v):
        ray = canonicalize(v)
        assert ray.text == json.dumps([ray.x, ray.y, ray.z], separators=(",", ":"))

    @FUZZ
    @given(systems())
    @example(TriadSystem(rays=(), triads=()))
    @example(TriadSystem(rays=(canonicalize((1e-300, 0.0, 1.0)),), triads=()))
    def test_save_system_is_the_encoders(self, s):
        doc = {
            "eps": s.eps,
            "rays": [[r.x, r.y, r.z] for r in s.rays],
            "triads": [list(t) for t in s.triads],
            "pairs": [list(p) for p in s.pairs],
        }
        assert save_system(s) == canonical_json(doc)


#: The 24 rotations that permute and sign the coordinates.
SIGNED_PERMUTATIONS = [
    rows
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
    for rows in [tuple(tuple(s * (c == p) + 0.0 for c in range(3)) for p, s in zip(perm, signs))]
    if dot(rows[0], cross(rows[1], rows[2])) > 0.0
]
EDGES = (0.0, -0.0, CANON_EPS, -CANON_EPS)
NEAR_BOUNDARY = round(0.6 / CELL) * CELL - 1e-9  # within 2*EPS of a grid cell boundary


@st.composite
def image_sources(draw) -> Ray:
    """A ray as canonicalize returns one, with coordinates drawn among exact
    zeros and the sign band's edges; or built directly, with a -0.0 or a
    coordinate at +-CANON_EPS exactly, or unit only within Ray's tolerance.
    That tolerance is met short of its edge: at the edge itself a permuted
    sum of squares can round past it, and Ray refuses the image."""
    kind = draw(st.sampled_from(("canonical", "edge", "tolerance")))
    if kind == "canonical":
        coordinate = st.one_of(st.sampled_from(EDGES), st.floats(-1.0, 1.0))
        v = draw(st.tuples(coordinate, coordinate, coordinate).filter(lambda v: norm(v) > 1e-3))
        return canonicalize(v)
    if kind == "edge":
        c, u = draw(st.sampled_from(EDGES)), draw(st.floats(-1.0, 1.0))
        w = math.sqrt(max(0.0, 1.0 - c * c - u * u)) * draw(st.sampled_from((1.0, -1.0)))
        v = draw(st.permutations((c, u, w)))
    else:
        ray = canonicalize(draw(directions))
        v = tuple(a * (1.0 + draw(st.floats(-1.9e-12, 1.9e-12))) for a in ray.vec)
    for vec in (v, tuple(-a for a in v)):
        try:
            return Ray(*vec)
        except ValueError:
            pass
    assume(False)


class TestImages:
    """An instance's image of a body ray is its coordinates permuted and
    signed, then the canonical sign flip, and its text the source's words so
    placed: to_world's ray, bit for bit, wherever canonicalize keeps n = 1.0,
    which covers every ray it returns short of that band's edge."""

    @settings(FUZZ, max_examples=50)
    @pytest.mark.parametrize("rows", SIGNED_PERMUTATIONS)
    @given(ray=image_sources())
    @example(ray=Ray(-0.0, 0.6, 0.8))
    @example(ray=Ray(-CANON_EPS, 1.0, CANON_EPS))
    def test_image_is_the_signed_permutation(self, rows, ray):
        frame = Rotation(rows)
        image, _ = next(_images(frame, _image_plan([ray], [None])))
        exact = tuple(c + 0.0 for c in frame.apply_inverse(ray.vec))
        assert image.vec in (exact, tuple(-c + 0.0 for c in exact))
        assert image.text == "[%r,%r,%r]" % image.vec  # no -0.0: both zeros are "0.0"
        world = to_world(frame, ray.vec)
        if abs(norm(exact) - 1.0) <= 4e-13:  # canonicalize's pass-through band: n = 1.0
            assert (image.vec, image.text) == (world.vec, world.text)  # text: bit for bit
        else:  # to_world renormalizes a ray unit only within Ray's tolerance
            assert image.same_subspace(world)

    @settings(FUZZ, max_examples=25)
    @pytest.mark.parametrize("rows", SIGNED_PERMUTATIONS)
    @given(ray=image_sources())
    @example(ray=canonicalize((NEAR_BOUNDARY, 0.48, math.sqrt(1 - NEAR_BOUNDARY**2 - 0.48**2))))
    def test_image_cell_is_its_filing_cell(self, rows, ray):
        # the ray's recorded cell (None where its 2*EPS box spans several),
        # permuted, is what the image records when filed afresh
        source, target = DerivationTrace(), DerivationTrace()
        source._file(ray)
        image, cell = next(_images(Rotation(rows), _image_plan([ray], source._ray_cells)))
        target._file(image)
        assert cell == target._ray_cells[0]
        assert (list(target._cells) == [cell]) if cell else (len(target._cells) > 1)


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


def vector_option(option: str, value: str, as_word: bool) -> list[str]:
    """The option and its value as two words, or as one "option=value" word;
    a value may start with '-' either way."""
    return [option, value] if as_word else [f"{option}={value}"]


HOSTILE = settings(FUZZ, max_examples=40)


class TestBoundedWork:
    @HOSTILE
    @given(
        st.floats(0.01, 0.99),
        st.floats(0.0, 1e-5),
        st.floats(-math.pi, math.pi),
        st.booleans(),
    )
    @example(0.6, 1e-5, math.pi, True)  # some 190,000 steps: NoSuchN; --to starts with '-'
    def test_reach_small_height_gap(self, z, gap, turn, as_word):
        argv = ["reach", *vector_option("--from", height_point(z, 0.0), as_word),
                *vector_option("--to", height_point(z - gap, turn), as_word)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--json"])
        assert code in EXIT_TABLE and code != EXIT_INTERNAL
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert json.loads(out.getvalue())["summary"]["points"] <= MAX_SPIRAL_STEPS + 1

    @HOSTILE
    @given(
        st.one_of(st.floats(0.0, 5e-4), st.floats(math.pi / 4 - 2.5e-4, math.pi / 2)),
        st.floats(0.0, 2 * math.pi),
        st.booleans(),
    )
    @example(1e-4, math.pi / 2, False)  # directly, the longest chain would hold 12,500 points
    @example(1e-4, 3 * math.pi / 4, True)  # its first component is negative
    @example(math.pi / 4 - 1e-4, 1.0, False)
    def test_demo_first_near_an_edge(self, theta, phi, as_word):
        # a target inside the cap closes through the midpoint p'' in at most 159 rays;
        # one within EPS of its edges or beyond them is refused
        code, out, err = run_cli_outputs(
            ["demo", "first", *vector_option("--pole", polar(theta, phi), as_word), "--json"])
        assert "Traceback" not in err
        if 5e-5 <= theta <= math.pi / 4 - 1e-6:
            assert code == 0, err
        elif theta <= 4e-5 or theta >= math.pi / 4 + 1e-6:
            assert code == EXIT_CODES["BadPole"], err
        assert code in (0, EXIT_CODES["BadPole"]), err
        if code == 0:
            assert json.loads(out)["rays"] <= 159  # fewer where rays on an axis merge


def run_cli_outputs(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestVectorOptionPrefixes:
    """A unique prefix of a vector option's name reads its value as the full
    name does, a value that starts with '-' included."""

    @HOSTILE
    @given(
        st.sampled_from(["--from", "--to"]),
        st.integers(3, 6),
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.05, 1.0)),
        st.booleans(),
    )
    @example("--to", 3, (-0.4, 0.5, 0.2), True)
    def test_reach_prefix_reads_as_the_full_name(self, option, length, vec, as_word):
        value = ",".join(repr(c) for c in vec)
        other, fixed = (("--to", "0.4,0.5,0.05") if option == "--from"
                        else ("--from", "0,sin(0.8),cos(0.8)"))
        full = run_cli_outputs(["reach", option, value, other, fixed, "--json"])
        short = run_cli_outputs(
            ["reach", *vector_option(option[:length], value, as_word), other, fixed, "--json"])
        assert short == full
        assert "Traceback" not in full[2]


def two_links_at_tangency(d0: float, delta: float, slack: float) -> tuple:
    """(d0, 0, |h(p)|, delta) for a p that the two-link criterion admits with
    d0 * cos(delta/2)^(-2) one part in 1/slack below |h(p)|."""
    return d0, 0.0, d0 * math.cos(delta / 2) ** -2 * (1.0 + slack), delta


plane_radii = st.floats(1e-3, 1e3)
azimuths = st.floats(-math.pi, math.pi)


class TestStepOne:
    """step_one(q, p) either refuses p or returns a point x with x on q's
    circle and p on x's circle, for any northern q off the pole and p."""

    @FUZZ
    @given(plane_radii, azimuths, plane_radii, azimuths)
    @example(*two_links_at_tangency(1.0, 1.2, 1e-15))
    @example(*two_links_at_tangency(0.3, -2.0, 1e-15))
    @example(*two_links_at_tangency(1.0, 1.2, -1e-15))
    def test_raises_or_links_both_ways(self, d_q, phi_q, d_p, phi_p):
        q = unproject(PlanePoint(d_q * math.cos(phi_q), d_q * math.sin(phi_q)))
        p = unproject(PlanePoint(d_p * math.cos(phi_p), d_p * math.sin(phi_p)))
        try:
            x = step_one(q, p)
        except NotReachableDirectly:
            return
        assert abs(third_point(q).dot(x)) <= EPS
        assert abs(third_point(x).dot(p)) <= EPS


# -- the trace builder's rule surface ------------------------------------------

#: A drawn ray's offset in rad from the one it is built on: none, inside the
#: merge radius EPS, at its edge on either side, just past it and 10*EPS off.
OFFSETS = (0.0, 1e-13, 4e-10, 9e-10, -9e-10, 2e-9, 10 * EPS)
offsets = st.sampled_from(OFFSETS)
#: Rays whose rotation_to_pole is a signed permutation: the poles an instance can take.
AXES = (canonicalize((1, 0, 0)), canonicalize((0, 1, 0)), NORTH_POLE)
turns = st.floats(0.0, 2.0 * math.pi)
directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: norm(v) > 0.1)


def orthogonal(ray: Ray, turn: float) -> Vec3:
    """The unit vector orthogonal to ray at angle turn about it."""
    axis = min(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
               key=lambda a: abs(dot(a, ray.vec)))
    u = canonicalize(cross(ray.vec, axis)).vec
    v = cross(ray.vec, u)
    return tuple(math.cos(turn) * a + math.sin(turn) * b for a, b in zip(u, v))


def moved(vec: Vec3, toward: Vec3, offset: float) -> Ray:
    """The ray offset rad from unit vec toward the unit vector toward, orthogonal to it."""
    return canonicalize(tuple(a + offset * b for a, b in zip(vec, toward)))


class RuleSurface(RuleBasedStateMachine):
    """split, orthogonal_zero, triad_one, circle_zero and instance called with
    valid and invalid arguments, on a trace split on v(N).

    Arguments are built from the trace: rays fresh, on an axis, near stored
    ones or orthogonal to two of them; premises most often of the right value and
    seen together from some branch; the branch any, or more often one that
    sees the premises, often the one the last accepted call stored in, so
    steps build on each other. Each accepted call is logged, lookups and
    instances' frames included, and replayed at teardown.
    """

    def __init__(self):
        super().__init__()
        self.t = DerivationTrace()
        self.log = [("split", 0, NORTH_POLE)]  # (method name, *args) of each accepted call
        self.recent = self.t.split(0, NORTH_POLE)[1]

    def state(self):
        t = self.t
        branches = [{**vars(b), "facts_by_ray": dict(b.facts_by_ray)} for b in t.branches]
        cells = {c: list(ids) for c, ids in t._cells.items()}
        return list(t.rays), list(t.facts), branches, cells, list(t._ray_cells), list(t.instances)

    def brute_index(self, ray: Ray) -> int:
        """The smallest index of a stored ray with |a x b| <= EPS."""
        return min(i for i, r in enumerate(self.t.rays) if norm(cross(r.vec, ray.vec)) <= EPS)

    def call(self, ray: Ray, method, branch: int, *args):
        """method(branch, *args), or None where it refuses: then the trace is
        as it was. An accepted call stores its conclusion about ray under the
        brute-force index."""
        t = self.t
        before = self.state()
        try:
            result = method(branch, *args)
        except KsError:
            assert self.state() == before
            return None
        self.log.append((method.__name__, branch, *args))
        self.recent = branch
        stored = t.branches[branch].split if method == t.split else t.facts[result].ray
        assert stored == self.brute_index(ray)
        return result

    def stored_ray(self, data) -> Ray:
        return self.t.rays[data.draw(st.integers(0, len(self.t.rays) - 1))]

    def draw_ray(self, data) -> Ray:
        kind = data.draw(st.sampled_from(("fresh", "axis", "near", "cross")))
        if kind == "fresh":
            return canonicalize(data.draw(directions))
        if kind == "axis":
            return data.draw(st.sampled_from(AXES))
        base = self.stored_ray(data)
        if kind == "cross":
            normal = cross(base.vec, self.stored_ray(data).vec)
            if norm(normal) > 0.1:
                base = canonicalize(normal)
        return moved(base.vec, orthogonal(base, data.draw(turns)), data.draw(offsets))

    def draw_fact(self, data, value: int, near: int | None = None,
                  right_angle: bool = False) -> int:
        """A fact, most often of value, else of the other value. Where there
        is one, a fact that some branch sees together with fact near, and
        with right_angle, on a ray about orthogonal to near's."""
        t = self.t
        want = value if data.draw(st.integers(0, 5)) else 1 - value
        pool = [fid for fid, f in enumerate(t.facts) if f.value == want]
        if near is not None:
            home = t.facts[near].branch
            pool = [fid for fid in pool if home in t.branches[t.facts[fid].branch].scope
                    or t.facts[fid].branch in t.branches[home].scope] or pool
        if right_angle:
            ray = t.rays[t.facts[near].ray]
            pool = [fid for fid in pool
                    if abs(t.rays[t.facts[fid].ray].dot(ray)) <= 10 * EPS] or pool
        return data.draw(st.sampled_from(pool))

    def draw_branch(self, data, *facts: int) -> int:
        """Any branch, or more often one that sees every given fact: the one
        the last accepted call stored in, where it does."""
        t = self.t
        seeing = [b.idx for b in t.branches if all(t.facts[f].branch in b.scope for f in facts)]
        if not seeing or not data.draw(st.integers(0, 5)):
            return data.draw(st.integers(0, len(t.branches) - 1))
        if self.recent in seeing and data.draw(st.booleans()):
            return self.recent
        return data.draw(st.sampled_from(seeing))

    @rule(data=st.data())
    def lookup(self, data):
        ray = self.draw_ray(data)
        assert self.t.ray_index(ray) == self.brute_index(ray)
        self.log.append(("ray_index", ray))

    @rule(data=st.data())
    def split(self, data):
        member = self.draw_ray(data)
        self.call(member, self.t.split, self.draw_branch(data), member)

    @rule(data=st.data())
    def orthogonal_zero(self, data):
        one = self.draw_fact(data, 1)
        zeroed = self.draw_fact(data, 0, near=one)
        b = self.draw_branch(data, one, zeroed)
        self.orthogonal_zero_against(data, b, one, zeroed)

    def orthogonal_zero_against(self, data, b: int, one: int, zeroed: int | None = None):
        normal = self.t.rays[self.t.facts[one].ray]
        pair = (0.0, 0.0, 0.0) if zeroed is None else cross(
            normal.vec, self.t.rays[self.t.facts[zeroed].ray].vec)
        if data.draw(st.booleans()) and norm(pair) > 0.1:
            in_plane = canonicalize(pair).vec  # orthogonal to a zeroed ray too
        else:
            in_plane = orthogonal(normal, data.draw(turns))
        p = moved(in_plane, normal.vec, data.draw(offsets))
        self.call(p, self.t.orthogonal_zero, b, p, one)

    @rule(data=st.data())
    def triad_one(self, data):
        za = self.draw_fact(data, 0)
        zb = self.draw_fact(data, 0, near=za, right_angle=True)
        b = self.draw_branch(data, za, zb)
        ra = self.t.rays[self.t.facts[za].ray]
        normal = cross(ra.vec, self.t.rays[self.t.facts[zb].ray].vec)
        if norm(normal) > 0.1:
            third = moved(canonicalize(normal).vec, ra.vec, data.draw(offsets))
        else:
            third = self.draw_ray(data)
        self.call(third, self.t.triad_one, b, third, za, zb)

    @rule(data=st.data())
    def circle_zero(self, data):
        pole = self.draw_fact(data, 1)
        q = self.draw_fact(data, 0, near=pole)
        b = self.draw_branch(data, pole, q)
        q_ray = self.t.rays[self.t.facts[q].ray]
        try:
            e, w = circle_partners(self.t.rays[self.t.facts[pole].ray], q_ray)
        except KsError:  # q at or on the equator of the pole fact's ray
            p = self.draw_ray(data)
        else:
            turn = data.draw(turns)
            on = tuple(math.cos(turn) * a + math.sin(turn) * c for a, c in zip(q_ray.vec, e.vec))
            p = moved(on, w.vec, data.draw(offsets))
        self.call(p, self.t.circle_zero, b, q, p, pole)

    @precondition(lambda self: len(self.t.facts) >= 6)  # a body worth mapping, built first
    @rule(data=st.data())
    def instance(self, data):
        # the body most often the v(N) = 1 branch's facts after its assumption,
        # the frame most often a 1 on the x or y axis's, the branch most often
        # a leaf that sees that 1: refused for a body that holds its source's
        # assumption or a non-identity instance, or cites a fact outside it
        # not before it, a frame that is no signed permutation, a hypothesis
        # not discharged, or a branch that is split, sees the source or lies
        # in an instance
        t = self.t
        n1 = t.branches[0].children[1]
        if data.draw(st.booleans()):  # first split a leaf outside n1's subtree on an axis
            axis = data.draw(st.sampled_from(AXES[:2]))
            outside = [b for b in t.leaves() if n1 not in t.branches[b].scope]
            self.call(axis, t.split, data.draw(st.sampled_from(outside)), axis)
        on_axes = [fid for fid, f in enumerate(t.facts)
                   if f.value == 1 and t.rays[f.ray] in AXES[:2]]
        if on_axes and data.draw(st.integers(0, 3)):
            pole = data.draw(st.sampled_from(on_axes))
        else:
            pole = self.draw_fact(data, 1)
        leaves = [b for b in t.leaves() if t.facts[pole].branch in t.branches[b].scope]
        if leaves and data.draw(st.integers(0, 3)):
            b = data.draw(st.sampled_from(leaves))
        else:
            b = self.draw_branch(data, pole)
        source, first = n1, t.branches[n1].assumption + 1
        if not data.draw(st.integers(0, 5)):
            source = data.draw(st.integers(0, len(t.branches) - 1))
            first = data.draw(st.integers(0, len(t.facts)))
        before, n_rays = self.state(), len(t.rays)
        try:
            frame = t.frame(pole)
            made = t.instance(source, first, b, frame)
        except KsError:
            assert self.state() == before
            return
        self.log.append(("instance", source, first, b, frame))
        self.recent = b
        for r, j in made.rays.items():
            exact = tuple(c + 0.0 for c in frame.apply_inverse(t.rays[r].vec))
            if j >= n_rays:  # a new image, filed as the body ray's exact image
                assert t.rays[j].vec in (exact, tuple(-c + 0.0 for c in exact))
            else:
                assert norm(cross(t.rays[j].vec, exact)) <= EPS
        self.discharged(made)

    @precondition(lambda self: len(self.t.facts) >= 6)
    @rule(data=st.data())
    def identity_instance(self, data):
        # the body most often one child's facts of a split from one of its own
        # on, or from just past it, the branch most often a leaf under the
        # other child: refused as instance is, most often for a hypothesis
        # the other child does not see
        t = self.t
        split = [node for node in t.branches if node.children is not None]
        source, b = (data.draw(st.integers(0, len(t.branches) - 1)) for _ in range(2))
        if split and data.draw(st.integers(0, 3)):
            node = data.draw(st.sampled_from(split))
            side = data.draw(st.integers(0, 1))
            source, other = node.children[side], node.children[1 - side]
            under = [leaf for leaf in t.leaves() if other in t.branches[leaf].scope]
            b = data.draw(st.sampled_from(under))
        own = [f for f, fact in enumerate(t.facts) if fact.branch == source]
        first = (data.draw(st.sampled_from(own)) + data.draw(st.integers(0, 1)) if own
                 else data.draw(st.integers(0, len(t.facts))))
        ones = [f for f, fact in enumerate(t.facts)
                if fact.value == 1 and fact.branch in t.branches[source].scope[1:]]
        if ones and t.branches[source].children is None and data.draw(st.integers(0, 3)):
            first = len(t.facts)  # a body of one zero against a 1 above the source
            self.orthogonal_zero_against(data, source, data.draw(st.sampled_from(ones)))
        before = self.state()
        try:
            made = t.instance(source, first, b, Rotation.identity())
        except KsError:
            assert self.state() == before
            return
        self.log.append(("instance", source, first, b, Rotation.identity()))
        assert self.state()[0] == before[0]  # no ray filed
        assert all(r == j for r, j in made.rays.items())
        self.discharged(made)

    def discharged(self, made):
        """Each hypothesis of an accepted instance is discharged by a fact of
        its value on its ray's image that the instance's branch sees."""
        t = self.t
        for h, d in made.hypotheses.items():
            assert h < made.first and t.facts[h].branch in t.branches[made.source].scope
            assert (t.facts[d].ray, t.facts[d].value) == (made.rays[t.facts[h].ray], t.facts[h].value)
            assert t.facts[d].branch in t.branches[made.branch].scope

    @invariant()
    def document_passes_the_trace_checker(self):
        # each branch, fact, split and instance, read from the document; the
        # machine's traces need not close, and trace_check checks leaves last
        try:
            check_trace(json.loads(save_trace(self.t)))
        except Rejected as err:
            assert err.kind == "leaf", err

    def teardown(self):
        replayed = DerivationTrace()
        for name, *args in self.log:
            getattr(replayed, name)(*args)
        assert save_trace(replayed) == save_trace(self.t)


RuleSurface.TestCase.settings = settings(FUZZ, max_examples=40, stateful_step_count=40)
TestRuleSurface = RuleSurface.TestCase
