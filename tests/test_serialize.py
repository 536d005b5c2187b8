import json
import math

import pytest
from hypothesis import example, settings
from hypothesis import given as draws
from hypothesis import strategies as st

from ksgeom.errors import ParseError
from ksgeom.reach import ReachCertificate, VerifyReport, reach, verify_certificate
from ksgeom.serialize import (
    certificate_to_doc,
    load_certificate,
    report_to_doc,
    save_certificate,
    save_trace,
)
from ksgeom.sphere import EPS, NORTH_POLE, canonicalize
from ksgeom.system import _canonical_json
from ksgeom.trace import DerivationTrace, to_world

from conftest import given

R2 = math.sqrt(0.5)


def reference_trace_doc(t: DerivationTrace) -> dict:
    """The trace document as one dict, the schema in ksgeom.serialize's
    docstring; save_trace must write _canonical_json of it byte for byte."""
    return {
        "eps": EPS,
        "rays": [[r.x, r.y, r.z] for r in t.rays],
        "facts": [
            {
                "ray": f.ray,
                "value": f.value,
                "rule": f.rule,
                "premises": list(f.premises),
                "branch": f.branch,
            }
            for f in t.facts
        ],
        "branches": [
            {
                "idx": b.idx,
                "parent": b.parent,
                "assumption": b.assumption,
                "split": b.split,
                "children": list(b.children) if b.children is not None else None,
                "contradiction": list(b.contradiction) if b.contradiction is not None else None,
            }
            for b in t.branches
        ],
        "instances": [
            {"branch": i.branch, "source": i.source, "first": i.first,
             "map": list(i.rays.values()), "hypotheses": list(i.hypotheses),
             "discharges": list(i.hypotheses.values())}
            for i in t.instances
        ],
    }


def sample_certificate():
    return reach(canonicalize((0, R2, R2)), canonicalize((0.5, -0.6, 0.2)))


class TestCertificateDocs:
    def test_round_trip_byte_identical(self):
        cert = sample_certificate()
        report = verify_certificate(cert)
        text1 = save_certificate(cert, report.link_residuals)
        loaded = load_certificate(text1)
        report2 = verify_certificate(loaded)
        text2 = save_certificate(loaded, report2.link_residuals)
        assert text1 == text2

    def test_losslessness(self):
        cert = sample_certificate()
        loaded = load_certificate(save_certificate(cert))
        assert loaded.points == cert.points
        assert loaded.eps == cert.eps
        assert loaded.shell_n == cert.shell_n

    def test_schema_keys(self):
        doc = json.loads(save_certificate(sample_certificate()))
        assert list(doc.keys()) == ["eps", "shell_n", "points", "residuals"]

    def test_rejects_extra_keys(self):
        doc = json.loads(save_certificate(sample_certificate()))
        doc["junk"] = 1
        with pytest.raises(ParseError):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("key", ["eps", "shell_n", "points", "residuals"])
    def test_rejects_duplicate_key(self, key):
        # the second value is not silently kept, nor the first
        text = save_certificate(sample_certificate(), verify_certificate(sample_certificate()).link_residuals)
        doc = json.loads(text)
        again = text.replace("{", '{"%s":%s,' % (key, json.dumps(doc[key])), 1)
        with pytest.raises(ParseError, match=f"^duplicate key: '{key}'$"):
            load_certificate(again)

    def test_rejects_malformed_json(self):
        with pytest.raises(ParseError) as err:
            load_certificate("{")
        assert err.value.line is not None

    @pytest.mark.parametrize("text", [
        "[" * 200_000,  # deeper than the decoder's recursion limit
        '{"eps": 1e-09, "points": [[0, 0, ' + "1" * 5000 + ']]}',
    ], ids=["deep-nesting", "5000-digit-integer"])
    def test_rejects_undecodable_json(self, text):
        with pytest.raises(ParseError):
            load_certificate(text)

    def test_rejects_non_utf8_bytes(self):
        with pytest.raises(ParseError, match="^not UTF-8 text"):
            load_certificate(b"\xff\xfe{")

    @pytest.mark.parametrize("bad", [14.0, 14.7, True, "14"])
    def test_rejects_non_integer_shell_n(self, bad):
        doc = json.loads(save_certificate(sample_certificate()))
        doc["shell_n"] = bad
        with pytest.raises(ParseError, match="shell_n must be an integer"):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("bad", ["1e-9", True, None, pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("key", ["point", "eps"])
    def test_rejects_non_number(self, key, bad):
        doc = json.loads(save_certificate(sample_certificate()))
        if key == "eps":
            doc["eps"] = bad
        else:
            doc["points"][1][2] = bad
        what = "point 1 coordinate" if key == "point" else "eps"
        with pytest.raises(ParseError, match=f"^{what} (must be a number|is out of float range)"):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("bad, want", [
        ('"garbage"', "residuals must be a list, got 'garbage'"),
        ('{"r":[true,"x"]}', "residuals must be a list, got {'r': [True, 'x']}"),
        ('[true,"x"]', "residual 0 must be a number, got True"),
        ('[1e-17,"x"]', "residual 1 must be a number, got 'x'"),
        ("[null]", "residual 0 must be a number, got None"),
        ("[[0.0]]", "residual 0 must be a number, got [0.0]"),
        ("[%s]" % ("9" * 400), "residual 0 is out of float range"),
    ], ids=["string", "object", "bool", "string-item", "null", "list-item", "huge-int"])
    def test_rejects_residuals_that_are_not_numbers(self, bad, want):
        text = '{"eps":1e-9,"shell_n":null,"points":[[0.0,0.6,0.8]],"residuals":%s}' % bad
        with pytest.raises(ParseError) as exc:
            load_certificate(text)
        assert str(exc.value) == want and exc.value.exit_code == 19

    def test_accepts_any_numbers_as_residuals(self):
        # the writer spells NaN and the infinities as json does; integers are numbers
        text = '{"eps":1e-9,"points":[[0.0,0.6,0.8]],"residuals":[0,1e-17,NaN,Infinity,-Infinity]}'
        assert load_certificate(text).points == ((0.0, 0.6, 0.8),)

    @pytest.mark.parametrize("eps", [-1.0, 0.0, -1e-9, 1e-3, 0.5])
    def test_rejects_eps_out_of_range(self, eps):
        doc = json.loads(save_certificate(sample_certificate()))
        doc["eps"] = eps
        want = f"malformed document: tolerance eps must lie in (0, 1e-3), got {eps!r}"
        with pytest.raises(ParseError) as exc:
            load_certificate(json.dumps(doc))
        assert str(exc.value) == want

    def test_tampered_certificate_rejected_with_link(self):
        cert = sample_certificate()
        doc = json.loads(save_certificate(cert))
        doc["points"][1][2] = -doc["points"][1][2]
        bad = load_certificate(json.dumps(doc))
        report = verify_certificate(bad)
        assert not report.accepted
        assert report.first_bad_link == 1

    def test_report_doc_nan_free(self):
        from ksgeom.reach import ReachCertificate

        report = verify_certificate(ReachCertificate(points=((0.0, 0.0, 1.0), (2.0, 0.0, 0.0))))
        doc = report_to_doc(report)
        json.dumps(doc, allow_nan=False)  # raises if any NaN survived


class TestRecordTypes:
    """ReachCertificate and VerifyReport keep their fields, defaults and
    keyword construction, and compare and hash by value."""

    def test_fields_and_defaults(self):
        assert ReachCertificate._fields == ("points", "eps", "shell_n")
        assert ReachCertificate._field_defaults == {"eps": EPS, "shell_n": None}
        assert VerifyReport._fields == ("accepted", "link_residuals", "min_z", "failures",
                                        "first_bad_link")
        assert VerifyReport._field_defaults == {"failures": (), "first_bad_link": None}

    def test_keyword_construction(self):
        cert = ReachCertificate(points=((0.0, 0.6, 0.8),))
        assert (cert.points, cert.eps, cert.shell_n) == (((0.0, 0.6, 0.8),), EPS, None)
        assert ReachCertificate(shell_n=3, points=(), eps=1e-6) == ReachCertificate((), 1e-6, 3)
        report = VerifyReport(accepted=True, link_residuals=(0.0,), min_z=0.8)
        assert (report.failures, report.first_bad_link) == ((), None)
        with pytest.raises(TypeError):
            ReachCertificate(eps=EPS)
        with pytest.raises(AttributeError):
            cert.eps = 1e-6

    def test_value_equality_and_hash(self):
        cert = sample_certificate()
        again = load_certificate(save_certificate(cert))
        assert again == cert and hash(again) == hash(cert) and again is not cert
        assert cert != cert._replace(shell_n=7) and cert != cert._replace(eps=1e-6)
        report = verify_certificate(cert)
        assert verify_certificate(again) == report
        assert hash(verify_certificate(again)) == hash(report)
        assert len({cert, again, report, verify_certificate(again)}) == 2

    def test_through_the_doc_functions(self):
        cert = ReachCertificate(points=((0.0, 0.6, 0.8), (0.6, 0.48, 0.64)), eps=1e-6, shell_n=2)
        assert certificate_to_doc(cert, (0.5,)) == {
            "eps": 1e-6, "shell_n": 2, "points": [[0.0, 0.6, 0.8], [0.6, 0.48, 0.64]],
            "residuals": [0.5]}
        report = VerifyReport(False, (math.nan, 1e-10), 0.64, ("[0] x", "[1] y"), 0)
        assert report_to_doc(report) == {
            "accepted": False, "link_residuals": [None, 1e-10], "min_z": 0.64,
            "failures": ["[0] x", "[1] y"], "first_bad_link": 0}


# Floats json writes in every form: signed zeros, exponent forms (tiny,
# subnormal, huge), NaN and both infinities, beside ordinary values.
json_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, -5e-324, 1e-17, 3e16, 1e16, 0.6, math.nan, math.inf, -math.inf]),
)
certificates = st.builds(
    ReachCertificate,
    points=st.lists(st.tuples(json_floats, json_floats, json_floats), max_size=6).map(tuple),
    eps=st.one_of(st.just(EPS), st.floats(1e-12, 1e-3, exclude_max=True), json_floats),
    shell_n=st.one_of(st.none(), st.integers(0, 10**6)),
)
residual_tuples = st.one_of(st.none(), st.lists(json_floats, max_size=6).map(tuple))


class TestCertificateWriter:
    """save_certificate formats the document itself; its bytes are pinned to
    the reference document through the one compact writer, as TestTraceWriter
    pins save_trace."""

    @settings(max_examples=300, deadline=None)
    @draws(certificates, residual_tuples)
    @example(sample_certificate(), verify_certificate(sample_certificate()).link_residuals)
    @example(ReachCertificate(points=()), None)
    @example(ReachCertificate(points=((0.0, 0.0, 1.0),), eps=1e-6, shell_n=None), ())
    @example(ReachCertificate(points=((-0.0, 1e-300, 1.0), (3e16, -5e-324, 0.5)), shell_n=7),
             (math.nan, math.inf, -math.inf))
    def test_encoder_bytes(self, cert, residuals):
        assert save_certificate(cert, residuals) == _canonical_json(certificate_to_doc(cert, residuals))


class TestTraceDocs:
    def test_linear_trace_schema(self):
        t = DerivationTrace()
        n1, pole = given(t, 0, NORTH_POLE, 1)
        t.orthogonal_zero(n1, canonicalize((1, 0, 0)), pole)
        doc = reference_trace_doc(t)
        assert save_trace(t) == _canonical_json(doc)
        assert set(doc) == {"eps", "rays", "facts", "branches", "instances"}
        assert [f["rule"] for f in doc["facts"]] == ["assume", "assume", "orthogonal_zero"]
        assert doc["facts"][2]["premises"] == [pole]
        assert doc["branches"][0]["parent"] is None

    def test_demo_trace_serializes(self):
        from ksgeom.demos import demo_second_proof

        t = demo_second_proof()
        text = save_trace(t)
        doc = json.loads(text)
        assert len(doc["facts"]) == len(t.facts)
        assert len(doc["rays"]) == len(t.rays)
        assert any(f["rule"] == "lemma_zero" for f in doc["facts"])
        for f in doc["facts"]:
            assert list(f) == ["ray", "value", "rule", "premises", "branch"]
        closed = [b for b in doc["branches"] if b["contradiction"]]
        assert closed


def hand_built_trace() -> DerivationTrace:
    """Facts of 0 to 2 premises, a split on a member of the north pole's
    equator, and lemma_zero steps in the identity frame (branch 3) and in
    the frame of the member, under its 1 child (branch 7). That leaf is
    closed by a rule step: the pole's value 1 zeroes the member."""
    t = DerivationTrace()
    n1, pole = given(t, 0, NORTH_POLE, 1)
    t.orthogonal_zero(n1, canonicalize((1, 0, 0)), pole)
    b, q = given(t, n1, canonicalize((0, math.sin(0.8), math.cos(0.8))), 0)
    t.lemma_zero(b, q, canonicalize((0.4, 0.5, 0.2)), pole)
    member_ray = canonicalize((0.8, -0.6, 0.0))
    _, one = t.split(b, member_ray)
    member = t.branches[one].assumption
    frame = t.frame(member)
    b, q = given(t, one, to_world(frame, (0.0, math.sin(0.7), math.cos(0.7))), 0)
    t.lemma_zero(b, q, to_world(frame, (-0.3, 0.4, 0.3)), member)
    t.orthogonal_zero(b, member_ray, pole)
    return t


@pytest.fixture(scope="module")
def demo_traces() -> dict[str, DerivationTrace]:
    from ksgeom.demos import DEFAULT_POLE_ANGLE, demo_first_proof, demo_second_proof

    pole = canonicalize((0.0, math.sin(DEFAULT_POLE_ANGLE), math.cos(DEFAULT_POLE_ANGLE)))
    return {"first": demo_first_proof(pole), "second": demo_second_proof()}


class TestTraceWriter:
    """save_trace formats facts itself; its bytes are pinned to the
    reference document through the one compact writer."""

    def check(self, t: DerivationTrace) -> str:
        text = save_trace(t)
        assert text == _canonical_json(reference_trace_doc(t))
        return text

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_demo_traces(self, which, demo_traces):
        t = demo_traces[which]
        text = self.check(t)
        # the re-pole's identity instance and seed copies X and Y, one record per line
        block = text[text.index('"instances":'):]
        assert len(t.instances) == 3 and block.count("\n") == 3
        assert '"map":[%s],' % ",".join(map(str, t.instances[1].rays.values())) in block

    def test_empty_trace(self):
        text = self.check(DerivationTrace())
        assert text == '{"eps":1e-09,"rays":[],"facts":[],"branches":[%s],"instances":[]}\n' % (
            '{"idx":0,"parent":null,"assumption":null,"split":null,'
            '"children":null,"contradiction":null}'
        )

    def test_hand_built_trace(self):
        t = hand_built_trace()
        text = self.check(t)
        assert {len(f.premises) for f in t.facts} == {0, 1, 2}
        assert t.branches[0].children and '"split":%d,' % t.branches[0].split in text
        _, one = t.branches[3].children
        leaf = t.branches[one].children[0]
        first, clash = t.branches[leaf].contradiction
        assert (first, t.facts[clash].rule) == (t.branches[one].assumption, "orthogonal_zero")
        assert [f.branch for f in t.facts if f.rule == "lemma_zero"] == [3, leaf]
