import hashlib
import json
import math

import pytest

from ksgeom import trace as trace_module
from ksgeom.coloring import SolveMode, refute_by_core_enumeration, solve
from ksgeom.demos import (
    DEFAULT_POLE_ANGLE,
    SEED_TRIPOD_VECS,
    cover_index,
    demo_first_proof,
    demo_second_proof,
    qn_sequence,
)
from ksgeom.errors import (
    BadN,
    BadPole,
    BadPremises,
    NotInRightHalf,
)
from ksgeom.plane import Side, side_of
from ksgeom.reach import verify_certificate
from ksgeom.sphere import EPS, Ray, canonicalize, equator_partner, rotation_to_pole, third_point
from ksgeom.serialize import (
    certificate_to_doc,
    load_certificate,
    save_certificate,
    save_trace,
)
from ksgeom.system import TriadSystem, load_system, save_system, validate_system
from ksgeom.trace import CertWitness, decision_core, extract_triad_system

from conftest import random_northern
from test_serialize import reference_trace_doc

R2 = math.sqrt(0.5)
GOLDEN_ANGLE = math.pi * (3 - math.sqrt(5))


def default_pole():
    return canonicalize((0.0, math.sin(DEFAULT_POLE_ANGLE), math.cos(DEFAULT_POLE_ANGLE)))


def polar_target(theta, phi):
    st = math.sin(theta)
    return canonicalize((st * math.cos(phi), st * math.sin(phi), math.cos(theta)))


def assert_closes_and_refutes(p_prime):
    t = demo_first_proof(p_prime)
    assert t.closed
    result = solve(extract_triad_system(t), SolveMode.PROVE_NONE)
    assert result.count == 0 and result.exhaustive


def golden_pole(i):
    # 40 poles over theta in [0.15, 0.7), azimuths i golden angles apart
    theta = 0.15 + 0.55 * (i + 0.5) / 40
    return polar_target(theta, i * GOLDEN_ANGLE % (2 * math.pi))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def first_trace():
    return demo_first_proof(default_pole())


@pytest.fixture(scope="module")
def second_trace():
    return demo_second_proof()


class TestQnSequence:
    def test_first_point(self):
        q1 = qn_sequence(1)
        assert abs(q1.x - math.sin(1.0)) <= 1e-15
        assert abs(q1.z - math.cos(1.0)) <= 1e-15

    def test_tends_to_pole(self):
        prev = 0.0
        for n in (1, 2, 10, 100, 10_000):
            z = qn_sequence(n).z
            assert z > prev
            prev = z
        assert qn_sequence(10_000).z > 1.0 - 1e-7

    def test_all_on_y0_circle_with_positive_x(self):
        for n in range(1, 40):
            q = qn_sequence(n)
            assert q.y == 0.0 and q.x > 0.0

    def test_bad_n(self):
        with pytest.raises(BadN):
            qn_sequence(0)


class TestCoverIndex:
    def test_third_point_example(self):
        p = canonicalize((0.5, -R2, 1.5))
        assert cover_index(p) == 4
        # hand analysis: tan(1/4) < 1/3 < tan(1/3)
        assert math.tan(0.25) < 1.0 / 3.0 < math.tan(1.0 / 3.0)

    def test_steep_point(self):
        p = canonicalize((0.9, 0, 0.436))
        assert cover_index(p) == 1
        assert math.tan(1.0) < 0.9 / 0.436

    def test_left_half_rejected(self):
        with pytest.raises(NotInRightHalf):
            cover_index(canonicalize((-0.5, R2, 0.5)))

    def test_minimality(self, rng):
        for _ in range(200):
            p = random_northern(rng, z_min=0.05, z_max=0.95)
            if p.x <= 1e-3:
                continue
            n = cover_index(p)
            assert side_of(p, qn_sequence(n)) is Side.BEYOND
            if n > 1:
                assert side_of(p, qn_sequence(n - 1)) is not Side.BEYOND


class TestThirdPointIdentity:
    def test_left_half_algebraic_cancellation(self, rng):
        # q.w(q) and e(q).w(q) cancel to ~machine epsilon for left-half q
        checked = 0
        while checked < 10_000:
            cand = random_northern(rng, z_min=1e-3, z_max=1.0 - 1e-6)
            if abs(cand.x) <= 1e-3:
                continue
            q = cand if cand.x < 0 else canonicalize((-cand.x, cand.y, cand.z))
            w = third_point(q)
            assert abs(q.dot(w)) <= 1e-12
            assert abs(equator_partner(q).dot(w)) <= 1e-12
            assert w.x > 0  # lands in the right half
            checked += 1


class TestDemoFirst:
    def test_every_branch_contradicted(self, first_trace):
        assert first_trace.closed
        leaves = first_trace.leaves()
        assert all(first_trace.branches[b].contradiction is not None for b in leaves)

    def test_bad_pole_low(self):
        with pytest.raises(BadPole):
            demo_first_proof(canonicalize((0, math.sin(1.0), math.cos(1.0))))

    def test_bad_pole_exact_pole(self):
        with pytest.raises(BadPole):
            demo_first_proof(canonicalize((0, 0, 1)))

    def test_all_certificates_verify(self, first_trace):
        n = 0
        for fact in first_trace.facts:
            if isinstance(fact.witness, CertWitness):
                report = verify_certificate(fact.witness.certificate)
                assert report.accepted, report.failures
                assert max(report.link_residuals) <= 1e-9
                n += 1
        assert n >= 12

    def test_extracted_system_uncolorable(self, first_trace):
        system = extract_triad_system(first_trace)
        assert validate_system(system).accepted
        result = solve(system, SolveMode.COUNT)
        assert result.count == 0 and result.exhaustive

    def test_core_refutation(self, first_trace):
        system = extract_triad_system(first_trace)
        core = decision_core(first_trace, system)
        assert len(core) <= 20
        refuted, cases = refute_by_core_enumeration(system, list(core))
        assert refuted and cases == 2 ** len(core)

    def test_seed_tripod_in_system(self, first_trace):
        system = extract_triad_system(first_trace)
        seed = [canonicalize(v) for v in SEED_TRIPOD_VECS]
        idx = []
        for s in seed:
            for i, r in enumerate(system.rays):
                if r.same_subspace(s):
                    idx.append(i)
                    break
        assert len(idx) == 3
        assert any(set(tri) == set(idx) for tri in system.triads)

    @pytest.mark.parametrize(
        "theta, phi", [(0.6, 2.5), (0.07569945543151446, 2.7246761881093495)]
    )
    def test_known_failing_targets_close(self, theta, phi):
        assert_closes_and_refutes(polar_target(theta, phi))

    @pytest.mark.parametrize("i", range(40))
    def test_golden_angle_lattice_closes(self, i):
        assert_closes_and_refutes(golden_pole(i))

    def test_frame_covariance_two_poles(self):
        # both traces close and verify; the derivation is frame-covariant
        other = demo_first_proof(canonicalize((0, math.sin(0.25), math.cos(0.25))))
        assert other.closed
        for fact in other.facts:
            if isinstance(fact.witness, CertWitness):
                assert verify_certificate(fact.witness.certificate).accepted

    def test_rules_commute_with_rotation(self, rng):
        # running a rule conjugated through a frame rotation produces the
        # rotated facts: frame-run rays equal R^T(identity-run rays) to 1e-9
        from ksgeom.trace import DerivationTrace

        for _ in range(25):
            m = random_northern(rng, z_min=0.05)
            frame = rotation_to_pole(m)
            q = random_northern(rng, z_min=0.4, z_max=0.9)
            if q.is_pole():
                continue
            p = random_northern(rng, z_max=0.3)
            if not p.z < q.z - 1e-3:
                continue

            plain = DerivationTrace()
            pole_fact = plain.assume(0, canonicalize((0, 0, 1)), 1)
            q_fact = plain.assume(0, q, 0)
            plain.lemma_zero(0, q_fact, p, pole_fact=pole_fact)

            turned = DerivationTrace()
            pole2 = turned.assume(0, m, 1)
            q2 = canonicalize(frame.apply_inverse(q.vec))
            p2 = canonicalize(frame.apply_inverse(p.vec))
            qf2 = turned.assume(0, q2, 0)
            turned.lemma_zero(0, qf2, p2, pole_fact=pole2)

            assert len(plain.facts) == len(turned.facts)
            for f1, f2 in zip(plain.facts[2:], turned.facts[2:]):
                assert f1.value == f2.value
                expect = canonicalize(frame.apply_inverse(plain.rays[f1.ray].vec))
                assert abs(turned.rays[f2.ray].dot(expect)) >= 1.0 - 1e-9


class TestDemoSecond:
    def test_closed(self, second_trace):
        assert second_trace.closed

    def test_constant_tripod_named(self, second_trace):
        assert len(second_trace.named_tripods) == 3  # one per seed branch
        a, b, c = (second_trace.rays[i] for i in second_trace.named_tripods[0])
        assert max(abs(a.dot(b)), abs(a.dot(c)), abs(b.dot(c))) <= 1e-15

    def test_left_half_members_both_one(self, second_trace):
        # in the pole branch's q(n)=0 sub-branch, both left-half members of
        # the fixed tripod carry value 1
        tri = second_trace.named_tripods[0]
        one_facts = [
            f
            for f in second_trace.facts
            if f.value == 1 and f.ray in tri[:2] and f.rule == "triad_one"
        ]
        assert len(one_facts) >= 2

    def test_contradiction_on_constant_tripod(self, second_trace):
        # some leaf clash happens on a member of the named tripod
        tri_rays = set(second_trace.named_tripods[0])
        found = False
        for leaf in second_trace.leaves():
            pair = second_trace.branches[leaf].contradiction
            if pair is not None and second_trace.facts[pair[0]].ray in tri_rays:
                found = True
        assert found

    def test_certificates_verify(self, second_trace):
        for fact in second_trace.facts:
            if isinstance(fact.witness, CertWitness):
                report = verify_certificate(fact.witness.certificate)
                assert report.accepted
                assert max(report.link_residuals) <= 1e-9

    def test_extracted_system_uncolorable(self, second_trace):
        system = extract_triad_system(second_trace)
        assert validate_system(system).accepted
        result = solve(system, SolveMode.COUNT)
        assert result.count == 0 and result.exhaustive

    def test_core_refutation(self, second_trace):
        system = extract_triad_system(second_trace)
        core = decision_core(second_trace, system)
        assert len(core) <= 20
        refuted, cases = refute_by_core_enumeration(system, list(core))
        assert refuted and cases == 2 ** len(core)


class TestPinnedOutputs:
    """Both demos' documents, byte for byte, so refactors of the trace layer
    can show they change nothing."""

    @pytest.mark.parametrize(
        "which, trace_sha, system_sha, counts, core_size",
        [
            pytest.param(
                "first",
                "612c525eb0e9f09b11b1954269bfb01b649107af292fa82bc6c41f4cb9da824f",
                "3951edf193e1691ee142b0a2660d6f9c82140448111366ffa9a433d4c15c74b2",
                (158, 279, 23),
                8,
                id="first",
            ),
            pytest.param(
                "second",
                "2eb156c188d0850b2b1f36c94a8c35ee19ca578155546cd42510393a7f92093f",
                "7b6e4c71497cde5a51bcfe734b9e6dd253c697272e35f62952d9c34b969c3953",
                (212, 332, 29),
                11,
                id="second",
            ),
        ],
    )
    def test_documents_pinned(
        self, which, trace_sha, system_sha, counts, core_size, first_trace, second_trace
    ):
        t = first_trace if which == "first" else second_trace
        system = extract_triad_system(t)
        assert (len(t.rays), len(t.facts), len(t.branches)) == counts
        assert decision_core(t, system) == tuple(range(core_size))
        assert sha256(save_trace(t)) == trace_sha
        assert sha256(save_system(system)) == system_sha

    def test_core_member_missing_from_system(self, second_trace):
        with pytest.raises(BadPremises):
            decision_core(second_trace, TriadSystem(rays=(), triads=()))


@pytest.fixture(scope="module")
def pi_pole_trace():
    return demo_first_proof(polar_target(0.34038461538461534, math.pi))


class TestFramesFromDocument:
    """A certificate frame is rotation_to_pole of a ray the trace document stores."""

    @pytest.mark.parametrize("which", ["first_trace", "second_trace", "pi_pole_trace"])
    def test_frame_derives_from_stored_ray(self, which, request):
        doc = json.loads(save_trace(request.getfixturevalue(which)))
        rays = [Ray(*v) for v in doc["rays"]]
        frames = [f["witness"]["frame"] for f in doc["facts"] if (f["witness"] or {}).get("frame")]
        assert frames
        for frame in frames:
            pole = canonicalize(tuple(frame[2]))
            nearest = max(rays, key=lambda r: abs(r.dot(pole)))
            assert [list(row) for row in rotation_to_pole(nearest).rows] == frame


class TestTriadStepsFromDocument:
    """A triad_one step's tripod is its premises' rays and its own, read from the document."""

    @pytest.mark.parametrize("which", ["first_trace", "second_trace"])
    def test_premise_rays_and_conclusion_pairwise_orthogonal(self, which, request):
        doc = json.loads(save_trace(request.getfixturevalue(which)))
        facts, rays, eps = doc["facts"], doc["rays"], doc["eps"]
        steps = [f for f in facts if f["rule"] == "triad_one"]
        assert len(steps) > 30
        for fact in steps:
            assert fact["witness"] is None and fact["value"] == 1
            assert [facts[p]["value"] for p in fact["premises"]] == [0, 0]
            a, b = (Ray(*rays[facts[p]["ray"]]) for p in fact["premises"])
            c = Ray(*rays[fact["ray"]])
            assert max(abs(a.dot(b)), abs(a.dot(c)), abs(b.dot(c))) <= eps


def witness_endpoint_residuals(doc):
    """|a x b| of each lemma_zero fact's last certificate link, read from its
    trace document alone: the last point, mapped to world by the witness
    frame (rows^T v), against the fact's ray, and the point before it against
    the ray of its q premise, premises[0]."""
    facts, rays = doc["facts"], doc["rays"]
    residuals = []
    for fact in facts:
        if fact["rule"] != "lemma_zero":
            continue
        frame, points = fact["witness"]["frame"], fact["witness"]["certificate"]["points"]
        for point, ray in ((points[-1], rays[fact["ray"]]),
                           (points[-2], rays[facts[fact["premises"][0]]["ray"]])):
            if frame is not None:
                point = [sum(frame[r][i] * point[r] for r in range(3)) for i in range(3)]
            (ax, ay, az), (bx, by, bz) = point, ray
            residuals.append(math.hypot(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx))
    return residuals


class TestWitnessesFromDocument:
    """Every lemma_zero certificate ends at its fact's ray, and its last link
    starts at the ray of the fact's q premise, so a certificate handed to the
    wrong fact shows in the document."""

    @pytest.mark.parametrize("i", [None, *range(40)],
                             ids=["second", *(f"golden{i}" for i in range(40))])
    def test_last_link_spans_the_fact_and_its_q_premise(self, i, second_trace):
        t = second_trace if i is None else demo_first_proof(golden_pole(i))
        doc = json.loads(save_trace(t))
        residuals = witness_endpoint_residuals(doc)
        assert len(residuals) >= 2 * 12
        assert max(residuals) <= doc["eps"]


class TestSplitFacing:
    """Each height split faces its children's chain targets, so demo first's
    system has one size per target height, whatever the target's azimuth.
    Azimuths on an axis are left out: there some more rays can merge."""

    @pytest.mark.parametrize("theta", [0.2, 0.44, 0.7])
    def test_size_independent_of_azimuth(self, theta):
        sizes = set()
        for i in range(1, 9):
            s = extract_triad_system(demo_first_proof(polar_target(theta, i * GOLDEN_ANGLE)))
            sizes.add((s.n_rays, len(s.triads), len(s.pairs)))
        assert len(sizes) == 1


class TestGeometryMemos:
    """A trace computes each reach certificate and each completion pair once:
    replays of the reachability lemma in other seed frames reuse them."""

    @pytest.mark.parametrize("build, reaches, partners, expansions", [
        (lambda: demo_first_proof(default_pole()), 14, 60, 90),
        (demo_second_proof, 22, 69, 102),
    ], ids=["first", "second"])
    def test_calls_per_demo(self, build, reaches, partners, expansions, monkeypatch):
        counts = {"reach": 0, "partners": 0, "expansions": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(trace_module, "reach", counting("reach", trace_module.reach))
        monkeypatch.setattr(trace_module, "completion_partners",
                            counting("partners", trace_module.completion_partners))
        monkeypatch.setattr(trace_module.DerivationTrace, "_macro_step",
                            counting("expansions", trace_module.DerivationTrace._macro_step))
        t = build()
        monkeypatch.undo()
        assert t.closed
        assert counts == {"reach": reaches, "partners": partners, "expansions": expansions}


class TestFrameCache:
    @pytest.mark.parametrize("build", [lambda: demo_first_proof(default_pole()), demo_second_proof],
                             ids=["first", "second"])
    def test_one_rotation_per_pole_ray(self, build, monkeypatch):
        rotated, poles = [], set()
        rotate, frame = trace_module.rotation_to_pole, trace_module.DerivationTrace.frame

        def counting_frame(t, pole_fact):
            pole = t.facts[pole_fact].ray
            if not t.rays[pole].is_pole():
                poles.add(pole)
            return frame(t, pole_fact)

        monkeypatch.setattr(trace_module, "rotation_to_pole",
                            lambda ray: rotated.append(ray) or rotate(ray))
        monkeypatch.setattr(trace_module.DerivationTrace, "frame", counting_frame)
        t = build()
        assert sorted(t.rays.index(ray) for ray in rotated) == sorted(poles)
        assert len(poles) >= 5


class TestRayTableProbes:
    def test_demo_second_lookups_and_probes(self, monkeypatch):
        # the ray grid's cells are far wider than the merge radius, yet a
        # lookup probes no more stored rays than under a grid of 4*EPS cells;
        # a probe is a same_subspace call made inside ray_index
        counts = {"lookups": 0, "probes": 0}
        depth = 0
        lookup, probe = trace_module.DerivationTrace.ray_index, Ray.same_subspace

        def counting_lookup(t, ray):
            nonlocal depth
            counts["lookups"] += 1
            depth += 1
            try:
                return lookup(t, ray)
            finally:
                depth -= 1

        def counting_probe(a, b):
            counts["probes"] += depth > 0
            return probe(a, b)

        monkeypatch.setattr(trace_module.DerivationTrace, "ray_index", counting_lookup)
        monkeypatch.setattr(Ray, "same_subspace", counting_probe)
        t = demo_second_proof()
        monkeypatch.undo()
        assert len(t.rays) == 212
        assert counts == {"lookups": 430, "probes": 252}


def indent_1(text: str) -> str:
    """text in the indent=1 layout that documents had before one record per line."""
    return json.dumps(json.loads(text), indent=1, separators=(",", ": ")) + "\n"


class TestDocumentLayout:
    """Compact JSON with one record per line, which json.loads reads back as
    the document the writer was given."""

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_documents_load_back_equal(self, which, first_trace, second_trace):
        t = first_trace if which == "first" else second_trace
        system = extract_triad_system(t)
        assert json.loads(save_trace(t)) == reference_trace_doc(t)
        assert json.loads(save_system(system)) == {
            "eps": system.eps,
            "rays": [list(r.vec) for r in system.rays],
            "triads": [list(tri) for tri in system.triads],
            "pairs": [list(p) for p in system.pairs],
        }
        certs = [f.witness.certificate for f in t.facts if isinstance(f.witness, CertWitness)]
        assert certs
        for cert in certs:
            assert json.loads(save_certificate(cert)) == certificate_to_doc(cert)

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_one_system_record_per_line(self, which, first_trace, second_trace):
        system = extract_triad_system(first_trace if which == "first" else second_trace)
        text = save_system(system)
        n_triads, n_pairs = len(system.triads), len(system.pairs)
        assert system.n_rays and n_triads and n_pairs
        assert text.count("\n") == (system.n_rays - 1) + (n_triads - 1) + (n_pairs - 1) + 1
        assert text.endswith("]]}\n") and " " not in text

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_loaders_read_the_indent_1_layout(self, which, first_trace, second_trace):
        t = first_trace if which == "first" else second_trace
        system = extract_triad_system(t)
        text = save_system(system)
        assert indent_1(text) != text
        assert load_system(indent_1(text)) == load_system(text) == system
        for fact in t.facts:
            if isinstance(fact.witness, CertWitness):
                text = save_certificate(fact.witness.certificate)
                assert load_certificate(indent_1(text)) == load_certificate(text)
                assert load_certificate(text) == fact.witness.certificate


class TestTraceStructure:
    @pytest.mark.parametrize("which", ["first", "second"])
    def test_premises_precede_and_are_visible(self, which, first_trace, second_trace):
        t = first_trace if which == "first" else second_trace
        for fid, fact in enumerate(t.facts):
            for p in fact.premises:
                assert p < fid
                assert t.facts[p].branch in t.branches[fact.branch].scope

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_scope_is_the_parent_walk(self, which, first_trace, second_trace):
        t = first_trace if which == "first" else second_trace
        assert len(t.branches) > 10
        for node in t.branches:
            walk, b = [], node.idx
            while b is not None:
                walk.append(b)
                b = t.branches[b].parent
            assert node.scope == tuple(walk)

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_contradiction_pairs_well_formed(self, which, first_trace, second_trace):
        t = first_trace if which == "first" else second_trace
        for leaf in t.leaves():
            if t.branches[leaf].contradiction is None:
                continue
            f0, f1 = t.branches[leaf].contradiction
            a, b = t.facts[f0], t.facts[f1]
            assert t.rays[a.ray].same_subspace(t.rays[b.ray])
            assert {a.value, b.value} == {0, 1}
            assert a.branch in t.branches[leaf].scope
            assert b.branch in t.branches[leaf].scope

    @pytest.mark.parametrize(
        "which, counts", [("first", (79, 66, 24)), ("second", (99, 72, 30))]
    )
    def test_zero_facts_cite_their_one_last(self, which, counts, first_trace, second_trace):
        # extract_triad_system reads each zero-against-one pair off premises[-1]
        t = first_trace if which == "first" else second_trace
        rules = ("orthogonal_zero", "circle_zero", "lemma_zero")
        seen = dict.fromkeys(rules, 0)
        for fact in t.facts:
            if fact.rule in rules:
                one = t.facts[fact.premises[-1]]
                assert one.value == 1
                assert abs(t.rays[one.ray].dot(t.rays[fact.ray])) <= EPS
                seen[fact.rule] += 1
        assert tuple(seen.values()) == counts
