import copy
import dataclasses
import hashlib
import json
import math
import random
import subprocess
import sys
from typing import NamedTuple

import pytest

from ksgeom import demos as demos_module
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
    AtPole,
    BadN,
    BadPole,
    BadPremises,
    NotInRightHalf,
)
from ksgeom.reach import Side, side_of, verify_certificate
from ksgeom.sphere import (
    EPS,
    NORTH_POLE,
    Ray,
    Rotation,
    canonicalize,
    circle_partners,
    rotation_to_pole,
    third_point,
)
from ksgeom.serialize import (
    certificate_to_doc,
    load_certificate,
    save_certificate,
    save_trace,
)
from ksgeom.system import TriadSystem, load_system, save_system, validate_system
from ksgeom.trace import (
    CertWitness,
    DerivationTrace,
    decision_core,
    extract_triad_system,
    to_frame,
    to_world,
)

import trace_check
from conftest import given, random_northern
from test_serialize import reference_trace_doc
from test_trace import nested_outside
from trace_check import Rejected, check_oracle, check_trace

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
            if p.x <= 1e-8:
                continue
            n = cover_index(p)
            assert side_of(p, qn_sequence(n)) is Side.BEYOND
            if n > 1:
                assert side_of(p, qn_sequence(n - 1)) is not Side.BEYOND

    def test_near_the_axis_in_few_side_of_calls(self, monkeypatch):
        # side_of's ON_CIRCLE band around the answer is about EPS * n^2
        # indices wide, so stepping n one at a time through it here would
        # take some 10^7 calls
        calls = 0

        def counted(p, q):
            nonlocal calls
            calls += 1
            if calls > 200:
                raise AssertionError("cover_index made more than 200 side_of calls")
            return side_of(p, q)

        monkeypatch.setattr(demos_module, "side_of", counted)
        p = canonicalize((1e-8, 0.0, 1.0))
        n = cover_index(p)
        assert n == 111_111_112
        assert side_of(p, qn_sequence(n)) is Side.BEYOND
        assert side_of(p, qn_sequence(n - 1)) is not Side.BEYOND
        # q(n) reaches the pole (n >= 1e9) before it passes a point this close
        with pytest.raises(AtPole):
            cover_index(canonicalize((2e-9, 0.0, 1.0)))


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
            assert abs(circle_partners(NORTH_POLE, q)[0].dot(w)) <= 1e-12
            assert w.x > 0  # lands in the right half
            checked += 1


class TestDemoFirst:
    def test_every_branch_contradicted(self, first_trace):
        # every leaf clashes but the seed copies X and Y, instances of copy N,
        # and the re-pole's second child, an identity instance of its first's
        t = first_trace
        assert t.closed
        held = [i.branch for i in t.instances]
        assert len(held) == 3 and set(held) <= set(t.leaves())
        assert all(t.branches[b].contradiction is not None for b in t.leaves() if b not in held)

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
        # copy N's lemma_zero facts, one re-pole's included; copies X and Y
        # are its instances, which store no fact (TestSeedImages checks them)
        assert n >= 6

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
            b, pole_fact = given(plain, 0, canonicalize((0, 0, 1)), 1)
            b, q_fact = given(plain, b, q, 0)
            plain.lemma_zero(b, q_fact, p, pole_fact=pole_fact)

            turned = DerivationTrace()
            b, pole2 = given(turned, 0, m, 1)
            q2 = canonicalize(frame.apply_inverse(q.vec))
            p2 = canonicalize(frame.apply_inverse(p.vec))
            b, qf2 = given(turned, b, q2, 0)
            turned.lemma_zero(b, qf2, p2, pole_fact=pole2)

            assert len(plain.facts) == len(turned.facts)
            for f1, f2 in zip(plain.facts[4:], turned.facts[4:]):  # past the two splits
                assert f1.value == f2.value
                expect = canonicalize(frame.apply_inverse(plain.rays[f1.ray].vec))
                assert abs(turned.rays[f2.ray].dot(expect)) >= 1.0 - 1e-9


A_F, B_F = (-0.5, R2, 0.5), (-0.5, -R2, 0.5)  # the fixed tripod's left-half members


def stored_index(t, ray):
    """The trace's index of ray, which must be stored (looked up without storing)."""
    (i,) = [i for i, r in enumerate(t.rays) if r.same_subspace(ray)]
    return i


def seed_copies(t):
    """(branch, seed frame) of the three seed copies, whose branches hold
    value 1 on the north pole, then the x axis, then the y axis."""
    root = t.branches[0]
    n0 = t.branches[root.children[0]]
    seeds = (root.children[1], n0.children[1], n0.children[0])
    return [(seed, rotation_to_pole(canonicalize(v))) for seed, v in zip(seeds, SEED_TRIPOD_VECS)]


def clash_arms(t):
    """(leaf, ray map, seed frame) of demo second's three q(n) = 0 arms: the 0
    child of copy N's split, whose facts copies X and Y hold through their
    instances' ray maps (copy N's own map is the identity)."""
    (n_branch, _), *_ = copies = seed_copies(t)
    maps = {i.branch: i.rays for i in t.instances}
    leaf = t.branches[n_branch].children[0]
    return [(leaf, maps.get(seed, range(len(t.rays))), frame) for seed, frame in copies]


class TestDemoSecond:
    def test_closed(self, second_trace):
        assert second_trace.closed

    def test_left_half_members_both_one(self, second_trace):
        # in each q(n) = 0 arm, both left-half members of the fixed tripod
        # carry value 1 by triad_one
        t = second_trace
        for leaf, at, frame in clash_arms(t):
            for vec in (A_F, B_F):
                ray = stored_index(t, canonicalize(vec))  # copy N argues under N
                fact = t.facts[t.value_fact_in(leaf, ray)]
                assert (fact.value, fact.rule) == (1, "triad_one")
                assert at[ray] == stored_index(t, to_world(frame, vec))

    def test_contradiction_on_constant_tripod(self, second_trace):
        # each q(n) = 0 arm clashes on b: zeroed against v(a) = 1
        t = second_trace
        for leaf, at, frame in clash_arms(t):
            a, b = (stored_index(t, to_world(frame, v)) for v in (A_F, B_F))
            one, zero = (t.facts[f] for f in t.branches[leaf].contradiction)
            assert (at[one.ray], one.value, one.rule) == (b, 1, "triad_one")
            assert (at[zero.ray], zero.value, zero.rule) == (b, 0, "orthogonal_zero")
            assert at[t.facts[zero.premises[0]].ray] == a

    def test_clash_pair_in_no_triad(self, second_trace):
        # the clash needs the orthogonal pair (a, b), not the fixed tripod
        t = second_trace
        system = extract_triad_system(t)
        index = {ray: i for i, ray in enumerate(system.rays)}
        for _, frame in seed_copies(t):
            a, b = (index[t.rays[stored_index(t, to_world(frame, v))]] for v in (A_F, B_F))
            assert (min(a, b), max(a, b)) in system.pairs
            assert not any(a in tri and b in tri for tri in system.triads)

    def test_fixed_tripod_third_member_absent(self, second_trace):
        for _, frame in seed_copies(second_trace):
            c = to_world(frame, (R2, 0.0, R2))
            assert not any(r.same_subspace(c) for r in second_trace.rays)

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
    """Both demos' documents, counts, cores and nodes are pinned by the
    corpus records "demo first" and "demo second" (tests/test_corpus.py)."""

    def test_core_member_missing_from_system(self, second_trace):
        with pytest.raises(BadPremises):
            decision_core(second_trace, TriadSystem(rays=(), triads=()))


class TestCoreOfAPermutedSystem:
    """decision_core scans for the members wherever they are, not only in the
    leading rays where extraction puts them."""

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_core_names_the_same_rays(self, which, first_trace, second_trace):
        t = first_trace if which == "first" else second_trace
        system = extract_triad_system(t)
        core = decision_core(t, system)
        order = list(range(system.n_rays))  # order[new] is the ray's old index
        random.Random(which).shuffle(order)
        new = {old: i for i, old in enumerate(order)}
        permuted = TriadSystem(
            rays=tuple(system.rays[old] for old in order),
            triads=tuple(tuple(sorted(new[i] for i in tri)) for tri in system.triads),
            pairs=tuple(tuple(sorted(new[i] for i in pair)) for pair in system.pairs),
        )
        assert validate_system(permuted)
        moved = decision_core(t, permuted)
        assert moved == tuple(new[i] for i in core) and moved != core
        assert [permuted.rays[i] for i in moved] == [system.rays[i] for i in core]
        # without the member scanned last, the scan reaches the end and refuses
        gone = permuted.rays[max(moved)]
        with pytest.raises(BadPremises, match="split member missing"):
            decision_core(t, TriadSystem(rays=tuple(r for r in permuted.rays if r != gone), triads=()))


@pytest.fixture(scope="module")
def pi_pole_trace():
    return demo_first_proof(polar_target(0.34038461538461534, math.pi))


def lemma_steps(t):
    """(fact, q fact id, pole fact id) of each lemma_zero fact of a trace in
    memory: its premise is w's triad_one fact from q and e, and e is zeroed
    against the chain's value-1 pole."""
    for fact in t.facts:
        if fact.rule == "lemma_zero":
            (w,) = fact.premises
            assert t.facts[w].rule == "triad_one"
            q, e = t.facts[w].premises
            (pole,) = t.facts[e].premises
            yield fact, q, pole


class TestFramesFromDocument:
    """The frame of every lemma_zero chain is rotation_to_pole of its pole
    fact's ray as the trace document stores it, the identity at N included,
    so a document needs no frames."""

    @pytest.mark.parametrize("which", ["first_trace", "second_trace", "pi_pole_trace"])
    def test_frame_derives_from_stored_ray(self, which, request):
        t = request.getfixturevalue(which)
        rays = json.loads(save_trace(t))["rays"]
        frames = {}
        for _, _, pole in lemma_steps(t):
            frames[pole] = t.frame(pole)
            assert frames[pole] == rotation_to_pole(Ray(*rays[t.facts[pole].ray]))
        assert len(frames) >= 2  # copy N's, one re-pole's; its instances make no lemma step
        assert Rotation.identity() in frames.values()


def rejected(doc, tamper, why=None):
    """(kind, index) at which trace_check rejects a copy of doc changed by
    tamper, for a reason that matches why."""
    tamper(doc := copy.deepcopy(doc))
    with pytest.raises(Rejected, match=why) as err:
        check_trace(doc)
    return err.value.kind, err.value.index


class TestFactShapesFromDocument:
    """tests/trace_check.py, run by tests/test_cli.py::TestEndToEnd on eight
    ks demo outputs, reads each fact from the trace document alone, and
    rejects a tamper where it breaks one."""

    @pytest.mark.parametrize("which, counts", [
        ("first_trace", {"assume": 8, "orthogonal_zero": 15, "circle_zero": 10,
                         "lemma_zero": 6, "triad_one": 17}),
        ("second_trace", {"assume": 10, "orthogonal_zero": 20, "circle_zero": 12,
                          "lemma_zero": 8, "triad_one": 22}),
    ], ids=["first", "second"])
    def test_each_fact_has_a_rule_shape(self, which, counts, request):
        doc = json.loads(save_trace(request.getfixturevalue(which)))
        facts = doc["facts"]
        assert check_trace(doc)[0] == counts
        # a circle step's premise flipped to 0, at the first fact citing it
        one = next(f for f in facts if f["rule"] == "circle_zero")["premises"][0]
        citer = min(i for i, f in enumerate(facts) if one in f["premises"])
        assert rejected(doc, lambda d: d["facts"][one].update(value=0)) == ("fact", citer)
        lemma = next(i for i, f in enumerate(facts) if f["rule"] == "lemma_zero")
        assert rejected(doc, lambda d: d["facts"][lemma].update(witness=None)) == ("fact", lemma)
        leaf = next(b["idx"] for b in doc["branches"] if b["contradiction"])
        free = {"ray": 0, "value": 1, "rule": "assume", "premises": [], "branch": leaf}
        assert rejected(doc, lambda d: d["facts"].append(free)) == ("fact", len(facts))
        # a split's children swapped, a leaf's clash dropped, an eps that admits any step
        assert rejected(doc, lambda d: d["branches"][0]["children"].reverse()) == ("split", 0)
        assert rejected(doc, lambda d: d["branches"][leaf].update(contradiction=None)) == ("leaf", leaf)
        assert rejected(doc, lambda d: d.update(eps=1.0)) == ("eps", 1.0)
        # a record of the wrong shape is a named fault, not a KeyError or a
        # TypeError: a branch without children, a fact whose premises are no
        # list, and ids that are not integers
        for tamper, where in [
            (lambda d: d["branches"][leaf].pop("children"), ("branch", leaf)),
            (lambda d: d["facts"][lemma].update(premises=7), ("fact", lemma)),
            (lambda d: d["facts"][lemma].update(ray=1.0), ("fact", lemma)),
            (lambda d: d["branches"][leaf].update(parent="0"), ("branch", leaf)),
            (lambda d: d["instances"][0].update(first=None), ("instance", 0)),
        ]:
            assert rejected(doc, tamper, "has other keys or a field of another type") == where

    def test_script_exits_1_naming_the_bad_fact(self, second_trace, tmp_path):
        doc = json.loads(save_trace(second_trace))
        doc["facts"][5]["rule"] = "guess"
        (tmp_path / "trace.json").write_text(json.dumps(doc))
        run = subprocess.run([sys.executable, trace_check.__file__, str(tmp_path / "trace.json")],
                             capture_output=True, text=True)
        assert run.returncode == 1 and run.stdout == "" and "fact 5 is malformed" in run.stderr
        # and a branch record without children, by name, with no traceback
        doc = json.loads(save_trace(second_trace))
        del doc["branches"][2]["children"]
        (tmp_path / "trace.json").write_text(json.dumps(doc))
        run = subprocess.run([sys.executable, trace_check.__file__, str(tmp_path / "trace.json")],
                             capture_output=True, text=True)
        assert run.returncode == 1 and "branch 2 has other keys" in run.stderr
        assert "Traceback" not in run.stderr

    def test_script_exits_1_with_its_usage_at_a_k_not_in_ascii_digits(self, second_trace, tmp_path):
        # "²" passes str.isdigit() but not int(): refused before a file is read
        (tmp_path / "trace.json").write_text(save_trace(second_trace))
        (tmp_path / "system.json").write_text(save_system(extract_triad_system(second_trace)))
        run = subprocess.run([sys.executable, trace_check.__file__, str(tmp_path / "trace.json"),
                              str(tmp_path / "system.json"), "\u00b2"], capture_output=True, text=True)
        assert run.returncode == 1 and run.stdout == "" and "Traceback" not in run.stderr
        assert run.stderr == trace_check.__doc__ + "\n"

    def test_script_refuses_a_repeated_key_and_a_file_not_utf8_json(self, second_trace, tmp_path):
        # fact 0's value written twice, the last one its own: json's default
        # reads the document the writer wrote, so the repeat must be refused
        text = save_trace(second_trace)
        doubled = text.replace('"value":', '"value":7,"value":', 1)
        assert '{"ray":0,"value":7,"value":0,' in doubled and json.loads(doubled) == json.loads(text)
        for content, why in [(doubled.encode(), "document 0 repeats the key 'value'"),
                             (b"\xff\xfe{", "not a UTF-8 JSON file"),
                             (text[:-20].encode(), "not a UTF-8 JSON file")]:
            (tmp_path / "trace.json").write_bytes(content)
            run = subprocess.run([sys.executable, trace_check.__file__, str(tmp_path / "trace.json")],
                                 capture_output=True, text=True)
            assert run.returncode == 1 and run.stdout == "" and "Traceback" not in run.stderr
            assert run.stderr.startswith(f"{tmp_path / 'trace.json'}: ") and why in run.stderr
        # and a system document with a repeated key, by its name
        (tmp_path / "trace.json").write_text(text)
        (tmp_path / "system.json").write_text('{"eps":1e-9,"eps":1e-9}')
        run = subprocess.run([sys.executable, trace_check.__file__, str(tmp_path / "trace.json"),
                              str(tmp_path / "system.json"), "11"], capture_output=True, text=True)
        assert run.returncode == 1 and "Traceback" not in run.stderr
        assert run.stderr == f"{tmp_path / 'system.json'}: duplicate key: 'eps'\n"


class TestInstancesFromDocument:
    """The re-pole's identity instance and seed copies X and Y, checked from
    the trace document alone, and the oracle's core: the split members and
    their images under the instances."""

    @pytest.mark.parametrize("which", ["first_trace", "second_trace", "pi_pole_trace"])
    def test_each_instance_maps_every_step(self, which, request):
        doc = json.loads(save_trace(request.getfixturevalue(which)))
        assert len(doc["instances"]) == 3 and check_trace(doc)[2] == [0]
        for k, made in enumerate(doc["instances"]):
            moved = [made["map"][0], made["map"][0], *made["map"][2:]]
            assert rejected(doc, lambda d: d["instances"][k].update(map=moved)) == ("instance", k)

    @pytest.mark.parametrize("which", ["first_trace", "second_trace", "pi_pole_trace"])
    def test_each_hypothesis_is_discharged_in_the_leaf(self, which, request):
        doc = json.loads(save_trace(request.getfixturevalue(which)))
        facts = doc["facts"]
        repole, copy_x, copy_y = doc["instances"]
        # the re-pole's three: v(p') = 1, v(witness) = 1 and a zero of p''s
        # tripod; a seed copy's one: v(N) = 1
        assert sorted(facts[h]["value"] for h in repole["hypotheses"]) == [0, 1, 1]
        assert len(copy_x["hypotheses"]) == len(copy_y["hypotheses"]) == 1
        # the two 1s' discharges swapped: each a 1 the leaf sees, on the other ray
        one, other = [n for n, h in enumerate(repole["hypotheses"]) if facts[h]["value"] == 1]
        swapped = list(repole["discharges"])
        swapped[one], swapped[other] = swapped[other], swapped[one]
        assert rejected(doc, lambda d: d["instances"][0].update(discharges=swapped),
                        "off its ray's image") == ("instance", 0)
        # copy X's v(N) = 1 discharged by copy Y's 1, which copy X's leaf does not see
        assert rejected(doc, lambda d: d["instances"][1].update(discharges=copy_y["discharges"]),
                        "its leaf does not see") == ("instance", 1)
        # the hypotheses listed in another order
        assert rejected(doc, lambda d: d["instances"][0]["hypotheses"].reverse(),
                        "does not list its hypotheses") == ("instance", 0)

    def test_a_discharge_of_the_other_value(self):
        # copy N zeroes x against v(N) = 1, and is held at a leaf under v(x) = 1
        # that also zeroes x: the 0 it sees on x, v(N)'s image, is no discharge
        t = DerivationTrace()
        n0, n1 = t.split(0, NORTH_POLE)
        x = canonicalize((1, 0, 0))
        t.orthogonal_zero(n1, x, t.branches[n1].assumption)
        _, x1 = t.split(n0, x)
        _, y1 = t.split(x1, canonicalize((0, 1, 0)))
        zero_x = t.orthogonal_zero(y1, x, t.branches[y1].assumption)
        assert t.branches[y1].contradiction == (t.branches[x1].assumption, zero_x)
        t.instance(n1, t.branches[n1].assumption + 1, y1, t.frame(t.branches[x1].assumption))
        doc = json.loads(save_trace(t))
        assert rejected(doc, lambda d: None) == ("leaf", 2)  # open, and checked last
        assert rejected(doc, lambda d: d["instances"][0].update(discharges=[zero_x]),
                        "of the other value") == ("instance", 0)

    def test_identity_instance_nested_with_a_discharge_outside_the_body(self):
        # copy N holding an identity instance whose hypothesis, v(N) = 1
        # itself, is discharged outside copy N's body: the builder refuses
        # copy N (test_trace), and the checker the document that forges it
        doc = json.loads(save_trace(nested_outside(with_copy=True)))
        inner = json.loads(save_trace(nested_outside()))["instances"]
        for instances in (doc["instances"], inner):  # open, and leaves are checked last
            assert rejected(doc, lambda d: d.update(instances=instances))[0] == "leaf"
        assert inner[0]["discharges"] == [1] and doc["instances"][0]["first"] == 2
        assert rejected(doc, lambda d: d["instances"].insert(0, inner[0]),
                        "holds instance 0") == ("instance", 1)

    @pytest.mark.parametrize("which, k", [("first_trace", 8), ("second_trace", 11),
                                          ("pi_pole_trace", 8)])
    def test_core_is_the_decision_core(self, which, k, request):
        t = request.getfixturevalue(which)
        system, doc = extract_triad_system(t), json.loads(save_trace(t))
        core = [doc["rays"][m] for m in check_trace(doc)[1]]
        assert sorted(core) == sorted(list(system.rays[i].vec) for i in decision_core(t, system))
        check_oracle(system, core, k)
        with pytest.raises(Rejected, match=f"oracle {k} gave"):
            check_oracle(dataclasses.replace(system, triads=()), core, k)


class TestTriadStepsFromDocument:
    """A triad_one step's tripod is its premises' rays and its own, read from the document."""

    @pytest.mark.parametrize("which", ["first_trace", "second_trace"])
    def test_premise_rays_and_conclusion_pairwise_orthogonal(self, which, request):
        doc = json.loads(save_trace(request.getfixturevalue(which)))
        facts, rays, eps = doc["facts"], doc["rays"], doc["eps"]
        steps = [f for f in facts if f["rule"] == "triad_one"]
        assert len(steps) >= 17
        for fact in steps:
            assert fact["value"] == 1
            assert [facts[p]["value"] for p in fact["premises"]] == [0, 0]
            a, b = (Ray(*rays[facts[p]["ray"]]) for p in fact["premises"])
            c = Ray(*rays[fact["ray"]])
            assert max(abs(a.dot(b)), abs(a.dot(c)), abs(b.dot(c))) <= eps


def witness_endpoint_residuals(t):
    """|a x b| of each lemma_zero fact's last certificate link, the
    certificate held in memory and the rays read from the trace document:
    the last point, mapped to world by t.frame of the chain's pole fact,
    against the fact's ray, and the point before it against the ray of its
    q, the first premise of its premise w's triad_one fact."""
    rays = json.loads(save_trace(t))["rays"]
    residuals = []
    for fact, q, pole in lemma_steps(t):
        frame, points = t.frame(pole), fact.witness.certificate.points
        for point, ray in ((points[-1], rays[fact.ray]), (points[-2], rays[t.facts[q].ray])):
            (ax, ay, az), (bx, by, bz) = frame.apply_inverse(point), ray
            residuals.append(math.hypot(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx))
    return residuals


class TestWitnessesFromDocument:
    """Every lemma_zero certificate ends at its fact's ray, and its last link
    starts at the ray of the fact's q, found through its premise w's fact,
    so a certificate handed to the wrong fact would show against the
    document's rays."""

    @pytest.mark.parametrize("i", [None, *range(40)],
                             ids=["second", *(f"golden{i}" for i in range(40))])
    def test_last_link_spans_the_fact_and_its_q_premise(self, i, second_trace):
        t = second_trace if i is None else demo_first_proof(golden_pole(i))
        residuals = witness_endpoint_residuals(t)
        assert len(residuals) >= 2 * 6  # copy N's; TestSeedImages covers copies X and Y
        assert max(residuals) <= EPS


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


def sweep_targets(n=400):
    """n golden-angle targets (theta, phi) over the cap, theta in (1e-4, pi/4 - 1e-4)."""
    lo, hi = 1e-4, math.pi / 4 - 1e-4
    return [(lo + (hi - lo) * (i + 0.5) / n, i * GOLDEN_ANGLE % (2 * math.pi)) for i in range(n)]


@pytest.fixture(scope="module")
def sweep():
    return [(theta, phi, demo_first_proof(polar_target(theta, phi)))
            for theta, phi in sweep_targets()]


def rerouted(sweep):
    return [(theta, phi, t) for theta, phi, t in sweep
            if not demos_module.DIRECT_LO <= theta <= demos_module.DIRECT_HI]


#: demo-pipeline's demo first target below the direct band: it takes the midpoint route.
MIDPOINT_TARGET = (0.07569945543151446, 2.7246761881093495)


@pytest.fixture(scope="module")
def midpoint_trace():
    return demo_first_proof(polar_target(*MIDPOINT_TARGET))


class TestMidpointRoute:
    """Outside [DIRECT_LO, DIRECT_HI] demo first re-poles at p'', 0.44 rad
    from both the seed pole and p', so its size no longer grows like 1/theta
    near the cap's edges: one more split, whose second child holds the first's
    argument from p'' as an identity instance."""

    def test_every_target_of_the_cap_closes_in_at_most_400_rays(self, sweep):
        assert len(sweep) >= 400
        for theta, phi, t in sweep:
            assert t.closed and len(t.rays) <= 400, (theta, phi, len(t.rays))

    def test_route_by_theta_alone(self, sweep):
        # the direct route holds the re-pole and copies X and Y; the midpoint
        # route one more identity instance, and 159 rays or fewer at any theta
        moved = rerouted(sweep)
        assert 60 <= len(moved) < len(sweep)
        for theta, phi, t in moved:
            assert len(t.instances) == 4 and len(t.rays) <= 159, (theta, phi)
        assert sum(len(t.instances) == 3 for _, _, t in sweep) == len(sweep) - len(moved)

    def test_rerouted_systems_refuted_and_checked(self, sweep):
        for theta, phi, t in rerouted(sweep):
            system, doc = extract_triad_system(t), json.loads(save_trace(t))
            result = solve(system, SolveMode.PROVE_NONE)
            assert result.count == 0 and result.exhaustive, (theta, phi)
            core = decision_core(t, system)
            assert refute_by_core_enumeration(system, list(core)) == (True, 2 ** 11)
            counts, members, identity = check_trace(doc)
            assert all(counts.values()) and len(doc["instances"]) == 4 and identity == [0, 1]
            check_oracle(system, [doc["rays"][m] for m in members], 11)

    def test_midpoint_is_at_the_default_angle_from_both(self):
        for theta, phi in sweep_targets(40):
            pprime = polar_target(theta, phi)
            mid = canonicalize(demos_module._midpoint(pprime.vec))
            for end in (NORTH_POLE, pprime):
                assert math.acos(mid.dot(end)) == pytest.approx(DEFAULT_POLE_ANGLE, abs=1e-12)

    def test_lost_discharge_refused(self, midpoint_trace):
        # instance 1 is the midpoint split's: its hypothesis v(p'') = 1 is the
        # first child's, discharged by the second child's own v(p'') = 1
        t = midpoint_trace
        doc = json.loads(save_trace(t))
        mid = doc["instances"][1]
        (h,), (d,) = mid["hypotheses"], mid["discharges"]
        assert doc["facts"][h]["value"] == doc["facts"][d]["value"] == 1
        assert rejected(doc, lambda d: d["instances"][1].update(discharges=[]),
                        "does not list its hypotheses") == ("instance", 1)
        assert rejected(doc, lambda d: d["instances"][1].update(discharges=[h]),
                        "its leaf does not see") == ("instance", 1)
        # and the builder refuses the instance where the second child never
        # forced v(p'') = 1
        built = DerivationTrace()
        n0, n1 = built.split(0, NORTH_POLE)
        pole = built.branches[n1].assumption
        pprime = polar_target(*MIDPOINT_TARGET)
        mid_f = demos_module._midpoint(pprime.vec)
        children = demos_module._height_split(built, n1, pole, mid_f)
        c1, zero45 = next(children)
        _, mid_fid = demos_module._force_one(built, c1, pole, mid_f, zero45)
        first = len(built.facts)
        demos_module._pole_refutation(built, c1, mid_fid,
                                      to_frame(built.frame(mid_fid), pprime).vec)
        c0, _ = next(children)
        with pytest.raises(BadPremises, match="discharges hypothesis"):
            built.instance(c1, first, c0, Rotation.identity())


class TestGeometryMemos:
    """A trace builds each reach certificate once, by construction and with
    no memo: each lemma_zero call of copy N's argument has its own (q, p).
    Only that argument makes reach calls or circle expansions: copies X and
    Y are its images and make none, nor does the re-pole's identity instance."""

    @pytest.mark.parametrize("build, reaches, expansions", [
        (lambda: demo_first_proof(default_pole()), 6, 16),
        (demo_second_proof, 8, 20),
        (lambda: demo_first_proof(polar_target(*MIDPOINT_TARGET)), 8, 20),
    ], ids=["first", "second", "midpoint"])
    def test_calls_per_demo(self, build, reaches, expansions, monkeypatch):
        counts = {"reach": 0, "expansions": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(trace_module, "reach", counting("reach", trace_module.reach))
        monkeypatch.setattr(trace_module.DerivationTrace, "_macro_step",
                            counting("expansions", trace_module.DerivationTrace._macro_step))
        t = build()
        monkeypatch.undo()
        assert t.closed
        assert counts == {"reach": reaches, "expansions": expansions}


class TestBodyRecords:
    """A trace keeps one record per instanced body, compiled once: copy N's
    for the seed copies X and Y, and each re-pole's for the identity instance
    that holds it (on the midpoint route, the argument from p'' too)."""

    @pytest.mark.parametrize("build, bodies", [
        (lambda: demo_first_proof(default_pole()), 2),
        (lambda: demo_first_proof(polar_target(*MIDPOINT_TARGET)), 3),
        (demo_second_proof, 2),
    ], ids=["first", "midpoint", "second"])
    def test_one_record_and_one_compile_per_body(self, build, bodies, monkeypatch):
        compiled, compile_ = [], trace_module.DerivationTrace._compile
        monkeypatch.setattr(trace_module.DerivationTrace, "_compile",
                            lambda t, *body: compiled.append(body) or compile_(t, *body))
        t = build()
        monkeypatch.undo()
        assert set(t._bodies) == {(i.source, i.first) for i in t.instances}
        assert sorted(compiled) == sorted(t._bodies) and len(compiled) == bodies


class TestFrameCache:
    @pytest.mark.parametrize("build", [lambda: demo_first_proof(default_pole()), demo_second_proof],
                             ids=["first", "second"])
    def test_one_rotation_per_pole_ray(self, build, monkeypatch):
        rotated, poles = [], set()
        rotate, frame = trace_module.rotation_to_pole, trace_module.DerivationTrace.frame

        def counting_frame(t, pole_fact):
            poles.add(t.facts[pole_fact].ray)
            return frame(t, pole_fact)

        monkeypatch.setattr(trace_module, "rotation_to_pole",
                            lambda ray: rotated.append(ray) or rotate(ray))
        monkeypatch.setattr(trace_module.DerivationTrace, "frame", counting_frame)
        t = build()
        # N's frame, the identity, is a rotation too
        assert sorted(t.rays.index(ray) for ray in rotated) == sorted(poles)
        # copy N's poles and the two seed frames its images are mapped by
        assert NORTH_POLE in rotated and len(poles) >= 4


class TestRayTableProbes:
    def test_demo_second_lookups_and_probes(self, monkeypatch):
        # the ray grid's cells are far wider than the merge radius, yet a
        # lookup probes no more stored rays than under a grid of 4*EPS cells;
        # a lookup is a _find call, through ray_index or not, with its cell
        # computed or given (an instance's image), and a probe a same_subspace
        # call made inside one
        counts = {"lookups": 0, "probes": 0}
        depth = 0
        lookup, probe = trace_module.DerivationTrace._find, Ray.same_subspace

        def counting_lookup(t, ray, cell=None):
            nonlocal depth
            counts["lookups"] += 1
            depth += 1
            try:
                return lookup(t, ray, cell)
            finally:
                depth -= 1

        def counting_probe(a, b):
            counts["probes"] += depth > 0
            return probe(a, b)

        monkeypatch.setattr(trace_module.DerivationTrace, "_find", counting_lookup)
        monkeypatch.setattr(Ray, "same_subspace", counting_probe)
        t = demo_second_proof()
        monkeypatch.undo()
        assert len(t.rays) == 153
        # a circle step looks e, w and its point up once, before it stores
        # anything, and compares a new point with a new e; an instance looks
        # each body ray's image up once, filing the new ones as they are, and
        # an identity instance looks nothing up
        assert counts == {"lookups": 195, "probes": 55}


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
        assert len(t.branches) > 8
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
        "which, counts", [("first", (15, 10, 6)), ("second", (20, 12, 8))]
    )
    def test_zero_facts_cite_their_one_last(self, which, counts, first_trace, second_trace):
        # extract_triad_system reads each zero-against-one pair off its one premise
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

    @pytest.mark.parametrize("which", ["first", "second", *range(40)],
                             ids=["first", "second", *(f"golden{i}" for i in range(40))])
    def test_every_trace_ray_is_in_the_system(self, which, first_trace, second_trace):
        if which == "first":
            t = first_trace
        elif which == "second":
            t = second_trace
        else:
            t = demo_first_proof(golden_pole(which))
        system = extract_triad_system(t)
        assert system.n_rays == len(t.rays) and set(system.rays) == set(t.rays)


class TestUncitedFacts:
    """The facts that no fact, contradiction or instance cites. Each is the zero of
    u_minus that _height_split stores just after its u_plus = 1 assumption:
    the first circle step from u_minus finds the pole of u_minus's circle,
    u_plus, already at 1 and cites that assumption instead. Copies X and Y
    store no fact, and copy N argues its re-pole once, so copy N's two are all;
    on the midpoint route its split toward p'' adds a third."""

    @pytest.mark.parametrize("build, splits", [
        (lambda: demo_first_proof(default_pole()), 2),
        (demo_second_proof, 2),
        (lambda: demo_first_proof(polar_target(*MIDPOINT_TARGET)), 3),
    ], ids=["first", "second", "midpoint"])
    def test_only_the_sibling_zeros_of_height_splits(self, build, splits, monkeypatch):
        sibling_zeros = []
        height_split = demos_module._height_split

        def recording(t, branch, pole_fact, aim_f):
            steps = height_split(t, branch, pole_fact, aim_f)
            child, zero = next(steps)  # the u_plus = 1 child comes first
            sibling_zeros.append(zero)
            yield child, zero
            yield from steps

        monkeypatch.setattr(demos_module, "_height_split", recording)
        t = build()
        cited = {p for f in t.facts for p in f.premises}
        cited.update(f for b in t.branches if b.contradiction for f in b.contradiction)
        cited.update(d for i in t.instances for d in i.hypotheses.values())
        uncited = [fid for fid in range(len(t.facts)) if fid not in cited]
        assert len(sibling_zeros) == splits  # copy N's height splits
        assert uncited == sibling_zeros
        for fid in uncited:
            fact = t.facts[fid]
            one = t.branches[fact.branch].assumption
            assert t.facts[one].value == 1 and fid == one + 1
            assert fact.rule == "orthogonal_zero" and fact.premises == (one,)


class Made(NamedTuple):
    n_rays: int  # rays and facts stored before the instance
    n_facts: int
    instance: trace_module.Instance


def instanced(build, monkeypatch):
    """A demo trace and a Made record of each of its instance calls."""
    made = []
    instance = trace_module.DerivationTrace.instance

    def recording(t, source, first, branch, frame):
        before = len(t.rays), len(t.facts)
        record = instance(t, source, first, branch, frame)
        assert len(t.facts) == before[1]  # an instance stores no fact
        made.append(Made(*before, record))
        return record

    monkeypatch.setattr(trace_module.DerivationTrace, "instance", recording)
    t = build()
    monkeypatch.undo()
    return t, made


IMAGE_CASES = {
    "first": (lambda: demo_first_proof(default_pole()), (6, 10)),
    "second": (demo_second_proof, (7, 1)),
    # the on-axis lattice target, where the images merge the most rays
    "pi": (lambda: demo_first_proof(polar_target(0.34038461538461534, math.pi)), (18, 6)),
    # TestEndToEnd's off-axis target (tests/test_cli.py), where they merge none
    "generic": (lambda: demo_first_proof(polar_target(0.3, 1.0)), (0, 0)),
    **{f"golden{i}": (lambda i=i: demo_first_proof(golden_pole(i)), None) for i in range(40)},
}


class TestSeedImages:
    """Seed copies X and Y are instances of copy N: each maps every body ray,
    in the order copy N's facts first name it, to the body ray mapped by the
    copy's seed frame, bit for bit where the instance stored that image, or
    to a ray stored before the instance within |a x b| <= EPS of it (a
    merge). The extracted system, copy N's steps and their images through
    both maps, is refuted by the kernel and by the oracle."""

    @pytest.mark.parametrize("case", list(IMAGE_CASES))
    def test_copies_x_and_y_are_images_of_copy_n(self, case, monkeypatch):
        build, pinned = IMAGE_CASES[case]
        t, made = instanced(build, monkeypatch)
        (n_branch, _), *images = seed_copies(t)
        n_pole = t.branches[n_branch].assumption
        # copy N's body: its facts after v(N) = 1, the first citing it
        body = [f for f in t.facts[n_pole + 1:] if n_branch in t.branches[f.branch].scope]
        assert body[0].premises == (n_pole,)
        assert [m.instance for m in made] == t.instances
        # first, inside copy N, the re-pole's identity instance, then copies X and Y
        repole, *copies = made
        assert all(r == j for r, j in repole.instance.rays.items())
        assert n_branch in t.branches[repole.instance.branch].scope
        assert [(m.instance.source, m.instance.branch) for m in copies] == [
            (n_branch, b) for b, _ in images]
        order = list(dict.fromkeys(r for f in body for r in (*(t.facts[p].ray for p in f.premises),
                                                              f.ray)))
        ends = [m.n_rays for m in copies[1:]] + [len(t.rays)]
        merges = []
        for m, (branch, frame), end in zip(copies, images, ends):
            i = m.instance
            # the body from its first fact on, with one hypothesis, v(N) = 1,
            # discharged by the copy's own 1
            assert t.facts[i.first] is body[0] and list(i.hypotheses) == [n_pole]
            (pole_fact,) = i.hypotheses.values()
            assert t.frame(pole_fact) == frame
            assert all(c in (0.0, 1.0, -1.0) for row in frame.rows for c in row)
            assert list(i.rays) == order
            assert i.rays[t.facts[n_pole].ray] == t.facts[pole_fact].ray
            assert set(range(m.n_rays, end)) <= set(i.rays.values())  # nothing else stored
            merged = set()
            for r, j in i.rays.items():
                expect, got = to_world(frame, t.rays[r].vec), t.rays[j]
                if j >= m.n_rays:
                    assert got.vec == expect.vec
                else:
                    assert got.same_subspace(expect)  # |a x b| <= EPS
                    if r != t.facts[n_pole].ray:
                        merged.add(r)
            merges.append(len(merged))
        if pinned is not None:
            assert tuple(merges) == pinned
        assert all(f.witness is not None for f in body if f.rule == "lemma_zero")
        system = extract_triad_system(t)
        result = solve(system, SolveMode.PROVE_NONE)
        assert result.count == 0 and result.exhaustive
        core = decision_core(t, system)
        assert refute_by_core_enumeration(system, list(core)) == (True, 2 ** len(core))
