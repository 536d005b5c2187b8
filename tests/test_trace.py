import copy
import math

import pytest

from ksgeom import trace as trace_module
from ksgeom.errors import (
    AtPole,
    BadPremises,
    NotNorthern,
    NotOnCircle,
    NotOrthogonal,
    OpenBranch,
    PremiseNotOne,
    PremiseNotZero,
)
from ksgeom.reach import reach, verify_certificate
from ksgeom.sphere import (
    EPS,
    NORTH_POLE,
    Ray,
    Rotation,
    canonicalize,
    complete_tripod,
    circle_partners,
    cross,
    rotation_to_pole,
    third_point,
)
from ksgeom.system import TriadSystem
from ksgeom.trace import (
    CELL,
    RULE_ASSUME,
    RULE_CIRCLE_ZERO,
    RULE_LEMMA_ZERO,
    RULE_TRIAD_ONE,
    CertWitness,
    DerivationTrace,
    ValueFact,
    extract_triad_system,
    to_world,
)

from conftest import given, random_northern

R2 = math.sqrt(0.5)


def reference_extract(t: DerivationTrace) -> TriadSystem:
    """extract_triad_system as it was written before its loops were tuned,
    sorting each constraint before and after the remap; the production
    extraction must give an equal system. The trace must be closed."""
    facts = t.facts
    triads: dict[tuple[int, ...], None] = {}
    zero_pairs: dict[tuple[int, int], None] = {}
    for ray, _, rule, premises, _, _ in facts:
        if rule == RULE_TRIAD_ONE:
            triads[tuple(sorted((facts[premises[0]].ray, facts[premises[1]].ray, ray)))] = None
        elif rule != RULE_ASSUME:
            a = facts[premises[0]].ray
            zero_pairs[(a, ray) if a < ray else (ray, a)] = None
    for i in t.instances:
        at = list(i.rays.values())
        triads.update(dict.fromkeys(tuple(sorted((at[a], at[b], at[c]))) for a, b, c in i.triads))
        zero_pairs.update(dict.fromkeys((min(at[a], at[r]), max(at[a], at[r])) for a, r in i.zeros))
    covered = {e for a, b, c in triads for e in ((a, b), (a, c), (b, c))}
    pairs = [pair for pair in zero_pairs if pair not in covered]
    images = {i.branch: [i.rays[b.split] for b in t.branches
                         if b.split is not None and i.source in b.scope] for i in t.instances}
    members = [m for b in t.branches for m in images.get(b.idx, [b.split])[:1] if m is not None]
    members += [m for made in images.values() for m in made[1:]]
    touched = dict.fromkeys(members + [i for tri in triads for i in tri]
                            + [i for pair in pairs for i in pair])
    remap = {old: new for new, old in enumerate(touched)}
    return TriadSystem(
        rays=tuple(t.rays[old] for old in touched),
        triads=tuple(tuple(sorted(remap[i] for i in tri)) for tri in triads),
        pairs=tuple((min(remap[a], remap[b]), max(remap[a], remap[b])) for a, b in pairs),
    )


def seeded():
    """A trace split on v(N): (trace, the v(N) = 1 branch, its assumption's fact id)."""
    t = DerivationTrace()
    return (t, *given(t, 0, NORTH_POLE, 1))


class TestSeed:
    def test_single_fact(self):
        t, b, pole = seeded()
        assert len(t.facts) == 2  # the split's two assumptions
        f = t.facts[pole]
        assert f.value == 1 and t.rays[f.ray].vec == (0.0, 0.0, 1.0)
        assert f.branch == b and t.branches[b].assumption == pole

    def test_no_contradiction(self):
        t, b, _ = seeded()
        assert t.contradiction is None and not t.branches[b].contradiction

    def test_equator_consequence_available(self):
        t, b, pole = seeded()
        f = t.facts[t.orthogonal_zero(b, canonicalize((1, 0, 0)), pole)]
        assert f.value == 0 and t.rays[f.ray].vec == (1.0, 0.0, 0.0)


class TestOrthogonalZero:
    def test_equator_rays(self):
        t, b, pole = seeded()
        for v in ((1, 0, 0), (0, 1, 0), (0.6, -0.8, 0)):
            assert t.facts[t.orthogonal_zero(b, canonicalize(v), pole)].value == 0

    def test_not_orthogonal(self):
        t, b, pole = seeded()
        with pytest.raises(NotOrthogonal):
            t.orthogonal_zero(b, NORTH_POLE, pole)

    def test_premise_not_one(self):
        t, b, pole = seeded()
        zero = t.orthogonal_zero(b, canonicalize((1, 0, 0)), pole)
        with pytest.raises(PremiseNotOne):
            t.orthogonal_zero(b, canonicalize((0, 1, 0)), zero)


class TestTriadOne:
    def test_completion_tripod(self):
        t, b, pole = seeded()
        q = canonicalize((0, R2, R2))
        trip = complete_tripod(q)
        f_e = t.orthogonal_zero(b, trip.b, pole)
        b, f_q = given(t, b, q, 0)
        fid = t.triad_one(b, trip.c, f_q, f_e)
        fact = t.facts[fid]
        assert fact.value == 1
        assert t.rays[fact.ray].same_subspace(trip.c)
        assert fact.premises == (f_q, f_e) and fact.witness is None

    def test_fixed_tripod_example(self):
        # zeros on (1,0,0) and (0,1/r2,1/r2) force 1 on (0,-1/r2,1/r2)
        t, n1, pole = seeded()
        a = canonicalize((1, 0, 0))
        b = canonicalize((0, R2, R2))
        c = canonicalize((0, -R2, R2))
        f_a = t.orthogonal_zero(n1, a, pole)
        b0, f_b = given(t, n1, b, 0)
        fid = t.triad_one(b0, c, f_a, f_b)
        assert t.rays[t.facts[fid].ray].same_subspace(c)

    def test_premise_mismatch(self):
        # a stray premise's ray is not orthogonal to the third: nothing is stored
        t, b, pole = seeded()
        trip = complete_tripod(canonicalize((0, R2, R2)))
        stray = t.orthogonal_zero(b, canonicalize((0.6, -0.8, 0)), pole)
        b, ok = given(t, b, trip.a, 0)
        n_rays, n_facts = len(t.rays), len(t.facts)
        with pytest.raises(NotOrthogonal) as exc:
            t.triad_one(b, trip.c, ok, stray)
        assert exc.value.exit_code == 10
        assert (len(t.rays), len(t.facts)) == (n_rays, n_facts)

    def test_nan_third_fails_closed(self, nan_ray):
        t, b, pole = seeded()
        trip = complete_tripod(canonicalize((0, R2, R2)))
        f_e = t.orthogonal_zero(b, trip.b, pole)
        b, f_q = given(t, b, trip.a, 0)
        n_rays, n_facts = len(t.rays), len(t.facts)
        with pytest.raises(NotOrthogonal, match="nan"):
            t.triad_one(b, nan_ray, f_q, f_e)
        assert (len(t.rays), len(t.facts)) == (n_rays, n_facts)

    def test_same_ray_twice(self):
        t, b, _ = seeded()
        trip = complete_tripod(canonicalize((0, R2, R2)))
        b, f1 = given(t, b, trip.a, 0)
        with pytest.raises(BadPremises):
            t.triad_one(b, trip.c, f1, f1)

    def test_one_ray_lookup(self, monkeypatch):
        # the premises' rays are already stored; only the third is looked up
        t, b, pole = seeded()
        trip = complete_tripod(canonicalize((0, R2, R2)))
        f_e = t.orthogonal_zero(b, trip.b, pole)
        b, f_q = given(t, b, trip.a, 0)
        looked_up = []
        lookup = t._find
        monkeypatch.setattr(t, "_find", lambda ray: looked_up.append(ray) or lookup(ray))
        t.triad_one(b, trip.c, f_q, f_e)
        assert looked_up == [trip.c]


class TestFactRecord:
    def test_fields_are_read_only(self):
        t, b, pole = seeded()
        fact = t.facts[pole]
        assert fact == ValueFact(ray=0, value=1, rule="assume", premises=(), branch=b)
        for name in ("ray", "value", "rule", "premises", "branch", "witness"):
            with pytest.raises(AttributeError):
                setattr(fact, name, None)


def skewed_tripod():
    """(q, e, w) of q = (0, 1/r2, 1/r2) with w turned 3e-7 toward e: not orthogonal at EPS."""
    q, e = canonicalize((0, R2, R2)), canonicalize((1, 0, 0))
    return q, e, canonicalize((3e-7, -R2, R2))


class TestTripodsCheckedAtEps:
    # a tripod is orthogonal at the slack orthogonal_zero uses, not a looser one
    def test_triad_one_refuses_skewed_tripod(self):
        t, b, pole = seeded()
        q, e, w = skewed_tripod()
        f_e = t.orthogonal_zero(b, e, pole)
        b, f_q = given(t, b, q, 0)
        n_rays, n_facts = len(t.rays), len(t.facts)
        with pytest.raises(NotOrthogonal):
            t.triad_one(b, w, f_q, f_e)
        assert (len(t.rays), len(t.facts)) == (n_rays, n_facts)


class TestFrame:
    def test_north_pole_frame_is_the_identity(self):
        t, b, pole = seeded()
        assert t.frame(pole) == rotation_to_pole(NORTH_POLE) == Rotation.identity()

    def test_frame_turns_the_stored_pole_ray_to_the_north_pole(self):
        t = DerivationTrace()
        one = canonicalize((0.3, -0.5, 0.8))
        frame = t.frame(given(t, 0, one, 1)[1])
        assert frame == rotation_to_pole(one)

    def test_value_zero_fact_has_no_frame(self):
        t, b, pole = seeded()
        zero = t.orthogonal_zero(b, canonicalize((1, 0, 0)), pole)
        with pytest.raises(PremiseNotOne):
            t.frame(zero)

    def test_cached_frame_still_checks_the_value(self):
        t = DerivationTrace()
        one = canonicalize((0.3, -0.5, 0.8))
        b0, b1 = t.split(0, one)
        assert t.frame(t.branches[b1].assumption) == rotation_to_pole(one)
        with pytest.raises(PremiseNotOne):
            t.frame(t.branches[b0].assumption)  # same ray, value 0


class TestCircleZero:
    def test_any_point_on_circle(self):
        t, b, pole = seeded()
        q = canonicalize((0, R2, R2))
        b, q_fact = given(t, b, q, 0)
        fid = t.circle_zero(b, q_fact, canonicalize((1, 0, 0)), pole)
        assert t.facts[fid].value == 0

    def test_idempotent_on_q(self):
        t, b, pole = seeded()
        q = canonicalize((0, R2, R2))
        b, q_fact = given(t, b, q, 0)
        n_before = len(t.facts)
        # collapses to the existing fact: no new conclusion about q
        assert t.circle_zero(b, q_fact, q, pole) == q_fact
        assert t.facts[q_fact].value == 0
        assert len(t.facts) > n_before  # expansion facts were still recorded

    def test_not_on_circle(self):
        t, b, pole = seeded()
        q = canonicalize((0, R2, R2))
        b, q_fact = given(t, b, q, 0)
        with pytest.raises(NotOnCircle):
            t.circle_zero(b, q_fact, canonicalize((0.3, 0.4, 0.8660254037844386)), pole)

    def test_premise_not_zero(self):
        t, b, pole = seeded()
        with pytest.raises(PremiseNotZero):
            t.circle_zero(b, pole, canonicalize((1, 0, 0)), pole)

    def test_nan_point_fails_closed(self, nan_ray):
        t, b, pole = seeded()
        b, q_fact = given(t, b, canonicalize((0, R2, R2)), 0)
        n_rays, n_facts = len(t.rays), len(t.facts)
        with pytest.raises(NotOnCircle, match="nan"):
            t.circle_zero(b, q_fact, nan_ray, pole)
        assert (len(t.rays), len(t.facts)) == (n_rays, n_facts)

    def test_circle_in_a_rotated_frame(self):
        # the circle is q's circle in the frame whose pole is the value-1 ray
        t = DerivationTrace()
        one = canonicalize((0.3, -0.5, 0.8))
        br, pole = given(t, 0, one, 1)
        frame = rotation_to_pole(one)
        qf = canonicalize((0.2, 0.3, 0.8))
        br, q_fact = given(t, br, to_world(frame, qf.vec), 0)
        a, b = math.cos(1.1), math.sin(1.1)
        pf = tuple(a * x + b * y for x, y in zip(qf.vec, circle_partners(NORTH_POLE, qf)[0].vec))
        fid = t.circle_zero(br, q_fact, to_world(frame, pf), pole)
        assert (t.facts[fid].value, t.facts[fid].rule) == (0, RULE_CIRCLE_ZERO)

        off = tuple(x + 10 * EPS * w for x, w in zip(pf, third_point(qf).vec))
        n_rays, n_facts = len(t.rays), len(t.facts)
        with pytest.raises(NotOnCircle):
            t.circle_zero(br, q_fact, to_world(frame, off), pole)
        assert (len(t.rays), len(t.facts)) == (n_rays, n_facts)

    def test_works_in_world_coordinates(self, monkeypatch):
        # the completion tripod of q under an off-north pole needs no frame
        def no_rotation(ray):
            raise AssertionError("circle_zero rotated into a frame")

        monkeypatch.setattr(trace_module, "rotation_to_pole", no_rotation)
        t = DerivationTrace()
        one = canonicalize((0.3, -0.5, 0.8))
        br, pole = given(t, 0, one, 1)
        q = canonicalize((0.2, 0.3, 0.8))
        br, q_fact = given(t, br, q, 0)
        e = canonicalize(cross(one.vec, q.vec))  # q's equator partner under the pole
        p = canonicalize(tuple(0.6 * a + 0.8 * b for a, b in zip(q.vec, e.vec)))
        fact = t.facts[t.circle_zero(br, q_fact, p, pole)]
        assert (fact.value, fact.rule) == (0, RULE_CIRCLE_ZERO)
        w = t.rays[t.facts[fact.premises[-1]].ray]
        assert abs(w.dot(p)) <= 1e-15 and abs(w.dot(q)) <= 1e-15

    def test_refusal_order(self):
        # the pole's value first, then q's, then q's place over the pole; a
        # refused call stores nothing
        t = DerivationTrace()
        one = canonicalize((0.3, -0.5, 0.8))
        b, pole = given(t, 0, one, 1)
        b, not_one = given(t, b, canonicalize((0.2, 0.3, 0.8)), 0)
        b, equatorial = given(t, b, canonicalize(cross(one.vec, (1.0, 0.0, 0.0))), 0)
        p = canonicalize((1, 0, 0))
        before = table_state(t)
        for q_fact, pole_fact, refusal in [
            (pole, not_one, PremiseNotOne),
            (pole, pole, PremiseNotZero),
            (equatorial, pole, NotNorthern),
        ]:
            with pytest.raises(refusal):
                t.circle_zero(b, q_fact, p, pole_fact)
            assert table_state(t) == before
        # v(pole ray) = 0 as well, against a 1 on an orthogonal ray: a clash
        b, other = given(t, b, canonicalize(cross(one.vec, (0.0, 1.0, 0.0))), 1)
        zero_pole = t.orthogonal_zero(b, one, other)
        before = table_state(t)
        with pytest.raises(AtPole):
            t.circle_zero(b, zero_pole, p, pole)
        assert table_state(t) == before

    def test_macro_soundness(self):
        # the recorded expansion replays to the same conclusion
        t, b, pole = seeded()
        q = canonicalize((0.2, 0.3, 0.8))
        b, q_fact = given(t, b, q, 0)
        trip = complete_tripod(q)
        # pick p on C(q): combination of q and its equator partner
        c, s = math.cos(1.1), math.sin(1.1)
        p = canonicalize(tuple(c * x + s * y for x, y in zip(q.vec, trip.b.vec)))
        fid = t.circle_zero(b, q_fact, p, pole)
        fact = t.facts[fid]
        (w_prem,) = fact.premises  # the conclusion cites the circle pole's fact alone
        w_fact = t.facts[w_prem]
        assert (w_fact.value, w_fact.rule) == (1, "triad_one")
        q_prem, e_prem = w_fact.premises
        assert q_prem == q_fact
        assert t.facts[e_prem].value == 0
        # replay: p orthogonal to the value-1 expansion ray
        w_ray = t.rays[t.facts[w_prem].ray]
        assert abs(w_ray.dot(p)) <= 1e-9
        replay = t.orthogonal_zero(b, p, w_prem)
        assert replay == fid  # dedup: same fact


class TestLemmaZero:
    def test_chain_with_stored_certificate(self):
        t, b, pole = seeded()
        q = canonicalize((0, R2, R2))
        b, q_fact = given(t, b, q, 0)
        p = canonicalize((0.5, 0.2, 0.3))
        fact = t.facts[t.lemma_zero(b, q_fact, p, pole)]
        assert fact.value == 0
        assert fact.rule == RULE_LEMMA_ZERO
        assert isinstance(fact.witness, CertWitness)
        report = verify_certificate(fact.witness.certificate)
        assert report.accepted

    def test_single_link_for_circle_member(self):
        t, b, pole = seeded()
        q = canonicalize((0, R2, R2))
        b, q_fact = given(t, b, q, 0)
        p = canonicalize((1, 0, 0))  # on C(q) but not northern: reach needs northern
        with pytest.raises(Exception):
            t.lemma_zero(b, q_fact, p, pole)

    def test_rejects_higher_target(self):
        t, b, pole = seeded()
        q = canonicalize((0, R2, R2))
        b, q_fact = given(t, b, q, 0)
        with pytest.raises(Exception):
            t.lemma_zero(b, q_fact, canonicalize((0.05, 0.05, 0.99)), pole)


class TestCertificateMemo:
    def test_signed_zero_inputs_share_one_certificate(self):
        # p differs only in the sign of y = 0, so reach on the rays as given
        # turns its spirals opposite ways (atan2(+-0.0, x < 0)); frame
        # coordinates come from canonicalize, which writes 0.0 for -0.0, so
        # both calls reach the one frame point and build equal certificates
        t, b, pole = seeded()
        q = canonicalize((0.3, 0.0, 0.95))
        b, q_fact = given(t, b, q, 0)
        branches = t.split(b, canonicalize((0, R2, R2)))
        targets = (Ray(-0.6, 0.0, 0.8), Ray(-0.6, -0.0, 0.8))
        assert targets[0] == targets[1] and reach(q, targets[0]) != reach(q, targets[1])
        certs = []
        for branch, p in zip(branches, targets):
            fact = t.facts[t.lemma_zero(branch, q_fact, p, pole)]
            assert fact.branch == branch
            certs.append(fact.witness.certificate)
        assert certs[0] == certs[1] == reach(q, targets[0])
        assert verify_certificate(certs[0]).accepted


class TestBranching:
    def test_split_covers_both_values(self):
        t, b, _ = seeded()
        q = canonicalize((0, R2, R2))
        b0, b1 = t.split(b, q)
        assert t.facts[t.branches[b0].assumption].value == 0
        assert t.facts[t.branches[b1].assumption].value == 1
        assert t.branches[b].split == t.ray_index(q)

    @pytest.mark.parametrize("i", range(3))
    def test_each_tripod_ray_is_a_member(self, i):
        # a split stores the ray it decides and none of that ray's tripod
        t = DerivationTrace()
        trip = complete_tripod(canonicalize((0, R2, R2)))
        member = (trip.a, trip.b, trip.c)[i]
        t.split(0, member)
        assert t.rays == [member] and t.branches[0].split == 0

    @pytest.mark.parametrize("member_s, stored_s, index", [
        (0.5, None, 0),  # a new ray
        (0.5 + 1.5e-9, 0.5, 1),  # 1.5e-9 from a stored ray: a ray of its own
        (0.5 + 1.5e-9, 0.5 + 0.75e-9, 0),  # within eps of a stored ray: that ray's index
    ])
    def test_member_takes_its_table_index(self, member_s, stored_s, index):
        def ray(s):
            return canonicalize((math.sin(s), 0.0, math.cos(s)))

        t = DerivationTrace()
        if stored_s is not None:
            t.ray_index(ray(stored_s))
        b0, b1 = t.split(0, ray(member_s))
        assert t.branches[0].split == index and len(t.rays) == index + 1
        assert [t.facts[t.branches[b].assumption].ray for b in (b0, b1)] == [index, index]

    def test_premises_visible_across_ancestors_only(self):
        t, b, pole = seeded()
        trip = complete_tripod(canonicalize((0, R2, R2)))
        b0, b1 = t.split(b, trip.a)
        f_in_b0 = t.branches[b0].assumption  # v(trip.a) = 0, private to b0
        f_e = t.orthogonal_zero(b, trip.b, pole)
        with pytest.raises(BadPremises, match="not visible"):
            # a fact private to b0 cannot justify anything in b1
            t.triad_one(b1, trip.c, f_in_b0, f_e)

    def test_contradiction_recorded(self):
        t, b, pole = seeded()
        x = canonicalize((1, 0, 0))
        b, f1 = given(t, b, x, 1)
        f0 = t.orthogonal_zero(b, x, pole)  # the visible fact first, then the clash
        assert t.branches[b].contradiction == (f1, f0)
        assert t.contradiction == (f1, f0)

    def test_premises_precede_conclusions(self):
        t, b, pole = seeded()
        q = canonicalize((0, R2, R2))
        b, q_fact = given(t, b, q, 0)
        t.lemma_zero(b, q_fact, canonicalize((0.5, 0.2, 0.3)), pole)
        for fid, fact in enumerate(t.facts):
            assert all(p < fid for p in fact.premises)


def sibling_premises():
    """A trace split on v(q) for q = (0, 1/r2, 1/r2), and premises private to
    the v(q) = 1 branch: its assumption and v(p) = 0 for a new p orthogonal
    to q. Returns (t, pole, b0, one_in_b1, p, zero_in_b1)."""
    t, b, pole = seeded()
    q = canonicalize((0, R2, R2))
    b0, b1 = t.split(b, q)
    one_in_b1 = t.branches[b1].assumption
    p = canonicalize((1, 1, -1))
    zero_in_b1 = t.orthogonal_zero(b1, p, one_in_b1)
    return t, pole, b0, one_in_b1, p, zero_in_b1


def table_state(t):
    cells = {cell: list(ids) for cell, ids in t._cells.items()}
    return len(t.rays), len(t.facts), cells, list(t._ray_cells)


def refiled(t):
    """The cell record and the grid of t's rays filed afresh, in index order."""
    fresh = DerivationTrace()
    for ray in t.rays:
        fresh._file(ray)
    return fresh._ray_cells, fresh._cells


class TestRefusedRuleLeavesTraceUnchanged:
    # every rule checks that its premises are visible before it stores a ray
    # or derives a step of its expansion
    def test_orthogonal_zero(self):
        t, _, b0, one_in_b1, _, _ = sibling_premises()
        new = canonicalize((1, -1, 1))  # orthogonal to q, not yet stored
        before = table_state(t)
        with pytest.raises(BadPremises, match="not visible"):
            t.orthogonal_zero(b0, new, one_in_b1)
        assert table_state(t) == before

    def test_triad_one(self):
        t, _, b0, _, p, zero_in_b1 = sibling_premises()
        q = t.rays[t.facts[t.branches[b0].assumption].ray]
        third = canonicalize(cross(q.vec, p.vec))  # completes (q, p), not yet stored
        before = table_state(t)
        with pytest.raises(BadPremises, match="not visible"):
            t.triad_one(b0, third, t.branches[b0].assumption, zero_in_b1)
        assert table_state(t) == before

    def test_circle_zero(self):
        t, pole, b0, _, p, zero_in_b1 = sibling_premises()
        e = circle_partners(NORTH_POLE, p)[0]
        on_circle = canonicalize(tuple(0.8 * a + 0.6 * b for a, b in zip(p.vec, e.vec)))
        assert abs(third_point(p).dot(on_circle)) <= EPS
        before = table_state(t)
        with pytest.raises(BadPremises, match="not visible"):
            t.circle_zero(b0, zero_in_b1, on_circle, pole)
        assert table_state(t) == before

    def test_lemma_zero(self):
        t, pole, b0, _, _, zero_in_b1 = sibling_premises()
        before = table_state(t)
        with pytest.raises(BadPremises, match="not visible"):
            t.lemma_zero(b0, zero_in_b1, canonicalize((0.5, 0.2, 0.3)), pole)
        assert table_state(t) == before

    def test_triad_one_from_a_value_one_premise(self):
        # (N, x, y) is a tripod, but v(N) = 1: the value check refuses the step
        t, b, pole = seeded()
        zero_x = t.orthogonal_zero(b, canonicalize((1, 0, 0)), pole)
        before = table_state(t), copy.deepcopy(t.branches)
        with pytest.raises(BadPremises, match="must both assign value 0"):
            t.triad_one(b, canonicalize((0, 1, 0)), pole, zero_x)
        assert (table_state(t), t.branches) == before

    def test_lemma_zero_from_a_value_one_q(self, monkeypatch):
        t, b, pole = seeded()
        b1, one_q = given(t, b, canonicalize((0, R2, R2)), 1)
        before = table_state(t), copy.deepcopy(t.branches)
        monkeypatch.setattr(trace_module, "reach", None)  # refused before any reach call
        with pytest.raises(PremiseNotZero):
            t.lemma_zero(b1, one_q, canonicalize((0.5, 0.2, 0.3)), pole)
        assert (table_state(t), t.branches) == before

    def test_circle_zero_from_a_ray_beside_the_pole(self):
        # q = N lies 2e-9 rad from the value-1 pole ray, past the merge
        # radius: the circle pole w built for q is 2e-9 off q, so the
        # expansion's tripod check refuses it before e's zero is stored
        t = DerivationTrace()
        _, b = t.split(0, canonicalize((0, 2e-9, 1)))
        pole = t.branches[b].assumption
        b, q = given(t, b, NORTH_POLE, 0)
        e = circle_partners(t.rays[t.facts[pole].ray], NORTH_POLE)[0]
        p = canonicalize(tuple(0.1 * n + math.sqrt(0.99) * c for n, c in zip(NORTH_POLE.vec, e.vec)))
        before = table_state(t), copy.deepcopy(t.branches)
        with pytest.raises(NotOrthogonal):
            t.circle_zero(b, q, p, pole)
        assert (table_state(t), t.branches) == before

    def test_orthogonal_zero_checked_on_the_stored_ray(self):
        # the query (1, 0, 0.8e-9) is orthogonal to N within EPS, but it merges
        # into the stored (1, 0, 1.5e-9), 0.7e-9 rad away, which the zero would
        # sit on: 1.5e-9 off N's equator, so the step is refused
        t, b, pole = seeded()
        t.ray_index(canonicalize((1, 0, 1.5e-9)))
        query = canonicalize((1, 0, 0.8e-9))
        assert abs(query.dot(NORTH_POLE)) <= EPS
        before = table_state(t), copy.deepcopy(t.branches)
        with pytest.raises(NotOrthogonal):
            t.orthogonal_zero(b, query, pole)
        assert (table_state(t), t.branches) == before

    def test_triad_one_checked_on_the_stored_ray(self):
        # v(x) = v(y) = 0; the third (0.8e-9, 0, 1) merges into the stored
        # (1.5e-9, 0, 1), which is 1.5e-9 off x's plane
        t = DerivationTrace()
        x0, _ = t.split(0, canonicalize((1, 0, 0)))
        y0, _ = t.split(x0, canonicalize((0, 1, 0)))
        t.ray_index(canonicalize((1.5e-9, 0, 1)))
        before = table_state(t), copy.deepcopy(t.branches)
        with pytest.raises(NotOrthogonal):
            t.triad_one(y0, canonicalize((0.8e-9, 0, 1)), t.branches[x0].assumption,
                        t.branches[y0].assumption)
        assert (table_state(t), t.branches) == before

    def test_circle_zero_checked_on_the_stored_ray(self):
        # p is 0.8e-9 off q's circle, within EPS, and merges into a stored ray
        # 1.5e-9 off it, which the conclusion would sit on
        t, b, pole = seeded()
        q = canonicalize((0, R2, R2))
        b, q_fact = given(t, b, q, 0)
        e, w = circle_partners(NORTH_POLE, q)
        on = tuple(0.6 * a + 0.8 * c for a, c in zip(q.vec, e.vec))
        t.ray_index(canonicalize(tuple(a + 1.5e-9 * c for a, c in zip(on, w.vec))))
        p = canonicalize(tuple(a + 0.8e-9 * c for a, c in zip(on, w.vec)))
        before = table_state(t), copy.deepcopy(t.branches)
        with pytest.raises(NotOrthogonal):
            t.circle_zero(b, q_fact, p, pole)
        assert (table_state(t), t.branches) == before

    def test_split(self):
        # an already-split branch is refused before the new member is stored
        t, b, pole = seeded()
        b0, _ = t.split(b, canonicalize((0, R2, R2)))
        t.orthogonal_zero(b0, canonicalize((1, 0, 0)), pole)
        before = table_state(t), copy.deepcopy(t.branches)
        with pytest.raises(BadPremises, match="already split"):
            t.split(b, canonicalize((0.3, 0.4, 0.5)))
        assert (table_state(t), t.branches) == before
        # so is a member whose value is visible from the branch: an
        # ancestor's assumption, the branch's own, or a derived fact, found
        # through its subspace
        for decided in (NORTH_POLE, canonicalize((1e-12, R2, R2)), canonicalize((-1, 0, 0))):
            with pytest.raises(BadPremises, match="already decided"):
                t.split(b0, decided)
            assert (table_state(t), t.branches) == before

    def test_pole_fact_from_a_sibling(self):
        t, _, b0, one_in_b1, _, _ = sibling_premises()
        frame = rotation_to_pole(t.rays[t.facts[one_in_b1].ray])  # v(q) = 1 lives in b1
        b0, r_fact = given(t, b0, to_world(frame, (0.1, 0.6, 0.8)), 0)
        r = t.rays[t.facts[r_fact].ray]
        rf = frame.apply(r.vec)
        e = circle_partners(NORTH_POLE, canonicalize(rf))[0]
        on_circle = to_world(frame, tuple(0.8 * a + 0.6 * b for a, b in zip(rf, e.vec)))
        lower = to_world(frame, (0.5, 0.2, 0.3))
        before = table_state(t)
        for rule, point in ((t.circle_zero, on_circle), (t.lemma_zero, lower)):
            with pytest.raises(BadPremises, match="not visible"):
                rule(b0, r_fact, point, one_in_b1)
        assert table_state(t) == before


def copy_n_argument():
    """A trace split on v(N), then, in v(N) = 0, on v(x axis), with a small
    argument under v(N) = 1: the equator partner e of q zeroed, a split on
    q, and in q's 0 child a circle_zero step, in its 1 child a zero against
    q. Returns (t, n1, x0, x1), the v(N) = 1, v(x) = 0 and v(x) = 1 branches."""
    t = DerivationTrace()
    n0, n1 = t.split(0, NORTH_POLE)
    x0, x1 = t.split(n0, canonicalize((1, 0, 0)))
    pole = t.branches[n1].assumption
    q = canonicalize((0.2, 0.3, 0.9))
    e = circle_partners(NORTH_POLE, q)[0]
    t.orthogonal_zero(n1, e, pole)
    q0, q1 = t.split(n1, q)
    on_circle = canonicalize(tuple(0.8 * a + 0.6 * b for a, b in zip(q.vec, e.vec)))
    t.circle_zero(q0, t.branches[q0].assumption, on_circle, pole)
    t.orthogonal_zero(q1, canonicalize(cross(q.vec, (0.0, 1.0, 0.0))), t.branches[q1].assumption)
    return t, n1, x0, x1


def instance_state(t):
    return list(t.rays), table_state(t), list(t.facts), copy.deepcopy(t.branches), list(t.instances)


def copy_n(t, n1, branch, pole_fact):
    """Copy N's body, n1's facts after its v(N) = 1 assumption, as an instance
    at branch under the frame of pole_fact's ray."""
    return t.instance(n1, t.branches[n1].assumption + 1, branch, t.frame(pole_fact))


def first_use_order(t, body):
    """Each ray the body's facts name, in the order they first name it: a
    fact's premises' rays, then its own."""
    return list(dict.fromkeys(r for f in body for r in (*(t.facts[p].ray for p in f.premises), f.ray)))


class TestInstance:
    def test_image_under_the_x_axis(self, monkeypatch):
        t, n1, x0, x1 = copy_n_argument()
        pole, x_one = t.branches[n1].assumption, t.branches[x1].assumption
        body = [f for f in t.facts[pole + 1:] if n1 in t.branches[f.branch].scope]
        n_facts, n_branches = len(t.facts), len(t.branches)
        monkeypatch.setattr(trace_module, "reach", None)  # an instance computes no certificate
        made = copy_n(t, n1, x1, x_one)
        frame = rotation_to_pole(canonicalize((1, 0, 0)))
        assert (len(t.facts), len(t.branches)) == (n_facts, n_branches)  # no fact, no branch
        assert t.instances == [made] and made[:3] == (x1, n1, pole + 1)
        # its one hypothesis, v(N) = 1, is discharged by v(x) = 1
        assert made.hypotheses == {pole: x_one}
        # each body ray once, in the order the body's facts first name it
        assert list(made.rays) == first_use_order(t, body)
        for r, i in made.rays.items():
            assert t.rays[i] == to_world(frame, t.rays[r].vec)
        assert made.rays[t.facts[pole].ray] == t.facts[x_one].ray
        # the instance stands for copy N's leaves: the trace closes with them
        assert x1 in t.leaves() and t.branches[x1].contradiction is None
        assert not t.closed
        for leaf in (x0, *t.branches[n1].children):
            t.branches[leaf].contradiction = (0, 1)
        assert t.closed

    def test_second_instance_reuses_the_compiled_body(self, monkeypatch):
        # the body is frozen once instanced: the second copy maps the first's
        # compiled steps through its own images, and checks every one of them
        t, n1, x0, x1 = copy_n_argument()
        first = copy_n(t, n1, x1, t.branches[x1].assumption)
        _, y1 = t.split(x0, canonicalize((0, 1, 0)))
        tripods = []
        check = trace_module.check_tripod
        monkeypatch.setattr(trace_module, "check_tripod", lambda *r: tripods.append(r) or check(*r))
        second = copy_n(t, n1, y1, t.branches[y1].assumption)
        assert second.triads is first.triads and second.zeros is first.zeros
        assert list(second.rays) == list(first.rays)
        assert list(second.hypotheses) == list(first.hypotheses)
        assert len(tripods) == len(first.triads) > 0
        frame = rotation_to_pole(canonicalize((0, 1, 0)))
        for r, i in second.rays.items():
            image = to_world(frame, t.rays[r].vec)
            assert (t.rays[i].vec, t.rays[i].text) == (image.vec, image.text)

    def test_instance_and_body_take_no_step(self):
        t, n1, x0, x1 = copy_n_argument()
        copy_n(t, n1, x1, t.branches[x1].assumption)
        q0, _ = t.branches[n1].children
        before = instance_state(t)
        steps = [
            lambda: t.orthogonal_zero(q0, canonicalize((0, 0, 1)), t.branches[q0].assumption),
            lambda: t.split(q0, canonicalize((0.3, -0.5, 0.8))),
            lambda: t.split(x1, canonicalize((0.3, -0.5, 0.8))),
            lambda: copy_n(t, n1, x1, t.branches[x1].assumption),
        ]
        for step in steps:
            with pytest.raises(BadPremises, match="is an instance or lies in"):
                step()
            assert instance_state(t) == before

    def test_image_of_a_ray_at_the_unit_edge(self):
        # copy N splits on a ray whose squares sum to 1 + 3.9999e-12 in x, y,
        # z order and past 1 + 4e-12 in its image's, under v(x) = 1
        t, n1, _, x1 = copy_n_argument()
        edge = Ray(0.17177360412668807, 0.8807513770595892, 0.44132849526964063)
        t.split(t.branches[n1].children[0], edge)
        image = t.rays[copy_n(t, n1, x1, t.branches[x1].assumption).rays[t.ray_index(edge)]]
        assert sorted(map(abs, image.vec)) == sorted(edge.vec)

    def test_frame_not_a_signed_permutation_refused(self):
        # rotation_to_pole of a ray off the axes maps rays inexactly
        t, n1, x0, _ = copy_n_argument()
        _, m1 = t.split(x0, canonicalize((0.3, -0.5, 0.8)))
        before = instance_state(t)
        with pytest.raises(BadPremises, match="not a signed permutation"):
            copy_n(t, n1, m1, t.branches[m1].assumption)
        assert instance_state(t) == before

    def test_source_must_assume_the_north_pole(self):
        # a body under v(q) = 1 zeroes a ray against it: a hypothesis that
        # nothing under v(x) = 1 discharges on its image
        t, n1, x0, x1 = copy_n_argument()
        q1 = t.branches[n1].children[1]
        frame = t.frame(t.branches[x1].assumption)
        before = instance_state(t)
        with pytest.raises(BadPremises, match="discharges hypothesis"):
            t.instance(q1, t.branches[q1].assumption + 1, x1, frame)
        # and a body starting at its source's assumption would assume it
        with pytest.raises(BadPremises, match="hold its assumption"):
            t.instance(n1, t.branches[n1].assumption, x1, frame)
        assert instance_state(t) == before

    def test_target_already_split_refused(self):
        t, n1, x0, x1 = copy_n_argument()
        t.split(x1, canonicalize((0.3, -0.5, 0.8)))
        before = instance_state(t)
        with pytest.raises(BadPremises, match="cannot hold an instance"):
            copy_n(t, n1, x1, t.branches[x1].assumption)
        # nor can a leaf of the body, which sees the source
        q0 = t.branches[n1].children[0]
        with pytest.raises(BadPremises, match="cannot hold an instance"):
            copy_n(t, n1, q0, t.branches[n1].assumption)
        assert instance_state(t) == before

    def test_mapped_constraint_10_eps_off_refused(self):
        # copy N's last zero moved 10 eps off its premise's plane: its image
        # is refused before any of the instance's new rays is stored
        t, n1, _, x1 = copy_n_argument()
        fact = t.facts[-1]
        assert fact.rule == "orthogonal_zero" and n1 in t.branches[fact.branch].scope
        one = t.rays[t.facts[fact.premises[0]].ray]
        t.rays[fact.ray] = canonicalize(tuple(a + 10 * EPS * b for a, b in
                                              zip(t.rays[fact.ray].vec, one.vec)))
        before = instance_state(t)
        with pytest.raises(NotOrthogonal):
            copy_n(t, n1, x1, t.branches[x1].assumption)
        assert instance_state(t) == before

    def test_premise_outside_the_subtree_refused(self):
        # under v(x) = 1, v(r) = 0, and then v(N) = 1, a triad_one step cites
        # v(r) = 0 from outside the v(N) = 1 subtree: a hypothesis, which
        # nothing under v(N) = 0 discharges on r's image, so the instance is
        # refused before it stores any ray
        t = DerivationTrace()
        _, x1 = t.split(0, canonicalize((1, 0, 0)))
        r, e = canonicalize((0.6, 0, 0.8)), canonicalize((0, 1, 0))
        r0, zero_r = given(t, x1, r, 0)
        n0, n1 = t.split(r0, NORTH_POLE)
        zero_e = t.orthogonal_zero(n1, e, t.branches[n1].assumption)
        t.triad_one(n1, canonicalize(cross(r.vec, e.vec)), zero_r, zero_e)
        before = instance_state(t)
        with pytest.raises(BadPremises, match=f"discharges hypothesis {zero_r}$"):
            copy_n(t, n1, n0, t.branches[x1].assumption)
        assert instance_state(t) == before

    def test_clash_outside_the_subtree_refused(self):
        # under v(x) = 1, the v(N) = 1 subtree zeroes x against N: its clash
        # cites v(x) = 1 from outside it, a hypothesis that v(y) = 1 under
        # v(x) = 0 sees the other value of on its image, x itself
        t = DerivationTrace()
        x0, x1 = t.split(0, canonicalize((1, 0, 0)))
        _, n1 = t.split(x1, NORTH_POLE)
        t.orthogonal_zero(n1, canonicalize((1, 0, 0)), t.branches[n1].assumption)
        assert t.branches[n1].contradiction[0] == t.branches[x1].assumption
        _, y1 = t.split(x0, canonicalize((0, 1, 0)))
        before = instance_state(t)
        with pytest.raises(BadPremises, match=f"discharges hypothesis {t.branches[x1].assumption}$"):
            copy_n(t, n1, y1, t.branches[y1].assumption)
        assert instance_state(t) == before

    def test_body_holding_an_instance_refused(self):
        # two subtrees assume N at 1, under v(x) = 0 and v(x) = 1; the second
        # holds an instance of the first under the y frame, no identity
        # instance, so it cannot be a body itself
        t = DerivationTrace()
        x0, x1 = t.split(0, canonicalize((1, 0, 0)))
        a0, a1 = t.split(x0, NORTH_POLE)
        _, b1 = t.split(x1, NORTH_POLE)
        y = canonicalize((0, 1, 0))
        _, c1 = t.split(b1, y)
        copy_n(t, a1, c1, t.branches[c1].assumption)
        _, d1 = t.split(a0, y)
        before = instance_state(t)
        with pytest.raises(BadPremises, match="holds an instance"):
            copy_n(t, b1, d1, t.branches[d1].assumption)
        assert instance_state(t) == before


def sibling_argument():
    """A trace split on v(N), under v(N) = 1 on q, and under q = 0 on a ray m;
    from first on, the m = 1 child zeroes a point of q's circle from q = 0
    and N = 1. Returns (t, q1, m0, m1, first)."""
    t = DerivationTrace()
    _, n1 = t.split(0, NORTH_POLE)
    q = canonicalize((0.2, 0.3, 0.9))
    e = circle_partners(NORTH_POLE, q)[0]
    q0, q1 = t.split(n1, q)
    m0, m1 = t.split(q0, canonicalize((0.5, -0.1, 0.7)))
    first = len(t.facts)
    on_circle = canonicalize(tuple(0.8 * a + 0.6 * b for a, b in zip(q.vec, e.vec)))
    t.circle_zero(m1, t.branches[q0].assumption, on_circle, t.branches[n1].assumption)
    return t, q1, m0, m1, first


class TestInstanceRefusals:
    """Each refusal of DerivationTrace.instance leaves the trace as it was."""

    def refused(self, t, match, *args):
        before = instance_state(t)
        with pytest.raises(BadPremises, match=match):
            t.instance(*args)
        assert instance_state(t) == before

    def test_identity_instance_of_a_sibling(self):
        # the m = 1 child's circle step cites N = 1 and q = 0 from before
        # first: hypotheses the m = 0 child sees, and the q = 1 child sees
        # the other value of q
        t, q1, m0, m1, first = sibling_argument()
        n_one, q_zero = 1, t.branches[t.branches[m0].parent].assumption
        self.refused(t, f"discharges hypothesis {q_zero}$", m1, first, q1, Rotation.identity())
        n_rays = len(t.rays)
        made = t.instance(m1, first, m0, Rotation.identity())
        assert made.hypotheses == {n_one: n_one, q_zero: q_zero}
        assert len(t.rays) == n_rays and all(r == j for r, j in made.rays.items())

    def test_undischarged_hypothesis(self):
        # copy N's hypothesis v(N) = 1 under the y frame, whose image is y:
        # no fact on y at all, then only a 1 under v(x) = 0, out of v(x) = 1's
        # scope, and under v(x) = 0 a 0 on x, the image under the x frame
        t, n1, x0, x1 = copy_n_argument()
        first, y_frame = t.branches[n1].assumption + 1, rotation_to_pole(canonicalize((0, 1, 0)))
        self.refused(t, "discharges hypothesis", n1, first, x1, y_frame)
        y0, y1 = t.split(x0, canonicalize((0, 1, 0)))
        self.refused(t, "discharges hypothesis", n1, first, x1, y_frame)
        x_frame = t.frame(t.branches[x1].assumption)
        self.refused(t, "discharges hypothesis", n1, first, y0, x_frame)

    def test_split_branch_and_branch_inside_the_body(self):
        t, n1, x0, x1 = copy_n_argument()
        first = t.branches[n1].assumption + 1
        n0 = t.branches[x0].parent  # split on x
        self.refused(t, "cannot hold an instance", n1, first, n0, Rotation.identity())
        q0, q1 = t.branches[n1].children
        self.refused(t, "cannot hold an instance", n1, first, q1, Rotation.identity())
        self.refused(t, "cannot hold an instance", n1, first, n1, Rotation.identity())

    def test_body_citing_a_fact_neither_in_it_nor_a_hypothesis(self):
        # under v(N) = 1 split on q: from first on, e is zeroed in the split
        # branch itself, and the q = 0 child cites that zero: it is outside
        # the q = 0 child's body but not before first
        t = DerivationTrace()
        _, n1 = t.split(0, NORTH_POLE)
        q = canonicalize((0.2, 0.3, 0.9))
        e, w = circle_partners(NORTH_POLE, q)
        q0, q1 = t.split(n1, q)
        first = len(t.facts)
        late = t.orthogonal_zero(n1, e, t.branches[n1].assumption)
        t.triad_one(q0, w, t.branches[q0].assumption, late)
        self.refused(t, f"fact {late}, cited .* is neither among them", q0, first, q1,
                     Rotation.identity())

    def test_identity_instance_nested_with_a_discharge_outside_the_body(self):
        # an identity instance under v(N) = 1 whose hypothesis, v(N) = 1
        # itself, lies outside copy N's body: copy N cannot be instanced
        t = nested_outside()
        n1, x1 = t.branches[0].children[1], t.branches[t.branches[0].children[0]].children[1]
        self.refused(t, "holds an instance that is not an identity instance inside",
                     n1, t.branches[n1].assumption + 1, x1, t.frame(t.branches[x1].assumption))


def nested_outside(with_copy=False):
    """A trace split on v(N) and v(x) under both of N's values. Under v(N) = 1,
    the x = 1 child zeroes y against N, and the x = 0 child holds that as an
    identity instance, discharging v(N) = 1 by itself. With with_copy, the
    x = 1 child under v(N) = 0 holds copy N's body, which is all of this but
    the identity instance."""
    t = DerivationTrace()
    n0, n1 = t.split(0, NORTH_POLE)
    x = canonicalize((1, 0, 0))
    a0, a1 = t.split(n1, x)
    first = len(t.facts)
    t.orthogonal_zero(a1, canonicalize((0, 1, 0)), t.branches[n1].assumption)
    if not with_copy:
        t.instance(a1, first, a0, Rotation.identity())
    _, x1 = t.split(n0, x)
    if with_copy:
        copy_n(t, n1, x1, t.branches[x1].assumption)
    return t


class TestRayIndexMergeRadius:
    # ray_index merges a ray into a stored ray only when |a x b| <= eps, the
    # same slack every rule checks against the stored representative.
    def test_rays_2e_5_rad_apart_get_distinct_indices(self):
        t = DerivationTrace()
        assert t.ray_index(canonicalize((0, 0, 1))) != t.ray_index(canonicalize((2e-5, 0, 1)))

    def test_rays_across_a_cell_boundary_get_one_index(self):
        edge = round(0.6 / CELL) * CELL
        a, b = (canonicalize((math.sin(s), 0.0, math.cos(s)))
                for s in (math.asin(edge) - 2e-10, math.asin(edge) + 2e-10))
        assert a.x < edge < b.x
        t = DerivationTrace()
        assert t.ray_index(a) == t.ray_index(b) == 0

    def test_near_antipodes_get_one_index(self):
        # z = 0.8e-9 is inside the canonical sign band, so this one flips
        a = canonicalize((-0.6, 0.8, 1.2e-9))
        b = canonicalize((-0.6, 0.8, 0.8e-9))
        assert a.dot(b) < 0
        t = DerivationTrace()
        assert t.ray_index(a) == t.ray_index(b) == 0

    def test_query_matching_two_stored_rays_gets_the_smaller_index(self):
        a, b, query = (canonicalize((math.sin(s), 0.0, math.cos(s)))
                       for s in (0.5, 0.5 + 1.5e-9, 0.5 + 0.75e-9))
        assert query.same_subspace(a) and query.same_subspace(b)
        t = DerivationTrace()
        assert (t.ray_index(a), t.ray_index(b), t.ray_index(query)) == (0, 1, 0)


class TestRayGrid:
    def test_ray_clear_of_cell_boundaries_fills_one_cell(self, rng):
        t = DerivationTrace()
        for _ in range(50):
            ray = random_northern(rng)
            if not all(2 * EPS < abs(c) % CELL < CELL - 2 * EPS for c in ray.vec):
                continue
            idx = t.ray_index(ray)
            cells = [cell for cell, ids in t._cells.items() if idx in ids]
            assert cells == [tuple(int(abs(c) // CELL) for c in ray.vec)]
        assert len(t.rays) > 40

    def test_ray_near_a_boundary_fills_both_cells(self):
        edge = round(0.6 / CELL) * CELL
        ray = canonicalize((edge - 1e-9, 0.0, math.sqrt(1 - (edge - 1e-9) ** 2)))
        t = DerivationTrace()
        t.ray_index(ray)
        assert sorted(cell[0] for cell in t._cells) == [round(0.6 / CELL) - 1, round(0.6 / CELL)]


def near_edge(sign):
    """A ray whose x lies 0.3e-9 below (sign -1) or above (+1) a cell boundary."""
    x = round(0.6 / CELL) * CELL + sign * 0.3e-9
    return canonicalize((x, 0.48, math.sqrt(1 - x * x - 0.48 * 0.48)))


class TestImagePlan:
    """A body's image plan is made by its first stored signed-permutation
    instance and read by the later ones; a refused instance keeps none, since
    its body may still grow."""

    def test_made_once_per_body(self, monkeypatch):
        made = []
        plan = trace_module._image_plan
        monkeypatch.setattr(trace_module, "_image_plan",
                            lambda rays, cells: made.append(len(rays)) or plan(rays, cells))
        t, n1, x0, x1 = copy_n_argument()
        # under v(x) = 0, v(N) = 1's image is v(x) = 1, which nothing discharges
        with pytest.raises(BadPremises, match="discharges hypothesis"):
            copy_n(t, n1, x0, t.branches[x1].assumption)
        assert len(made) == 1 and t._plans == {}
        first = copy_n(t, n1, x1, t.branches[x1].assumption).first
        _, y1 = t.split(x0, canonicalize((0, 1, 0)))
        copy_n(t, n1, y1, t.branches[y1].assumption)
        assert made == [made[0]] * 2 and list(t._plans) == [(n1, first)]


class TestImageCells:
    """A seed copy's image takes its ray's recorded cell, permuted; a ray whose
    2*EPS box spans several cells records None and its image is looked up
    and filed as any new ray is."""

    def test_cell_record_matches_a_fresh_filing(self):
        t, n1, x0, x1 = copy_n_argument()
        copy_n(t, n1, x1, t.branches[x1].assumption)
        _, y1 = t.split(x0, canonicalize((0, 1, 0)))
        copy_n(t, n1, y1, t.branches[y1].assumption)
        assert (t._ray_cells, t._cells) == refiled(t)
        # a coordinate 1.0 lies on a cell boundary: N and the axes span two cells
        axes = [r for r, ray in enumerate(t.rays) if 1.0 in ray.vec]
        assert [r for r, cell in enumerate(t._ray_cells) if cell is None] == axes
        assert len(axes) == 3 and len(t.rays) > 3 * len(axes)

    def test_body_ray_near_a_boundary_takes_the_fallback(self, monkeypatch):
        t, n1, _, x1 = copy_n_argument()
        t.split(t.branches[n1].children[0], near_edge(-1))
        source = t.ray_index(near_edge(-1))
        assert t._ray_cells[source] is None
        given_cells, find = [], t._find
        monkeypatch.setattr(t, "_find", lambda ray, cell=None: given_cells.append(cell)
                            or find(ray, cell))
        made = copy_n(t, n1, x1, t.branches[x1].assumption)
        monkeypatch.undo()
        frame = rotation_to_pole(canonicalize((1, 0, 0)))
        at = made.rays[source]
        assert given_cells[list(made.rays).index(source)] is None
        assert at == len(t.rays) - 1 and t.rays[at] == to_world(frame, near_edge(-1).vec)
        assert t._ray_cells[at] is None and (t._ray_cells, t._cells) == refiled(t)
        # filed under both cells: the same subspace across the boundary finds it
        assert t.ray_index(to_world(frame, near_edge(1).vec)) == at

    def test_fast_path_equals_the_fallback(self, monkeypatch):
        def build():
            t, n1, x0, x1 = copy_n_argument()
            t.split(t.branches[n1].children[0], near_edge(-1))
            copy_n(t, n1, x1, t.branches[x1].assumption)
            _, y1 = t.split(x0, canonicalize((0, 1, 0)))
            copy_n(t, n1, y1, t.branches[y1].assumption)
            return t

        fast = build()
        images = trace_module._images
        monkeypatch.setattr(trace_module, "_images", lambda frame, plan: images(
            frame, [(v, words, None) for v, words, _ in plan]))
        slow = build()
        assert fast.rays == slow.rays and fast.instances == slow.instances
        assert (fast._ray_cells, fast._cells) == (slow._ray_cells, slow._cells)

    def test_exponent_sign_kept_in_image_text(self):
        # a coordinate below 1e-4 is written with an exponent, whose "-" is
        # no sign of the coordinate
        t, n1, x0, x1 = copy_n_argument()
        small = canonicalize((-1e-5, 0.6, 0.8))
        t.split(t.branches[n1].children[0], small)
        assert small.text.count("e-") == 1
        _, y1 = t.split(x0, canonicalize((0, 1, 0)))
        for branch in (x1, y1):
            made = copy_n(t, n1, branch, t.branches[branch].assumption)
            image = t.rays[made.rays[t.ray_index(small)]]
            assert image.text == "[%r,%r,%r]" % image.vec and "e-06" in image.text
            assert image == to_world(t.frame(t.branches[branch].assumption), small.vec)


class TestExtraction:
    def test_open_trace_rejected(self):
        t, _, _ = seeded()
        with pytest.raises(OpenBranch):
            extract_triad_system(t)

    def test_open_branch_names_no_instance_branch(self):
        # split N, x under v(N) = 0; zero x under v(N) = 1; copy N at v(x) = 1 (branch 4)
        t = DerivationTrace()
        n0, n1 = t.split(0, NORTH_POLE)
        _, x1 = t.split(n0, canonicalize((1, 0, 0)))
        t.orthogonal_zero(n1, canonicalize((1, 0, 0)), t.branches[n1].assumption)
        copy_n(t, n1, x1, t.branches[x1].assumption)
        with pytest.raises(OpenBranch, match=r"contradiction: \[2, 3\]$"):
            extract_triad_system(t)


def closed(t):
    """t with a clash (0, 1) recorded on each open leaf, as
    test_image_under_the_x_axis closes its trace: extraction reads no clash."""
    for leaf in t.open_leaves():
        t.branches[leaf].contradiction = (0, 1)
    return t


def copy_n_twice():
    t, n1, x0, x1 = copy_n_argument()
    copy_n(t, n1, x1, t.branches[x1].assumption)
    _, y1 = t.split(x0, canonicalize((0, 1, 0)))
    copy_n(t, n1, y1, t.branches[y1].assumption)
    return t


def sibling_identity_instance():
    t, _, m0, m1, first = sibling_argument()
    t.instance(m1, first, m0, Rotation.identity())
    return t


class TestReferenceExtraction:
    """The hand-built traces that hold instances, closed, extract to the
    reference's system; tests/test_corpus.py checks the demos and the corpus."""

    @pytest.mark.parametrize("build", [
        copy_n_twice,
        sibling_identity_instance,
        nested_outside,
        lambda: nested_outside(with_copy=True),
    ], ids=["copy_n_twice", "sibling_identity", "nested_identity", "nested_with_copy"])
    def test_equal_to_the_reference(self, build):
        t = closed(build())
        assert t.instances
        assert extract_triad_system(t) == reference_extract(t)
