import copy
import math
import pickle
import struct
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksgeom.errors import AtPole, NotNorthern, NotOrthogonal, ZeroVector
from ksgeom.sphere import (
    EPS,
    NORTH_POLE,
    Ray,
    Rotation,
    Tripod,
    canonicalize,
    circle_partners,
    complete_tripod,
    cross,
    dot,
    norm,
    rotation_to_pole,
    third_point,
    tripod_residual,
)

from conftest import random_northern, random_northern_nonpole

R2 = math.sqrt(0.5)


class TestTolerance:
    def test_default(self):
        assert EPS == 1e-9


class TestCanonicalize:
    def test_antipodal_identification(self):
        assert canonicalize((0, 0, -1)).vec == (0.0, 0.0, 1.0)

    def test_equator_tie_break(self):
        assert canonicalize((0, -2, 0)).vec == (0.0, 1.0, 0.0)

    def test_normalization(self):
        assert canonicalize((3, 0, 4)).vec == (0.6, 0.0, 0.8)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            canonicalize((0.0, 0.0, 0.0))
        with pytest.raises(ZeroVector):
            canonicalize((1e-12, 0.0, 0.0))

    def test_unit_norm_after_construction(self, rng):
        for _ in range(1000):
            v = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
            if math.sqrt(dot(v, v)) < 1e-6:
                continue
            r = canonicalize(v)
            assert abs(r.x**2 + r.y**2 + r.z**2 - 1.0) <= 1e-12

    @given(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
        ).filter(lambda v: dot(v, v) > 1e-6)
    )
    @settings(max_examples=300)
    def test_sign_invariance_exact(self, v):
        a = canonicalize(v)
        b = canonicalize((-v[0], -v[1], -v[2]))
        assert a.vec == b.vec

    @given(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
        ).filter(lambda v: dot(v, v) > 1e-6)
    )
    @settings(max_examples=300)
    def test_idempotent(self, v):
        a = canonicalize(v)
        assert canonicalize(a.vec).vec == a.vec

    def test_ray_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            Ray(0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            Ray(0.5, 0.5, 0.5)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_ray_rejects_nan_coordinate(self, axis):
        coords = [0.0, 0.0, 1.0]
        coords[axis] = math.nan
        with pytest.raises(ValueError):
            Ray(*coords)

    @pytest.mark.parametrize(
        "coords", [(False, False, True), (0.0, 0.0, True), (0.0, 0.0, "1"), (0.0, 0.0, None)]
    )
    def test_ray_rejects_non_number_coordinate(self, coords):
        # a bool is no coordinate, though it passes the unit and sign checks
        with pytest.raises(ValueError, match="^ray coordinates must be floats"):
            Ray(*coords)

    def test_ray_stores_int_coordinates_as_floats(self):
        ray = Ray(0, 0, 1)
        assert [type(c) for c in ray.vec] == [float] * 3
        assert ray == NORTH_POLE and ray.text == "[0.0,0.0,1.0]"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_rejects_non_finite_coordinate(self, axis, bad):
        # canonicalize builds through the Ray constructor, whose unit check fails closed
        v = [0.6, 0.0, 0.8]
        v[axis] = bad
        with pytest.raises(ValueError, match="^not a unit vector"):
            canonicalize(tuple(v))


class TestRayRecord:
    # Ray.__init__ writes the frozen slots directly; the result is still read-only
    def test_fields_are_read_only(self):
        for ray in (Ray(0.6, 0.8, 0.0), canonicalize((0.6, 0.8, 0.0))):
            for name in "xyz":
                with pytest.raises(AttributeError):
                    setattr(ray, name, 0.0)
            assert ray.vec == (0.6, 0.8, 0.0)

    def test_text_is_kept_apart_from_the_value(self):
        # a ray whose text was made equals, hashes and prints as a fresh one,
        # and copies and pickles as its coordinates
        used, fresh = canonicalize((0.3, 0.4, 0.5)), canonicalize((0.3, 0.4, 0.5))
        text = used.text
        assert text == "[%r,%r,%r]" % used.vec and used.text is text
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert {used: 1}[fresh] == 1
        for name in ("x", "_text"):
            with pytest.raises(AttributeError):
                setattr(used, name, "[1.0,0.0,0.0]")
        assert used.vec == fresh.vec and used.text == text
        for again in (copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
            assert type(again) is Ray and again == used and again.text == text

    def test_canonical_ray_equals_the_constructed_ray(self):
        made, built = canonicalize((0.6, 0.8, 0.0)), Ray(0.6, 0.8, 0.0)
        assert type(made) is Ray
        assert made == built and hash(made) == hash(built)
        index = {built: 7}
        assert index[made] == 7 and made in index


class TestUnitCheck:
    @given(st.tuples(*[st.floats(0.1, 1.0)] * 3), st.sampled_from([-4e-12, 4e-12]),
           st.integers(-8, 8))
    @settings(max_examples=300, deadline=None)
    def test_one_verdict_for_every_order_and_sign(self, vec, edge, ulps):
        # a vector of squared length 1 + edge, its x moved a few ulps across it:
        # its 48 orderings and signings get one verdict from Ray's unit check
        n = math.sqrt(sum(c * c for c in vec) / (1.0 + edge))
        vec = [c / n for c in vec]
        vec[0] += ulps * math.ulp(vec[0])
        verdicts = set()
        for order, signs in product(permutations(vec), product((1.0, -1.0), repeat=3)):
            try:
                verdicts.add(bool(Ray(*(s * c for s, c in zip(signs, order)))))
            except ValueError as err:  # the sign rule aside
                verdicts.add("not a unit vector" not in str(err))
        assert len(verdicts) == 1


def equator_partner(q):
    return circle_partners(NORTH_POLE, q)[0]


class TestEquatorPartner:
    def test_section_tripod_member(self):
        q = canonicalize((0, R2, R2))
        assert equator_partner(q).vec == (1.0, 0.0, 0.0)

    def test_canonicalized_output(self):
        q = canonicalize((R2, 0, R2))
        # N x q is (0,R2,0); canonical form normalizes it
        assert equator_partner(q).vec == (0.0, 1.0, 0.0)

    def test_at_pole(self):
        with pytest.raises(AtPole):
            equator_partner(NORTH_POLE)

    def test_not_northern(self):
        with pytest.raises(NotNorthern):
            equator_partner(canonicalize((1, 0, 0)))

    def test_orthogonal_and_equatorial(self, rng):
        for _ in range(200):
            q = random_northern_nonpole(rng)
            e = equator_partner(q)
            assert abs(e.dot(q)) <= 1e-12
            assert e.z == 0.0


class TestCircleOf:
    # q's circle is the great circle with pole third_point(q)
    def test_pole_example(self):
        q = canonicalize((0, R2, R2))
        pole = third_point(q)
        expected = canonicalize((0, -R2, R2))
        assert abs(pole.dot(expected)) >= 1.0 - 1e-12

    def test_pole_example_xz(self):
        q = canonicalize((R2, 0, R2))
        pole = third_point(q)
        expected = canonicalize((-R2, 0, R2))
        assert abs(pole.dot(expected)) >= 1.0 - 1e-12

    def test_membership(self):
        q = canonicalize((R2, 0, R2))
        assert abs(third_point(q).dot(canonicalize((0, 1, 0)))) <= EPS

    def test_parametrized_family_orthogonal_to_pole(self, rng):
        # alpha*q + beta*e(q) stays on the circle for alpha^2+beta^2=1
        for _ in range(20):
            q = random_northern_nonpole(rng)
            e = equator_partner(q)
            pole = third_point(q)
            for i in range(100):
                a = math.cos(2 * math.pi * i / 100)
                b = math.sin(2 * math.pi * i / 100)
                p = tuple(a * qc + b * ec for qc, ec in zip(q.vec, e.vec))
                assert abs(dot(p, pole.vec)) <= 1e-12

    def test_q_is_northern_most(self, rng):
        for _ in range(50):
            q = random_northern_nonpole(rng)
            e = equator_partner(q)
            for i in range(100):
                a = math.cos(2 * math.pi * i / 100)
                b = math.sin(2 * math.pi * i / 100)
                z = a * q.z + b * e.z
                assert z <= q.z + 1e-12


class TestCompleteTripod:
    def test_reproduces_fixed_tripod(self):
        q = canonicalize((0, R2, R2))
        t = complete_tripod(q)
        expected = [
            canonicalize((0, R2, R2)),
            canonicalize((1, 0, 0)),
            canonicalize((0, -R2, R2)),
        ]
        for m, want in zip(t.members, expected):
            assert abs(m.dot(want)) >= 1.0 - 1e-12

    def test_third_point_formula(self):
        q = canonicalize((-0.5, R2, 0.5))
        w = third_point(q)
        s3 = math.sqrt(3.0)
        expected = (0.5 / s3, -R2 / s3, 1.5 / s3)
        assert abs(dot(w.vec, expected)) >= 1.0 - 1e-12

    def test_at_pole(self):
        with pytest.raises(AtPole):
            complete_tripod(NORTH_POLE)

    def test_nan_member_fails_closed(self, nan_ray):
        # the NaN residuals come after a 0.0 one, which max() alone would keep
        with pytest.raises(NotOrthogonal, match="nan"):
            Tripod(canonicalize((1, 0, 0)), canonicalize((0, 1, 0)), nan_ray)

    def test_bulk_orthogonality_and_norms(self, rng):
        for _ in range(10_000):
            q = random_northern_nonpole(rng)
            t = complete_tripod(q)
            assert tripod_residual(*t.members) <= 1e-9
            for m in t.members:
                assert abs(m.x**2 + m.y**2 + m.z**2 - 1.0) <= 1e-12


class TestRotationToPole:
    def test_identity_at_pole(self):
        r = rotation_to_pole(NORTH_POLE)
        assert r.rows == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    def test_equator_point(self):
        r = rotation_to_pole(canonicalize((1, 0, 0)))
        mapped = r.apply((1.0, 0.0, 0.0))
        assert max(abs(a - b) for a, b in zip(mapped, (0, 0, 1))) <= 1e-12

    def test_maps_to_pole_and_preserves_lengths(self, rng):
        for _ in range(200):
            q = random_northern(rng)
            r = rotation_to_pole(q)
            mapped = r.apply(q.vec)
            assert max(abs(a - b) for a, b in zip(mapped, (0, 0, 1))) <= 1e-9
            v = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert abs(math.sqrt(dot(v, v)) - math.sqrt(dot(r.apply(v), r.apply(v)))) <= 1e-12

    def test_preserves_tripod_dots(self, rng):
        for _ in range(200):
            q = random_northern_nonpole(rng)
            t = complete_tripod(q)
            r = rotation_to_pole(random_northern(rng))
            for a in t.members:
                for b in t.members:
                    before = a.dot(b)
                    after = dot(r.apply(a.vec), r.apply(b.vec))
                    assert abs(before - after) <= 1e-12

    def test_apply_is_each_row_dotted_with_v(self, rng):
        # written out in dot's operation order, so the same bits
        for _ in range(100):
            r = rotation_to_pole(random_northern(rng))
            v = random_northern(rng).vec
            assert r.apply(v) == tuple(dot(row, v) for row in r.rows)

    def test_apply_inverse(self, rng):
        for _ in range(200):
            r = rotation_to_pole(random_northern(rng))
            v = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            back = r.apply_inverse(r.apply(v))
            assert max(abs(a - b) for a, b in zip(back, v)) <= 1e-12
            # bit for bit the transpose's rows dotted with v
            cols = tuple(zip(*r.rows))
            assert r.apply_inverse(v) == tuple(dot(c, v) for c in cols)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rotation_rejects_non_finite_entry(self, entry):
        # abs(nan - 1.0) > tol is False, so the check must be written "not <="
        with pytest.raises(ValueError):
            Rotation(((entry, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    def test_rotation_rejects_a_reflection(self):
        # orthonormal rows of determinant -1: a mirror, not a rotation
        with pytest.raises(ValueError, match="determinant is not \\+1"):
            Rotation(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)))


def north_pole_partners(q):
    """q's equator partner and circle pole under N, by the closed formulas.

    (q_y, -q_x, 0) and (-q_x, -q_y, (q_x^2+q_y^2)/q_z), normalized, with
    NotNorthern unless q_z > EPS and AtPole when q_x^2+q_y^2 <= EPS^2.
    """
    if not q.z > EPS:
        raise NotNorthern(f"point with z={q.z!r} is not northern")
    s = q.x * q.x + q.y * q.y
    if s <= EPS * EPS:
        raise AtPole("construction undefined at the north pole")
    return canonicalize((q.y, -q.x, 0.0)), canonicalize((-q.x, -q.y, s / q.z))


def frame_partners(pole, q):
    """north_pole_partners of q computed in pole's frame and rotated back."""
    if pole.is_pole():
        return north_pole_partners(q)
    frame = rotation_to_pole(pole)
    qf = canonicalize(frame.apply(q.vec))
    return tuple(canonicalize(frame.apply_inverse(r.vec)) for r in north_pole_partners(qf))


def edge_rays():
    """Rays whose coordinates are signed zeros or sit at the EPS boundaries."""
    vals = [0.0, 1e-12, 1e-9, 1.0000001e-9, 2e-9, 1e-6, 0.6]
    vals += [-v for v in vals]
    for x in vals:
        for y in vals:
            # near the pole, signed zeros kept (Ray stores them as given)
            try:
                yield Ray(x, y, math.sqrt(1.0 - x * x - y * y))
            except ValueError:
                pass
            # near the equator, z taking the same small values
            if x >= 0.0:
                for a in (0.0, 0.3, 1.0, math.pi / 2):
                    yield canonicalize((math.cos(a), math.sin(a), x + abs(y)))


class TestNorthPoleFormulas:
    """Under N, circle_partners and third_point are the closed formulas bit
    for bit, refusal types included."""

    def test_bit_for_bit(self, rng):
        rays = list(edge_rays())
        for _ in range(20_000):
            v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            rays.append(canonicalize(v))
            rays.append(random_northern(rng, z_min=0.0))
        bits = lambda r: struct.pack("<3d", *r.vec)
        refused = 0
        for q in rays:
            try:
                want = tuple(bits(r) for r in north_pole_partners(q))
            except (NotNorthern, AtPole) as exc:
                refused += 1
                for path in (third_point, lambda q: circle_partners(NORTH_POLE, q)):
                    with pytest.raises(type(exc)):
                        path(q)
                continue
            assert tuple(bits(r) for r in circle_partners(NORTH_POLE, q)) == want
            assert bits(third_point(q)) == want[1]
            assert tuple(bits(r) for r in complete_tripod(q).members[1:]) == want
        assert 0 < refused < len(rays) // 4


def at_angle(pole, angle, toward):
    """The ray at angle from pole in the plane of pole and the ray toward."""
    e = canonicalize(cross(cross(pole.vec, toward.vec), pole.vec))
    return canonicalize(tuple(math.cos(angle) * a + math.sin(angle) * b for a, b in zip(pole.vec, e.vec)))


SEED_AXES = (NORTH_POLE, canonicalize((1, 0, 0)), canonicalize((0, 1, 0)))


class TestCirclePartners:
    """circle_partners(pole, q) is the frame path without the rotation: the
    same subspaces as rotating q to the frame, completing it there and
    rotating both partners back."""

    @pytest.mark.parametrize("family", ["random", "seed axes", "near pole", "near equator"])
    def test_same_subspaces_as_the_frame_path(self, family, rng):
        for i in range(400):
            pole = SEED_AXES[i % 3] if family == "seed axes" or i % 4 == 0 else random_northern(rng)
            q = random_northern_nonpole(rng)
            if family == "near pole":
                # the partners of q at angle a from its pole carry about 5e-16/a
                # of rounding in either path
                q = at_angle(pole, rng.uniform(0.05, 0.2), q)
            elif family == "near equator":
                q = at_angle(pole, math.pi / 2 - 10 ** rng.uniform(-8, -2), q)
            elif abs(pole.dot(q)) <= 1e-6 or norm(cross(pole.vec, q.vec)) <= 1e-6:
                continue
            for a, b in zip(circle_partners(pole, q), frame_partners(pole, q)):
                assert norm(cross(a.vec, b.vec)) <= 1e-14

    @pytest.mark.parametrize("pole", [*SEED_AXES, canonicalize((0.3, -0.5, 0.8))],
                             ids=["N", "X", "Y", "generic"])
    def test_refusals_match_the_frame_path(self, pole):
        side = canonicalize(cross(pole.vec, (0.6, 0.0, 0.8) if pole.z < 0.9 else (1.0, 0.0, 0.0)))
        cases = [
            (at_angle(pole, math.pi / 2 - 0.3e-9, side), NotNorthern),
            (at_angle(pole, math.pi / 2, side), NotNorthern),
            (at_angle(pole, math.pi / 2 - 3e-9, side), None),
            (pole, AtPole),
            (at_angle(pole, 0.5e-9, side), AtPole),
            (at_angle(pole, 3e-9, side), None),
        ]
        for q, refusal in cases:
            for path in (circle_partners, frame_partners):
                if refusal is None:
                    assert len(path(pole, q)) == 2
                else:
                    with pytest.raises(refusal):
                        path(pole, q)
