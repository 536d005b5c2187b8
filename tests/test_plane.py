import math

import pytest

from ksgeom.errors import AtPole, NotNorthern
from ksgeom.reach import Side, _plane, choose_shell_n, shell, side_of, step_one
from ksgeom.sphere import EPS, NORTH_POLE, canonicalize, circle_partners

from conftest import PlanePoint, project, random_northern, random_northern_nonpole, unproject

R2 = math.sqrt(0.5)


def side_in_plane(p, q):
    """Reference side_of, read in tangent-plane coordinates.

    With P = h(p), F = h(q), p = (P,1)/sqrt(1+|P|^2) and the circle pole
    w = (-F, |F|^2)/(|F| sqrt(1+|F|^2)),
      P.F - |F|^2 = -(p . w) * sqrt(1+|P|^2) * |F| * sqrt(1+|F|^2),
    so the plane test against EPS times that factor is the sphere test
    |p . w| <= EPS rescaled.
    """
    p_pt, f_pt = project(p), project(q)
    s = p_pt.dot(f_pt) - f_pt.dot(f_pt)
    fn = f_pt.norm()
    thr = EPS * math.sqrt(1.0 + p_pt.dot(p_pt)) * fn * math.sqrt(1.0 + fn * fn)
    if abs(s) <= thr:
        return Side.ON_CIRCLE
    return Side.BEYOND if s > thr else Side.POLE_SIDE


class TestProject:
    """reach._plane, the plane coordinates step_one, shell and
    choose_shell_n read; the same divisions as conftest's project."""

    def test_pole_maps_to_origin(self):
        assert _plane(NORTH_POLE) == (0.0, 0.0)

    def test_diagonal(self):
        assert _plane(canonicalize((R2, 0, R2))) == (1.0, 0.0)

    def test_three_four_five(self):
        u, v = _plane(canonicalize((0.6, 0, 0.8)))
        assert abs(u - 0.75) <= 1e-12 and v == 0.0

    def test_not_northern(self):
        equator, q = canonicalize((0, 1, 0)), unproject(PlanePoint(1, 0))
        with pytest.raises(NotNorthern, match="cannot project point with z=0.0"):
            _plane(equator)
        # and each wrapper refuses it, in either place, with no point built
        for call in (lambda: step_one(equator, q), lambda: step_one(q, equator),
                     lambda: shell(canonicalize((1, 0, 0)), 16)):
            with pytest.raises(NotNorthern, match="cannot project point with z=0.0"):
                call()
        for pair in ((equator, q), (q, equator)):
            with pytest.raises(NotNorthern, match="both points must be northern"):
                choose_shell_n(*pair)


class TestUnproject:
    """conftest's unproject, through which every test point given in plane
    coordinates is built."""

    def test_origin(self):
        assert unproject(PlanePoint(0, 0)).vec == (0.0, 0.0, 1.0)

    def test_unit(self):
        r = unproject(PlanePoint(1, 0))
        assert abs(r.dot(canonicalize((R2, 0, R2)))) >= 1.0 - 1e-12

    def test_three_four(self):
        r = unproject(PlanePoint(3, 4))
        s = math.sqrt(26.0)
        assert abs(r.dot(canonicalize((3 / s, 4 / s, 1 / s)))) >= 1.0 - 1e-12

    def test_round_trip_bulk(self, rng):
        for _ in range(10_000):
            q = random_northern(rng)
            back = unproject(project(q))
            assert abs(back.dot(q)) >= 1.0 - 1e-12

    def test_plane_round_trip(self, rng):
        for _ in range(1000):
            p = PlanePoint(rng.uniform(-20, 20), rng.uniform(-20, 20))
            back = project(unproject(p))
            assert math.hypot(back.u - p.u, back.v - p.v) <= 1e-12 * max(1.0, p.norm())


class TestMonotonicity:
    def test_height_vs_plane_distance(self, rng):
        margin = 10 * EPS
        for _ in range(10_000):
            p = random_northern(rng)
            q = random_northern(rng)
            if abs(p.z - q.z) < margin:
                continue
            assert (q.z > p.z) == (project(p).norm() > project(q).norm())


def quarter_turn(f):
    """The counterclockwise quarter turn of a nonzero plane point, made unit."""
    d = f.norm()
    return (-f.v / d, f.u / d)


class TestCircleImageLine:
    # q's circle maps to the line through h(q) with direction quarter_turn(h(q));
    # step_one walks that line, taking the nonnegative root t when p is beyond
    def test_counterclockwise_dir(self):
        q = unproject(PlanePoint(1, 0))
        # x = (1, t) meets the Thales circle over O-(3, 0) at t = +-sqrt(2)
        x = project(step_one(q, unproject(PlanePoint(3, 0))))
        assert math.hypot(x.u - 1.0, x.v - math.sqrt(2.0)) <= 1e-12

    def test_vertical_foot(self):
        q = unproject(PlanePoint(0, 2))
        # x = (-t, 2) meets the Thales circle over O-(0, 4) at t = +-2
        x = project(step_one(q, unproject(PlanePoint(0, 4))))
        assert math.hypot(x.u + 2.0, x.v - 2.0) <= 1e-12

    def test_at_pole(self):
        p = unproject(PlanePoint(2, 0))
        with pytest.raises(AtPole):
            step_one(NORTH_POLE, p)
        # both projections refuse first, q's before p's
        with pytest.raises(NotNorthern):
            step_one(NORTH_POLE, canonicalize((0, 1, 0)))
        with pytest.raises(NotNorthern, match="z=0.0"):
            step_one(canonicalize((1, 0, 0)), canonicalize((0, -0.6, 0.8)))

    def test_circle_points_land_on_line(self, rng):
        # 100 sampled points of the circle project onto the image line.
        for _ in range(30):
            q = random_northern_nonpole(rng)
            e = circle_partners(NORTH_POLE, q)[0]
            f, d = project(q), quarter_turn(project(q))
            for i in range(100):
                a = math.cos(math.pi * (i / 100.0 - 0.5) * 0.98)
                b = math.sin(math.pi * (i / 100.0 - 0.5) * 0.98)
                v = tuple(a * qc + b * ec for qc, ec in zip(q.vec, e.vec))
                if v[2] <= 1e-6:
                    continue
                pt = project(canonicalize(v))
                # distance from pt to the line through f with direction d
                dist = abs((pt.u - f.u) * (-d[1]) + (pt.v - f.v) * d[0])
                assert dist <= 1e-9 * max(1.0, pt.norm())


class TestSideOf:
    def test_beyond(self):
        assert side_of(unproject(PlanePoint(2, 0)), unproject(PlanePoint(1, 0))) is Side.BEYOND

    def test_on_circle(self):
        assert side_of(unproject(PlanePoint(1, 5)), unproject(PlanePoint(1, 0))) is Side.ON_CIRCLE

    def test_pole_side(self):
        assert side_of(unproject(PlanePoint(0.5, 0)), unproject(PlanePoint(1, 0))) is Side.POLE_SIDE

    def test_at_pole(self):
        with pytest.raises(AtPole):
            side_of(unproject(PlanePoint(1, 0)), NORTH_POLE)

    def test_southern_point(self):
        with pytest.raises(NotNorthern):
            side_of(canonicalize((0, 1, 0)), unproject(PlanePoint(1, 0)))

    def test_southern_circle(self):
        with pytest.raises(NotNorthern):
            side_of(unproject(PlanePoint(1, 0)), canonicalize((1, 0, 0)))

    def test_consistency_with_sphere_membership(self, rng):
        # side_of reads p . third_point(q) on the sphere; the tangent-plane
        # reference must agree on every side, not only on membership
        for _ in range(5000):
            q = random_northern_nonpole(rng)
            p = random_northern(rng)
            assert side_of(p, q) is side_in_plane(p, q)
        # near-miss pairs rarely land on the circle; force some exact members
        for _ in range(200):
            q = random_northern_nonpole(rng)
            e = circle_partners(NORTH_POLE, q)[0]
            a, b = rng.uniform(-1, 1), rng.uniform(0.05, 1)
            n = math.hypot(a, b)
            v = tuple((a / n) * qc + (b / n) * ec for qc, ec in zip(q.vec, e.vec))
            if v[2] <= 1e-3:
                continue
            p = canonicalize(v)
            assert side_of(p, q) is Side.ON_CIRCLE
            assert side_in_plane(p, q) is Side.ON_CIRCLE
