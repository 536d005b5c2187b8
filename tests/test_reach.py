import importlib
import math
import random
from decimal import Decimal, getcontext

import pytest

from ksgeom.errors import (
    AtPole,
    BadN,
    NoSuchN,
    NotReachableDirectly,
    PreconditionViolation,
)
from ksgeom.plane import PlanePoint, Side, project, side_of, unproject
from ksgeom.reach import (
    MAX_SPIRAL_STEPS,
    N_MAX,
    ReachCertificate,
    asymptotic_residual,
    choose_shell_n,
    reach,
    shell,
    step_one,
    verify_certificate,
)
from ksgeom.sphere import EPS, NORTH_POLE, canonicalize, third_point

from conftest import random_northern, random_northern_nonpole

R2 = math.sqrt(0.5)
reach_module = importlib.import_module("ksgeom.reach")  # the package re-exports the function


def shell_growth_independent(n: int) -> float:
    """cos(2*pi/n)^(-n) for n = 16 via exact half-angle roots in Decimal.

    cos(pi/8) = sqrt(2+sqrt(2))/2, so the n=16 constant is 2^16/(2+sqrt2)^8,
    computable without trig.
    """
    assert n == 16
    getcontext().prec = 60
    return float(Decimal(2) ** 16 / (2 + Decimal(2).sqrt()) ** 8)


class TestStepOne:
    def test_canonical_example(self):
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(2, 0))
        h = project(step_one(q, p))
        assert abs(h.u - 1.0) <= 1e-12 and abs(h.v - 1.0) <= 1e-12

    def test_thales_condition(self):
        # the image point x satisfies x . (x - P) = 0
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(2, 0))
        x = project(step_one(q, p))
        assert abs(x.u * (x.u - 2.0) + x.v * (x.v - 0.0)) <= 1e-12

    def test_on_circle_returns_q(self):
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(1, 5))
        assert step_one(q, p) is q

    def test_pole_side_error(self):
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(0.5, 0))
        with pytest.raises(NotReachableDirectly):
            step_one(q, p)

    def test_random_correctness(self, rng):
        # q~ lies on C(q) and p lies on C(q~)
        for _ in range(500):
            q = random_northern_nonpole(rng)
            p = random_northern(rng)
            if side_of(p, q).name != "BEYOND":
                continue
            qt = step_one(q, p)
            assert abs(third_point(q).dot(qt)) <= EPS
            assert abs(third_point(qt).dot(p)) <= EPS


class TestShell:
    def test_point_count(self):
        pts = shell(unproject(PlanePoint(1, 0)), 16)
        assert len(pts) == 17

    def test_distance_law_n16_against_independent_value(self):
        pts = shell(unproject(PlanePoint(1, 0)), 16)
        dn = project(pts[-1]).norm()
        want = shell_growth_independent(16)
        assert abs(dn - want) <= 1e-9 * want
        # and h(q_16) returns to the positive u-axis
        h = project(pts[-1])
        assert abs(math.atan2(h.v, h.u)) <= 1e-9

    @pytest.mark.parametrize("n", [5, 8, 16, 64])
    def test_distance_law_random(self, n, rng):
        for _ in range(100):
            q = random_northern_nonpole(rng)
            pts = shell(q, n)
            growth = 1.0 / math.cos(2 * math.pi / n)
            prev = project(pts[0]).norm()
            for i in range(1, n + 1):
                cur = project(pts[i]).norm()
                assert abs(cur - prev * growth) <= 1e-9 * cur
                assert abs(third_point(pts[i - 1]).dot(pts[i])) <= EPS
                prev = cur

    def test_at_pole(self):
        with pytest.raises(AtPole):
            shell(NORTH_POLE, 16)

    def test_bad_n(self):
        with pytest.raises(BadN):
            shell(unproject(PlanePoint(1, 0)), 4)
        with pytest.raises(BadN):
            shell(unproject(PlanePoint(1, 0)), 3)
        with pytest.raises(BadN):  # raised before any point is built
            shell(unproject(PlanePoint(1, 0)), N_MAX + 1)


class TestChooseShellN:
    def test_minimal_n_for_target_four(self):
        # d0=1, |h(p)|=4: direct evaluation gives smallest admissible n = 15
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(4 * math.cos(2.4), 4 * math.sin(2.4)))
        n = choose_shell_n(q, p)
        assert n == 15
        crit = lambda m: math.cos(2 * math.pi / m) ** (-m) < 4.0 * math.cos(math.pi / m)
        assert crit(15) and not crit(14)

    def test_least_n_against_a_linear_scan(self):
        # plane radius ratios e^g, g in [2e-3, 7], give n from 5 to about 1e4
        rng = random.Random(5)
        crit = lambda d0, d, m: d0 * math.cos(2 * math.pi / m) ** (-m) < d * math.cos(math.pi / m)
        for _ in range(300):
            d0 = rng.uniform(0.05, 3.0)
            g = math.exp(rng.uniform(math.log(2e-3), math.log(7.0)))
            a, b = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            q = unproject(PlanePoint(d0 * math.cos(a), d0 * math.sin(a)))
            p = unproject(PlanePoint(d0 * math.exp(g) * math.cos(b), d0 * math.exp(g) * math.sin(b)))
            d0, d = project(q).norm(), project(p).norm()
            n = 5
            while not crit(d0, d, n):
                n += 1
            assert choose_shell_n(q, p) == n

    def test_margin_unreachable(self):
        # plane distances separated by ~1e-13 need n ~ 2e14 >> N_MAX
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(-(1 + 1e-13), 0))
        with pytest.raises(NoSuchN):
            choose_shell_n(q, p)

    def test_close_target_has_finite_n(self):
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(-1.001, 0))
        n = choose_shell_n(q, p)
        dn = math.cos(2 * math.pi / n) ** (-n)
        assert dn < 1.001 * math.cos(math.pi / n)
        assert n < N_MAX


class TestReach:
    def test_on_circle_length_two(self):
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(1, 5))
        cert = reach(q, p)
        assert len(cert.points) == 2
        assert verify_certificate(cert).accepted

    def test_precondition_violation(self):
        q = canonicalize((0, R2, R2))
        p = canonicalize((0, 0.1, 0.99498743710662))
        with pytest.raises(PreconditionViolation):
            reach(q, p)

    def test_source_pole(self):
        with pytest.raises(AtPole):
            reach(NORTH_POLE, canonicalize((0, R2, R2)))

    def test_random_suite(self, rng):
        # seeded random pairs with z-gap >= 1e-3 all verify at 1e-9
        for _ in range(1000):
            while True:
                q = random_northern(rng)
                p = random_northern(rng)
                if p.z < q.z - 1e-3 and not q.is_pole():
                    break
            cert = reach(q, p)
            report = verify_certificate(cert)
            assert report.accepted, report.failures
            assert all(r <= 1e-9 for r in report.link_residuals)
            assert cert.points[0] == q.vec and cert.points[-1] == p.vec

    def test_shell_points_may_descend_below_source(self):
        # the only z-invariant is strict positivity: spiral chains dip below
        # the source height but never to the equator
        q = canonicalize((0, R2, R2))
        z = 0.68
        s = math.sqrt(1 - z * z)
        p = canonicalize((s * math.cos(2.8), s * math.sin(2.8), z))
        cert = reach(q, p)
        assert cert.shell_n is not None
        zs = [v[2] for v in cert.points]
        assert min(zs) < q.z  # descends
        assert all(zv > 1e-9 for zv in zs)  # but stays strictly northern
        assert verify_certificate(cert).accepted


def spiral_admissible(q, p, k):
    """The spiral criterion, recomputed here: cos(delta/k) > 0 and
    d0 * cos(delta/k)^(-k) < |h(p)|, delta the signed azimuth gap."""
    f, h = project(q), project(p)
    delta = math.remainder(math.atan2(h.v, h.u) - math.atan2(f.v, f.u), 2 * math.pi)
    c = math.cos(delta / k)
    return c > 0.0 and f.norm() * c ** (-k) < h.norm()


def shell_chain_length(q, p):
    """Length of the chain the shell construction gives: shell(q, n) with
    n = choose_shell_n(q, p), cut at the first point whose circle has p on
    or beyond it, then step_one and p (doubling n if no point qualifies)."""
    n = choose_shell_n(q, p)
    while True:
        for i, s in enumerate(shell(q, n)):
            side = side_of(p, s)
            if side is not Side.POLE_SIDE:
                return i + (2 if side is Side.ON_CIRCLE else 3)
        n *= 2


class TestSpiral:
    def test_law_and_minimal_k(self):
        # d0 = 1, |h(p)| = 4, delta = 2.4: cos(0.8)^-3 = 2.96 < 4 < cos(1.2)^-2
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(4 * math.cos(2.4), 4 * math.sin(2.4)))
        cert = reach(q, p)
        k = cert.shell_n
        assert k == 3
        assert spiral_admissible(q, p, 3) and not spiral_admissible(q, p, 2)
        for i, v in enumerate(cert.points[1:-2], start=1):
            h = project(canonicalize(v))
            want = math.cos(2.4 / k) ** (-i)
            assert abs(h.norm() - want) <= 1e-9 * want
            assert abs(math.remainder(math.atan2(h.v, h.u) - i * 2.4 / k, 2 * math.pi)) <= 1e-9
        assert verify_certificate(cert).accepted

    def test_k_minimal_random(self, rng):
        spirals = 0
        for _ in range(500):
            q = random_northern_nonpole(rng)
            p = random_northern(rng)
            if not p.z < q.z - 1e-3 or side_of(p, q) is not Side.POLE_SIDE:
                continue
            k = reach(q, p).shell_n
            assert k >= 2  # k = 1 is exactly the one-step case
            assert spiral_admissible(q, p, k) and not spiral_admissible(q, p, k - 1)
            spirals += 1
        assert spirals > 50

    @pytest.mark.parametrize("v", [0.0, -0.0], ids=["plus_pi", "minus_pi"])
    def test_antipodal_azimuths(self, v):
        # delta = +pi or -pi: k = 1 would give cos(pi)^-1 = -1 < |h(p)|, so
        # the cos > 0 guard is what keeps the spiral northern
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(-2, v))
        cert = reach(q, p)
        assert cert.shell_n is not None and cert.shell_n >= 3
        report = verify_certificate(cert)
        assert report.accepted, report.failures
        assert cert.points[0] == q.vec and cert.points[-1] == p.vec

    def test_tiny_gap_beyond_takes_one_step(self):
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(2, 1e-12))
        cert = reach(q, p)
        assert cert.shell_n is None and len(cert.points) == 3
        assert verify_certificate(cert).accepted

    def test_never_longer_than_shell(self):
        # the acceptance suite's 1,000 pairs (criterion 3)
        rng = random.Random(20260808)
        spiral_total = shell_total = 0
        for _ in range(1000):
            while True:
                q = random_northern(rng)
                p = random_northern(rng)
                if p.z < q.z - 1e-3 and not q.is_pole():
                    break
            cert = reach(q, p)
            if cert.shell_n is None:
                continue
            n_shell = shell_chain_length(q, p)
            assert len(cert.points) <= n_shell, (q, p)
            spiral_total += len(cert.points)
            shell_total += n_shell
        assert spiral_total < shell_total / 2

    def test_no_such_n_builds_no_point(self, monkeypatch):
        # plane radii 1 and 1 + 1e-6 half a turn apart need k ~ 4.9e6 > MAX_SPIRAL_STEPS
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(-(1 + 1e-6), 0))

        def no_points(pt):
            raise AssertionError("a spiral point was built")

        monkeypatch.setattr(reach_module, "unproject", no_points)
        with pytest.raises(NoSuchN):
            reach(q, p)


class TestSpiralCap:
    def test_cap_is_the_last_admitted_step_count(self):
        # half a turn from plane radius 1 ends at cos(pi/k)^-k, falling in k
        at_cap = math.cos(math.pi / MAX_SPIRAL_STEPS) ** -MAX_SPIRAL_STEPS
        assert reach_module._spiral_steps(1.0, at_cap * (1 + 1e-12), math.pi) == MAX_SPIRAL_STEPS
        with pytest.raises(NoSuchN):
            reach_module._spiral_steps(1.0, at_cap * (1 - 1e-12), math.pi)

    def test_every_acceptance_gap_admitted(self):
        # a height gap of 1e-3 separates the plane radii least near
        # z = 1/sqrt(3); half a turn there is the acceptance law's longest chain
        def radius(z):
            return math.sqrt(1 - z * z) / z

        worst = max(
            reach_module._spiral_steps(radius(z), radius(z - 1e-3), math.pi)
            for z in (1e-3 + (1 - 2e-3) * i / 400 for i in range(1, 400))
        )
        assert 1800 < worst < MAX_SPIRAL_STEPS
        z = 1 / math.sqrt(3) + 5e-4
        q = canonicalize((math.sqrt(1 - z * z), 0.0, z))
        p = canonicalize((-math.sqrt(1 - (z - 1e-3) ** 2), 0.0, z - 1e-3))
        cert = reach(q, p)
        assert verify_certificate(cert).accepted
        assert 1800 < cert.shell_n <= MAX_SPIRAL_STEPS


class TestVerifyCertificate:
    def test_rejects_empty(self):
        report = verify_certificate(ReachCertificate(points=()))
        assert not report.accepted
        assert report.failures == ("[0] certificate must contain at least one point",)
        assert report.first_bad_link == 0
        assert report.link_residuals == ()
        assert math.isnan(report.min_z)

    def test_rejects_tampered_point(self):
        q = canonicalize((0, R2, R2))
        cert = reach(q, canonicalize((0.6, 0.5, 0.2)))
        pts = list(cert.points)
        x, y, z = pts[1]
        pts[1] = (x, y, -z)
        bad = ReachCertificate(points=tuple(pts), eps=cert.eps, shell_n=cert.shell_n)
        report = verify_certificate(bad)
        assert not report.accepted
        assert report.first_bad_link == 1

    def test_rejects_broken_link(self):
        q = canonicalize((0, R2, R2))
        cert = reach(q, canonicalize((0.6, 0.5, 0.2)))
        pts = list(cert.points)
        pts[1] = canonicalize((0.3, 0.8, 0.52)).vec
        bad = ReachCertificate(points=tuple(pts), eps=cert.eps, shell_n=cert.shell_n)
        report = verify_certificate(bad)
        assert not report.accepted
        assert report.first_bad_link == 0

    def test_rejects_point_southern_after_normalization(self):
        # raw z is above eps, but the norm 1 + 5e-7 takes the unit point's z below it
        z = 1.0000001e-9
        tilted = (math.sqrt(1 - z * z) * (1 + 5e-7), 0.0, z)
        report = verify_certificate(ReachCertificate(points=(tilted, (0.0, 0.6, 0.8))))
        assert not report.accepted
        assert report.first_bad_link == 0
        assert report.min_z <= EPS

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_rejects_non_finite_point(self, axis, bad):
        cert = reach(canonicalize((0, R2, R2)), canonicalize((0.6, 0.5, 0.2)))
        pts = [list(p) for p in cert.points]
        pts[1][axis] = bad
        report = verify_certificate(ReachCertificate(points=tuple(map(tuple, pts))))
        assert not report.accepted
        assert report.first_bad_link == 1
        assert math.isnan(report.link_residuals[0]) and math.isnan(report.link_residuals[1])

    def test_accepts_fresh(self):
        q = canonicalize((0.1, 0.2, 0.9))
        p = canonicalize((0.5, 0.6, 0.2))
        report = verify_certificate(reach(q, p))
        assert report.accepted
        assert max(report.link_residuals) <= 1e-9


class TestAsymptoticResidual:
    def test_value_n100(self):
        # leading term -(2*pi)^4/(12 n^3) = -129.9/n^3
        assert abs(asymptotic_residual(100) - (-1.30015683e-4)) <= 1e-11

    def test_value_n1000(self):
        assert abs(asymptotic_residual(1000) - (-1.2988017e-7)) <= 1e-13

    def test_tends_to_zero(self):
        prev = abs(asymptotic_residual(64))
        for n in (128, 256, 512, 1024):
            cur = abs(asymptotic_residual(n))
            assert cur < prev
            prev = cur

    def test_cubic_bound(self):
        n = 32
        while n <= 4096:
            assert abs(asymptotic_residual(n)) <= 150.0 / n**3
            n *= 2

    def test_bad_n(self):
        with pytest.raises(BadN):
            asymptotic_residual(4)


class TestPackageNames:
    """ksgeom.reach is the function; the module stays importable by name."""

    def test_package_attribute_is_the_function(self):
        import ksgeom
        from ksgeom import reach as exported

        assert exported is reach and callable(exported)
        assert not hasattr(exported, "verify_certificate")
        assert ksgeom.reach is reach

    def test_module_by_import_module(self):
        import ksgeom

        module = importlib.import_module("ksgeom.reach")
        assert module.verify_certificate is ksgeom.verify_certificate
        assert module.reach is reach
