import hashlib
import importlib
import math
import random
from collections.abc import Iterator
from decimal import Decimal, getcontext
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksgeom.errors import (
    AtPole,
    BadN,
    NoSuchN,
    NotNorthern,
    NotReachableDirectly,
    PreconditionViolation,
)
from ksgeom.reach import (
    MAX_SPIRAL_STEPS,
    MIN_SHELL_N,
    N_MAX,
    ReachCertificate,
    Side,
    VerifyReport,
    asymptotic_residual,
    choose_shell_n,
    reach,
    shell,
    side_of,
    step_one,
    verify_certificate,
)
from ksgeom.serialize import load_certificate, save_certificate
from ksgeom.sphere import EPS, NORTH_POLE, Ray, canonicalize, third_point

from conftest import (
    PlanePoint,
    project,
    random_northern,
    random_northern_nonpole,
    reference_canonicalize,
    unproject,
)

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

    def test_target_within_eps_of_the_last_spiral_circle(self):
        # Near the equator a target just past the least radius k links reach
        # lies within EPS of the circle of the spiral's last point. The chain
        # still closes through a Thales point: no point repeats, and every
        # link's residual is of rounding size.
        rng = random.Random(8)
        on_circle = 0
        for _ in range(400):
            d0 = 10 ** rng.uniform(-1, 4)
            phi = rng.uniform(0, 2 * math.pi)
            delta = rng.uniform(0.05, math.pi) * rng.choice((-1, 1))
            k = int(10 ** rng.uniform(0.5, 3.2))
            d = d0 * math.cos(delta / k) ** -k * (1 + 1e-12)
            q = unproject(PlanePoint(d0 * math.cos(phi), d0 * math.sin(phi)))
            p = unproject(PlanePoint(d * math.cos(phi + delta), d * math.sin(phi + delta)))
            cert = reach(q, p)
            assert cert.shell_n == k
            on_circle += side_of(p, canonicalize(cert.points[-3])) is Side.ON_CIRCLE
            assert all(a != b for a, b in zip(cert.points, cert.points[1:]))
            assert max(verify_certificate(cert).link_residuals) <= 1e-12
        assert on_circle >= 5

    def test_pole_side_error(self):
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(0.5, 0))
        with pytest.raises(NotReachableDirectly):
            step_one(q, p)

    def test_pole_side_two_links_away(self):
        # two links turn 1.2 from plane radius 1 up to cos(0.6)^-2 = 1.468 < 1.5
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(1.5 * math.cos(1.2), 1.5 * math.sin(1.2)))
        assert side_of(p, q) is Side.POLE_SIDE
        x = step_one(q, p)
        assert abs(third_point(q).dot(x)) <= EPS
        assert abs(third_point(x).dot(p)) <= EPS

    def test_pole_side_more_than_two_links_away(self):
        # 1.4 < cos(0.6)^-2: the Thales circle on O-P misses q's image line
        q = unproject(PlanePoint(1, 0))
        p = unproject(PlanePoint(1.4 * math.cos(1.2), 1.4 * math.sin(1.2)))
        assert side_of(p, q) is Side.POLE_SIDE
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

    def test_links_are_the_least_any_chain_can_have(self):
        # by convexity of -log cos, m links carry the plane radius from |h(q)|
        # to |h(p)| across the turn delta exactly when
        # m * -log cos(delta/m) <= log(|h(p)| / |h(q)|); a spiral chain has
        # the least such m, so no chain of circle steps is shorter
        def least_links(q, p):
            f, h = project(q), project(p)
            delta = math.remainder(math.atan2(h.v, h.u) - math.atan2(f.v, f.u), 2 * math.pi)
            m = 2
            while not (
                math.cos(delta / m) > 0.0
                and -m * math.log(math.cos(delta / m)) <= math.log(h.norm() / f.norm())
            ):
                m += 1
            return m

        rng = random.Random(20260808)
        spirals = 0
        for _ in range(1000):
            while True:
                q = random_northern(rng)
                p = random_northern(rng)
                if p.z < q.z - 1e-3 and not q.is_pole():
                    break
            if side_of(p, q) is not Side.POLE_SIDE:
                continue
            cert = reach(q, p)
            assert len(cert.points) - 1 == least_links(q, p) == cert.shell_n, (q, p)
            spirals += 1
        assert spirals > 500

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

        def no_points(*v):
            raise AssertionError("a spiral point was built")

        # reach builds every chain point through the one triple form
        monkeypatch.setattr(reach_module, "_canonical", no_points)
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

    def test_rejects_link_from_the_pole(self):
        # every great circle through the pole is a circle of it: no link starts there
        report = verify_certificate(ReachCertificate(points=((0.0, 0.0, 1.0), (0.6, 0.0, 0.8))))
        assert not report.accepted
        assert report.first_bad_link == 0
        assert any("link source is the pole" in f for f in report.failures)

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

    def test_point_failures_listed_before_link_failures(self):
        # link 1 breaks at a moved point 2, and point 6 lies south: the point
        # failure comes first and names first_bad_link
        pts = tampered(CHAIN, {2: canonicalize((0.3, 0.8, 0.52)).vec, 6: south(CHAIN[6])})
        report = verify_certificate(ReachCertificate(points=pts))
        assert report.first_bad_link == 6
        assert [f[:3] for f in report.failures] == ["[6]", "[1]", "[2]"]
        assert "not strictly northern" in report.failures[0]
        assert all("link residual" in f for f in report.failures[1:])

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

    @pytest.mark.parametrize("eps", [1e-4, 1e-9])
    def test_judged_at_the_certificates_eps(self, eps):
        # the one link's residual is 6.0e-08: within 1e-4, beyond 1e-9
        doc = '{"eps":%r,"points":[[0.0,0.6,0.8],[0.6,0.48,0.6400001]]}' % eps
        report = verify_certificate(load_certificate(doc))
        assert report.accepted is (eps == 1e-4)
        assert report.link_residuals == (5.999999613814921e-08,)
        if eps == 1e-9:
            assert report.failures == ("[0] link residual 5.999999613814921e-08 exceeds tolerance",)

    def test_heights_judged_at_the_certificates_eps(self):
        # z = 5e-5 is northern at eps 1e-9, not at 1e-4
        z = 5e-5
        points = ((0.0, 0.6, 0.8), (math.sqrt(1 - z * z), 0.0, z))
        assert not any("northern" in f for f in verify_certificate(ReachCertificate(points)).failures)
        report = verify_certificate(ReachCertificate(points, eps=1e-4))
        assert report.failures == (f"[1] point z={z!r} not strictly northern",)

    @pytest.mark.parametrize("eps", [math.nan, 0.0])
    def test_nan_or_zero_eps_fails_closed(self, eps):
        cert = reach(canonicalize((0, R2, R2)), canonicalize((0.6, 0.5, 0.2)))
        report = verify_certificate(cert._replace(eps=eps))
        assert not report.accepted

    def test_certificate_bytes_pinned(self):
        # 500 pairs drawn with the acceptance suite's law; the digest covers
        # every chain point and link residual, so it moves with their last bit
        rng = random.Random(25)
        digest = hashlib.sha256()
        for _ in range(500):
            while True:
                q, p = random_northern(rng), random_northern(rng)
                if p.z < q.z - 1e-3 and not q.is_pole():
                    break
            cert = reach(q, p)
            digest.update(save_certificate(cert, verify_certificate(cert).link_residuals).encode())
        assert digest.hexdigest() == "5f0500849b40a3eb05429e88181f1c561804d60c906a65b4f1fdc46cdb35d23d"


# The verifier before it was written on plain floats, kept verbatim as the
# reference that TestReferenceVerifier compares verify_certificate with.
def reference_verify_certificate(cert: ReachCertificate) -> VerifyReport:
    """Re-check every certificate invariant; failures are report entries.

    Checks, per point: near-unit norm and z > EPS once normalized; per link
    (a, b): |b . third_point(a)| within EPS, b against the pole of a's
    circle. The first offending link or point index is reported. Every
    test fails closed, so a NaN coordinate or residual is a failure.
    """
    pts = cert.points
    failures: list[str] = []
    first_bad: int | None = None

    def fail(idx: int, msg: str) -> None:
        nonlocal first_bad
        failures.append(f"[{idx}] {msg}")
        if first_bad is None:
            first_bad = idx

    if not pts:
        fail(0, "certificate must contain at least one point")

    min_z = math.inf
    rays: list[Ray | None] = []
    for i, v in enumerate(pts):
        n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        if not abs(n - 1.0) <= 1e-6:
            fail(i, f"point norm {n!r} not within 1e-6 of 1")
            rays.append(None)
            continue
        ray = canonicalize(v)
        z = math.copysign(ray.z, v[2])  # the point's own height: canonicalize flips south
        min_z = min(min_z, z)
        if not z > EPS:
            fail(i, f"point z={z!r} not strictly northern")
        rays.append(ray if z > EPS else None)

    residuals: list[float] = []
    for i in range(len(pts) - 1):
        a, b = rays[i], rays[i + 1]
        if a is None or b is None:
            residuals.append(math.nan)
            continue
        if a.is_pole():
            fail(i, "link source is the pole; its circle is undefined")
            residuals.append(math.nan)
            continue
        res = abs(third_point(a).dot(b))
        residuals.append(res)
        if not res <= EPS:
            fail(i, f"link residual {res!r} exceeds tolerance")

    return VerifyReport(
        accepted=not failures,
        link_residuals=tuple(residuals),
        min_z=min_z if min_z is not math.inf else math.nan,
        failures=tuple(failures),
        first_bad_link=first_bad,
    )


def assert_same_report(got: VerifyReport, want: VerifyReport) -> None:
    """Equal reports: floats by repr, so a NaN matches a NaN at the same
    position and -0.0 differs from 0.0."""
    assert got.accepted == want.accepted
    assert got.failures == want.failures
    assert got.first_bad_link == want.first_bad_link
    assert repr(got.min_z) == repr(want.min_z)
    assert list(map(repr, got.link_residuals)) == list(map(repr, want.link_residuals))


def half_turn_chain(z_q: float, z_p: float) -> tuple:
    q = canonicalize((math.sqrt(1 - z_q * z_q), 0.0, z_q))
    p = canonicalize((-math.sqrt(1 - z_p * z_p), 0.0, z_p))
    return reach(q, p).points


#: A 20-point spiral chain, the tampered examples' base.
CHAIN = half_turn_chain(0.6, 0.5)


def tampered(points: tuple, changes: dict) -> tuple:
    """points with point i replaced by changes[i]."""
    return tuple(changes.get(i, v) for i, v in enumerate(points))


def south(v: tuple) -> tuple:
    return (v[0], v[1], -v[2])


def scaled(v: tuple, f: float) -> tuple:
    return (v[0] * f, v[1] * f, v[2] * f)


#: Factors off unit beyond the norm test, within it, within canonicalize's
#: snap to 1 on either side; and the antipode.
SCALES = (1 + 1e-5, 1 + 1e-7, 1 + 3e-13, 1 - 3e-13, 0.5, -1.0)
#: The pole, and points within EPS of it and just outside.
POLES = ((0.0, 0.0, 1.0), (1e-10, -0.0, 1.0), (0.0, 9.9e-10, 1.0), (0.0, 1.01e-9, 1.0))
SPOILS = ("south", "scaled", "non-finite", "pole", "moved", "equator", "signed zero")


def spoiled(v: tuple, kind: str, t: int) -> tuple:
    """Point v spoiled one of the SPOILS ways; t picks the variant."""
    if kind == "south":
        return south(v)
    if kind == "scaled":
        return scaled(v, SCALES[t % len(SCALES)])
    if kind == "non-finite":
        out = list(v)
        out[t % 3] = (math.nan, math.inf, -math.inf)[t // 3 % 3]
        return tuple(out)
    if kind == "pole":
        return POLES[t % len(POLES)]
    if kind == "moved":
        return canonicalize((math.cos(t), math.sin(t), 0.1 + t % 7 / 10)).vec
    if kind == "equator":
        return (0.6, 0.8, (0.0, -0.0, 1e-9, 2e-9)[t % 4])
    return (-0.0, v[1], v[2])


@st.composite
def certificate_points(draw) -> tuple:
    """A fresh chain between two points drawn with the acceptance suite's
    law, cut to a prefix or left whole, with up to three points spoiled."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        q, p = random_northern(rng), random_northern(rng)
        if p.z < q.z - 1e-3 and not q.is_pole():
            break
    points = list(reach(q, p).points)
    if draw(st.booleans()):
        points = points[: draw(st.integers(0, len(points)))]
    spoils = st.tuples(st.sampled_from(SPOILS), st.integers(0, 10**6), st.integers(0, 10**6))
    for kind, i, t in draw(st.lists(spoils, max_size=3)):
        if points:
            points[i % len(points)] = spoiled(points[i % len(points)], kind, t)
    return tuple(points)


class TestReferenceVerifier:
    """verify_certificate and reference_verify_certificate give equal reports
    on fresh and tampered chains."""

    @settings(max_examples=300, deadline=None)
    @given(certificate_points())
    @example(CHAIN)
    @example(half_turn_chain(0.5, 0.45))  # 38 points
    # the acceptance law's longest chain: over 1,800 links
    @example(half_turn_chain(1 / math.sqrt(3) + 5e-4, 1 / math.sqrt(3) - 5e-4))
    @example(())
    @example(CHAIN[:1])
    @example(tampered(CHAIN, {3: south(CHAIN[3])}))  # a point flipped south
    @example(tampered(CHAIN, {3: scaled(CHAIN[3], 1 + 1e-5)}))  # off unit beyond the norm test
    @example(tampered(CHAIN, {3: scaled(CHAIN[3], 1 + 1e-7)}))  # off unit within it: normalized
    @example(tampered(CHAIN, {3: (math.nan, CHAIN[3][1], CHAIN[3][2])}))
    @example(tampered(CHAIN, {3: (CHAIN[3][0], math.inf, CHAIN[3][2])}))
    @example(tampered(CHAIN, {3: (CHAIN[3][0], CHAIN[3][1], -math.inf)}))
    @example(tampered(CHAIN, {0: (0.0, 0.0, 1.0)}))  # the pole as a link source
    @example(tampered(CHAIN, {5: (9.9e-10, 0.0, 1.0)}))  # within EPS of it
    @example(tampered(CHAIN, {5: (1.01e-9, 0.0, 1.0)}))  # just outside
    # a source at height 1/sqrt(2) + 1e-13, whose circle's pole has a norm
    # within 4e-13 of 1: canonicalize keeps its coordinates, so the residual
    # is 0.0 where dividing by the norm gives 5.6e-17
    @example(((0.0, 0.7071067811866425, 0.7071067811864525),
              (0.4701761559377123, 0.6240730655892166, 0.624073065589049)))
    @example(tampered(CHAIN, {3: canonicalize((0.3, 0.8, 0.52)).vec}))  # a moved point
    # an earlier link and a later point both fail: the point is listed first
    @example(tampered(CHAIN, {2: canonicalize((0.3, 0.8, 0.52)).vec, 6: south(CHAIN[6])}))
    def test_same_report(self, points):
        cert = ReachCertificate(points=points)
        assert_same_report(verify_certificate(cert), reference_verify_certificate(cert))


# The construction before it was built on coordinate triples, kept verbatim
# (docstrings cut to one line, and each call of a function below named with
# its reference_ copy) as the reference that TestReferenceReach compares
# reach, shell, step_one, choose_shell_n and canonicalize with. The copies
# of canonicalize and unproject in conftest.py (reference_canonicalize, and
# unproject on it) keep the reference apart from the sphere module's
# arithmetic, which the new construction shares with canonicalize.
def reference_step_one(q: Ray, p: Ray) -> Ray:
    """A point x on q's circle whose own circle passes through p."""
    f_pt = project(q)
    p_pt = project(p)
    if q.is_pole():
        raise AtPole("step_one undefined at the north pole")
    d = f_pt.norm()
    r = (-f_pt.v / d, f_pt.u / d)
    b = r[0] * p_pt.u + r[1] * p_pt.v
    ff, fp = f_pt.dot(f_pt), f_pt.dot(p_pt)
    disc = b * b - 4.0 * (ff - fp)
    if disc < 0.0:
        # a tangent Thales circle computes a discriminant that misses 0 by
        # rounding (9e-14 of its terms' scale at worst on near-tangent
        # spirals up to MAX_SPIRAL_STEPS); a miss within 1e-12 of the scale
        # leaves p off x's circle by at most 4e-12, so x = F + (b/2)*dir
        if disc < -1e-12 * (b * b + 4.0 * (ff + abs(fp))):
            raise NotReachableDirectly("target is more than two links from the circle")
        disc = 0.0
    t = (b + math.sqrt(disc)) / 2.0
    if t < 0.0:
        t = (b - math.sqrt(disc)) / 2.0
    return unproject(PlanePoint(f_pt.u + t * r[0], f_pt.v + t * r[1]))


def reference_spiral(q: Ray, delta: float, k: int) -> Iterator[Ray]:
    """Points 1..k of the outward spiral from q that turns delta in k equal steps."""
    f = project(q)
    phi = math.atan2(f.v, f.u)
    d = f.norm()
    step = delta / k
    growth = 1.0 / math.cos(step)
    for i in range(1, k + 1):
        d *= growth
        a = phi + i * step
        yield reference_canonicalize((d * math.cos(a), d * math.sin(a), 1.0))


def reference_shell(q: Ray, n: int) -> list[Ray]:
    """The paper's full-turn shell q_0 = q, ..., q_n: the spiral turning 2*pi."""
    if q.is_pole():
        raise AtPole("shell undefined at the north pole")
    if not MIN_SHELL_N <= n <= N_MAX:
        raise BadN(f"shell needs {MIN_SHELL_N} <= n <= {N_MAX}, got {n}")
    return [q, *reference_spiral(q, 2.0 * math.pi, n)]


def reference_choose_shell_n(q: Ray, p: Ray) -> int:
    """Smallest n >= 5 whose shell provably brings p beyond some shell circle."""
    if q.is_pole():
        raise AtPole("shell selection undefined at the north pole")
    if not (p.is_northern() and q.is_northern()):
        raise NotNorthern("both points must be northern")
    if not p.z < q.z:
        raise PreconditionViolation("target must be strictly lower than source")
    d0 = project(q).norm()
    target = project(p).norm()

    def admissible(n: int) -> bool:
        return d0 * math.cos(2.0 * math.pi / n) ** (-n) < target * math.cos(math.pi / n)

    return reach_module._least_steps(admissible, MIN_SHELL_N, N_MAX, "shell size")


def reference_reach(q: Ray, p: Ray) -> ReachCertificate:
    """Certificate that p can be reached from q, for northern p_z < q_z - eps."""
    if not (p.is_northern() and q.is_northern()):
        raise NotNorthern("both points must be northern")
    if q.is_pole():
        raise AtPole("reach source must not be the pole")
    if not p.z < q.z - EPS:
        raise PreconditionViolation(
            f"need p_z < q_z - eps, got p_z={p.z!r}, q_z={q.z!r}"
        )
    points, k = [q], None
    side = side_of(p, q)
    if side is Side.POLE_SIDE:
        f, h = project(q), project(p)
        delta = math.remainder(math.atan2(h.v, h.u) - math.atan2(f.v, f.u), 2.0 * math.pi)
        k = reach_module._spiral_steps(f.norm(), h.norm(), delta)
        # k >= 2, since one link suffices exactly when p is beyond q's circle;
        # the last spiral point then has p two links away, which step_one
        # bridges (should rounding say otherwise, it fails closed with
        # NotReachableDirectly)
        points.extend(islice(reference_spiral(q, delta, k), k - 2))
    if side is not Side.ON_CIRCLE:
        points.append(reference_step_one(points[-1], p))
    points.append(p)
    return ReachCertificate(points=tuple([(r.x, r.y, r.z) for r in points]), shell_n=k)


def outcome(fn, *args) -> tuple:
    """What fn makes of args: its result's repr, which gives every
    coordinate's repr (so -0.0 differs from 0.0) and a certificate's eps and
    shell_n; or the exception's type and message."""
    try:
        return ("ok", repr(fn(*args)))
    except Exception as exc:
        return (type(exc), str(exc))


def plane_pair(q_uv: tuple, p_uv: tuple) -> tuple:
    return unproject(PlanePoint(*q_uv)), unproject(PlanePoint(*p_uv))


def tangent_pair(d0: float, phi: float, delta: float, k: int) -> tuple:
    """A target at the least plane radius k links reach: the last Thales
    circle is tangent to its line, up to rounding."""
    d = d0 * math.cos(delta / k) ** -k
    return plane_pair((d0 * math.cos(phi), d0 * math.sin(phi)),
                      (d * math.cos(phi + delta), d * math.sin(phi + delta)))


def half_turn_pair(z_q: float, z_p: float) -> tuple:
    return (canonicalize((math.sqrt(1 - z_q * z_q), 0.0, z_q)),
            canonicalize((-math.sqrt(1 - z_p * z_p), 0.0, z_p)))


@st.composite
def acceptance_pairs(draw) -> tuple:
    """(q, p) drawn with the acceptance suite's law."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        q, p = random_northern(rng), random_northern(rng)
        if p.z < q.z - 1e-3 and not q.is_pole():
            return q, p


@st.composite
def vectors(draw) -> tuple:
    """A vector of any sign near the unit sphere, near a coordinate plane
    or an axis, or with a norm within the snap to 1, signed zeros included."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    for i in draw(st.sets(st.integers(0, 2), max_size=2)):
        v[i] = draw(st.sampled_from([0.0, -0.0, 1e-10, -1e-10, 2e-9, -2e-9]))
    n = math.sqrt(sum(c * c for c in v)) or 1.0
    f = draw(st.sampled_from([1.0, 1 + 2e-13, 1 - 2e-13, 1 + 1e-12, 3.0]))
    return tuple(c / n * f for c in v)


@st.composite
def northern_pairs(draw) -> tuple:
    """Any two northern points, the pole included."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_northern(rng), random_northern(rng)


ON_CIRCLE = plane_pair((1, 0), (1, 5))
BEYOND = plane_pair((1, 0), (2, 0))
TWO_LINKS = plane_pair((1, 0), (1.5 * math.cos(1.2), 1.5 * math.sin(1.2)))
TANGENT = tangent_pair(0.5, 1.0, -3.0, 100)
LONGEST = half_turn_pair(1 / math.sqrt(3) + 5e-4, 1 / math.sqrt(3) - 5e-4)
#: a source within 1e-7 of the pole in the plane: its spiral point's norm is
#: within 4e-13 of 1, so canonicalize's snap keeps it
NEAR_POLE = plane_pair((1e-7, 0), (-1, 0))
TOO_CLOSE = plane_pair((1, 0), (-(1 + 1e-6), 0))
REFUSED = (
    (canonicalize((0, R2, R2)), Ray(1.0, 0.0, 0.0)),  # p on the equator
    (Ray(1.0, 0.0, 0.0), Ray(0.0, 1.0, 0.0)),  # both on it
    (NORTH_POLE, canonicalize((0, R2, R2))),  # q the pole
    (canonicalize((0, R2, R2)), canonicalize((0, 0.1, 0.99498743710662))),  # p higher
    (canonicalize((0, R2, R2)), canonicalize((0.0, R2 + 5e-10, R2 - 5e-10))),  # within EPS below
)
#: A source with x = -0.0 and a target exactly on its circle: the Thales
#: point is F + 0*dir, (-0.0, 0.75) in the plane, which canonicalize's
#: "+ 0.0" writes as 0.0.
SIGNED_ZERO = (Ray(-0.0, 0.6, 0.8), canonicalize((1.0, 0.75, 1.0)))


class TestReferenceReach:
    """reach, shell, step_one and choose_shell_n give the reference's rays,
    certificates and step counts bit for bit, and its refusals with the
    same type and message."""

    def test_examples_take_each_path(self):
        assert [reach(*pair).shell_n for pair in (ON_CIRCLE, BEYOND, TWO_LINKS)] == [None, None, 2]
        assert [len(reach(*pair).points) for pair in (ON_CIRCLE, BEYOND, TWO_LINKS)] == [2, 3, 3]
        assert reach(*TANGENT).shell_n == 100 and reach(*LONGEST).shell_n > 1000
        assert reach(*NEAR_POLE).shell_n == 3
        with pytest.raises(NoSuchN):
            reach(*TOO_CLOSE)
        assert {outcome(reach, *pair)[0] for pair in REFUSED} == {
            NotNorthern, AtPole, PreconditionViolation}

    def test_tangent_example_clamps_the_discriminant(self):
        # step_one's quadratic from the last spiral point: rounding takes the
        # discriminant below 0, and within the slack that sets it to 0
        points = reach(*TANGENT).points
        f, h = project(canonicalize(points[-3])), project(canonicalize(points[-1]))
        b = -f.v / f.norm() * h.u + f.u / f.norm() * h.v
        scale = b * b + 4.0 * (f.dot(f) + abs(f.dot(h)))
        disc = b * b - 4.0 * (f.dot(f) - f.dot(h))
        assert -1e-12 * scale <= disc < 0.0

    @settings(max_examples=300, deadline=None)
    @given(acceptance_pairs())
    @example(ON_CIRCLE)
    @example(BEYOND)
    @example(TWO_LINKS)
    @example(TANGENT)
    @example(LONGEST)
    @example(NEAR_POLE)
    @example(TOO_CLOSE)
    @example(REFUSED[0])
    @example(REFUSED[1])
    @example(REFUSED[2])
    @example(REFUSED[3])
    @example(REFUSED[4])
    def test_reach(self, pair):
        assert outcome(reach, *pair) == outcome(reference_reach, *pair)

    @settings(max_examples=300, deadline=None)
    @given(northern_pairs())
    @example(BEYOND)
    @example(TWO_LINKS)
    @example(SIGNED_ZERO)
    @example(plane_pair((1, 0), (0.5, 0)))  # pole side, more than two links: refused
    @example((NORTH_POLE, canonicalize((0, R2, R2))))
    @example((canonicalize((0, R2, R2)), Ray(1.0, 0.0, 0.0)))
    def test_step_one(self, pair):
        assert outcome(step_one, *pair) == outcome(reference_step_one, *pair)

    @settings(max_examples=300, deadline=None)
    @given(vectors())
    @example((-0.0, 0.0, -1.0))  # the south pole: the sign rule, and a -0.0 from each flip
    @example((0.6, -0.0, 0.8))
    @example((-0.6, 0.8, -0.0))  # on the equator
    @example((0.6 * (1 + 3e-13), 0.0, 0.8 * (1 + 3e-13)))  # within the snap to norm 1
    @example((0.6 * (1 + 5e-13), 0.0, 0.8 * (1 + 5e-13)))  # beyond it
    @example((1e-10, 0.0, 0.0))  # the zero vector within EPS
    @example((math.nan, 0.0, 1.0))
    def test_canonicalize(self, v):
        assert outcome(canonicalize, v) == outcome(reference_canonicalize, v)

    def test_signed_zero_example(self):
        assert repr(step_one(*SIGNED_ZERO).x) == "0.0"

    @settings(max_examples=100, deadline=None)
    @given(northern_pairs(), st.integers(3, 300))
    @example(NEAR_POLE, 5)
    @example(BEYOND, 4)
    @example(BEYOND, N_MAX + 1)
    @example((NORTH_POLE, NORTH_POLE), 16)
    @example((Ray(1.0, 0.0, 0.0), NORTH_POLE), 16)  # a source on the equator
    def test_shell(self, pair, n):
        assert outcome(shell, pair[0], n) == outcome(reference_shell, pair[0], n)

    @settings(max_examples=300, deadline=None)
    @given(northern_pairs())
    @example(BEYOND)
    @example(TWO_LINKS)
    @example(TOO_CLOSE)
    @example(plane_pair((1, 0), (-(1 + 1e-13), 0)))  # past N_MAX: NoSuchN
    @example(REFUSED[0])
    @example(REFUSED[1])
    @example(REFUSED[2])
    @example(REFUSED[3])
    def test_choose_shell_n(self, pair):
        assert outcome(choose_shell_n, *pair) == outcome(reference_choose_shell_n, *pair)

    def test_built_points_pass_the_ray_checks(self, monkeypatch):
        # every point reach builds, and only those, goes through _check_ray
        checked = []
        monkeypatch.setattr(reach_module, "_check_ray", lambda *v: checked.append(v))
        for pair, built in ((ON_CIRCLE, 0), (BEYOND, 1), (TWO_LINKS, 1), (TANGENT, 99)):
            checked.clear()
            cert = reach(*pair)
            assert checked == list(cert.points[1:-1]) and len(checked) == built

    def test_a_built_point_failing_the_checks_is_refused(self, monkeypatch):
        def refuse(x, y, z):
            raise ValueError(f"not a unit vector: {(x, y, z)!r}")

        monkeypatch.setattr(reach_module, "_check_ray", refuse)
        with pytest.raises(ValueError, match="not a unit vector"):
            reach(*BEYOND)


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
