import hashlib
import importlib
import math
import random
from decimal import Decimal, getcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    VerifyReport,
    asymptotic_residual,
    choose_shell_n,
    reach,
    shell,
    step_one,
    verify_certificate,
)
from ksgeom.serialize import save_certificate
from ksgeom.sphere import EPS, NORTH_POLE, Ray, canonicalize, third_point

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

        def no_points(pt):
            raise AssertionError("a spiral point was built")

        monkeypatch.setattr(reach_module, "unproject", no_points)
        monkeypatch.setattr(reach_module, "canonicalize", no_points)
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
