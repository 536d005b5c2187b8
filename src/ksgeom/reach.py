"""Constructive reachability on the northern hemisphere.

A point p can be reached from q when a finite chain q = c_0, ..., c_k = p
exists with each c_i on the great circle of c_{i-1}. This module builds
such chains: a one-step construction when p is already beyond the circle
of q, and otherwise an outward spiral that ends two links short of p and
is closed by the same Thales construction. One spiral law serves both the
paper's shell and reach: each step turns the plane azimuth by a fixed
angle and grows the plane radius by 1/cos of it, which keeps every point
on the circle of the one before. The paper's shell turns a full 2*pi in n
steps; reach turns only the signed azimuth gap from h(q) to h(p) in k
steps, the fewest links any chain can have, which gives much shorter
chains. Both take the least step count the growth law admits, found by one
doubling-and-bisection search.
Certificates carry every chain point and are re-checkable without
trusting the construction: verify_certificate calls none of its code.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice

from .errors import (
    AtPole,
    BadN,
    NoSuchN,
    NotNorthern,
    NotReachableDirectly,
    PreconditionViolation,
)
from .plane import PlanePoint, Side, project, side_of, unproject
from .sphere import EPS, Ray, Vec3, canonicalize

#: Hard cap on shell size; hitting it means the height gap is below what the
#: construction can resolve numerically.
N_MAX = 10**6

#: Cap on reach's spiral step count k, so a chain holds at most k + 1 points;
#: past it reach raises NoSuchN before it builds a point. Every pair with a
#: height gap of at least 1e-3, the acceptance suite's law, needs at most
#: 1,900 steps; the suite's 1000 pairs need at most 628 (3.2x below the cap)
#: and the benchmark's reach pairs at most 267. ks demo first's longest
#: chain is about 1.25/theta points for a target theta from its frame pole
#: (4 points, k = 3, at the default theta = 0.44), so the cap refuses
#: targets within about 6e-4 rad of the pole or 3e-4 rad of the rim, where
#: a demo would hold some 70,000 rays.
MAX_SPIRAL_STEPS = 2_000

MIN_SHELL_N = 5


@dataclass(frozen=True)
class ReachCertificate:
    """Finite chain of points realizing reachability.

    points[0] is the source and points[-1] the target; consecutive points
    must satisfy the on-circle invariant and every point must be strictly
    northern. Points are stored as plain coordinate triples so that
    verify_certificate can judge documents produced elsewhere. shell_n is
    the spiral's step count k, which is also the chain's link count (k + 1
    points: q, the spiral's first k - 2 points, a step_one point and p);
    None for a direct chain.
    """

    points: tuple[Vec3, ...]
    eps: float = EPS
    shell_n: int | None = None


@dataclass(frozen=True)
class VerifyReport:
    accepted: bool
    link_residuals: tuple[float, ...]
    min_z: float
    failures: tuple[str, ...] = ()
    first_bad_link: int | None = None


def step_one(q: Ray, p: Ray) -> Ray:
    """A point x on q's circle whose own circle passes through p.

    q's circle maps to the line through F = h(q) orthogonal to F. In plane
    coordinates x = F + t*dir runs along that line, dir = (-F_v, F_u)/|F|
    being F's counterclockwise quarter turn, and p is on x's circle when
    x.(x - P) = 0: x lies on the Thales circle with diameter O-P. That is
    the quadratic t^2 - b*t + c = 0 with b = dir.P and c = F.F - F.P. For p
    beyond q's circle (c < 0) the roots have opposite signs and the
    nonnegative one is taken. For p on the pole side (c > 0) both roots have
    b's sign, and the one of larger magnitude is taken; there x exists only
    when the Thales circle meets the line, that is when p is two links from
    q, and a miss by more than rounding raises NotReachableDirectly. Either
    way the output is deterministic (the other root is equally valid). A p
    within EPS of q's circle gets its Thales point as well, never q itself,
    so the link to p keeps the Thales residual of rounding size. NotNorthern
    unless q and p are northern, then AtPole when q is the pole.
    """
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


def _spiral(q: Ray, delta: float, k: int) -> Iterator[Ray]:
    """Points 1..k of the outward spiral from q that turns delta in k equal steps.

    Point i sits at plane radius |h(q)| * cos(delta/k)^(-i) and azimuth
    phi_q + i*delta/k. Turning by delta/k while growing the radius by
    1/cos(delta/k) keeps each point exactly on the circle of the one before.
    Each point is unproject's canonical ray through (u, v, 1).
    """
    f = project(q)
    phi = math.atan2(f.v, f.u)
    d = f.norm()
    step = delta / k
    growth = 1.0 / math.cos(step)
    for i in range(1, k + 1):
        d *= growth
        a = phi + i * step
        yield canonicalize((d * math.cos(a), d * math.sin(a), 1.0))


def shell(q: Ray, n: int) -> list[Ray]:
    """The paper's full-turn shell q_0 = q, ..., q_n: the spiral turning 2*pi.

    q_i sits at plane radius |h(q)| * cos(2*pi/n)^(-i) and azimuth
    phi_q + 2*pi*i/n, on the circle of q_{i-1}; MIN_SHELL_N <= n <= N_MAX.
    """
    if q.is_pole():
        raise AtPole("shell undefined at the north pole")
    if not MIN_SHELL_N <= n <= N_MAX:
        raise BadN(f"shell needs {MIN_SHELL_N} <= n <= {N_MAX}, got {n}")
    return [q, *_spiral(q, 2.0 * math.pi, n)]


def _least_steps(admissible: Callable[[int], bool], first: int, cap: int, what: str) -> int:
    """Smallest k in [first, cap] with admissible(k), for a criterion monotone in k.

    Doubles from first until admissible, then bisects. Raises NoSuchN past
    cap, which signals heights too close to separate within the cap.
    """
    lo, hi = first - 1, first
    while not admissible(hi):
        if hi >= cap:
            raise NoSuchN(f"no admissible {what} up to {cap}")
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def choose_shell_n(q: Ray, p: Ray) -> int:
    """Smallest n >= 5 whose shell provably brings p beyond some shell circle.

    Criterion: d0 * cos(2*pi/n)^(-n) < ||h(p)|| * cos(pi/n). The cos(pi/n)
    factor absorbs the worst angular mismatch between h(p) and the nearest
    shell direction (directions advance by 2*pi/n, so some shell point is
    within pi/n of h(p)'s azimuth). The left side falls and the right side
    grows with n, so the criterion is monotone in n. Raises NoSuchN past
    N_MAX.
    """
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

    return _least_steps(admissible, MIN_SHELL_N, N_MAX, "shell size")


def _spiral_steps(d0: float, target: float, delta: float) -> int:
    """Smallest k with cos(delta/k) > 0 and d0 * cos(delta/k)^(-k) < target.

    k equal turns of delta/k under the 1/cos growth law end at plane radius
    d0 * cos(delta/k)^(-k) on the azimuth delta. Because -log cos is convex,
    that radius falls as k grows, so the criterion is monotone in k. Raises
    NoSuchN past MAX_SPIRAL_STEPS.
    """

    def admissible(k: int) -> bool:
        c = math.cos(delta / k)
        return c > 0.0 and d0 * c ** (-k) < target

    return _least_steps(admissible, 1, MAX_SPIRAL_STEPS, "spiral step count")


def reach(q: Ray, p: Ray) -> ReachCertificate:
    """Certificate that p can be reached from q, for northern p_z < q_z - eps.

    The chain starts at q. When p is on the pole side of q's circle, k is
    the least number of links that can carry the plane radius from |h(q)|
    to |h(p)| across delta, the signed azimuth gap from h(q) to h(p)
    (|delta| <= pi): by convexity of -log cos, equal turns of delta/k are
    the best k links can do. The chain follows the first k - 2 points of
    the spiral that turns delta in k equal steps and shell_n holds k; a k
    above MAX_SPIRAL_STEPS raises NoSuchN before any point is built.
    Otherwise shell_n is None. A step_one point follows unless p is already
    on q's circle, and p ends the chain: k + 1 points after a spiral.
    verify_certificate re-checks the chain with none of this code: it
    shares only the order of canonicalize's and circle_pole's arithmetic.
    """
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
        k = _spiral_steps(f.norm(), h.norm(), delta)
        # k >= 2, since one link suffices exactly when p is beyond q's circle;
        # the last spiral point then has p two links away, which step_one
        # bridges (should rounding say otherwise, it fails closed with
        # NotReachableDirectly)
        points.extend(islice(_spiral(q, delta, k), k - 2))
    if side is not Side.ON_CIRCLE:
        points.append(step_one(points[-1], p))
    points.append(p)
    return ReachCertificate(points=tuple([(r.x, r.y, r.z) for r in points]), shell_n=k)


def verify_certificate(cert: ReachCertificate) -> VerifyReport:
    """Re-check every certificate invariant; failures are report entries.

    Checks, per point: near-unit norm and z > EPS once normalized; per link
    (a, b): |b . third_point(a)| within EPS, b against the pole of a's
    circle. Point failures are listed before link failures, and the first
    listed names first_bad_link. Every test fails closed, so a NaN
    coordinate or residual is a failure.

    The check shares no code with the construction, only its arithmetic
    order: one loop over the coordinate triples, with no Ray, canonicalize
    or third_point, makes canonicalize's and circle_pole's operations in
    their order, so each residual is the one third_point gives, to the last
    bit. It costs about 0.6 us per point plus 1.5 us per certificate, against
    2.8 us per point through Ray and third_point (Python 3.11 on one core of
    a 2-vCPU VM, a 186-point chain).
    """
    pts = cert.points
    if not pts:
        return VerifyReport(
            accepted=False,
            link_residuals=(),
            min_z=math.nan,
            failures=("[0] certificate must contain at least one point",),
            first_bad_link=0,
        )
    bad_points: list[tuple[int, str]] = []  # (index, message), in index order
    bad_links: list[tuple[int, str]] = []
    residuals: list[float] = []
    min_z = math.inf
    a = None  # the previous point's canonical coordinates, None when it failed
    for i, (vx, vy, vz) in enumerate(pts):
        n = math.sqrt(vx * vx + vy * vy + vz * vz)
        if not abs(n - 1.0) <= 1e-6:
            bad_points.append((i, f"point norm {n!r} not within 1e-6 of 1"))
            b = None
        else:
            # canonicalize: near-unit input passes through bit-exactly. A
            # point with z > EPS is in canonical sign form as it stands, and z
            # is the point's own height, the sign rule's flip undone.
            if abs(n - 1.0) <= 4e-13:
                n = 1.0
            z = vz / n
            if z < min_z:
                min_z = z
            if z > EPS:
                b = (vx / n, vy / n, z)
            else:
                bad_points.append((i, f"point z={z!r} not strictly northern"))
                b = None
        if i:
            if a is None or b is None:
                residuals.append(math.nan)
            else:
                # circle_pole(NORTH_POLE, a) written out: c = a_z, h = (a_x, a_y, 0),
                # w = (-a_x, -a_y, s/a_z) canonicalized. Its sign rule and the
                # signed zeros canonicalize adds only flip the sign of the dot
                # or of a zero term, which abs() removes.
                ax, ay, az = a
                s = ax * ax + ay * ay
                if s <= EPS * EPS:
                    bad_links.append((i - 1, "link source is the pole; its circle is undefined"))
                    residuals.append(math.nan)
                else:
                    k = s / az
                    m = math.sqrt(s + k * k)
                    if abs(m - 1.0) <= 4e-13:
                        m = 1.0
                    res = abs(-ax / m * b[0] - ay / m * b[1] + k / m * b[2])
                    residuals.append(res)
                    if not res <= EPS:
                        bad_links.append((i - 1, f"link residual {res!r} exceeds tolerance"))
        a = b

    bad = bad_points + bad_links
    return VerifyReport(
        accepted=not bad,
        link_residuals=tuple(residuals),
        min_z=min_z if min_z is not math.inf else math.nan,
        failures=tuple([f"[{i}] {msg}" for i, msg in bad]),
        first_bad_link=bad[0][0] if bad else None,
    )


def asymptotic_residual(n: int) -> float:
    """n*log(cos(2*pi/n)) + 2*pi^2/n; tends to 0 like -((2*pi)^4/12)/n^3."""
    if n < MIN_SHELL_N:
        raise BadN(f"need n >= {MIN_SHELL_N}, got {n}")
    return n * math.log(math.cos(2.0 * math.pi / n)) + 2.0 * math.pi * math.pi / n
