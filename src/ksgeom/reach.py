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

Chains are built in the tangent plane z = 1 at the north pole, with the
pole at the origin: a northern point (x, y, z) projects to h = (x/z, y/z),
two floats. Great circles through northern points map to straight lines:
q's circle maps to the line through h(q) orthogonal to h(q), which step_one
walks, and the "beyond" side of that line is the image of the region
between the circle and the equator.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterator
from itertools import islice
from typing import NamedTuple

from .errors import (
    AtPole,
    BadN,
    NoSuchN,
    NotNorthern,
    NotReachableDirectly,
    PreconditionViolation,
)
from .sphere import EPS, Ray, Vec3, _canonical, _check_ray, third_point

#: Hard cap on shell size; hitting it means the height gap is below what the
#: construction can resolve numerically.
N_MAX = 10**6

#: Cap on reach's spiral step count k, so a chain holds at most k + 1 points;
#: past it reach raises NoSuchN before it builds a point. Every pair with a
#: height gap of at least 1e-3, the acceptance suite's law, needs at most
#: 1,900 steps; the suite's 1000 pairs need at most 628 (3.2x below the cap)
#: and the benchmark's reach pairs at most 267. ks demo first argued from
#: the seed pole has a longest chain of about 1.25/theta points for a
#: target theta from its frame pole (4 points, k = 3, at the default theta =
#: 0.44), past the cap within about 6e-4 rad of the pole or 3e-4 rad of the
#: rim; outside 0.125 <= theta <= 0.75 it re-poles at a point 0.44 rad from
#: both instead (demos.DIRECT_LO, DIRECT_HI), so its chains stay short.
MAX_SPIRAL_STEPS = 2_000

MIN_SHELL_N = 5


class Side(enum.Enum):
    POLE_SIDE = "pole_side"
    ON_CIRCLE = "on_circle"
    BEYOND = "beyond"


def side_of(p: Ray, q: Ray) -> Side:
    """Which side of q's circle the point p falls on.

    Reads the signed dot s = p . third_point(q) against the circle's pole.
    ON_CIRCLE is |s| <= EPS; BEYOND (s < 0) means p lies in the region
    between the circle and the equator, whose image is the half plane not
    containing the origin; POLE_SIDE is the rest of the hemisphere.
    """
    if q.is_pole():
        raise AtPole("side_of undefined for the pole circle")
    if not p.is_northern():
        raise NotNorthern(f"cannot place point with z={p.z!r}")
    s = p.dot(third_point(q))
    if abs(s) <= EPS:
        return Side.ON_CIRCLE
    if s < 0.0:
        return Side.BEYOND
    return Side.POLE_SIDE


def _plane(r: Ray) -> tuple[float, float]:
    """h(r) = (r_x/r_z, r_y/r_z); bijective from the open northern hemisphere."""
    if not r.is_northern():
        raise NotNorthern(f"cannot project point with z={r.z!r}")
    return r.x / r.z, r.y / r.z


class ReachCertificate(NamedTuple):
    """Finite chain of points realizing reachability.

    points[0] is the source and points[-1] the target; consecutive points
    must satisfy the on-circle invariant and every point must be strictly
    northern within eps, the tolerance verify_certificate judges them at.
    Points are stored as plain coordinate triples so that
    verify_certificate can judge documents produced elsewhere. shell_n is
    the spiral's step count k, which is also the chain's link count (k + 1
    points: q, the spiral's first k - 2 points, a step_one point and p);
    None for a direct chain. A tuple, so making one costs no
    frozen-dataclass set-up; it compares and hashes by value.
    """

    points: tuple[Vec3, ...]
    eps: float = EPS
    shell_n: int | None = None


class VerifyReport(NamedTuple):
    """verify_certificate's verdict: one residual per link (NaN where a
    link was not computed), the least normalized height and the failures,
    each "[index] message". A tuple, as ReachCertificate is."""

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

    The construction is _thales; step_one wraps its triple into a Ray, which
    reach skips: 1.4 us per Thales point with the Ray checks, against
    4.6-5.4 us through step_one (Python 3.11, one core of a 2-vCPU VM).
    """
    fu, fv = _plane(q)
    pu, pv = _plane(p)
    if q.is_pole():
        raise AtPole("step_one undefined at the north pole")
    x, y, z = _thales(fu, fv, pu, pv)
    return Ray(x, y, z)


def _thales(fu: float, fv: float, pu: float, pv: float) -> Vec3:
    """step_one's point for F = (fu, fv) and P = (pu, pv), as the canonical
    triple of (x_u, x_v, 1): no Ray, and unchecked."""
    d = math.hypot(fu, fv)
    ru, rv = -fv / d, fu / d
    b = ru * pu + rv * pv
    ff, fp = fu * fu + fv * fv, fu * pu + fv * pv
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
    return _canonical(fu + t * ru, fv + t * rv, 1.0)


def _spiral(phi: float, d: float, delta: float, k: int) -> Iterator[Vec3]:
    """Points 1..k of the outward spiral from the plane point at azimuth phi
    and radius d that turns delta in k equal steps.

    Point i sits at plane radius d * cos(delta/k)^(-i) and azimuth
    phi + i*delta/k. Turning by delta/k while growing the radius by
    1/cos(delta/k) keeps each point exactly on the circle of the one before.
    Each point is the canonical triple through (u, v, 1), unchecked.
    """
    step = delta / k
    growth = 1.0 / math.cos(step)
    for i in range(1, k + 1):
        d *= growth
        a = phi + i * step
        yield _canonical(d * math.cos(a), d * math.sin(a), 1.0)


def shell(q: Ray, n: int) -> list[Ray]:
    """The paper's full-turn shell q_0 = q, ..., q_n: the spiral turning 2*pi.

    q_i sits at plane radius |h(q)| * cos(2*pi/n)^(-i) and azimuth
    phi_q + 2*pi*i/n, on the circle of q_{i-1}; MIN_SHELL_N <= n <= N_MAX.
    """
    if q.is_pole():
        raise AtPole("shell undefined at the north pole")
    if not MIN_SHELL_N <= n <= N_MAX:
        raise BadN(f"shell needs {MIN_SHELL_N} <= n <= {N_MAX}, got {n}")
    fu, fv = _plane(q)
    spiral = _spiral(math.atan2(fv, fu), math.hypot(fu, fv), 2.0 * math.pi, n)
    return [q, *[Ray(x, y, z) for x, y, z in spiral]]


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
    d0 = math.hypot(*_plane(q))
    target = math.hypot(*_plane(p))

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

    The chain is built on coordinate triples: the spiral and the Thales
    point come from _canonical on plane coordinates, with no Ray per point,
    and each built point then passes the Ray constructor's tests
    (_check_ray). A spiral point costs about 1.0 us and the Thales point
    about 1.4 us, checks included, against 1.2-1.9 and 4.6-5.4 us through
    Ray, a plane-point tuple and step_one before; a 7-point chain takes
    about 10 us, against 16-18 (Python 3.11 on one core of a 2-vCPU VM, the
    benchmark's seed-43 pairs).
    """
    if not (p.is_northern() and q.is_northern()):
        raise NotNorthern("both points must be northern")
    if q.is_pole():
        raise AtPole("reach source must not be the pole")
    if not p.z < q.z - EPS:
        raise PreconditionViolation(
            f"need p_z < q_z - eps, got p_z={p.z!r}, q_z={q.z!r}"
        )
    points, k = [q.vec], None
    side = side_of(p, q)
    if side is not Side.ON_CIRCLE:
        fu, fv, pu, pv = q.x / q.z, q.y / q.z, p.x / p.z, p.y / p.z
        if side is Side.POLE_SIDE:
            phi = math.atan2(fv, fu)
            delta = math.remainder(math.atan2(pv, pu) - phi, 2.0 * math.pi)
            d = math.hypot(fu, fv)
            k = _spiral_steps(d, math.hypot(pu, pv), delta)
            # k >= 2, since one link suffices exactly when p is beyond q's
            # circle; the last spiral point then has p two links away, which
            # the Thales point bridges (should rounding say otherwise, it
            # fails closed with NotReachableDirectly)
            points.extend(islice(_spiral(phi, d, delta, k), k - 2))
            x, y, z = points[-1]
            fu, fv = x / z, y / z
        points.append(_thales(fu, fv, pu, pv))
        for x, y, z in islice(points, 1, None):
            _check_ray(x, y, z)
    points.append(p.vec)
    return ReachCertificate(tuple(points), EPS, k)


def verify_certificate(cert: ReachCertificate) -> VerifyReport:
    """Re-check every certificate invariant; failures are report entries.

    Checks, per point: near-unit norm and z > eps once normalized; per link
    (a, b): |b . third_point(a)| within eps, b against the pole of a's
    circle. eps is the certificate's own (cert.eps, a document's "eps"), as
    a triad system is validated at its own; a link from within EPS of the
    pole, where circle_pole is undefined, fails at any eps. Point failures
    are listed before link failures, and the first listed names
    first_bad_link. Every test fails closed, so a NaN coordinate or
    residual is a failure, and so is every point and link under a NaN eps.

    The check shares no code with the construction, only its arithmetic
    order: one loop over the coordinate triples, with no Ray, canonicalize
    or third_point, makes canonicalize's and circle_pole's operations in
    their order, so each residual is the one third_point gives, to the last
    bit. It costs about 0.6 us per point plus 1.5 us per certificate, against
    2.8 us per point through Ray and third_point (Python 3.11 on one core of
    a 2-vCPU VM, a 186-point chain).
    """
    pts, eps = cert.points, cert.eps
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
            # canonicalize: near-unit input passes through bit-exactly. z is
            # the point's own height, the sign rule's flip undone. A point
            # with z > EPS is in canonical sign form as it stands; under a
            # smaller eps the rule may flip the whole point, which changes
            # no link's residual (below).
            if abs(n - 1.0) <= 4e-13:
                n = 1.0
            z = vz / n
            if z < min_z:
                min_z = z
            if z > eps:
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
                    if not res <= eps:
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
