"""Constructive reachability on the northern hemisphere.

A point p can be reached from q when a finite chain q = c_0, ..., c_k = p
exists with each c_i on the great circle of c_{i-1}. This module builds
such chains: a one-step construction when p is already beyond the circle
of q, and otherwise an outward spiral whose circles eventually put p on
the reachable side. One spiral law serves both constructions: each step
turns the plane azimuth by a fixed angle and grows the plane radius by
1/cos of it, which keeps every point on the circle of the one before. The
paper's shell turns a full 2*pi in n steps; reach turns only the signed
azimuth gap from h(q) to h(p) in k steps, which gives much shorter chains.
Both take the least step count the growth law admits, found by one
doubling-and-bisection search.
Certificates carry every chain point and are re-checkable without
trusting the construction.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .errors import (
    AtPole,
    BadN,
    NoSuchN,
    NotNorthern,
    NotReachableDirectly,
    PreconditionViolation,
)
from .plane import PlanePoint, Side, circle_image_line, project, side_of, unproject
from .sphere import EPS, Ray, Vec3, canonicalize, third_point

#: Hard cap on shell size; hitting it means the height gap is below what the
#: construction can resolve numerically.
N_MAX = 10**6

#: Cap on reach's spiral step count k, so a chain holds at most k + 3 points;
#: past it reach raises NoSuchN before it builds a point. Every pair with a
#: height gap of at least 1e-3, the acceptance suite's law, needs at most
#: 1,900 steps; the suite's 1000 pairs need at most 628 (3.2x below the cap)
#: and the benchmark's reach pairs at most 267. ks demo first's longest
#: chain is about 1.25/theta points for a target theta from its frame pole,
#: so the cap refuses targets within about 6e-4 rad of the pole or 3e-4 rad
#: of the rim, where a demo would hold some 70,000 rays.
MAX_SPIRAL_STEPS = 2_000

MIN_SHELL_N = 5


@dataclass(frozen=True)
class ReachCertificate:
    """Finite chain of points realizing reachability.

    points[0] is the source and points[-1] the target; consecutive points
    must satisfy the on-circle invariant and every point must be strictly
    northern. Points are stored as plain coordinate triples so that
    verify_certificate can judge documents produced elsewhere. shell_n is
    the spiral's step count k, None for a direct chain.
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
    """A point on q's circle whose own circle passes through p.

    Requires p on or beyond q's circle. In plane coordinates the unknown
    foot x = F + t*dir must satisfy the right-angle condition x.(x - P) = 0,
    a quadratic with roots of opposite sign; the nonnegative root is taken,
    which makes the output deterministic (the other root is the mirror
    image and equally valid).
    """
    side = side_of(p, q)
    if side is Side.POLE_SIDE:
        raise NotReachableDirectly("target is on the pole side of the circle")
    if side is Side.ON_CIRCLE:
        return q
    f_pt = project(q)
    p_pt = project(p)
    r = circle_image_line(q).dir
    b = r[0] * p_pt.u + r[1] * p_pt.v
    c = f_pt.dot(f_pt) - f_pt.dot(p_pt)
    disc = b * b - 4.0 * c
    if disc < 0.0:  # only reachable via roundoff right at the circle
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
    """
    f = project(q)
    phi = math.atan2(f.v, f.u)
    d = f.norm()
    step = delta / k
    growth = 1.0 / math.cos(step)
    for i in range(1, k + 1):
        d *= growth
        a = phi + i * step
        yield unproject(PlanePoint(d * math.cos(a), d * math.sin(a)))


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

    The chain starts at q. When p is on the pole side of q's circle, it
    follows the spiral that turns delta, the signed azimuth gap from h(q)
    to h(p) (|delta| <= pi), in k equal steps, where k is the fewest steps
    that end inside radius |h(p)|; it stops at the first spiral point whose
    circle has p on or beyond it, and shell_n holds k; a k above
    MAX_SPIRAL_STEPS raises NoSuchN before any point is built. Otherwise
    shell_n is None. A step_one point follows unless p is already on the
    last point's circle, and p ends the chain.
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
        for point in _spiral(q, delta, k):
            points.append(point)
            side = side_of(p, point)
            if side is not Side.POLE_SIDE:
                break
    if side is not Side.ON_CIRCLE:
        # p is beyond the last point's circle (on a spiral, by the choice of
        # k); should rounding say otherwise, step_one fails closed with
        # NotReachableDirectly
        points.append(step_one(points[-1], p))
    points.append(p)
    return ReachCertificate(points=tuple(r.vec for r in points), shell_n=k)


def verify_certificate(cert: ReachCertificate) -> VerifyReport:
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


def asymptotic_residual(n: int) -> float:
    """n*log(cos(2*pi/n)) + 2*pi^2/n; tends to 0 like -((2*pi)^4/12)/n^3."""
    if n < MIN_SHELL_N:
        raise BadN(f"need n >= {MIN_SHELL_N}, got {n}")
    return n * math.log(math.cos(2.0 * math.pi / n)) + 2.0 * math.pi * math.pi / n
