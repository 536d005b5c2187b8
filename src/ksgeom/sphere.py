"""Canonical rays on the unit sphere, tripods, and rotations.

A ray stands for a one-dimensional subspace of R^3: the two antipodal unit
vectors spanning it are identified, and construction always picks the
canonical representative (z positive, breaking ties toward positive x and
then positive y on the equator). A ray's checks (unit length, canonical
sign) are written once, in _check_ray. The Ray constructor runs them, and
canonicalize and the document loader build through it, so they run on
every ray; reach runs them on the chain points it keeps as coordinate
triples. canonicalize's arithmetic is written once too, in _canonical,
which canonicalize wraps into a Ray and reach uses as it stands. A
tripod's orthogonality check is written once, in check_tripod. Every
predicate compares against the one fixed tolerance EPS; there is no
exact-arithmetic mode.

q's circle under a pole P is one construction, circle_pole: the paper
assumes "by a rotation" that P is the north pole N, and the formula needs
no rotation. circle_partners adds the equator partner P x q, and
third_point and complete_tripod are the calls at N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AtPole, NotNorthern, NotOrthogonal, ZeroVector

Vec3 = tuple[float, float, float]

#: Numerical slack of every geometric predicate (orthogonality, circle
#: membership, heights); documents record it as their "eps".
EPS = 1e-9

#: Fixed band for the canonical sign rule. Kept apart from EPS so that
#: whether a stored Ray is canonical is a property of its bits alone and
#: never of the predicates' slack.
CANON_EPS = 1e-9

_UNIT_TOL = 1e-12

NORTH_POLE_VEC: Vec3 = (0.0, 0.0, 1.0)


def dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(a: Vec3) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


@dataclass(frozen=True, init=False)
class Ray:
    """A one-dimensional subspace stored as its canonical unit vector.

    Invariants (checked at construction): the coordinates are floats, unit
    (squares summing to 1 within 4e-12) and in canonical sign form. Use
    canonicalize() to build a Ray from any nonzero vector. Its predicates are
    dot, cross and norm written out in the same operation order, so they
    give the same bits. A ray's document text is made once, on first use,
    and kept in the ray's __dict__, which only that text uses; _text is no
    dataclass field, so it takes no part in ==, hash or repr, and a copy or
    pickle carries the coordinates alone.
    """

    __slots__ = ("x", "y", "z", "__dict__")
    x: float
    y: float
    z: float
    _text = None  # until the ray's text is made: construction stores nothing for it

    def __init__(self, x: float, y: float, z: float) -> None:
        """ValueError unless (x, y, z) is unit and in canonical sign form
        (_check_ray).

        An int coordinate is stored as its float, so the ray is written as
        it reloads; a bool or a non-number is refused. The checked values
        then fill the frozen slots directly.
        """
        if not type(x) is type(y) is type(z) is float:
            x, y, z = _as_floats(x, y, z)
        _check_ray(x, y, z)
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    # copy and pickle: a frozen class refuses the slot-by-slot setattr of the
    # default unpickling, so a ray is rebuilt through the constructor
    def __getstate__(self) -> Vec3:
        return (self.x, self.y, self.z)

    def __setstate__(self, state: Vec3) -> None:
        Ray.__init__(self, *state)

    @property
    def vec(self) -> Vec3:
        return (self.x, self.y, self.z)

    @property
    def text(self) -> str:
        """"[x,y,z]" with each coordinate's repr: json's compact encoding of
        the float list, byte for byte. Made on first use and kept."""
        text = self._text
        if text is None:
            text = self.__dict__["_text"] = "[%r,%r,%r]" % (self.x, self.y, self.z)
        return text

    def dot(self, other: "Ray") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def same_subspace(self, other: "Ray") -> bool:
        """Subspace equality: |a x b| <= eps, a merge radius of about eps rad."""
        ax, ay, az = self.x, self.y, self.z
        bx, by, bz = other.x, other.y, other.z
        cx = ay * bz - az * by
        cy = az * bx - ax * bz
        cz = ax * by - ay * bx
        return math.sqrt(cx * cx + cy * cy + cz * cz) <= EPS

    def is_orthogonal(self, other: "Ray") -> bool:
        return abs(self.x * other.x + self.y * other.y + self.z * other.z) <= EPS

    def is_northern(self) -> bool:
        return self.z > EPS

    def is_pole(self) -> bool:
        return self.x * self.x + self.y * self.y <= EPS * EPS


# the slot descriptors of the frozen class, which Ray.__init__ writes through
_set_x, _set_y, _set_z = Ray.x.__set__, Ray.y.__set__, Ray.z.__set__


def _check_ray(x: float, y: float, z: float) -> None:
    """ValueError unless the floats (x, y, z) are unit and in canonical sign
    form: the Ray constructor's tests, which reach also runs on the chain
    points it builds as coordinate triples.

    Unit: the squares sum to 1 within 4e-12 in one of the three orders of
    float addition, the other two summed only if the first fails, so no
    order or sign of the coordinates moves the verdict. The sign rule:
    z > CANON_EPS; or |z| <= CANON_EPS and x > CANON_EPS; or
    |z|, |x| <= CANON_EPS and y > 0. Both fail closed on NaN.
    """
    if not abs(x * x + y * y + z * z - 1.0) <= 4.0 * _UNIT_TOL and not (
            abs(x * x + z * z + y * y - 1.0) <= 4.0 * _UNIT_TOL
            or abs(y * y + z * z + x * x - 1.0) <= 4.0 * _UNIT_TOL):
        raise ValueError(f"not a unit vector: {(x, y, z)!r}")
    if not (z > CANON_EPS or (abs(z) <= CANON_EPS and (
            x > CANON_EPS or (abs(x) <= CANON_EPS and y > 0.0)))):
        raise ValueError(f"not in canonical sign form: {(x, y, z)!r}")


def _as_floats(x: float, y: float, z: float) -> Vec3:
    """Ray coordinates as floats: ints are converted, anything but an int or
    a float (a bool included) is refused with ValueError."""
    for c in (x, y, z):
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise ValueError(f"ray coordinates must be floats: {(x, y, z)!r}")
    return float(x), float(y), float(z)


NORTH_POLE = Ray(0.0, 0.0, 1.0)


def _canonical(vx: float, vy: float, vz: float) -> Vec3:
    """canonicalize's arithmetic on a coordinate triple: v normalized and
    its canonical antipodal representative, as floats.

    Raises ZeroVector when ||v|| <= eps. Exactly sign-invariant. The result
    is not checked: canonicalize checks it in the Ray constructor, and a
    caller that keeps the triple checks it with _check_ray.
    """
    n = math.sqrt(vx * vx + vy * vy + vz * vz)
    if n <= EPS:
        raise ZeroVector(f"vector norm {n!r} below tolerance")
    if abs(n - 1.0) <= 4e-13:
        n = 1.0  # near-unit input passes through bit-exactly: makes the map idempotent
    # Adding 0.0 normalizes -0.0 to +0.0 so both antipodes map to the same bits.
    x = vx / n + 0.0
    y = vy / n + 0.0
    z = vz / n + 0.0
    # the canonical sign rule written out; _check_ray tests it again
    if not (z > CANON_EPS or (abs(z) <= CANON_EPS and (
            x > CANON_EPS or (abs(x) <= CANON_EPS and y > 0.0)))):
        x, y, z = -x + 0.0, -y + 0.0, -z + 0.0
    return x, y, z


def canonicalize(v: Vec3) -> Ray:
    """Normalize v and pick the canonical antipodal representative: the Ray
    of _canonical(*v).

    Raises ZeroVector when ||v|| <= eps, and ValueError from the Ray
    constructor for a NaN or infinite coordinate. Exactly
    sign-invariant: canonicalize(v) == canonicalize(-v) down to the last bit.
    """
    x, y, z = _canonical(v[0], v[1], v[2])
    return Ray(x, y, z)


@dataclass(frozen=True)
class Tripod:
    """Three rays pairwise orthogonal within EPS, the slack of orthogonal_zero."""

    a: Ray
    b: Ray
    c: Ray

    def __post_init__(self) -> None:
        check_tripod(self.a, self.b, self.c)

    @property
    def members(self) -> tuple[Ray, Ray, Ray]:
        return (self.a, self.b, self.c)


def tripod_residual(a: Ray, b: Ray, c: Ray) -> float:
    """Largest pairwise |dot| of three rays; NaN when any of them is NaN."""
    ab = abs(a.x * b.x + a.y * b.y + a.z * b.z)
    ac = abs(a.x * c.x + a.y * c.y + a.z * c.z)
    bc = abs(b.x * c.x + b.y * c.y + b.z * c.z)
    # a sum of values >= 0 (inf included) is NaN only when one of them is
    return math.nan if math.isnan(ab + ac + bc) else max(ab, ac, bc)


def check_tripod(a: Ray, b: Ray, c: Ray) -> None:
    """NotOrthogonal unless the three rays are pairwise orthogonal within EPS."""
    worst = tripod_residual(a, b, c)
    if not worst <= EPS:  # fails closed on NaN
        raise NotOrthogonal(f"tripod members not pairwise orthogonal, residual {worst!r}")


@dataclass(frozen=True)
class Rotation:
    """Proper rotation of R^3, stored as row tuples."""

    rows: tuple[Vec3, Vec3, Vec3]

    def __post_init__(self) -> None:
        r = self.rows
        for i in range(3):
            for j in range(3):
                got = dot(r[i], r[j])
                want = 1.0 if i == j else 0.0
                if not abs(got - want) <= 1e-11:  # fails closed on NaN
                    raise ValueError("rotation rows not orthonormal")
        if not abs(self.det() - 1.0) <= 1e-11:
            raise ValueError("rotation determinant is not +1")

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    def det(self) -> float:
        r = self.rows
        return dot(r[0], cross(r[1], r[2]))

    def apply(self, v: Vec3) -> Vec3:
        """R v, each row dotted with v in dot's operation order."""
        r0, r1, r2 = self.rows
        return (
            r0[0] * v[0] + r0[1] * v[1] + r0[2] * v[2],
            r1[0] * v[0] + r1[1] * v[1] + r1[2] * v[2],
            r2[0] * v[0] + r2[1] * v[1] + r2[2] * v[2],
        )

    def apply_inverse(self, v: Vec3) -> Vec3:
        """R^T v, the columns dotted with v in the same order as apply."""
        r0, r1, r2 = self.rows
        return (
            r0[0] * v[0] + r1[0] * v[1] + r2[0] * v[2],
            r0[1] * v[0] + r1[1] * v[1] + r2[1] * v[2],
            r0[2] * v[0] + r1[2] * v[1] + r2[2] * v[2],
        )


def circle_pole(pole: Ray, q: Ray) -> Ray:
    """The pole of q's circle, the great circle through q and its equator
    partners, in the frame whose north is pole.

    With c = pole.q and h = q - c*pole, q's part orthogonal to the pole, it
    is (h.h/c)*pole - h canonicalized, the same for -q. NotNorthern unless
    |c| > EPS, AtPole when h.h <= EPS^2. Each sum and product runs in
    coordinate order, so at the north pole, where h is exactly (q_x, q_y, 0),
    it is (-q_x, -q_y, (q_x^2+q_y^2)/q_z) normalized, bit for bit.
    """
    px, py, pz = pole.x, pole.y, pole.z
    c = px * q.x + py * q.y + pz * q.z
    if not abs(c) > EPS:
        raise NotNorthern(f"point with height {c!r} over its pole is not northern")
    hx, hy, hz = q.x - c * px, q.y - c * py, q.z - c * pz
    s = hx * hx + hy * hy + hz * hz
    if s <= EPS * EPS:
        raise AtPole("construction undefined at the pole")
    k = s / c
    return canonicalize((k * px - hx, k * py - hy, k * pz - hz))


def circle_partners(pole: Ray, q: Ray) -> tuple[Ray, Ray]:
    """q's equator partner, pole x q canonicalized, and circle_pole(pole, q).

    The refusals are circle_pole's. At the north pole the partner is
    (q_y, -q_x, 0) normalized, bit for bit.
    """
    w = circle_pole(pole, q)
    return canonicalize(cross(pole.vec, q.vec)), w


def third_point(q: Ray) -> Ray:
    """The pole of q's circle under the north pole: circle_pole(NORTH_POLE, q).

    It completes q and its equator partner to a tripod, and p lies on q's
    circle, on which q is the northern-most point, iff
    |p . third_point(q)| <= EPS.
    """
    return circle_pole(NORTH_POLE, q)


def complete_tripod(q: Ray) -> Tripod:
    """Tripod (q, equator partner, third_point(q)) under the north pole."""
    return Tripod(q, *circle_partners(NORTH_POLE, q))


def rotation_to_pole(q: Ray) -> Rotation:
    """Proper rotation R with R q = (0,0,1), built about the axis q x N.

    Identity when q is already the pole; canonical rays never equal the
    south pole, so no 180-degree special case is reachable.
    """
    axis = cross(q.vec, NORTH_POLE_VEC)
    s = norm(axis)
    c = q.z
    if s <= EPS:
        return Rotation.identity()
    ux, uy, uz = axis[0] / s, axis[1] / s, axis[2] / s
    t = 1.0 - c
    rows = (
        (c + ux * ux * t, ux * uy * t - uz * s, ux * uz * t + uy * s),
        (uy * ux * t + uz * s, c + uy * uy * t, uy * uz * t - ux * s),
        (uz * ux * t - uy * s, uz * uy * t + ux * s, c + uz * uz * t),
    )
    return Rotation(rows)
