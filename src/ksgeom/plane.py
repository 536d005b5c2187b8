"""Central projection onto the tangent plane at the north pole.

The plane H = {z = 1} is coordinatized by (u, v) with the pole at the
origin; a northern point (x, y, z) projects to (x/z, y/z). Great circles
through northern points map to straight lines: q's circle maps to the line
through h(q) orthogonal to h(q), which reach.step_one walks, and the
"beyond" side of that line is the image of the region between the circle
and the equator.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import AtPole, NotNorthern
from .sphere import EPS, Ray, canonicalize, third_point


class PlanePoint(NamedTuple):
    """A point (u, v) of the plane H; a tuple, so making one costs no
    frozen-dataclass set-up."""

    u: float
    v: float

    def norm(self) -> float:
        return math.hypot(self.u, self.v)

    def dot(self, other: "PlanePoint") -> float:
        return self.u * other.u + self.v * other.v


class Side(enum.Enum):
    POLE_SIDE = "pole_side"
    ON_CIRCLE = "on_circle"
    BEYOND = "beyond"


def project(q: Ray) -> PlanePoint:
    """h(q) = (q_x/q_z, q_y/q_z); bijective from the open northern hemisphere."""
    if not q.is_northern():
        raise NotNorthern(f"cannot project point with z={q.z!r}")
    return PlanePoint(q.x / q.z, q.y / q.z)


def unproject(p: PlanePoint) -> Ray:
    """Inverse of project: the canonical ray through (u, v, 1)."""
    return canonicalize((p.u, p.v, 1.0))


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
