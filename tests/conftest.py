import itertools
import json
import math
import random
from typing import NamedTuple

import pytest

from ksgeom.errors import NotNorthern, ZeroVector
from ksgeom.sphere import CANON_EPS, EPS, Ray, Vec3, canonicalize, complete_tripod
from ksgeom.system import TriadSystem


class PlanePoint(NamedTuple):
    """A point (u, v) of the tangent plane z = 1 at the north pole."""

    u: float
    v: float

    def norm(self) -> float:
        return math.hypot(self.u, self.v)

    def dot(self, other: "PlanePoint") -> float:
        return self.u * other.u + self.v * other.v


def project(q: Ray) -> PlanePoint:
    """h(q) = (q_x/q_z, q_y/q_z); bijective from the open northern hemisphere."""
    if not q.is_northern():
        raise NotNorthern(f"cannot project point with z={q.z!r}")
    return PlanePoint(q.x / q.z, q.y / q.z)


def reference_canonicalize(v: Vec3) -> Ray:
    """Normalize v and pick the canonical antipodal representative.

    sphere.canonicalize written out apart from the sphere module's
    arithmetic, which reach shares; tests/test_reach.py pins the two
    together bit for bit."""
    vx, vy, vz = v[0], v[1], v[2]
    n = math.sqrt(vx * vx + vy * vy + vz * vz)
    if n <= EPS:
        raise ZeroVector(f"vector norm {n!r} below tolerance")
    if abs(n - 1.0) <= 4e-13:
        n = 1.0  # near-unit input passes through bit-exactly: makes the map idempotent
    # Adding 0.0 normalizes -0.0 to +0.0 so both antipodes map to the same bits.
    x = vx / n + 0.0
    y = vy / n + 0.0
    z = vz / n + 0.0
    # the canonical sign rule written out; the Ray constructor checks it again
    if not (z > CANON_EPS or (abs(z) <= CANON_EPS and (
            x > CANON_EPS or (abs(x) <= CANON_EPS and y > 0.0)))):
        x, y, z = -x + 0.0, -y + 0.0, -z + 0.0
    return Ray(x, y, z)


def unproject(p: PlanePoint) -> Ray:
    """Inverse of project: the canonical ray through (u, v, 1), made by
    reference_canonicalize."""
    return reference_canonicalize((p.u, p.v, 1.0))


def canonical_json(doc: dict) -> str:
    """doc in the documents' layout: json's compact encoding with a newline
    after each "],[" and "},{" and at the end."""
    text = json.dumps(doc, separators=(",", ":"))
    return text.replace("],[", "],\n[").replace("},{", "},\n{") + "\n"


def random_northern(rng: random.Random, z_min: float = 1e-6, z_max: float = 1.0) -> Ray:
    """Uniform on the open northern hemisphere (z uniform, azimuth uniform)."""
    z = rng.uniform(z_min, z_max)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(max(0.0, 1.0 - z * z))
    return canonicalize((s * math.cos(phi), s * math.sin(phi), z))


def random_northern_nonpole(rng: random.Random) -> Ray:
    while True:
        r = random_northern(rng)
        if r.x * r.x + r.y * r.y > 1e-12:
            return r


def given(t, branch: int, ray: Ray, value: int) -> tuple[int, int]:
    """Split branch on ray: (the child assuming ray at value, that assumption's fact id)."""
    child = t.split(branch, ray)[value]
    return child, t.branches[child].assumption


def peres_system() -> TriadSystem:
    """Peres's 33 rays (J. Phys. A 24, 1991) from their closed form.

    The rays are the coordinate permutations of (0,0,1), (0,1,+-1),
    (0,+-1,sqrt 2) and (+-1,+-1,sqrt 2), merged by same_subspace. Every
    orthogonal triple is a triad, and every other orthogonal pair a pair.
    """
    r2 = math.sqrt(2.0)
    rays: list[Ray] = []
    for base in ((0, 0, 1), (0, 1, 1), (0, 1, -1), (0, 1, r2), (0, -1, r2),
                 (1, 1, r2), (1, -1, r2), (-1, 1, r2), (-1, -1, r2)):
        for vec in itertools.permutations(base):
            ray = canonicalize(vec)
            if not any(ray.same_subspace(seen) for seen in rays):
                rays.append(ray)

    def orthogonal(i: int, j: int) -> bool:
        return rays[i].is_orthogonal(rays[j])

    triads = [(a, b, c) for a, b, c in itertools.combinations(range(len(rays)), 3)
              if orthogonal(a, b) and orthogonal(a, c) and orthogonal(b, c)]
    covered = {pair for tri in triads for pair in itertools.combinations(tri, 2)}
    pairs = [pair for pair in itertools.combinations(range(len(rays)), 2)
             if orthogonal(*pair) and pair not in covered]
    return TriadSystem(rays=tuple(rays), triads=tuple(triads), pairs=tuple(pairs))


def book_system(k: int) -> TriadSystem:
    """One spine shared by k tripods, as color-count builds it: 2^k + 1
    colorings, counted in 2^(k + 1) kernel nodes."""
    base = complete_tripod(canonicalize((0.3, 0.4, 0.866)))
    b, d = base.b.vec, base.c.vec
    rays, triads = [base.a, base.b, base.c], [(0, 1, 2)]
    for i in range(1, k):
        c, s = math.cos(i * math.pi / (2 * k)), math.sin(i * math.pi / (2 * k))
        rays += [
            canonicalize(tuple(c * x + s * y for x, y in zip(b, d))),
            canonicalize(tuple(-s * x + c * y for x, y in zip(b, d))),
        ]
        triads.append((0, len(rays) - 2, len(rays) - 1))
    return TriadSystem(rays=tuple(rays), triads=tuple(triads))


def relabelled(s: TriadSystem, rng: random.Random) -> TriadSystem:
    """s with its rays renumbered by a random permutation."""
    perm = rng.sample(range(s.n_rays), s.n_rays)  # old index -> new index
    rays: list = [None] * s.n_rays
    for old, ray in enumerate(s.rays):
        rays[perm[old]] = ray
    return TriadSystem(
        rays=tuple(rays),
        triads=tuple(tuple(sorted(perm[i] for i in tri)) for tri in s.triads),
        pairs=tuple(tuple(sorted(perm[i] for i in pair)) for pair in s.pairs),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def nan_ray() -> Ray:
    """A Ray with a NaN coordinate, built past the constructor that refuses
    it, to check that the checkers downstream fail closed as well."""
    ray = object.__new__(Ray)
    for name, value in zip("xyz", (math.nan, 0.0, 1.0)):
        object.__setattr__(ray, name, value)
    return ray
