import itertools
import math
import random

import pytest

from ksgeom.sphere import Ray, canonicalize
from ksgeom.system import TriadSystem


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
