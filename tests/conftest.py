import math
import random

import pytest

from ksgeom.sphere import Ray, canonicalize


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
