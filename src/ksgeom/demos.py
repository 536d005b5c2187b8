"""End-to-end contradiction demos.

Both demos build closed derivation traces whose extracted triad systems
admit no two-valued coloring, and they do it without unforced assumptions:
every seed value is discharged by a case split over a tripod, so the
extracted constraints are unconditionally uncolorable (the checker cannot
see assumptions, only tripods and pairs).

The first demo is the re-poling argument: once a ray holds value 1, its
frame forces value 0 below height 1/sqrt(2) and value 1 above, and
re-poling at any p' inside the upper cap produces a witness ray that is
forced to both values. The second demo adds the right-half/left-half
argument: a zeroed ray close to the pole zeroes the right half of its
frame, which forces value 1 on both left-half members of a fixed tripod.

Each step runs in the frame the trace derives from its value-1 pole fact;
the demos pass pole facts, never rotations.

How a height-1/sqrt(2) split tripod is turned about its pole is free (the
paper takes each frame "by a rotation we can assume"), and it sets the
system's size: a reach chain from a zeroed height-1/sqrt(2) ray turns the
azimuth gap to its target, and a spiral from plane radius 1 needs about
gap^2 / (2 ln R) steps to grow the radius by R. Each split therefore faces
its equator member along the line where its children's chains end (toward
p' under the seed pole, toward the witness under p'), so both zeroed
height-1/sqrt(2) rays sit a quarter turn from every chain target, and the
system's size does not depend on the target's azimuth.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .errors import BadN, BadPole, NotInRightHalf
from .plane import Side, side_of
from .sphere import EPS, Ray, Rotation, Tripod, Vec3, canonicalize, third_point
from .trace import DerivationTrace, completion_partners, to_frame, to_world

_R2 = math.sqrt(0.5)

#: Frame tripod used to discharge the "some ray holds value 1" seed: the
#: pole together with two equator axes.
SEED_TRIPOD_VECS: tuple[Vec3, Vec3, Vec3] = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))

#: Default frame-relative re-poling target's angle from the frame pole, used
#: by demo second and by ks demo first's default --pole (0, sin, cos of it):
#: the middle of the plateau 0.42 <= theta <= 0.46 where both demos are
#: smallest (158 and 212 rays).
DEFAULT_POLE_ANGLE = 0.44


def qn_sequence(n: int) -> Ray:
    """The n-th point of the canonical pole-approaching sequence with x > 0.

    theta_n = 1/n, so q(n) = (sin 1/n, 0, cos 1/n) lies in the {y=0} great
    circle and tends to the north pole.
    """
    if n < 1:
        raise BadN(f"sequence index must be >= 1, got {n}")
    return canonicalize((math.sin(1.0 / n), 0.0, math.cos(1.0 / n)))


def cover_index(p: Ray) -> int:
    """Smallest n with p strictly beyond the circle of q(n).

    Equivalently the smallest n with tan(1/n) < p_x / p_z; defined exactly
    on the open right half of the northern hemisphere, whose covering by
    those circle regions this realizes.
    """
    if not (p.z > EPS and p.x > EPS):
        raise NotInRightHalf(f"need p_x > eps and p_z > eps, got {p.vec}")
    ratio = p.x / p.z
    n = max(1, math.floor(1.0 / math.atan(ratio)))
    while side_of(p, qn_sequence(n)) is not Side.BEYOND:
        n += 1
    while n > 1 and side_of(p, qn_sequence(n - 1)) is Side.BEYOND:
        n -= 1
    return n


def _completion_in_frame(frame: Rotation | None, vec: Vec3) -> tuple[Ray, Ray, Ray]:
    """World rays of (q, equator_partner(q), third_point(q)) for frame coords."""
    qf = canonicalize(vec)
    return (to_world(frame, qf.vec), *completion_partners(frame, qf))


def _force_one(
    t: DerivationTrace, branch: int, pole_fact: int, vec: Vec3, zero_fact: int
) -> tuple[Ray, int]:
    """World ray and value-1 fact of frame point vec, forced through its completion tripod.

    The equator partner is zeroed against the pole, the third point by a
    reach chain from zero_fact, a zeroed ray above it.
    """
    frame = t.frame(pole_fact)
    ray, e_ray, w_ray = _completion_in_frame(frame, vec)
    e_fid = t.orthogonal_zero(branch, e_ray, pole_fact)
    w_fid = t.lemma_zero(branch, zero_fact, w_ray, pole_fact)
    return ray, t.triad_one(branch, ray, e_fid, w_fid)


def _height_split(
    t: DerivationTrace, branch: int, pole_fact: int, aim_f: Vec3
) -> Iterator[tuple[int, int]]:
    """Split on the pole frame's height-1/sqrt(2) tripod, faced toward aim_f.

    The tripod is turned about the frame pole so that its equator member
    e* lies in the azimuth of the frame point aim_f. Both height-1/sqrt(2)
    members then sit a quarter turn from that azimuth and from the opposite
    one, where the children's reach chains end: at the third points of p'
    and of the witness under the seed pole, at the witness itself under p'.
    Yields (child, fact zeroing a height-1/sqrt(2) ray), u_plus = 1 child
    first; the u_plus = 0 child's facts follow the caller's work on the first.
    """
    frame = t.frame(pole_fact)
    h = math.hypot(aim_f[0], aim_f[1])
    ux, uy = aim_f[0] / h, aim_f[1] / h
    e_star, u_plus, u_minus = (
        to_world(frame, v)
        for v in ((ux, uy, 0.0), (-_R2 * uy, _R2 * ux, _R2), (_R2 * uy, -_R2 * ux, _R2))
    )
    e_fid = t.orthogonal_zero(branch, e_star, pole_fact)
    b0, b1 = t.split(branch, Tripod(u_plus, u_minus, e_star), u_plus)

    # u_plus = 1: the sibling is the zeroed height-1/sqrt(2) ray.
    yield b1, t.orthogonal_zero(b1, u_minus, t.branches[b1].assumption)

    # u_plus = 0: explicit third-member 1, then u_plus itself is the zero.
    t.triad_one(b0, u_minus, e_fid, t.branches[b0].assumption)
    yield b0, t.branches[b0].assumption


def _heights_and_clash(
    t: DerivationTrace, branch: int, pole_fact: int, pprime_f: Vec3, zero45_fact: int
) -> None:
    """From a zeroed frame-height-1/sqrt(2) ray, force v(p')=1 and clash.

    Everything below the zeroed height is zeroed through reach chains, so
    p' (above the height) gets 1 through its completion tripod, and so does
    the witness ray. Re-poling at p' then zeroes the witness: contradiction.
    """
    theta = math.acos(pprime_f[2])
    azim = math.hypot(pprime_f[0], pprime_f[1])
    ux, uy = pprime_f[0] / azim, pprime_f[1] / azim

    _, p1_fid = _force_one(t, branch, pole_fact, pprime_f, zero45_fact)

    # Witness at angle pi/4 - theta/2 from the frame pole, in the plane of
    # the pole and p', on the side away from p': above height 1/sqrt(2) in
    # this frame, below it in the p' frame.
    a = math.pi / 4.0 - theta / 2.0
    wit_f: Vec3 = (-math.sin(a) * ux, -math.sin(a) * uy, math.cos(a))
    wit, _ = _force_one(t, branch, pole_fact, wit_f, zero45_fact)

    # Re-pole at p' and run the frame argument there far enough to zero the
    # witness in both sub-branches, the split faced toward the witness.
    for child, zero45 in _height_split(t, branch, p1_fid, to_frame(t.frame(p1_fid), wit).vec):
        t.lemma_zero(child, zero45, wit, p1_fid)


def _pole_refutation(t: DerivationTrace, branch: int, pole_fact: int, pprime_f: Vec3) -> None:
    """Close a branch holding v(pole)=1 via the re-poling contradiction."""
    for child, zero45 in _height_split(t, branch, pole_fact, pprime_f):
        _heights_and_clash(t, child, pole_fact, pprime_f, zero45)


def _seed_split(t: DerivationTrace) -> list[tuple[int, int]]:
    """Discharge the global seed: one branch per member of the seed tripod.

    Returns (branch, pole_fact) pairs, the fact giving that member value 1.
    """
    n_ray, x_ray, y_ray = (canonicalize(v) for v in SEED_TRIPOD_VECS)
    t0 = Tripod(n_ray, x_ray, y_ray)
    b_n0, b_n1 = t.split(0, t0, n_ray)
    b_x0, b_x1 = t.split(b_n0, t0, x_ray)
    y_fid = t.triad_one(b_x0, y_ray, t.branches[b_n0].assumption, t.branches[b_x0].assumption)
    return [
        (b_n1, t.branches[b_n1].assumption),
        (b_x1, t.branches[b_x1].assumption),
        (b_x0, y_fid),
    ]


def demo_first_proof(p_prime: Ray) -> DerivationTrace:
    """Closed trace of the re-poling contradiction.

    p_prime is the re-poling target, interpreted in each seed branch's local
    frame; it must lie strictly inside the upper cap, 1/sqrt(2) < z < 1.
    """
    if not (_R2 + EPS < p_prime.z < 1.0 - EPS):
        raise BadPole(
            f"re-poling target needs 1/sqrt(2) < z < 1, got z={p_prime.z!r}"
        )
    t = DerivationTrace()
    for branch, pole_fact in _seed_split(t):
        _pole_refutation(t, branch, pole_fact, p_prime.vec)
    assert t.closed
    return t


def demo_second_proof() -> DerivationTrace:
    """Closed trace of the right-half/left-half contradiction.

    In each seed branch: split on q(n)'s completion tripod, where n is the
    cover index of the fixed tripod's right-half completion points. The
    q(n)=1 branch is closed by the re-poling argument at pole q(n); the
    q(n)=0 branch zeroes the right-half points by reach chains, forces 1 on
    both left-half members of the fixed tripod, and clashes.
    """
    t = DerivationTrace()
    a_f: Vec3 = (-0.5, _R2, 0.5)
    b_f: Vec3 = (-0.5, -_R2, 0.5)
    c_f: Vec3 = (_R2, 0.0, _R2)
    pprime_f: Vec3 = (0.0, math.sin(DEFAULT_POLE_ANGLE), math.cos(DEFAULT_POLE_ANGLE))
    qn_f = qn_sequence(cover_index(third_point(canonicalize(a_f)))).vec

    for branch, pole_fact in _seed_split(t):
        frame = t.frame(pole_fact)
        qn, e_qn, w_qn = _completion_in_frame(frame, qn_f)
        e_qn_fid = t.orthogonal_zero(branch, e_qn, pole_fact)
        b0, b1 = t.split(branch, Tripod(qn, e_qn, w_qn), qn)

        # q(n) = 1: that ray is a value-1 pole; the re-poling argument kills it.
        _pole_refutation(t, b1, t.branches[b1].assumption, pprime_f)

        # q(n) = 0: the right half below its circle is zeroed; the fixed
        # tripod's left-half members both inherit value 1.
        qn_zero = t.branches[b0].assumption
        t.triad_one(b0, w_qn, qn_zero, e_qn_fid)

        a_ray, e_a, w_a = _completion_in_frame(frame, a_f)
        b_ray, e_b, w_b = _completion_in_frame(frame, b_f)
        c_ray = to_world(frame, c_f)

        w_a_fid = t.lemma_zero(b0, qn_zero, w_a, pole_fact)
        w_b_fid = t.lemma_zero(b0, qn_zero, w_b, pole_fact)

        e_a_fid = t.orthogonal_zero(b0, e_a, pole_fact)
        e_b_fid = t.orthogonal_zero(b0, e_b, pole_fact)
        a_fid = t.triad_one(b0, a_ray, e_a_fid, w_a_fid)
        t.triad_one(b0, b_ray, e_b_fid, w_b_fid)

        t.register_tripod(Tripod(a_ray, b_ray, c_ray))
        t.orthogonal_zero(b0, b_ray, a_fid)  # clashes with v(b)=1

    assert t.closed
    return t
