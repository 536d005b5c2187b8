"""End-to-end contradiction demos.

Both demos build closed derivation traces whose extracted triad systems
admit no two-valued coloring, and they do it without unforced assumptions:
every seed value is discharged by a case split on one ray of a tripod whose
other members are then derived, so the extracted constraints are
unconditionally uncolorable (the checker cannot see assumptions, only
tripods and pairs).

The first demo is the re-poling argument: once a ray holds value 1, its
frame forces value 0 below height 1/sqrt(2) and value 1 above, and
re-poling at any p' inside the upper cap produces a witness ray that is
forced to both values. The second demo adds the right-half/left-half
argument: a zeroed ray close to the pole zeroes the right half of its
frame, which forces value 1 on both left-half members of a fixed tripod,
two orthogonal rays.

The demos pass pole facts, never rotations: a point given in the frame of
a value-1 pole fact is mapped to a world ray, and its completion tripod is
taken from it and the pole fact's ray, as circle_zero takes it.

The seed tripod is the three axes, so each demo argues once, under the
north pole, and its x and y seed copies are its instances, ray maps under
their seed frames, signed permutations that map every ray exactly: the
paper's "by a rotation we can assume", stated once (DerivationTrace.instance).
Within that argument each height split argues once too, in one loop: both
children force the same 1s, the u_plus = 1 child argues on from them, and the
u_plus = 0 child holds that argument as an identity instance. So
_pole_refutation's split holds its re-pole at p', the children having forced
v(p') = 1 and v(witness) = 1, and _midpoint_refutation's its argument from p''.

Near either edge of the upper cap the argument from the seed pole grows like
1/theta, theta being the angle of p' from the frame pole: its reach chains
climb from height 1/sqrt(2) to just below p' (627 rays at theta = 0.0757,
11,139 at 0.004, past the spiral cap at 1e-4). So outside
DIRECT_LO <= theta <= DIRECT_HI demo first takes the midpoint route: the
seed pole's 1 forces 1 on its whole upper cap, so on the point p'' at
DEFAULT_POLE_ANGLE from both the pole and p', and the re-poling argument runs
from p'', where p' sits at that angle whatever theta is: 159 rays at every
theta. The extra split costs search, not rays: 11 split members instead of 8,
670 PROVE_NONE nodes instead of 26, and 2^11 oracle cases. Over the whole
benchmark op (build, extract, save, load, PROVE_NONE, oracle, certificate
checks; medians on a 2-vCPU VM) the midpoint route takes about 4.7 ms, as
long as the direct route at some 375-393 rays. The direct route keeps 375
rays down to theta = 0.1236 (411 below, 4.6 ms at 0.12) and 393 up to 0.7529
(411 above, 4.9 ms; its 627 rays at 0.0757 take 7.2 ms), so the band's ends
sit at that crossover.

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
from collections.abc import Callable, Iterator

from .errors import BadN, BadPole, NotInRightHalf
from .reach import Side, _least_steps, side_of
from .sphere import EPS, Ray, Rotation, Vec3, canonicalize, circle_partners, third_point
from .trace import DerivationTrace, to_frame, to_world

_R2 = math.sqrt(0.5)

#: Frame tripod used to discharge the "some ray holds value 1" seed: the
#: pole together with two equator axes.
SEED_TRIPOD_VECS: tuple[Vec3, Vec3, Vec3] = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))

#: Default frame-relative re-poling target's angle from the frame pole, used
#: by demo second and by ks demo first's default --pole (0, sin, cos of it):
#: the middle of the plateau 0.42 <= theta <= 0.46 where both demos are
#: smallest (105 and 153 rays).
DEFAULT_POLE_ANGLE = 0.44

#: demo first argues from the seed pole for DIRECT_LO <= theta <= DIRECT_HI,
#: theta being the target's angle from the frame pole, and through the
#: midpoint p'' outside, where the direct route's rays cost the demo op more
#: than the midpoint route's larger decision core (module docstring).
DIRECT_LO, DIRECT_HI = 0.125, 0.75


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

    Up to side_of's EPS band, the smallest n with tan(1/n) < p_x / p_z.
    Defined exactly on the open right half of the northern hemisphere, whose
    covering by those circle regions this realizes. Being beyond q(n)'s
    circle is monotone in n, so one doubling-and-bisection search finds n in
    O(log n) side_of calls. Raises AtPole once q(n) comes within EPS of the
    pole (n >= 1e9), for p within about 1e-9 of the pole axis.
    """
    if not (p.z > EPS and p.x > EPS):
        raise NotInRightHalf(f"need p_x > eps and p_z > eps, got {p.vec}")

    def beyond(n: int) -> bool:
        return side_of(p, qn_sequence(n)) is Side.BEYOND

    return _least_steps(beyond, 1, 2**31, "cover index")


def _completion_in_frame(t: DerivationTrace, pole_fact: int, vec: Vec3) -> tuple[Ray, Ray, Ray]:
    """World rays of q = frame point vec and of q's completion partners under the pole."""
    q = to_world(t.frame(pole_fact), vec)
    return (q, *circle_partners(t.rays[t.facts[pole_fact].ray], q))


def _force_one(
    t: DerivationTrace, branch: int, pole_fact: int, vec: Vec3, zero_fact: int
) -> tuple[Ray, int]:
    """World ray and value-1 fact of frame point vec, forced through its completion tripod.

    The equator partner is zeroed against the pole, the third point by a
    reach chain from zero_fact, a zeroed ray above it.
    """
    ray, e_ray, w_ray = _completion_in_frame(t, pole_fact, vec)
    e_fid = t.orthogonal_zero(branch, e_ray, pole_fact)
    w_fid = t.lemma_zero(branch, zero_fact, w_ray, pole_fact)
    return ray, t.triad_one(branch, ray, e_fid, w_fid)


def _unit_azimuth(v: Vec3) -> tuple[float, float]:
    """The unit vector along a frame point's azimuth."""
    h = math.hypot(v[0], v[1])
    return v[0] / h, v[1] / h


def _height_split(
    t: DerivationTrace, branch: int, pole_fact: int, aim_f: Vec3
) -> Iterator[tuple[int, int]]:
    """Split on the pole frame's height-1/sqrt(2) tripod, faced toward aim_f.

    The tripod is turned about the frame pole so that its equator member
    e* lies in the azimuth of the frame point aim_f. Both height-1/sqrt(2)
    members then sit a quarter turn from that azimuth and from the opposite
    one, where the children's reach chains end: at the third points of p'
    and of the witness under the seed pole (of p'' alone on the midpoint
    route), at the witness itself under p'.
    Yields (child, fact zeroing a height-1/sqrt(2) ray), u_plus = 1 child
    first; the u_plus = 0 child's facts follow the caller's work on the first.
    """
    frame = t.frame(pole_fact)
    ux, uy = _unit_azimuth(aim_f)
    e_star, u_plus, u_minus = (
        to_world(frame, v)
        for v in ((ux, uy, 0.0), (-_R2 * uy, _R2 * ux, _R2), (_R2 * uy, -_R2 * ux, _R2))
    )
    e_fid = t.orthogonal_zero(branch, e_star, pole_fact)
    b0, b1 = t.split(branch, u_plus)

    # u_plus = 1: the sibling is the zeroed height-1/sqrt(2) ray.
    yield b1, t.orthogonal_zero(b1, u_minus, t.branches[b1].assumption)

    # u_plus = 0: explicit third-member 1, then u_plus itself is the zero.
    t.triad_one(b0, u_minus, e_fid, t.branches[b0].assumption)
    yield b0, t.branches[b0].assumption


def _pole_refutation(t: DerivationTrace, branch: int, pole_fact: int, pprime_f: Vec3) -> None:
    """Close a branch holding v(pole)=1 via the re-poling contradiction.

    Under the pole's height split, faced toward p', each child zeroes
    everything below its zeroed height-1/sqrt(2) ray through reach chains, so
    p' (above that height) gets 1 through its completion tripod, and so does
    the witness ray. The u_plus = 1 child re-poles at p' and zeroes the
    witness there: contradiction. The re-pole is the same argument on the
    same rays in both children, so the u_plus = 0 child holds it as an
    identity instance, its hypotheses v(p') = 1, v(witness) = 1 and a zero of
    p''s tripod.
    """
    ux, uy = _unit_azimuth(pprime_f)
    # Witness at angle pi/4 - theta/2 from the frame pole, in the plane of
    # the pole and p', on the side away from p': above height 1/sqrt(2) in
    # this frame, below it in the p' frame.
    a = math.pi / 4.0 - math.acos(pprime_f[2]) / 2.0
    wit_f: Vec3 = (-math.sin(a) * ux, -math.sin(a) * uy, math.cos(a))
    body = None
    for child, zero45 in _height_split(t, branch, pole_fact, pprime_f):
        _, p1_fid = _force_one(t, child, pole_fact, pprime_f, zero45)
        wit, _ = _force_one(t, child, pole_fact, wit_f, zero45)
        if body is not None:
            t.instance(*body, child, Rotation.identity())
        else:  # re-pole at p', the split faced toward the witness, and zero it in both children
            body = child, len(t.facts)
            for sub, zero in _height_split(t, child, p1_fid, to_frame(t.frame(p1_fid), wit).vec):
                t.lemma_zero(sub, zero, wit, p1_fid)


def _midpoint(pprime_f: Vec3) -> Vec3:
    """p'': the frame point at DEFAULT_POLE_ANGLE from both the frame pole and
    p' (theta < 2 * DEFAULT_POLE_ANGLE from it), its azimuth that of p'
    turned counterclockwise."""
    a = DEFAULT_POLE_ANGLE
    ux, uy = _unit_azimuth(pprime_f)
    # the triangle pole, p'', p' has legs a: c is the cosine of the azimuth turn
    c = math.tan(math.acos(pprime_f[2]) / 2.0) / math.tan(a)
    s = math.sqrt(1.0 - c * c)
    return (math.sin(a) * (c * ux - s * uy), math.sin(a) * (s * ux + c * uy), math.cos(a))


def _midpoint_refutation(t: DerivationTrace, branch: int, pole_fact: int, pprime_f: Vec3) -> None:
    """Close a branch holding v(pole)=1 by re-poling at p'' on the way to p'.

    The loop of _pole_refutation, one re-pole earlier: under the pole's height
    split, faced toward p'' (_midpoint), each child forces v(p'') = 1. The u_plus = 1 child argues the re-poling contradiction with
    p'' as the pole and p' in the frame of p''; the u_plus = 0 child holds
    that argument as an identity instance, its one hypothesis v(p'') = 1.
    """
    mid_f = _midpoint(pprime_f)
    pprime = to_world(t.frame(pole_fact), pprime_f)
    body = None
    for child, zero45 in _height_split(t, branch, pole_fact, mid_f):
        _, mid_fid = _force_one(t, child, pole_fact, mid_f, zero45)
        if body is not None:
            t.instance(*body, child, Rotation.identity())
        else:
            body = child, len(t.facts)
            _pole_refutation(t, child, mid_fid, to_frame(t.frame(mid_fid), pprime).vec)


def _seed_copies(t: DerivationTrace, argue: Callable[[int, int], None]) -> None:
    """Discharge the global seed: one copy of the per-pole argument per seed member.

    The seed tripod is split so that each branch holds value 1 on one of its
    members. argue(branch, pole_fact) runs the argument once, under the north
    pole; the x and y copies are its instances under their seed frames,
    which are exact signed permutations, each discharging v(N) = 1 by its
    own member's 1.
    """
    n_ray, x_ray, y_ray = (canonicalize(v) for v in SEED_TRIPOD_VECS)
    b_n0, b_n1 = t.split(0, n_ray)
    b_x0, b_x1 = t.split(b_n0, x_ray)
    y_fid = t.triad_one(b_x0, y_ray, t.branches[b_n0].assumption, t.branches[b_x0].assumption)
    first = len(t.facts)
    argue(b_n1, t.branches[b_n1].assumption)
    t.instance(b_n1, first, b_x1, t.frame(t.branches[b_x1].assumption))
    t.instance(b_n1, first, b_x0, t.frame(y_fid))


def demo_first_proof(p_prime: Ray) -> DerivationTrace:
    """Closed trace of the re-poling contradiction.

    p_prime is the re-poling target, interpreted in each seed branch's local
    frame; it must lie strictly inside the upper cap, 1/sqrt(2) < z < 1. At an
    angle theta from the frame pole within [DIRECT_LO, DIRECT_HI] the argument
    re-poles at p_prime from the seed pole; outside, through the midpoint p''
    (_midpoint_refutation), which holds the trace at 159 rays.
    """
    if not (_R2 + EPS < p_prime.z < 1.0 - EPS):
        raise BadPole(
            f"re-poling target needs 1/sqrt(2) < z < 1, got z={p_prime.z!r}"
        )
    direct = DIRECT_LO <= math.acos(p_prime.z) <= DIRECT_HI
    argue = _pole_refutation if direct else _midpoint_refutation
    t = DerivationTrace()
    _seed_copies(t, lambda branch, pole_fact: argue(t, branch, pole_fact, p_prime.vec))
    assert t.closed
    return t


def demo_second_proof() -> DerivationTrace:
    """Closed trace of the right-half/left-half contradiction.

    In each seed branch: split on q(n)'s completion tripod, where n is the
    cover index of the fixed tripod's right-half completion points. The
    q(n)=1 branch is closed by the re-poling argument at pole q(n); the
    q(n)=0 branch zeroes the right-half points by reach chains, forces 1 on
    both left-half members a and b of the fixed tripod, and clashes on the
    orthogonal pair (a, b).
    """
    t = DerivationTrace()
    a_f: Vec3 = (-0.5, _R2, 0.5)
    b_f: Vec3 = (-0.5, -_R2, 0.5)
    pprime_f: Vec3 = (0.0, math.sin(DEFAULT_POLE_ANGLE), math.cos(DEFAULT_POLE_ANGLE))
    qn_f = qn_sequence(cover_index(third_point(canonicalize(a_f)))).vec

    def argue(branch: int, pole_fact: int) -> None:
        qn, e_qn, w_qn = _completion_in_frame(t, pole_fact, qn_f)
        e_qn_fid = t.orthogonal_zero(branch, e_qn, pole_fact)
        b0, b1 = t.split(branch, qn)

        # q(n) = 1: that ray is a value-1 pole; the re-poling argument kills it.
        _pole_refutation(t, b1, t.branches[b1].assumption, pprime_f)

        # q(n) = 0: the right half below its circle is zeroed; the fixed
        # tripod's left-half members both inherit value 1.
        qn_zero = t.branches[b0].assumption
        t.triad_one(b0, w_qn, qn_zero, e_qn_fid)

        _, a_fid = _force_one(t, b0, pole_fact, a_f, qn_zero)
        b_ray, _ = _force_one(t, b0, pole_fact, b_f, qn_zero)
        t.orthogonal_zero(b0, b_ray, a_fid)  # clashes with v(b)=1

    _seed_copies(t, argue)
    assert t.closed
    return t
