"""Value-propagation traces for two-valued measures on rays.

A trace is a tree of branches; each branch holds justified facts v(ray) = 0
or 1. Every stored fact is a split's assumption or a step of one of the
paper's two forcing rules: a zero cites its one value-1 premise, a one its
two value-0 premises. So a closed trace is a refutation by construction:
every leaf's clash rests on split assumptions and rule steps. Only split,
triad_one and _zero, the zero rule behind every zeroing step below, call
_add_fact, each after its own local check. The rules are:

  assume           a split child's assumption: only a split makes one, and
                   it decides one ray, not yet decided in its scope, at both
                   of its values
  orthogonal_zero  a ray orthogonal to a value-1 ray gets 0
  triad_one        two zeroed members of a tripod force 1 on the third; the
                   tripod is the premises' stored rays and the conclusion
  circle_zero      a point on the circle of a zeroed northern ray q gets 0;
                   recorded as its expansion: the equator partner e gets 0
                   against the pole fact, the circle pole w gets 1 by
                   triad_one from q and e, the conclusion gets 0 against w
  lemma_zero       a lower northern point gets 0 through a reach
                   certificate, replayed as chained circle_zero steps

Rays share a table index when |a x b| <= EPS, numbered by first appearance;
the table files each ray under the cells of a grid over (|x|, |y|, |z|) whose
side, about 1e-6, is far above EPS, so nearly every ray fills one cell. A
branch's scope is itself and its ancestors, nearest first: a rule refuses
premises outside it before it stores anything, facts are deduplicated per
scope by ray index, and deriving the opposite value of a visible fact
records the branch's contradiction pair.
circle_zero works in world coordinates: q's equator partner and the pole of
q's circle come from q and the pole fact's stored ray by circle_partners,
whose circle pole is circle_pole, the one construction of q's circle and
third_point's at the north pole. That is how "by a rotation we can assume
the pole is N" steps are mechanized without a rotation. lemma_zero alone
uses a frame, rotation_to_pole of that value-1 fact's stored ray (computed
once per ray; the identity at N): its reach certificate is built in frame
coordinates and its chain points are mapped back to world rays. A fact is
an immutable record, a NamedTuple: it is a tuple, so it also compares equal
to a plain tuple of its fields, and the dataclasses helpers do not apply to
it. A lemma_zero fact keeps its reach certificate in memory, as its
witness; documents do not carry it, since the fact is checked as the
circle step it stores. A trace computes each reach certificate once per
pair of frame-coordinate q and p. replay_image stores a subtree argued under
the north pole again under another value-1 pole whose frame is a signed
permutation, as its exact image: it re-derives each fact on its mapped ray
through split, triad_one or _zero, with no reach call, circle construction
or new frame; its facts carry no certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

from .errors import (
    BadPremises,
    NotOnCircle,
    NotOrthogonal,
    OpenBranch,
    PremiseNotOne,
    PremiseNotZero,
)
from .reach import ReachCertificate, reach
from .sphere import (
    EPS,
    NORTH_POLE,
    Ray,
    Rotation,
    Vec3,
    canonicalize,
    check_tripod,
    circle_partners,
    rotation_to_pole,
)
from .system import TriadSystem

RULE_ASSUME = "assume"
RULE_ORTHOGONAL_ZERO = "orthogonal_zero"
RULE_TRIAD_ONE = "triad_one"
RULE_CIRCLE_ZERO = "circle_zero"
RULE_LEMMA_ZERO = "lemma_zero"

#: Grid cell side of the ray table, 2**-20 (about 9.5e-7), far above the 2*EPS
#: a ray is filed around: a ray fills the one cell of its (|x|, |y|, |z|) unless
#: a coordinate lies within 2*EPS of a cell boundary (then 2, 4 or 8 cells).
#: A power of two, so int(a * _PER_CELL) == a // CELL for a >= 0; a filing
#: span's negative low end truncates to cell 0, the lowest cell a query reads.
CELL = 2.0**-20
_PER_CELL = 2.0**20
_FILE_REACH = 2 * EPS


@dataclass(frozen=True)
class CertWitness:
    certificate: ReachCertificate  # in the frame of the step's value-1 pole


class ValueFact(NamedTuple):
    ray: int
    value: int
    rule: str
    premises: tuple[int, ...]
    branch: int
    witness: CertWitness | None = None


@dataclass
class Branch:
    idx: int
    parent: int | None
    scope: tuple[int, ...]  # itself, then its ancestors, nearest first
    assumption: int | None = None
    split: int | None = None  # the decided ray's index
    children: tuple[int, int] | None = None
    contradiction: tuple[int, int] | None = None
    facts_by_ray: dict[int, int] = field(default_factory=dict)


# -- frames ------------------------------------------------------------------
# A frame is the rotation taking world coordinates into the coordinates of a
# "by a rotation we can assume" step, whose pole is a value-1 ray. Facts are
# stored in world coordinates.


def to_frame(frame: Rotation, ray: Ray) -> Ray:
    """Frame coordinates of a world ray."""
    return canonicalize(frame.apply(ray.vec))


def to_world(frame: Rotation, vec: Vec3) -> Ray:
    """World ray of a frame-coordinate vector."""
    return canonicalize(frame.apply_inverse(vec))


class DerivationTrace:
    """Mutable builder for a branch tree of justified value facts.

    Build single-threaded: fact ids are append order and justifications
    must reference earlier facts. Finished traces are read-only data and
    safe to share. Reach certificates are computed once per trace, keyed
    on their exact inputs (see lemma_zero).
    """

    def __init__(self) -> None:
        self.rays: list[Ray] = []
        self.facts: list[ValueFact] = []
        self.branches: list[Branch] = [Branch(idx=0, parent=None, scope=(0,))]
        self._frames: dict[int, Rotation] = {}  # by pole ray index
        self._cells: dict[tuple[int, ...], list[int]] = {}
        self._certs: dict[tuple[Ray, Ray], ReachCertificate] = {}  # by frame (q, p)

    # -- ray table ---------------------------------------------------------

    def ray_index(self, ray: Ray) -> int:
        """Smallest index of a stored ray spanning ray's subspace; stores ray if none.

        A ray is filed under every grid cell of (|x|, |y|, |z|) within 2*EPS of
        it, which covers its antipode, so the query's cell holds all its matches.
        """
        ax, ay, az = abs(ray.x), abs(ray.y), abs(ray.z)
        cells = self._cells
        cell = (int(ax * _PER_CELL), int(ay * _PER_CELL), int(az * _PER_CELL))
        rays = self.rays
        for idx in cells.get(cell, ()):
            if rays[idx].same_subspace(ray):
                return idx
        idx = len(rays)
        rays.append(ray)
        lo = (int((ax - _FILE_REACH) * _PER_CELL), int((ay - _FILE_REACH) * _PER_CELL),
              int((az - _FILE_REACH) * _PER_CELL))
        hi = (int((ax + _FILE_REACH) * _PER_CELL), int((ay + _FILE_REACH) * _PER_CELL),
              int((az + _FILE_REACH) * _PER_CELL))
        if lo == hi:
            cells.setdefault(cell, []).append(idx)
        else:
            for near in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
                cells.setdefault(near, []).append(idx)
        return idx

    # -- branch plumbing ----------------------------------------------------

    def value_fact_in(self, branch: int, ray_idx: int) -> int | None:
        branches = self.branches
        for b in branches[branch].scope:
            fid = branches[b].facts_by_ray.get(ray_idx)
            if fid is not None:
                return fid
        return None

    def _require_visible(self, branch: int, premises: tuple[int, ...]) -> None:
        """BadPremises unless every premise fact lives in branch's scope."""
        scope = self.branches[branch].scope
        for fid in premises:
            home = self.facts[fid].branch
            if home not in scope:
                raise BadPremises(
                    f"premise {fid} lives in branch {home}, not visible from branch {branch}"
                )

    def leaves(self) -> list[int]:
        return [b.idx for b in self.branches if b.children is None]

    @property
    def closed(self) -> bool:
        return all(self.branches[b].contradiction is not None for b in self.leaves())

    @property
    def contradiction(self) -> tuple[int, int] | None:
        """The first closed leaf's clashing fact pair, if any."""
        for b in self.leaves():
            pair = self.branches[b].contradiction
            if pair is not None:
                return pair
        return None

    # -- fact insertion -----------------------------------------------------

    def _add_fact(
        self,
        branch: int,
        ridx: int,
        value: int,
        rule: str,
        premises: tuple[int, ...],
        witness: CertWitness | None = None,
    ) -> int:
        """Store v(ray ridx) = value in branch; the rule has checked its premises."""
        existing = self.value_fact_in(branch, ridx)
        if existing is not None and self.facts[existing].value == value:
            return existing
        fid = len(self.facts)
        self.facts.append(ValueFact(ridx, value, rule, premises, branch, witness))
        if existing is not None:
            node = self.branches[branch]
            if node.contradiction is None:
                node.contradiction = (existing, fid)
        else:
            self.branches[branch].facts_by_ray[ridx] = fid
        return fid

    # -- rules --------------------------------------------------------------

    def split(self, branch: int, member: Ray) -> tuple[int, int]:
        """Case split on the value of one ray: children (=0, =1).

        BadPremises, before anything is stored, when branch is already split
        or member's value is visible from it: each child must store its own
        assumption. A decided member is in the table already, so ray_index
        stores nothing for it.
        """
        node = self.branches[branch]
        if node.children is not None:
            raise BadPremises(f"branch {branch} already split")
        m_idx = self.ray_index(member)
        decided = self.value_fact_in(branch, m_idx)
        if decided is not None:
            raise BadPremises(f"ray {m_idx} is already decided by fact {decided}")
        node.split = m_idx
        kids = []
        for value in (0, 1):
            idx = len(self.branches)
            child = Branch(idx=idx, parent=branch, scope=(idx, *node.scope))
            self.branches.append(child)
            child.assumption = self._add_fact(child.idx, m_idx, value, RULE_ASSUME, ())
            kids.append(child.idx)
        node.children = (kids[0], kids[1])
        return node.children

    def _one_ray(self, one_fact: int) -> Ray:
        fact = self.facts[one_fact]
        if fact.value != 1:
            raise PremiseNotOne(f"fact {one_fact} does not assign value 1")
        return self.rays[fact.ray]

    def frame(self, pole_fact: int) -> Rotation:
        """rotation_to_pole of a value-1 fact's stored ray; the identity at the north pole."""
        pole = self._one_ray(pole_fact)  # value check before the cache
        ridx = self.facts[pole_fact].ray
        if ridx not in self._frames:
            self._frames[ridx] = rotation_to_pole(pole)
        return self._frames[ridx]

    def _zero(self, branch: int, p: Ray, one_fact: int, rule: str,
              witness: CertWitness | None = None) -> int:
        """v(p) = 0 by rule against one_fact's value-1 stored ray, orthogonal to p."""
        self._require_visible(branch, (one_fact,))
        basis = self._one_ray(one_fact)
        if not basis.is_orthogonal(p):
            raise NotOrthogonal(f"|dot| = {abs(basis.dot(p))!r} exceeds eps {EPS!r}")
        return self._add_fact(branch, self.ray_index(p), 0, rule, (one_fact,), witness)

    def orthogonal_zero(self, branch: int, p: Ray, one_fact: int) -> int:
        return self._zero(branch, p, one_fact, RULE_ORTHOGONAL_ZERO)

    def triad_one(self, branch: int, third: Ray, zero_a: int, zero_b: int) -> int:
        """Value 1 on third, whose tripod is completed by the two zeroed premises' rays."""
        self._require_visible(branch, (zero_a, zero_b))
        fa, fb = self.facts[zero_a], self.facts[zero_b]
        if fa.value != 0 or fb.value != 0:
            raise BadPremises("triad_one premises must both assign value 0")
        if fa.ray == fb.ray:
            raise BadPremises("triad_one premises cite the same ray")
        check_tripod(self.rays[fa.ray], self.rays[fb.ray], third)  # before any store
        return self._add_fact(branch, self.ray_index(third), 1, RULE_TRIAD_ONE, (zero_a, zero_b))

    def _macro_step(
        self,
        branch: int,
        q_fact: int,
        p_world: Ray,
        pole_fact: int,
        rule: str,
        witness: CertWitness | None = None,
    ) -> int:
        """One circle-zero expansion from a zeroed q to a point on its circle.

        The conclusion cites w's value-1 fact alone: its triad_one fact from
        q and e, or the fact already giving w value 1 in scope. _zero checks
        it against w's stored ray, after the pre-check against the built w.
        """
        pole = self._one_ray(pole_fact)
        fq = self.facts[q_fact]
        if fq.value != 0:
            raise PremiseNotZero(f"fact {q_fact} does not assign value 0")
        e_world, w_world = circle_partners(pole, self.rays[fq.ray])
        # w is the pole of q's circle, so membership is orthogonality to w
        residual = abs(w_world.dot(p_world))
        if not residual <= EPS:  # fails closed on NaN
            raise NotOnCircle(f"point is off the circle by {residual!r} (eps {EPS!r})")
        e_fid = self.orthogonal_zero(branch, e_world, pole_fact)
        w_fid = self.triad_one(branch, w_world, q_fact, e_fid)
        return self._zero(branch, p_world, w_fid, rule, witness)

    def circle_zero(self, branch: int, q_fact: int, p: Ray, pole_fact: int) -> int:
        self._require_visible(branch, (pole_fact, q_fact))
        return self._macro_step(branch, q_fact, p, pole_fact, RULE_CIRCLE_ZERO)

    def lemma_zero(self, branch: int, q_fact: int, p: Ray, pole_fact: int) -> int:
        """Zero a lower northern point through a reach certificate.

        One certificate serves every call whose frame coordinates of q and p
        are the same, in whichever frame. Frame coordinates come from
        canonicalize, which never returns -0.0, so equal rays are equal bits.
        """
        self._require_visible(branch, (pole_fact, q_fact))
        frame = self.frame(pole_fact)
        fq = self.facts[q_fact]
        if fq.value != 0:
            raise PremiseNotZero(f"fact {q_fact} does not assign value 0")
        qf, pf = to_frame(frame, self.rays[fq.ray]), to_frame(frame, p)
        key = (qf, pf)
        cert = self._certs.get(key)
        if cert is None:
            cert = self._certs[key] = reach(qf, pf)
        prev = q_fact
        for vec in cert.points[1:-1]:
            prev = self._macro_step(
                branch, prev, to_world(frame, vec), pole_fact, RULE_CIRCLE_ZERO
            )
        return self._macro_step(
            branch, prev, p, pole_fact, RULE_LEMMA_ZERO,
            witness=CertWitness(certificate=cert),
        )

    # -- images -------------------------------------------------------------

    def replay_image(self, source: int, branch: int, pole_fact: int) -> dict[int, int]:
        """Store source's subtree again under branch, mapped by pole_fact's frame.

        source's assumption gives the north pole value 1, so its facts' rays
        are frame coordinates already; pole_fact stands in for that
        assumption. The frame must be a signed permutation, so every image ray
        is exact. A premise outside the subtree is refused before anything is
        stored. Each distinct source ray is mapped once, by to_world. Each
        split is made again by split, which refuses a member already decided
        under branch (after the image's earlier facts are stored; no demo
        maps a split onto one). Every other fact is derived again on its
        image ray from its re-indexed premises, a one by triad_one and a zero
        by _zero under its source's rule, each with its own checks. An image
        carries no witness: no certificate was computed for it. Returns the
        id of each source fact's image, an earlier one where already visible.
        """
        frame = self.frame(pole_fact)  # pole_fact must hold value 1
        if any(c not in (0.0, 1.0, -1.0) for row in frame.rows for c in row):
            raise BadPremises(f"frame of fact {pole_fact} is not a signed permutation")
        src = self.branches[source]
        seed = None if src.assumption is None else self.facts[src.assumption]
        if seed is None or seed.value != 1 or self.rays[seed.ray] != NORTH_POLE:
            raise BadPremises(f"branch {source} does not assume the north pole at 1")
        target = self.branches[branch]
        if target.children is not None or source in target.scope:
            raise BadPremises(f"branch {branch} cannot hold an image of branch {source}")
        self._require_visible(branch, (pole_fact,))

        facts, branches, rays = self.facts, self.branches, self.rays
        subtree = [fid for fid in range(src.assumption + 1, len(facts))
                   if source in branches[facts[fid].branch].scope]
        inside = {src.assumption, *subtree}
        for fid in subtree:
            if not inside.issuperset(facts[fid].premises):
                raise BadPremises(f"fact {fid} cites a fact outside branch {source}'s subtree")

        fmap = {src.assumption: pole_fact}
        bmap = {source: branch}
        images = {r: to_world(frame, rays[r].vec) for r in {facts[fid].ray for fid in subtree}}
        for fid in subtree:
            if fid in fmap:
                continue  # a 1 child's assumption, made with its sibling's
            f = facts[fid]
            if f.rule == RULE_ASSUME:  # a split child's assumption: split again
                parent = branches[branches[f.branch].parent]  # type: ignore[index]
                kids = self.split(bmap[parent.idx], images[f.ray])
                for old, new in zip(parent.children, kids):  # type: ignore[arg-type]
                    bmap[old] = new
                    fmap[branches[old].assumption] = branches[new].assumption  # type: ignore[index]
                continue
            b = bmap[f.branch]
            premises = tuple(fmap[p] for p in f.premises)
            if f.rule == RULE_TRIAD_ONE:
                fmap[fid] = self.triad_one(b, images[f.ray], *premises)
            else:
                fmap[fid] = self._zero(b, images[f.ray], premises[0], f.rule)
        return fmap


# -- extraction --------------------------------------------------------------


def extract_triad_system(t: DerivationTrace) -> TriadSystem:
    """The finite constraint system a closed trace touches; no coloring meets it.

    Only a split stores an assumption, so a coloring follows one path of
    splits to a leaf, every rule step on it agrees with the coloring (the
    step's tripod or pair is in the system), and the leaf's clash refutes it.
    Collects the tripod of every triad_one step (including the circle-zero
    expansions), plus every orthogonal pair of a zero and its value-1
    premise that is not already inside a collected tripod. Rays are
    reordered so the split-member (decision) rays come first; with the
    solver's static lowest-index branch order this keeps the refutation
    search shallow.
    """
    if not t.closed:
        open_leaves = [b for b in t.leaves() if t.branches[b].contradiction is None]
        raise OpenBranch(f"branches without contradiction: {open_leaves}")

    facts = t.facts
    triads: dict[tuple[int, ...], None] = {}
    zero_pairs: dict[tuple[int, int], None] = {}
    for ray, _, rule, premises, _, _ in facts:
        if rule == RULE_TRIAD_ONE:
            triads[tuple(sorted((facts[premises[0]].ray, facts[premises[1]].ray, ray)))] = None
        elif rule != RULE_ASSUME:  # a derived zero and its one premise
            a = facts[premises[0]].ray
            zero_pairs[(a, ray) if a < ray else (ray, a)] = None
    covered = {e for a, b, c in triads for e in ((a, b), (a, c), (b, c))}
    pairs = [pair for pair in zero_pairs if pair not in covered]

    touched = dict.fromkeys(
        [b.split for b in t.branches if b.split is not None]
        + [i for tri in triads for i in tri]
        + [i for pair in pairs for i in pair]
    )
    remap = {old: new for new, old in enumerate(touched)}
    return TriadSystem(
        rays=tuple(t.rays[old] for old in touched),
        triads=tuple(
            tuple(sorted(remap[i] for i in tri)) for tri in triads  # type: ignore[misc]
        ),
        pairs=tuple((min(remap[a], remap[b]), max(remap[a], remap[b])) for a, b in pairs),
    )


def decision_core(t: DerivationTrace, system: TriadSystem) -> tuple[int, ...]:
    """System indices of the trace's split-member rays.

    These are the only free choices in the trace's case analysis; every
    other derived value is forced, which is what makes them the right core
    for the core-enumeration cross-check. Members are looked up by exact
    equality: the system's rays are the trace's own, and ray_index never
    stores two rays of one subspace.
    """
    index = {ray: i for i, ray in enumerate(system.rays)}
    members = dict.fromkeys(b.split for b in t.branches if b.split is not None)
    try:
        return tuple(index[t.rays[m]] for m in members)
    except KeyError:
        raise BadPremises("split member missing from extracted system") from None
