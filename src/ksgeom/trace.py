"""Value-propagation traces for two-valued measures on rays.

A trace is a tree of branches; each branch holds justified facts v(ray) = 0
or 1. Every stored fact is a split's assumption or a step of one of the
paper's two forcing rules: a zero cites its one value-1 premise, a one its
two value-0 premises. So a closed trace is a refutation by construction:
every leaf's clash rests on split assumptions and rule steps. A rule makes
every check (a zero's by _check_zero, a one's by check_tripod) on the rays
it stores before it stores one or a fact, so a refused call leaves the trace
as it was (a lemma_zero chain keeps the circle steps before a refused one):

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

Rays share a table index when |a x b| <= EPS, numbered by first appearance
and filed under the cells of a grid over (|x|, |y|, |z|) of side about 1e-6.
Each stored ray records its one cell, or None where its 2*EPS box spans
several; a seed copy's image takes its ray's cell, permuted by the frame.
A branch's scope is itself and its ancestors, nearest first: a rule refuses
premises outside it, facts are deduplicated per scope by ray index, and
deriving the opposite value of a visible fact records the branch's clash.
Circle steps work in world coordinates, from q and the pole fact's stored
ray by circle_partners: "by a rotation we can assume the pole is N" with no
rotation. lemma_zero alone uses a frame, rotation_to_pole of the pole
fact's ray (once per ray; the identity at N): its reach certificate, kept
in memory as the fact's witness, is built in frame coordinates and mapped
back to world rays.

An instance stores a body again under another branch, with no fact: the
body is a branch's facts from a given first fact on and its descendants', and
its hypotheses are the facts before that one in the branch's scope that the
body cites or clashes on. The instance maps each body ray to an image (its
coordinates and text permuted and signed by a signed-permutation frame, or
itself under the identity), names for each hypothesis the fact of its value on
the image of its ray that its own branch sees, and checks every body step on
the images. A seed copy maps copy N's body, whose one hypothesis is v(N) = 1;
an identity instance holds a sibling's argument, such as a re-pole, whose
hypotheses the sibling derived too. A body, frozen once instanced, is compiled
once, its steps by ray position. Its branch, a leaf, stands for its leaves.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    CANON_EPS,
    EPS,
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
_IDENTITY = Rotation.identity()


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


class Instance(NamedTuple):
    branch: int
    source: int
    first: int  # the body: source's facts from this one on, and its descendants'
    rays: dict[int, int]  # each body ray's image index, in the order the body first names it
    hypotheses: dict[int, int]  # each fact it cites or clashes on outside it: its discharge
    triads: list[tuple[int, ...]]  # each body triad_one step's rays, by position in rays
    zeros: list[tuple[int, int]]  # each body derived zero's (premise, own) ray, by position


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


def _check_zero(one: Ray, p: Ray) -> None:
    """NotOrthogonal unless p, zeroed against the value-1 ray one, is orthogonal to it."""
    if not one.is_orthogonal(p):
        raise NotOrthogonal(f"|dot| = {abs(one.dot(p))!r} exceeds eps {EPS!r}")


class DerivationTrace:
    """Mutable builder for a branch tree of justified value facts.

    Build single-threaded: fact ids are append order and justifications
    must reference earlier facts. Finished traces are read-only data and
    safe to share.
    """

    def __init__(self) -> None:
        self.rays: list[Ray] = []
        self.facts: list[ValueFact] = []
        self.branches: list[Branch] = [Branch(idx=0, parent=None, scope=(0,))]
        self.instances: list[Instance] = []
        self._frames: dict[int, Rotation] = {}  # by pole ray index
        self._cells: dict[tuple[int, ...], list[int]] = {}
        self._ray_cells: list[tuple[int, ...] | None] = []  # each ray's one cell, by index

    # -- ray table ---------------------------------------------------------

    def _find(self, ray: Ray, cell: tuple[int, ...] | None = None) -> tuple[int | None, Ray]:
        """(index, ray) of the smallest-index stored ray spanning ray's subspace, else (None, ray):
        what a rule checks and stores. Reads ray's cell, computed unless given; _file files a
        ray under each cell near it."""
        rays = self.rays
        if cell is None:
            try:
                cell = (int(abs(ray.x) * _PER_CELL), int(abs(ray.y) * _PER_CELL),
                        int(abs(ray.z) * _PER_CELL))
            except ValueError:  # a NaN coordinate is in no cell, and every check refuses it
                return None, ray
        for idx in self._cells.get(cell, ()):
            if rays[idx].same_subspace(ray):
                return idx, rays[idx]
        return None, ray

    def _file(self, ray: Ray, cell: tuple[int, ...] | None = None) -> int:
        """Store a ray that _find has not found under each cell its 2*EPS box meets, and
        record the one cell, or None where there are several; cell, if given, is that one."""
        cells, idx, hi = self._cells, len(self.rays), cell
        self.rays.append(ray)
        if cell is None:
            ax, ay, az = abs(ray.x), abs(ray.y), abs(ray.z)
            cell = (int((ax - _FILE_REACH) * _PER_CELL), int((ay - _FILE_REACH) * _PER_CELL),
                    int((az - _FILE_REACH) * _PER_CELL))
            hi = (int((ax + _FILE_REACH) * _PER_CELL), int((ay + _FILE_REACH) * _PER_CELL),
                  int((az + _FILE_REACH) * _PER_CELL))
        self._ray_cells.append(cell if cell == hi else None)
        span = (cell,) if cell == hi else product(*(range(a, b + 1) for a, b in zip(cell, hi)))
        for near in span:
            cells.setdefault(near, []).append(idx)
        return idx

    def ray_index(self, ray: Ray) -> int:
        """Smallest index of a stored ray spanning ray's subspace; stores ray if none."""
        idx, _ = self._find(ray)
        return self._file(ray) if idx is None else idx

    # -- branch plumbing ----------------------------------------------------

    def value_fact_in(self, branch: int, ray_idx: int) -> int | None:
        branches = self.branches
        for b in branches[branch].scope:
            fid = branches[b].facts_by_ray.get(ray_idx)
            if fid is not None:
                return fid
        return None

    def _require_visible(self, branch: int, premises: tuple[int, ...]) -> None:
        """BadPremises unless branch is in no instance or body and sees every premise fact."""
        scope = self.branches[branch].scope
        if self.instances and any(i.source in scope or i.branch in scope for i in self.instances):
            raise BadPremises(f"branch {branch} is an instance or lies in an instance's body")
        for fid in premises:
            home = self.facts[fid].branch
            if home not in scope:
                raise BadPremises(
                    f"premise {fid} lives in branch {home}, not visible from branch {branch}"
                )

    def leaves(self) -> list[int]:
        return [b.idx for b in self.branches if b.children is None]

    def open_leaves(self) -> list[int]:
        """Leaves with no clash but an instance's, which stands for its body's leaves."""
        held = {i.branch for i in self.instances}
        return [b for b in self.leaves() if b not in held and not self.branches[b].contradiction]

    @property
    def closed(self) -> bool:
        return not self.open_leaves()

    @property
    def contradiction(self) -> tuple[int, int] | None:
        """The first closed leaf's clashing fact pair, if any."""
        for b in self.leaves():
            pair = self.branches[b].contradiction
            if pair is not None:
                return pair
        return None

    # -- fact insertion -----------------------------------------------------

    def _add_fact(self, branch: int, ridx: int | None, ray: Ray, value: int, rule: str,
                  premises: tuple[int, ...], witness: CertWitness | None = None) -> int:
        """Store v(ray) = value in branch; (ridx, ray) is _find's, a new ray filed here."""
        if ridx is None:
            ridx = self._file(ray)
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
        or member's value is visible from it (a decided member is in the table
        already): each child must store its own assumption.
        """
        self._require_visible(branch, ())
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
            child.assumption = self._add_fact(child.idx, m_idx, member, value, RULE_ASSUME, ())
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

    def orthogonal_zero(self, branch: int, p: Ray, one_fact: int) -> int:
        """v(p) = 0 against one_fact's value-1 stored ray, orthogonal to p's stored ray."""
        self._require_visible(branch, (one_fact,))
        idx, at = self._find(p)
        _check_zero(self._one_ray(one_fact), at)
        return self._add_fact(branch, idx, at, 0, RULE_ORTHOGONAL_ZERO, (one_fact,))

    def triad_one(self, branch: int, third: Ray, zero_a: int, zero_b: int) -> int:
        """Value 1 on third, whose stored ray completes the zeroed premises' rays to a tripod."""
        self._require_visible(branch, (zero_a, zero_b))
        fa, fb = self.facts[zero_a], self.facts[zero_b]
        if fa.value != 0 or fb.value != 0:
            raise BadPremises("triad_one premises must both assign value 0")
        if fa.ray == fb.ray:
            raise BadPremises("triad_one premises cite the same ray")
        idx, at = self._find(third)
        check_tripod(self.rays[fa.ray], self.rays[fb.ray], at)  # before any store
        return self._add_fact(branch, idx, at, 1, RULE_TRIAD_ONE, (zero_a, zero_b))

    def _macro_step(self, branch: int, q_fact: int, p_world: Ray, pole_fact: int, rule: str,
                    witness: CertWitness | None = None) -> int:
        """One circle-zero expansion from a zeroed q to a point on its circle.

        Its three steps are checked on stored rays, looked up without storing,
        before the first is stored. The conclusion cites w's value-1 fact alone:
        its triad_one fact from q and e, or the fact already giving w 1 in scope.
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
        (e_idx, e), (w_idx, w), (p_idx, p) = map(self._find, (e_world, w_world, p_world))
        _check_zero(pole, e)
        check_tripod(self.rays[fq.ray], e, w)
        _check_zero(w, p)
        e_fid = self._add_fact(branch, e_idx, e, 0, RULE_ORTHOGONAL_ZERO, (pole_fact,))
        w_fid = self._add_fact(branch, w_idx, w, 1, RULE_TRIAD_ONE, (q_fact, e_fid))
        if p_idx is None and e_idx is None and e.same_subspace(p):  # a new p may be the new e
            p_idx = self.facts[e_fid].ray
        return self._add_fact(branch, p_idx, p, 0, rule, (w_fid,), witness)

    def circle_zero(self, branch: int, q_fact: int, p: Ray, pole_fact: int) -> int:
        self._require_visible(branch, (pole_fact, q_fact))
        return self._macro_step(branch, q_fact, p, pole_fact, RULE_CIRCLE_ZERO)

    def lemma_zero(self, branch: int, q_fact: int, p: Ray, pole_fact: int) -> int:
        """Zero a lower northern point through a reach certificate."""
        self._require_visible(branch, (pole_fact, q_fact))
        frame = self.frame(pole_fact)
        fq = self.facts[q_fact]
        if fq.value != 0:
            raise PremiseNotZero(f"fact {q_fact} does not assign value 0")
        cert = reach(to_frame(frame, self.rays[fq.ray]), to_frame(frame, p))
        prev = q_fact
        for vec in cert.points[1:-1]:
            prev = self._macro_step(branch, prev, to_world(frame, vec), pole_fact, RULE_CIRCLE_ZERO)
        return self._macro_step(branch, prev, p, pole_fact, RULE_LEMMA_ZERO, CertWitness(cert))

    # -- instances ----------------------------------------------------------

    def instance(self, source: int, first: int, branch: int, frame: Rotation) -> Instance:
        """Store source's facts from first on and its descendants', the body, as argued
        again under branch, each body ray mapped by frame, a signed permutation.

        Each hypothesis is discharged by the fact of its value on its mapped ray
        that branch sees. Refused before anything is stored: a frame that is no
        signed permutation, a branch that is split or sees the source, a body that
        _compile refuses, a body step failing on the mapped rays (stored ones where
        _find has them), an undischarged hypothesis. Under the identity each body
        ray is its own image, and its steps were checked when they were stored.
        Stores the new images, no fact. An image is looked up and filed in its
        ray's recorded cell, permuted; one whose ray spans several cells, as a
        new ray is.
        """
        if any(c not in (0.0, 1.0, -1.0) for row in frame.rows for c in row):
            raise BadPremises("frame is not a signed permutation")
        branches, facts, rays = self.branches, self.facts, self.rays
        if branches[branch].children is not None or source in branches[branch].scope:
            raise BadPremises(f"branch {branch} cannot hold an instance of branch {source}")
        self._require_visible(branch, ())
        known = next((i for i in self.instances if (i.source, i.first) == (source, first)), None)
        if known is not None:  # a body is frozen once instanced: compiled by its first instance
            order, hypotheses, triads, zeros = known[3:]
        else:
            order, hypotheses, triads, zeros = self._compile(source, first)
        if frame == _IDENTITY:
            found, cells = [(r, rays[r]) for r in order], [None] * len(order)
        else:
            images = list(_images(frame, [rays[r] for r in order],
                                  [self._ray_cells[r] for r in order]))
            found = [self._find(image, cell) for image, cell in images]
            cells = [cell for _, cell in images]
            at = [ray for _, ray in found]
            for a, b, c in triads:
                check_tripod(at[a], at[b], at[c])
            for one, r in zeros:
                _check_zero(at[one], at[r])
        image = dict(zip(order, (j for j, _ in found)))
        discharged = {}
        for h in hypotheses:
            fact = facts[h]
            d = image[fact.ray]
            d = None if d is None else self.value_fact_in(branch, d)
            if d is None or facts[d].value != fact.value:
                raise BadPremises(f"no fact in branch {branch}'s scope discharges hypothesis {h}")
            discharged[h] = d
        image = dict(zip(order, [self._file(ray, cell) if j is None else j
                                 for (j, ray), cell in zip(found, cells)]))
        made = Instance(branch, source, first, image, discharged, triads, zeros)
        self.instances.append(made)
        return made

    def _compile(self, source: int, first: int) -> tuple[
            dict[int, int], list[int], list[tuple[int, ...]], list[tuple[int, int]]]:
        """A body's rays in the order it first names them (a fact's premises', then
        its own; last, a clash-only hypothesis's), its hypotheses, and its steps by
        ray position.

        BadPremises where it is no body: first out of the trace, source's
        assumption or split among its facts, a fact cited or clashed on outside
        it that is not before first in source's scope, or an instance in
        source's subtree that is not an identity instance with its body and
        discharging facts inside this body. A nested instance is an identity
        one by its map, which carries it into an outer body and which
        tests/trace_check.py reads; instance asks its frame, before any map.
        """
        branches, facts = self.branches, self.facts
        node = branches[source]
        if not 0 <= first <= len(facts):
            raise BadPremises(f"a body cannot start at fact {first} of {len(facts)}")
        if (node.assumption is not None and node.assumption >= first) or (
                node.children is not None and branches[node.children[0]].assumption < first):
            raise BadPremises(f"branch {source}'s facts from {first} on hold its assumption "
                              "or follow its split")
        body = [f for f in range(first, len(facts)) if source in branches[facts[f].branch].scope]
        inside = set(body)
        for i in self.instances:
            if source in branches[i.branch].scope and not (
                    list(i.rays) == list(i.rays.values()) and i.first >= first
                    and source in branches[i.source].scope
                    and inside.issuperset(i.hypotheses.values())):
                raise BadPremises(f"branch {source}'s subtree holds an instance that is not "
                                  "an identity instance inside its body")
        order: dict[int, int] = {}  # each body ray's position
        triads, zeros = [], []
        outside = {f for b in branches if source in b.scope and b.contradiction
                   for f in b.contradiction if f not in inside}
        for f in body:
            ray, _, rule, premises, _, _ = facts[f]
            for p in premises:
                if p not in inside:
                    outside.add(p)
                    order.setdefault(facts[p].ray, len(order))
            own = order.setdefault(ray, len(order))
            if rule == RULE_TRIAD_ONE:
                a, b = (order[facts[p].ray] for p in premises)
                triads.append((a, b, own))
            elif rule != RULE_ASSUME:
                zeros.append((order[facts[premises[0]].ray], own))
        hypotheses = sorted(outside)
        for h in hypotheses:
            if h >= first or facts[h].branch not in node.scope:
                raise BadPremises(f"fact {h}, cited by branch {source}'s facts from {first} "
                                  "on, is neither among them nor before them in its scope")
            order.setdefault(facts[h].ray, len(order))
        return order, hypotheses, triads, zeros


def _images(frame: Rotation, rays: list[Ray], cells: list[tuple[int, ...] | None]
            ) -> Iterator[tuple[Ray, tuple[int, ...] | None]]:
    """Each ray's world image in frame, a signed permutation: its coordinates and
    their words (Ray.text's) permuted and signed as by frame.apply_inverse, then
    the canonical sign flip, no renormalizing: to_world's where it keeps n = 1.0.
    Each comes with its ray's recorded cell (or None) permuted alike: the grid is
    the same on every axis and |image| is |ray| permuted bit for bit, so that is
    the image's query cell and its one filing cell."""
    ranks = frame.apply_inverse((1.0, 2.0, 3.0))  # a * (j + 1) at i: image i is a * ray's j
    (i, a), (j, b), (k, c) = [(int(abs(u)) - 1, u / abs(u)) for u in ranks]
    for ray, cell in zip(rays, cells):
        v, words = ray.vec, ray.text[1:-1].split(",")
        x, y, z = a * v[i], b * v[j], c * v[k]
        if not (z > CANON_EPS or (abs(z) <= CANON_EPS and (  # canonicalize's sign rule
                x > CANON_EPS or (abs(x) <= CANON_EPS and y > 0.0)))):
            x, y, z = -x, -y, -z
        image = Ray(x + 0.0, y + 0.0, z + 0.0)  # which checks the rule again
        image.__dict__["_text"] = "[%s%s,%s%s,%s%s]" % (  # a zero's "-" dropped: 0.0 is +0.0
            "-" if x < 0.0 else "", words[i].lstrip("-"), "-" if y < 0.0 else "",
            words[j].lstrip("-"), "-" if z < 0.0 else "", words[k].lstrip("-"))
        yield image, cell and (cell[i], cell[j], cell[k])


# -- extraction --------------------------------------------------------------


def _split_members(t: DerivationTrace) -> list[int]:
    """Split members in branch order; an instance's body's root at its branch, the rest last."""
    images = {i.branch: [i.rays[b.split] for b in t.branches
                         if b.split is not None and i.source in b.scope] for i in t.instances}
    members = [m for b in t.branches for m in images.get(b.idx, [b.split])[:1] if m is not None]
    return members + [m for made in images.values() for m in made[1:]]


def extract_triad_system(t: DerivationTrace) -> TriadSystem:
    """The finite constraint system a closed trace touches; no coloring meets it.

    Only a split stores an assumption, so a coloring follows one path of
    splits to a leaf, every rule step on it agrees with the coloring (the
    step's tripod or pair is in the system), and the leaf's clash refutes it;
    an instance's leaf stands for its body's, through its ray map. Collects
    each triad_one step's tripod and each zero's pair with its one premise
    not inside one: the stored facts', then each instance's compiled body's.
    Split members come first, keeping the static kernel's search shallow.
    """
    open_leaves = t.open_leaves()
    if open_leaves:
        raise OpenBranch(f"branches without contradiction: {open_leaves}")

    facts = t.facts
    triads: dict[tuple[int, ...], None] = {}  # each tripod's rays in increasing order
    zero_pairs: dict[tuple[int, int], None] = {}
    for ray, _, rule, premises, _, _ in facts:
        if rule == RULE_TRIAD_ONE:
            a, b = facts[premises[0]].ray, facts[premises[1]].ray
            triads[(a, b, ray) if a < b < ray else tuple(sorted((a, b, ray)))] = None
        elif rule != RULE_ASSUME:  # a derived zero and its one premise
            a = facts[premises[0]].ray
            zero_pairs[(a, ray) if a < ray else (ray, a)] = None
    for i in t.instances:  # the compiled body's steps, through the instance's map
        at = list(i.rays.values())
        for a, b, c in [(at[a], at[b], at[c]) for a, b, c in i.triads]:
            triads[(a, b, c) if a < b < c else tuple(sorted((a, b, c)))] = None
        for a, r in [(at[a], at[r]) for a, r in i.zeros]:
            zero_pairs[(a, r) if a < r else (r, a)] = None
    covered = {e for a, b, c in triads for e in ((a, b), (a, c), (b, c))}
    pairs = [pair for pair in zero_pairs if pair not in covered]

    touched = dict.fromkeys(_split_members(t) + [i for tri in triads for i in tri]
                            + [i for pair in pairs for i in pair])
    remap = dict(zip(touched, range(len(touched))))
    new = [(remap[a], remap[b], remap[c]) for a, b, c in triads]
    two = [(remap[a], remap[b]) for a, b in pairs]
    return TriadSystem(
        rays=tuple([t.rays[old] for old in touched]),
        triads=tuple([(a, b, c) if a < b < c else tuple(sorted((a, b, c))) for a, b, c in new]),
        pairs=tuple([(a, b) if a < b else (b, a) for a, b in two]),
    )


def decision_core(t: DerivationTrace, system: TriadSystem) -> tuple[int, ...]:
    """System indices of the trace's split-member rays, instances' images included.

    These are the only free choices in the trace's case analysis, every
    other value is forced: the right core for the core-enumeration
    cross-check. Members are looked up by exact equality: the system's rays
    are the trace's own, and the table never holds two rays of one subspace.
    The scan stops at the last member: an extracted system's first k rays.
    """
    core = dict.fromkeys(t.rays[m] for m in dict.fromkeys(_split_members(t)))
    for i, ray in enumerate(system.rays):
        if core.get(ray, i) is None:  # a member not yet found
            core[ray] = i
            if None not in core.values():
                break
    if None in core.values():
        raise BadPremises("split member missing from extracted system")
    return tuple(core.values())
