"""Exhaustive search over two-valued colorings of a triad system.

A coloring gives every ray 0 or 1 with exactly one 1 per triad and never
two 1s on an orthogonal pair. solve() is the production search (the
backtracking kernel in ksgeom.kernels); count_colorings_by_enumeration and
refute_by_core_enumeration are separately coded oracles used to
cross-check it. The first filters every total assignment; the second
closes all 2^k cases of a core under the forced-value rules at once, one
case per bit of Python-int masks, scanning the constraints in order of
largest ray index. That order follows the derivation for extracted
systems, so a demo closure mostly ends in 2 scans, the second finding no
change (15 of the 16 systems of the benchmark's seed-1 demo round; 4 on
the other). They raise ValueError past their caps, read at call time:
ENUMERATION_CAP rays and CORE_CAP core rays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import kernels
from .errors import InvalidSystem
from .system import TriadSystem, validate_system

ENUMERATION_CAP, CORE_CAP = 22, 20


class SolveMode(enum.Enum):
    COUNT = "count"
    FIRST_WITNESS = "witness"
    PROVE_NONE = "prove-none"


@dataclass(frozen=True)
class ColoringResult:
    count: int
    witness: tuple[int, ...] | None
    nodes_explored: int
    exhaustive: bool


def solve(s: TriadSystem, mode: SolveMode = SolveMode.COUNT) -> ColoringResult:
    """Search s for colorings once validate_system accepts it, else InvalidSystem.

    mode must be a SolveMode member, else TypeError before any validation
    or search. A report kept on s is reused, so after load_system no dot is
    recomputed. COUNT returns the exact number of total colorings;
    FIRST_WITNESS and PROVE_NONE stop at the first witness. exhaustive is
    True when the whole space was searched: always for COUNT, and for the
    other two when no coloring exists or the system has no rays (its one
    coloring, the empty witness, is the whole space).
    Deterministic: static lowest-index branch order, 1 first.
    """
    if not isinstance(mode, SolveMode):
        raise TypeError(f"mode must be a SolveMode member, got {mode!r}")
    report = validate_system(s)
    if not report:
        raise InvalidSystem(
            f"system failed validation: worst residual {report.worst_residual!r} "
            f"at {report.offenders[:4]}"
        )
    count, nodes, witness, exhausted = kernels.solve_kernel(
        s.n_rays, s.triads, s.pairs, mode is not SolveMode.COUNT
    )
    return ColoringResult(
        count=count,
        witness=tuple(witness) if witness is not None else None,
        nodes_explored=nodes,
        exhaustive=exhausted,
    )


def is_valid_coloring(s: TriadSystem, assignment: tuple[int, ...]) -> bool:
    for i, j, k in s.triads:
        if assignment[i] + assignment[j] + assignment[k] != 1:
            return False
    for i, j in s.pairs:
        if assignment[i] == 1 and assignment[j] == 1:
            return False
    return True


def count_colorings_by_enumeration(s: TriadSystem) -> int:
    """Truth-table oracle: filter all 2^n assignments. Only for small n."""
    n = s.n_rays
    if n > ENUMERATION_CAP:
        raise ValueError(f"enumeration oracle capped at {ENUMERATION_CAP} rays, got {n}")
    tri_masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in s.triads]
    pair_masks = [(1 << a) | (1 << b) for a, b in s.pairs]
    count = 0
    for m in range(1 << n):
        ok = True
        for tm in tri_masks:
            if (m & tm).bit_count() != 1:
                ok = False
                break
        if ok:
            for pm in pair_masks:
                if m & pm == pm:
                    ok = False
                    break
        if ok:
            count += 1
    return count


# Cases run in blocks of 2**LANE_BITS lanes, so memory stays flat in k.
LANE_BITS = 12


def _close_lanes(
    constraints: list[tuple[int, ...]], one: list[int], zero: list[int], full: int
) -> int:
    """Forced-value closure of every lane, scanning constraints in list order.

    one[r] and zero[r] hold, one bit per lane, the values ray r is known
    to take. Any 1 in a triad or pair forces 0 on its mates; two 0s in a
    triad force the third to 1. Returns the mask of lanes in which some
    ray is set to both values. A constraint violation (two 1s in a triad
    or pair, three 0s in a triad) sets its rays to both values in the
    next scan, so at the fixpoint these are exactly the lanes in which
    propagation reaches a conflict. The caller lists triads and pairs
    together by largest ray index: an extracted system numbers its rays by
    first touch, so that order follows the derivation, one scan carries a
    chain many steps, and a demo closure mostly ends in 2 scans, the second
    finding no change (4 on one of the 16 seed-1 demo systems). Intentionally
    artless (no adjacency lists, no queue) so it shares no code shape with
    the solver kernel it cross-checks.
    """
    bad = 0
    changed = True
    while changed and bad != full:
        changed = False
        for c in constraints:
            if len(c) == 3:
                i, j, k = c
                oi, oj, ok = one[i], one[j], one[k]
                zi, zj, zk = zero[i], zero[j], zero[k]
                x = zi | oj | ok
                if x != zi:
                    zero[i], changed = x, True
                x = zj | oi | ok
                if x != zj:
                    zero[j], changed = x, True
                x = zk | oi | oj
                if x != zk:
                    zero[k], changed = x, True
                x = oi | zj & zk
                if x != oi:
                    one[i], changed = x, True
                x = oj | zi & zk
                if x != oj:
                    one[j], changed = x, True
                x = ok | zi & zj
                if x != ok:
                    one[k], changed = x, True
            else:
                i, j = c
                x = zero[i] | one[j]
                if x != zero[i]:
                    zero[i], changed = x, True
                x = zero[j] | one[i]
                if x != zero[j]:
                    zero[j], changed = x, True
        bad = 0
        for o, z in zip(one, zero):
            bad |= o & z
    return bad


def refute_by_core_enumeration(s: TriadSystem, core: list[int]) -> tuple[bool, int]:
    """Complete case analysis over a core ray subset.

    Enumerates every assignment of the core rays and extends each by forced
    values. If every single case reaches an explicit constraint violation,
    no total coloring of the system exists (any coloring would restrict to
    one of the enumerated cases and must satisfy forced consequences).
    Returns (refuted, cases_checked); refuted=False means some case stalled
    without a conflict, which proves nothing either way.

    Case c is the c-th tuple of itertools.product((1, 0), repeat=k) over
    the core. The cases are bit-sliced: the leading core rays are
    enumerated one block at a time, and the last min(k, LANE_BITS) vary
    across the lanes of one closure. The closure under these monotone
    rules does not depend on the order the rules fire in, so a lane
    conflicts exactly when its case, propagated alone, would.
    """
    k = len(core)
    if k > CORE_CAP:
        raise ValueError(f"core enumeration capped at {CORE_CAP} rays, got {k}")
    for ray in core:
        if isinstance(ray, bool) or not isinstance(ray, int) or not 0 <= ray < s.n_rays:
            raise ValueError(f"core ray {ray!r} is not an index in [0, {s.n_rays})")
    if len(set(core)) != k:
        raise ValueError("core rays must be distinct")
    bits = min(k, LANE_BITS)
    full = (1 << (1 << bits)) - 1
    lead, tail = core[: k - bits], core[k - bits :]
    # Lane c of a block is case (block << bits) + c. As in product((1, 0),
    # ...), a clear bit of the case index means value 1; full // (2^w + 1)
    # repeats w set bits and w clear ones, so it marks the lanes whose
    # index bit log2(w) is clear.
    tail_one = [full // ((1 << (1 << b)) + 1) for b in reversed(range(bits))]
    constraints = sorted([*s.triads, *s.pairs], key=max)
    for block in range(1 << (k - bits)):
        one = [0] * s.n_rays
        zero = [0] * s.n_rays
        for pos, ray in enumerate(lead):
            if block >> (len(lead) - 1 - pos) & 1:
                zero[ray] = full
            else:
                one[ray] = full
        for ray, mask in zip(tail, tail_one):
            one[ray] = mask
            zero[ray] = full ^ mask
        bad = _close_lanes(constraints, one, zero, full)
        if bad != full:
            first = ((bad + 1) & ~bad).bit_length() - 1
            return False, (block << bits) + first + 1
    return True, 1 << k
