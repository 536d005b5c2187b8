"""Exhaustive search over two-valued colorings of a triad system.

A coloring gives every ray 0 or 1 with exactly one 1 per triad and never
two 1s on an orthogonal pair. solve() is the production search (the
backtracking kernel in ksgeom.kernels); count_colorings_by_enumeration and
refute_by_core_enumeration are deliberately naive, separately coded
oracles used to cross-check it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from . import kernels
from .errors import InvalidSystem
from .system import TriadSystem, validate_system


class SolveMode(enum.Enum):
    COUNT = "count"
    FIRST_WITNESS = "witness"
    PROVE_NONE = "prove-none"


@dataclass(frozen=True)
class ColoringResult:
    mode: SolveMode
    count: int
    witness: tuple[int, ...] | None
    nodes_explored: int
    exhaustive: bool


def solve(s: TriadSystem, mode: SolveMode = SolveMode.COUNT) -> ColoringResult:
    """Run the backtracking search; see SolveMode for stopping behaviour.

    COUNT returns the exact number of total colorings; FIRST_WITNESS and
    PROVE_NONE stop at the first witness, so exhaustive is True only when
    none exists. Deterministic: static lowest-index branch order, value 1
    tried before 0, identical node counts across runs.
    """
    report = validate_system(s)
    if not report:
        raise InvalidSystem(
            f"system failed validation: worst residual {report.worst_residual!r} "
            f"at {report.offenders[:4]}"
        )
    count, nodes, witness, exhausted = kernels.solve_kernel(
        s.n_rays,
        [tuple(t) for t in s.triads],
        [tuple(p) for p in s.pairs],
        mode is not SolveMode.COUNT,
    )
    return ColoringResult(
        mode=mode,
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


def count_colorings_by_enumeration(s: TriadSystem, limit: int = 22) -> int:
    """Truth-table oracle: filter all 2^n assignments. Only for small n."""
    n = s.n_rays
    if n > limit:
        raise ValueError(f"enumeration oracle capped at {limit} rays, got {n}")
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


def _propagate_simple(
    s: TriadSystem, vals: list[int]
) -> bool:
    """Forced-value closure by repeated full scans; returns False on conflict.

    Intentionally artless (no adjacency lists, no queue) so it shares no
    code shape with the solver kernel it cross-checks.
    """
    changed = True
    while changed:
        changed = False
        for i, j, k in s.triads:
            tv = (vals[i], vals[j], vals[k])
            ones = tv.count(1)
            zeros = tv.count(0)
            if ones > 1 or (ones == 0 and zeros == 3):
                return False
            if ones == 1 and zeros < 2:
                for r in (i, j, k):
                    if vals[r] == -1:
                        vals[r] = 0
                        changed = True
            elif zeros == 2 and ones == 0:
                for r in (i, j, k):
                    if vals[r] == -1:
                        vals[r] = 1
                        changed = True
        for i, j in s.pairs:
            if vals[i] == 1 and vals[j] == 1:
                return False
            if vals[i] == 1 and vals[j] == -1:
                vals[j] = 0
                changed = True
            elif vals[j] == 1 and vals[i] == -1:
                vals[i] = 0
                changed = True
    return True


def refute_by_core_enumeration(
    s: TriadSystem, core: list[int], limit: int = 20
) -> tuple[bool, int]:
    """Complete case analysis over a core ray subset.

    Enumerates every assignment of the core rays and extends each by forced
    values. If every single case reaches an explicit constraint violation,
    no total coloring of the system exists (any coloring would restrict to
    one of the enumerated cases and must satisfy forced consequences).
    Returns (refuted, cases_checked); refuted=False means some case stalled
    without a conflict, which proves nothing either way.
    """
    k = len(core)
    if k > limit:
        raise ValueError(f"core enumeration capped at {limit} rays, got {k}")
    if len(set(core)) != k:
        raise ValueError("core rays must be distinct")
    cases = 0
    for bits in itertools.product((1, 0), repeat=k):
        cases += 1
        vals = [-1] * s.n_rays
        for ray, value in zip(core, bits):
            vals[ray] = value
        if _propagate_simple(s, vals):
            return False, cases
    return True, cases
