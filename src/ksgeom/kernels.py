"""The coloring-search kernel.

Backtracking over {0,1} assignments, closed after each decision under the
two rules of a two-valued measure, one forcing rule per value:
  * a 1 forces 0 on its mates, the rays sharing a triad or a pair with it
    (a mate at 1 is a conflict);
  * the second 0 of a triad forces 1 on its third ray (three 0s conflict).
Branch order is static: lowest unassigned ray index, value 1 before 0. The
search stack holds immutable (ray, value, trail mark) entries; deciding 1
pushes its 0 sibling first, so the 1-subtree is searched before it.
"""

from __future__ import annotations

from collections.abc import Sequence

# The benchmark harness reports BACKEND and cross-checks available_backends()
# when it lists more than one kernel; there is exactly one.
BACKEND = "py"

# An unassigned ray's value. A triad holding a 0 sums to 0 only with three
# 0s and to FREE only with two 0s and a free ray (1 + FREE + 0 is 4).
FREE = 3


def available_backends() -> dict[str, object]:
    return {"py": solve_kernel}


def solve_kernel(n: int, triads: Sequence[tuple], pairs: Sequence[tuple], stop_at_first: bool):
    """Search all colorings of an n-ray system.

    Returns (count, nodes, witness, exhaustive): count of complete colorings
    found (all of them, or at most one when stop_at_first), number of
    decision nodes, the first witness as a list or None, and whether the
    search space was exhausted.
    """
    mates: list[list[int]] = [[] for _ in range(n)]
    tri_by_ray: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for t in triads:
        a, b, c = t
        for r, others in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
            mates[r] += others
            tri_by_ray[r].append(t)
    for a, b in pairs:
        mates[a].append(b)
        mates[b].append(a)

    vals = [FREE] * (n + 1)  # vals[n] stays FREE: the next-free scan stops there
    trail: list[int] = []  # assigned rays in order; its unread tail is the work list

    def decide(ray: int, value: int) -> bool:
        """Set ray to value and close under both rules; False on a conflict."""
        vals[ray] = value
        i = len(trail)
        trail.append(ray)
        while i < len(trail):
            r = trail[i]
            i += 1
            if vals[r]:
                for m in mates[r]:
                    v = vals[m]
                    if v == FREE:
                        vals[m] = 0
                        trail.append(m)
                    elif v:
                        return False
            else:
                for a, b, c in tri_by_ray[r]:
                    total = vals[a] + vals[b] + vals[c]
                    if total == FREE:
                        m = a if vals[a] else b if vals[b] else c
                        vals[m] = 1
                        trail.append(m)
                    elif not total:
                        return False
        return True

    if n == 0:
        return 1, 0, [], True
    count, nodes, witness = 0, 0, None
    stack = [(0, 1, 0)]
    while stack:
        ray, value, mark = stack.pop()
        for r in trail[mark:]:
            vals[r] = FREE
        del trail[mark:]
        if value:
            stack.append((ray, 0, mark))
        nodes += 1
        if decide(ray, value):
            nxt = vals.index(FREE, ray + 1)
            if nxt < n:
                stack.append((nxt, 1, len(trail)))
                continue
            count += 1
            witness = witness or vals[:n]
            if stop_at_first:
                break
    return count, nodes, witness, not (stop_at_first and count)
