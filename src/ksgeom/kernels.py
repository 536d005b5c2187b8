"""The coloring-search kernel.

Backtracking over {0,1} assignments, closed after each decision under the
two rules of a two-valued measure, one forcing rule per value:
  * a 1 forces 0 on its mates, the rays sharing a triad or a pair with it
    (a mate at 1 is a conflict);
  * the second 0 of a triad forces 1 on its third ray (three 0s conflict).
Branch order is static: lowest unassigned ray index, value 1 before 0.

What one node costs. A node is one decision. It assigns its ray, appends
it to the trail and closes breadth first over the trail's unread tail, in
the search loop itself: a 1 reads each mate's value once, and a 0 sums,
for each of its triads, the values of the other two rays, kept per ray as
a pair. A conflict leaves the closure by its one exit. A node that closes
without a conflict and leaves a free ray descends straight to that ray's
1-child; deciding 1 pushes only the immutable (ray, trail mark) of its
0-sibling, and popping a sibling unwinds by popping the trail back to the
mark. On book systems that is about 0.54 µs of interpreter work per node,
against 0.73 µs for the reference kernel (Python 3.11, one core of a
2-vCPU VM).

The search tree is that of the plain two-rule kernel kept as
reference_solve_kernel in tests/test_kernels.py, so the nodes, the
witness, the count and the exhaustive flag are its too.
"""

from __future__ import annotations

from collections.abc import Sequence

# The benchmark harness reports BACKEND and cross-checks available_backends()
# when it lists more than one kernel; there is exactly one.
BACKEND = "py"

# An unassigned ray's value. With a 0 in a triad, the other two sum to 0
# only as two 0s and to FREE only as a 0 and a free ray (1 + FREE is 4).
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
    if n == 0:
        return 1, 0, [], True
    mates: list[list[int]] = [[] for _ in range(n)]
    others: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # each triad's other two
    for a, b, c in triads:
        mates[a] += (b, c)
        mates[b] += (a, c)
        mates[c] += (a, b)
        others[a].append((b, c))
        others[b].append((a, c))
        others[c].append((a, b))
    for a, b in pairs:
        mates[a].append(b)
        mates[b].append(a)

    free = FREE
    vals = [free] * (n + 1)  # vals[n] stays FREE: the next-free scan stops there
    trail: list[int] = []  # assigned rays in order; its unread tail is the work list
    push, pop = trail.append, trail.pop
    stack: list[tuple[int, int]] = []  # (ray, trail mark) of each 0-sibling to come
    spush, spop = stack.append, stack.pop
    count, nodes, witness = 0, 0, None
    ray, value, mark = 0, 1, 0
    while True:
        if value:
            spush((ray, mark))
        nodes += 1
        vals[ray] = value
        push(ray)
        i = mark
        while i < len(trail):
            r = trail[i]
            i += 1
            if vals[r]:
                for m in mates[r]:
                    v = vals[m]
                    if v == free:
                        vals[m] = 0
                        push(m)
                    elif v:
                        break
                else:
                    continue
            else:
                for x, y in others[r]:
                    t = vals[x] + vals[y]
                    if t == free:
                        m = x if vals[x] else y
                        vals[m] = 1
                        push(m)
                    elif not t:
                        break
                else:
                    continue
            break  # the one conflict exit
        else:
            ray = vals.index(free, ray + 1)
            if ray < n:
                value, mark = 1, len(trail)
                continue
            count += 1
            witness = witness or vals[:n]
            if stop_at_first:
                break
        if not stack:
            break
        ray, mark = spop()
        value = 0
        while len(trail) > mark:
            vals[pop()] = free
    return count, nodes, witness, not (stop_at_first and count)
