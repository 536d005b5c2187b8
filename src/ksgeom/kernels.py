"""The coloring-search kernel.

Backtracking over {0,1} assignments with unit propagation:
  * a ray set to 1 forces 0 on all triad mates and pair partners,
  * a triad with two 0s forces 1 on the third,
  * a triad with three 0s, or a pair with two 1s, conflicts.
Branch order is static: lowest unassigned ray index, value 1 before 0.
"""

from __future__ import annotations

# The benchmark harness reports BACKEND and cross-checks available_backends()
# when it lists more than one kernel; there is exactly one.
BACKEND = "py"


def available_backends() -> dict[str, object]:
    return {"py": solve_kernel}


def solve_kernel(
    n: int,
    triads: list[tuple[int, int, int]],
    pairs: list[tuple[int, int]],
    stop_at_first: bool,
):
    """Search all colorings of an n-ray system.

    Returns (count, nodes, witness, exhaustive): count of complete colorings
    found (all of them, or at most one when stop_at_first), number of
    decision nodes, the first witness as a list or None, and whether the
    search space was exhausted.
    """
    tri_by_ray: list[list[int]] = [[] for _ in range(n)]
    for t_idx, t in enumerate(triads):
        for r in t:
            tri_by_ray[r].append(t_idx)
    partners: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        partners[a].append(b)
        partners[b].append(a)

    vals = [-1] * n
    trail: list[int] = []

    def assign(ray: int, value: int, queue: list[int]) -> bool:
        v = vals[ray]
        if v != -1:
            return v == value
        vals[ray] = value
        trail.append(ray)
        queue.append(ray)
        return True

    def propagate(queue: list[int]) -> bool:
        while queue:
            ray = queue.pop()
            value = vals[ray]
            if value == 1:
                for other in partners[ray]:
                    if not assign(other, 0, queue):
                        return False
                for t_idx in tri_by_ray[ray]:
                    for other in triads[t_idx]:
                        if other != ray and not assign(other, 0, queue):
                            return False
            else:
                for t_idx in tri_by_ray[ray]:
                    a, b, c = triads[t_idx]
                    za = vals[a]
                    zb = vals[b]
                    zc = vals[c]
                    zeros = (za == 0) + (zb == 0) + (zc == 0)
                    if zeros == 3:
                        return False
                    if zeros == 2:
                        if za == -1:
                            ok = assign(a, 1, queue)
                        elif zb == -1:
                            ok = assign(b, 1, queue)
                        elif zc == -1:
                            ok = assign(c, 1, queue)
                        else:
                            ok = True  # third already 1; consistent
                        if not ok:
                            return False
        return True

    count = 0
    nodes = 0
    witness: list[int] | None = None

    # Iterative DFS. Each frame: (decision ray, next value to try, trail mark).
    # next value: 2 means "try 1 then 0", 1 means "0 remains", 0 means done.
    stack: list[list[int]] = []

    def find_unassigned(start: int) -> int:
        for i in range(start, n):
            if vals[i] == -1:
                return i
        return -1

    def unwind(mark: int) -> None:
        while len(trail) > mark:
            vals[trail.pop()] = -1

    def record_full() -> None:
        nonlocal count, witness
        count += 1
        if witness is None:
            witness = vals.copy()

    ray0 = find_unassigned(0)
    if ray0 == -1:
        record_full()
        return count, nodes, witness, True

    stack.append([ray0, 2, len(trail)])
    while stack:
        frame = stack[-1]
        ray, pending, mark = frame
        if pending == 0:
            unwind(mark)
            stack.pop()
            continue
        value = 1 if pending == 2 else 0
        frame[1] = pending - 1
        unwind(mark)
        nodes += 1
        queue: list[int] = []
        if not assign(ray, value, queue) or not propagate(queue):
            continue
        nxt = find_unassigned(ray + 1)
        if nxt == -1:
            record_full()
            if stop_at_first:
                break
            continue
        stack.append([nxt, 2, len(trail)])

    return count, nodes, witness, not (stop_at_first and witness is not None)
