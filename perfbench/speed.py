"""How fast the host runs Python right now, to take host noise out of timings.

On a shared host, the speed at which this process runs Python swings by
up to 2x for seconds at a time, with the other tenants' load; the fastest
of a few repetitions does not remove that, because a whole 30 s run can
fall in a slow stretch. So the runner times a fixed reference task in
short bursts between operations, and scales each operation's time by
REFERENCE_S / (the reference task's median time in the bursts just
before and after it). A timing then reads as seconds on this host at
the speed it has when idle.

The reference task is plain Python that shares no code with ksgeom: a
change to ksgeom cannot move it. It mixes the kinds of work ksgeom does,
float arithmetic on small objects, tuple-keyed dicts and a backtracking
search, so that host slowdowns hit it about as hard as they hit ksgeom.
"""

from __future__ import annotations

import math
import statistics
import time

#: The reference task's median time on an idle 2-vCPU Intel Xeon host, Python 3.11.
REFERENCE_S = 5.8e-4
#: Reference tasks per burst; a burst takes about 5 ms.
BURST = 8


class _Vec:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x, self.y, self.z = x, y, z

    def cross(self, o: "_Vec") -> "_Vec":
        return _Vec(self.y * o.z - self.z * o.y, self.z * o.x - self.x * o.z, self.x * o.y - self.y * o.x)

    def dot(self, o: "_Vec") -> float:
        return self.x * o.x + self.y * o.y + self.z * o.z


_NODES = 8
_EDGES = [(i, (i * 5 + 3) % 14) for i in range(14)] + [(i, (i + 1) % 14) for i in range(14)]
_ADJ = [[j for e in _EDGES for j in e if i in e and j != i] for i in range(_NODES)]


def _colourings(node: int, used: list[int]) -> int:
    if node == _NODES:
        return 1
    total = 0
    for colour in (1, 2, 4):
        if not any(used[j] & colour for j in _ADJ[node] if j < node):
            used[node] = colour
            total += _colourings(node + 1, used)
            used[node] = 0
    return total


def reference_task() -> float:
    """Fixed work, about 0.6 ms on an idle host; returns a checksum."""
    vs = [_Vec(math.sin(i), math.cos(1.3 * i), math.sin(0.7 * i) + 2.0) for i in range(40)]
    table: dict[tuple[float, float], int] = {}
    acc = 0.0
    for i, a in enumerate(vs):
        c = a.cross(vs[(i * 7 + 3) % 40])
        m = math.sqrt(c.dot(c)) or 1.0
        key = (round(c.x / m, 3), round(c.y / m, 3))
        table[key] = table.get(key, 0) + 1
        acc += abs(a.dot(c) / m)
    return acc + len(sorted(table.items())) + _colourings(0, [0] * _NODES)


def burst(count: int = BURST) -> float:
    """Median time of `count` reference tasks, in seconds."""
    clock = time.perf_counter
    times = []
    for _ in range(count):
        t0 = clock()
        reference_task()
        times.append(clock() - t0)
    return statistics.median(times)
