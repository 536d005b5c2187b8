"""The equivalence corpus: demo proofs whose documents and results are pinned.

    PYTHONPATH=src python tests/corpus.py [--write]

rebuilds every input and prints, for each input whose record changed, the
pinned and the new values. It exits 1 when any record differs, unless
--write is given: then it rewrites corpus.json, for a change that is meant
to alter the documents, and exits 0.

Each record holds the sha256 of the input's trace.json and system.json, its
counts (rays, facts, branches, instances), its decision core and the kernel
nodes of PROVE_NONE; an input whose build raises records the exception's
name. The inputs are both demos at their defaults, the benchmark's
demo-pipeline targets at seed 1 (the round that seed draws; the pipeline's
demo second is the demo above), and golden-angle demo first targets over the
whole admissible band, theta in (1e-4, pi/4 - 1e-4), with a few near each edge.
Outside demos.DIRECT_LO <= theta <= DIRECT_HI the targets take the midpoint
route, 159 rays and 4 instances each, the edge targets included: none of
them raises.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from ksgeom.coloring import SolveMode, solve
from ksgeom.demos import demo_first_proof, demo_second_proof
from ksgeom.errors import KsError
from ksgeom.serialize import save_trace
from ksgeom.system import save_system
from ksgeom.trace import decision_core, extract_triad_system

from test_demos import GOLDEN_ANGLE, default_pole, polar_target, sha256

CORPUS = Path(__file__).with_name("corpus.json")

#: demo-pipeline's demo first targets (theta, phi) at seed 1, in the round's order.
SEED1_TARGETS = [
    (0.5942307692307692, 1.2083048667653062),
    (0.5519230769230768, 3.6249146002959134),
    (0.21346153846153845, 4.108236547002037),
    (0.4673076923076922, 2.174948760177547),
    (0.298076923076923, 5.558202387120403),
    (0.17115384615384616, 0.24166097335306103),
    (0.34038461538461534, 3.141592653589793),
    (0.6, 2.5),
    (0.25576923076923075, 1.6916268134714267),
    (0.07569945543151446, 2.7246761881093495),
    (0.5096153846153846, 6.041524333826526),
    (0.42499999999999993, 4.59155849370816),
    (0.38269230769230766, 0.7249829200591832),
    (0.6365384615384615, 5.0748804404142795),
    (0.6788461538461538, 2.658270706883673),
]
#: 60 thetas spread over the band, then targets near each edge, where the
#: direct argument's chains would pass the spiral cap (below about 5e-4 and
#: above about pi/4 - 5e-4) and demo first re-poles at the midpoint p''.
BAND, N_BAND = (1e-4, math.pi / 4 - 1e-4), 60
EDGE_THETAS = [1e-4, 5e-4, 4e-3, 1e-2, math.pi / 4 - 1e-2, math.pi / 4 - 4e-3,
               math.pi / 4 - 2e-3, math.pi / 4 - 1e-4]


def golden_targets() -> list[tuple[float, float]]:
    lo, hi = BAND
    thetas = [lo + (hi - lo) * (i + 0.5) / N_BAND for i in range(N_BAND)] + EDGE_THETAS
    return [(theta, i * GOLDEN_ANGLE % (2 * math.pi)) for i, theta in enumerate(thetas)]


def inputs() -> list[tuple[str, object]]:
    """(name, build) for every corpus input; build() returns its trace."""
    made: list[tuple[str, object]] = [
        ("demo first", lambda: demo_first_proof(default_pole())),
        ("demo second", demo_second_proof),
    ]
    for kind, targets in (("seed1", SEED1_TARGETS), ("golden", golden_targets())):
        for i, (theta, phi) in enumerate(targets):
            made.append((f"{kind} {i} theta={theta!r} phi={phi!r}",
                         lambda theta=theta, phi=phi: demo_first_proof(polar_target(theta, phi))))
    return made


def record(t) -> dict:
    """The pinned values of a built trace."""
    system = extract_triad_system(t)
    return {
        "trace_sha256": sha256(save_trace(t)),
        "system_sha256": sha256(save_system(system)),
        "counts": [len(t.rays), len(t.facts), len(t.branches), len(t.instances)],
        "core": list(decision_core(t, system)),
        "nodes": solve(system, SolveMode.PROVE_NONE).nodes_explored,
    }


def build(make) -> tuple[object, dict]:
    """(trace, record), or (None, {"raises": name}) when the build raises."""
    try:
        t = make()
    except KsError as exc:
        return None, {"raises": type(exc).__name__}
    return t, record(t)


def pinned() -> dict[str, dict]:
    return json.loads(CORPUS.read_text())


def main(argv: list[str]) -> int:
    old = pinned() if CORPUS.exists() else {}
    new = {name: build(make)[1] for name, make in inputs()}
    for name, rec in new.items():
        if old.get(name) != rec:
            print(f"{name}\n  pinned: {old.get(name)}\n  now:    {rec}")
    for name in old.keys() - new.keys():
        print(f"{name}\n  pinned: {old[name]}\n  now:    (no such input)")
    if "--write" in argv:
        CORPUS.write_text("{\n%s\n}\n" % ",\n".join(
            f"{json.dumps(name)}: {json.dumps(rec)}" for name, rec in new.items()))
        return 0
    return int(old != new)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
