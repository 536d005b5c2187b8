"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print. Tolerances and budgets are fixed here, not configurable.
"""

import json
import math
import random
import time
from decimal import Decimal, getcontext

from ksgeom.cli import main as cli_main
from ksgeom.coloring import (
    SolveMode,
    count_colorings_by_enumeration,
    refute_by_core_enumeration,
    solve,
)
from ksgeom.demos import cover_index, demo_second_proof
from ksgeom.reach import asymptotic_residual, reach, shell, verify_certificate
from ksgeom.serialize import load_certificate, save_certificate
from ksgeom.sphere import canonicalize, complete_tripod
from ksgeom.system import TriadSystem, load_system, save_system, validate_system
from ksgeom.trace import CertWitness, decision_core, extract_triad_system

from conftest import PlanePoint, project, random_northern, unproject

R2 = math.sqrt(0.5)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_tripod_reproduction():
    q = canonicalize((0, R2, R2))
    complete_tripod(q)  # warm caches before timing
    t0 = time.perf_counter()
    trip = complete_tripod(q)
    elapsed = time.perf_counter() - t0
    expected = (
        canonicalize((1, 0, 0)),
        canonicalize((0, R2, R2)),
        canonicalize((0, -R2, R2)),
    )
    got = set()
    ok = True
    for want in expected:
        ok = ok and any(abs(m.dot(want)) >= 1.0 - 1e-12 for m in trip.members)
    ok = ok and elapsed < 1e-3
    report(1, ok, f"fixed tripod reproduced, runtime {elapsed*1e6:.0f} us")


def test_criterion_2_constant_tripod_residual():
    s = TriadSystem(
        rays=(
            canonicalize((-0.5, R2, 0.5)),
            canonicalize((-0.5, -R2, 0.5)),
            canonicalize((R2, 0, R2)),
        ),
        triads=((0, 1, 2),),
    )
    rep = validate_system(s)
    ok = rep.accepted and rep.worst_residual <= 1e-15
    report(2, ok, f"constant tripod accepted, worst residual {rep.worst_residual:.2e}")


def test_criterion_3_reachability_suite():
    rng = random.Random(20260808)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        while True:
            q = random_northern(rng)
            p = random_northern(rng)
            if p.z < q.z - 1e-3 and not q.is_pole():
                break
        rep = verify_certificate(reach(q, p))
        assert rep.accepted, rep.failures
        worst = max(worst, max(rep.link_residuals))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(3, ok, f"1000 pairs verified at 1e-9 (worst {worst:.2e}) in {elapsed:.2f}s")


def test_criterion_4_shell_law_and_asymptotics():
    # independent high-precision value for n=16: 2^16/(2+sqrt2)^8
    getcontext().prec = 60
    want16 = float(Decimal(2) ** 16 / (2 + Decimal(2).sqrt()) ** 8)
    ok = abs(want16 - 3.5493960794934842) <= 1e-12
    q0 = unproject(PlanePoint(1, 0))
    for n in (5, 8, 16, 64):
        pts = shell(q0, n)
        dn = project(pts[-1]).norm()
        want = math.cos(2 * math.pi / n) ** (-n)
        ok = ok and abs(dn - want) <= 1e-9 * want
        if n == 16:
            ok = ok and abs(dn - want16) <= 1e-9 * want16
    n = 32
    worst_margin = math.inf
    while n <= 4096:
        bound = 150.0 / n**3
        worst_margin = min(worst_margin, bound - abs(asymptotic_residual(n)))
        ok = ok and abs(asymptotic_residual(n)) <= bound
        n *= 2
    report(4, ok, f"shell law to 1e-9 (n16 = {want16:.10f}), |residual| <= 150/n^3")


def test_criterion_5_second_proof_pipeline(tmp_path):
    t0 = time.perf_counter()
    code = cli_main(["demo", "second", "-o", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 10.0

    trace = demo_second_proof()
    for fact in trace.facts:
        if isinstance(fact.witness, CertWitness):
            ok = ok and verify_certificate(fact.witness.certificate).accepted

    system = load_system((tmp_path / "system.json").read_text())
    result = solve(system, SolveMode.COUNT)
    ok = ok and result.count == 0 and result.exhaustive

    core = decision_core(trace, extract_triad_system(trace))
    ok = ok and len(core) <= 20
    refuted, cases = refute_by_core_enumeration(system, list(core))
    ok = ok and refuted and cases == 2 ** len(core)
    report(
        5,
        ok,
        f"demo second in {elapsed:.2f}s, count=0 exhaustive, "
        f"cross-checked over 2^{len(core)} core cases",
    )


def test_criterion_6_first_proof_pipeline(tmp_path):
    t0 = time.perf_counter()
    code = cli_main(["demo", "first", "--pole", "0,sin(0.3),cos(0.3)", "-o", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 60.0

    doc = json.loads((tmp_path / "trace.json").read_text())
    leaves = [b for b in doc["branches"] if b["children"] is None]
    held = {i["branch"] for i in doc["instances"]}  # each stands for its body's leaves
    ok = ok and leaves and all(b["contradiction"] or b["idx"] in held for b in leaves)

    system = load_system((tmp_path / "system.json").read_text())
    result = solve(system, SolveMode.COUNT)
    ok = ok and result.count == 0 and result.exhaustive
    report(
        6,
        ok,
        f"demo first in {elapsed:.2f}s, {len(leaves)} leaves all closed, count=0",
    )


def test_criterion_7_coloring_calibration():
    axes = (canonicalize((0, 0, 1)), canonicalize((1, 0, 0)), canonicalize((0, 1, 0)))
    single = TriadSystem(rays=axes, triads=((0, 1, 2),))
    ok = solve(single).count == 3

    phi = 0.9
    d = canonicalize((math.cos(phi), math.sin(phi), 0))
    e = canonicalize((-math.sin(phi), math.cos(phi), 0))
    shared = TriadSystem(rays=axes + (d, e), triads=((0, 1, 2), (0, 3, 4)))
    ok = ok and solve(shared).count == 5
    ok = ok and count_colorings_by_enumeration(shared) == 5  # full 2^5 check

    nodes = {solve(shared).nodes_explored for _ in range(5)}
    ok = ok and len(nodes) == 1
    report(7, ok, f"counts 3 and 5 (2^5-verified), node count stable at {nodes.pop()}")


def test_criterion_8_cover_index():
    p = canonicalize((0.5, -R2, 1.5))
    n = cover_index(p)
    ok = n == 4 and math.tan(0.25) < 1.0 / 3.0 < math.tan(1.0 / 3.0)
    report(8, ok, f"cover index {n} matches tan(1/4) < 1/3 < tan(1/3)")


def test_criterion_9_serialization(tmp_path):
    cert = reach(canonicalize((0, R2, R2)), canonicalize((0.5, -0.6, 0.2)))
    text1 = save_certificate(cert)
    text2 = save_certificate(load_certificate(text1))
    ok = text1 == text2

    trace = demo_second_proof()
    system = extract_triad_system(trace)
    sys_text1 = save_system(system)
    sys_text2 = save_system(load_system(sys_text1))
    ok = ok and sys_text1 == sys_text2

    doc = json.loads(text1)
    doc["points"][1][2] = -doc["points"][1][2]
    tampered = load_certificate(json.dumps(doc))
    rep = verify_certificate(tampered)
    ok = ok and not rep.accepted and rep.first_bad_link == 1
    report(9, ok, "byte-identical round trips; tampered link 1 rejected as [1]")
