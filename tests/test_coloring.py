import itertools
import math
import random
import tracemalloc

import pytest

from ksgeom import coloring, kernels
from ksgeom import system as system_module
from ksgeom.coloring import (
    LANE_BITS,
    SolveMode,
    count_colorings_by_enumeration,
    is_valid_coloring,
    refute_by_core_enumeration,
    solve,
)
from ksgeom.demos import demo_first_proof, demo_second_proof
from ksgeom.errors import InvalidSystem
from ksgeom.sphere import Ray, canonicalize, complete_tripod
from ksgeom.system import TriadSystem, load_system, save_system, validate_system
from ksgeom.trace import decision_core, extract_triad_system

from conftest import peres_system, random_northern_nonpole, relabelled

R2 = math.sqrt(0.5)

AXES = (
    canonicalize((0, 0, 1)),
    canonicalize((1, 0, 0)),
    canonicalize((0, 1, 0)),
)


def single_triad() -> TriadSystem:
    return TriadSystem(rays=AXES, triads=((0, 1, 2),))


def two_triads_sharing_one() -> TriadSystem:
    # second tripod shares exactly ray 0 (the pole): rotate the equator pair
    phi = 0.9
    d = canonicalize((math.cos(phi), math.sin(phi), 0))
    e = canonicalize((-math.sin(phi), math.cos(phi), 0))
    return TriadSystem(rays=AXES + (d, e), triads=((0, 1, 2), (0, 3, 4)))


def random_book_system(rng: random.Random, n_books: int) -> TriadSystem:
    """Tripods sharing one spine ray, plus a couple of stray pairs."""
    spine = random_northern_nonpole(rng)
    base = complete_tripod(spine)
    rays: list[Ray] = [base.a, base.b, base.c]
    triads = [(0, 1, 2)]
    for _ in range(n_books - 1):
        phi = rng.uniform(0.2, math.pi - 0.2)
        c, s = math.cos(phi), math.sin(phi)
        u = canonicalize(tuple(c * x + s * y for x, y in zip(base.b.vec, base.c.vec)))
        v = canonicalize(tuple(-s * x + c * y for x, y in zip(base.b.vec, base.c.vec)))
        rays += [u, v]
        triads.append((0, len(rays) - 2, len(rays) - 1))
    pairs = []
    if rng.random() < 0.5 and len(rays) >= 5:
        pairs.append((1, 2))
    return TriadSystem(rays=tuple(rays), triads=tuple(triads), pairs=tuple(pairs))


class TestPeresSet:
    """A published Kochen-Specker set, the first refuted system here that
    does not come from this package's extractor."""

    def test_closed_form_sizes(self):
        s = peres_system()
        assert (s.n_rays, len(s.triads), len(s.pairs)) == (33, 16, 24)
        assert validate_system(s).accepted

    @pytest.mark.parametrize("mode", list(SolveMode))
    def test_no_coloring_in_any_mode(self, mode):
        result = solve(peres_system(), mode)
        assert (result.count, result.exhaustive, result.witness) == (0, True, None)
        assert result.nodes_explored == 46  # in the fixture's order

    @pytest.mark.parametrize("seed", range(8))
    def test_relabellings_refuted_in_few_nodes(self, seed):
        s = relabelled(peres_system(), random.Random(f"peres/{seed}"))
        assert validate_system(s).accepted
        result = solve(s, SolveMode.PROVE_NONE)
        assert (result.count, result.exhaustive) == (0, True)
        assert result.nodes_explored <= 100


class TestCalibration:
    def test_single_triad_three_colorings(self):
        result = solve(single_triad())
        assert result.count == 3
        assert result.exhaustive
        assert count_colorings_by_enumeration(single_triad()) == 3

    def test_two_triads_sharing_one_ray(self):
        s = two_triads_sharing_one()
        result = solve(s)
        assert result.count == 5
        assert count_colorings_by_enumeration(s) == 5

    def test_empty_system(self):
        # the empty coloring is the whole space, so every mode searched it all
        for mode in SolveMode:
            result = solve(TriadSystem(rays=(), triads=()), mode)
            assert (result.count, result.witness, result.exhaustive) == (1, (), True)

    def test_enumeration_cap(self, monkeypatch):
        # 23 unconstrained rays, one past the cap: refused before the first
        # of their 2^23 assignments, so the module's range is never called
        rays = tuple(canonicalize((math.cos(0.1 * i), math.sin(0.1 * i), 1.0)) for i in range(23))
        monkeypatch.setattr(coloring, "range", lambda *a: pytest.fail("enumerated"), raising=False)
        with pytest.raises(ValueError, match="capped at 22 rays, got 23"):
            count_colorings_by_enumeration(TriadSystem(rays=rays, triads=()))
        monkeypatch.undo()
        monkeypatch.setattr(coloring, "ENUMERATION_CAP", 3)  # read at call time
        assert count_colorings_by_enumeration(TriadSystem(rays=rays[:3], triads=())) == 8
        with pytest.raises(ValueError, match="capped at 3 rays, got 4"):
            count_colorings_by_enumeration(TriadSystem(rays=rays[:4], triads=()))

    def test_determinism_five_runs(self):
        s = two_triads_sharing_one()
        runs = [solve(s, SolveMode.COUNT) for _ in range(5)]
        assert len({r.nodes_explored for r in runs}) == 1
        assert len({r.count for r in runs}) == 1
        assert len({r.witness for r in runs}) == 1


class TestModes:
    def test_first_witness(self):
        result = solve(single_triad(), SolveMode.FIRST_WITNESS)
        assert result.witness is not None
        assert is_valid_coloring(single_triad(), result.witness)
        assert not result.exhaustive  # stopped early

    def test_validity_refuses_two_ones(self):
        # ray 3 is orthogonal to ray 0, the pole, outside the triad's tripod
        s = TriadSystem(rays=(*AXES, canonicalize((R2, R2, 0))), triads=((0, 1, 2),),
                        pairs=((0, 3),))
        assert is_valid_coloring(s, (0, 1, 0, 1))
        assert not is_valid_coloring(s, (1, 1, 0, 0))  # a triad with two 1s
        assert not is_valid_coloring(s, (1, 0, 0, 1))  # a pair with two 1s

    def test_prove_none_on_satisfiable(self):
        result = solve(single_triad(), SolveMode.PROVE_NONE)
        assert result.count >= 1 and not result.exhaustive

    def test_pairs_alongside_triad_still_counts_three(self):
        a = complete_tripod(canonicalize((0, R2, R2)))
        s = TriadSystem(
            rays=(a.a, a.b, a.c),
            triads=((0, 1, 2),),
            pairs=((0, 1), (0, 2), (1, 2)),
        )
        assert solve(s).count == 3
        assert count_colorings_by_enumeration(s) == 3

    def test_prove_none_on_unsatisfiable_combinatorics(self):
        # kernel-level check (no geometry): two triads whose members are
        # pairwise excluded across triads admit no coloring
        triads = [(0, 1, 2), (3, 4, 5)]
        pairs = [(i, j) for i in range(3) for j in range(3, 6)]
        count, nodes, witness, exhausted = kernels.solve_kernel(
            6, triads, pairs, stop_at_first=True
        )
        assert count == 0 and witness is None and exhausted

    @pytest.mark.parametrize("mode", ["count", "witness", None, 0, SolveMode])
    def test_mode_must_be_a_member(self, mode, monkeypatch):
        # a value or name of a member is not one: "count" used to search as
        # if it were stop-at-first. The check comes before validation (this
        # system fails it) and before the search
        bad = TriadSystem(rays=(AXES[0], AXES[1], canonicalize((0.6, 0.0, 0.8))), triads=((0, 1, 2),))
        monkeypatch.setattr(kernels, "solve_kernel", lambda *a: pytest.fail("searched"))
        with pytest.raises(TypeError, match="mode must be a SolveMode member"):
            solve(bad, mode)
        with pytest.raises(TypeError, match="mode must be a SolveMode member"):
            solve(TriadSystem(rays=AXES[:1], triads=()), mode)

    def test_every_member_is_accepted(self):
        # one free ray, two colorings: COUNT finds both, the others stop at 1
        s = TriadSystem(rays=AXES[:1], triads=())
        results = {mode: solve(s, mode) for mode in SolveMode}
        assert (results[SolveMode.COUNT].count, results[SolveMode.COUNT].exhaustive) == (2, True)
        for mode in (SolveMode.FIRST_WITNESS, SolveMode.PROVE_NONE):
            assert (results[mode].count, results[mode].witness, results[mode].exhaustive) == (1, (1,), False)

    def test_witness_validity_random(self, rng):
        for k in range(40):
            s = random_book_system(rng, rng.randint(1, 3))
            result = solve(s, SolveMode.FIRST_WITNESS)
            if result.witness is not None:
                assert is_valid_coloring(s, result.witness)


class TestOracleAgreement:
    def test_solver_matches_enumeration(self, rng):
        for k in range(60):
            s = random_book_system(rng, rng.randint(1, 4))
            if s.n_rays > 16:
                continue
            assert solve(s).count == count_colorings_by_enumeration(s)

    def test_monotone_under_added_triad(self, rng):
        for k in range(30):
            s_small = random_book_system(rng, 2)
            spine = s_small.rays[0]
            # supersystem: add one more page to the book
            phi = 1.3
            c, sn = math.cos(phi), math.sin(phi)
            b, cc = s_small.rays[1], s_small.rays[2]
            u = canonicalize(tuple(c * x + sn * y for x, y in zip(b.vec, cc.vec)))
            v = canonicalize(tuple(-sn * x + c * y for x, y in zip(b.vec, cc.vec)))
            s_big = TriadSystem(
                rays=s_small.rays + (u, v),
                triads=s_small.triads + ((0, s_small.n_rays, s_small.n_rays + 1),),
                pairs=s_small.pairs,
            )
            # counts over the shared rays only: compare totals after account
            # for the two free new rays is awkward; use subsystem restriction:
            # every coloring of s_big restricts to one of s_small, so
            # count(s_big) <= count(s_small) * 2^2 and adding the triad to the
            # *same* ray set never increases the count.
            with_triad = solve(s_big).count
            without_triad = solve(
                TriadSystem(rays=s_big.rays, triads=s_small.triads, pairs=s_big.pairs)
            ).count
            assert with_triad <= without_triad


class TestValidation:
    def test_invalid_system_rejected(self):
        bad = TriadSystem(
            rays=(AXES[0], AXES[1], canonicalize((0.6, 0.0, 0.8))),
            triads=((0, 1, 2),),
        )
        with pytest.raises(InvalidSystem):
            solve(bad)

    def test_nan_system_rejected(self, nan_ray):
        with pytest.raises(InvalidSystem):
            solve(TriadSystem(rays=(AXES[1], AXES[2], nan_ray), triads=((0, 1, 2),)))

    def test_invalid_system_refused_on_every_call(self):
        bad = TriadSystem(rays=(AXES[0], AXES[1], canonicalize((0.6, 0.0, 0.8))), triads=((0, 1, 2),))
        for _ in range(2):  # the second call reads the kept report
            with pytest.raises(InvalidSystem, match=r"at \(\(0, 2\), \(1, 2\)\)"):
                solve(bad)

    def test_load_then_solve_computes_the_dots_once(self, monkeypatch):
        # validate_system takes one abs per constrained dot: counting them
        # counts passes over the constraints, whoever makes them
        s = extract_triad_system(demo_second_proof())
        text = save_system(s)
        dots = []
        monkeypatch.setattr(system_module, "abs", lambda r: dots.append(r) or abs(r), raising=False)
        loaded = load_system(text)
        assert len(dots) == 3 * len(s.triads) + len(s.pairs)
        assert solve(loaded, SolveMode.PROVE_NONE).count == 0
        assert len(dots) == 3 * len(s.triads) + len(s.pairs)


def propagate_one_case(s: TriadSystem, vals: list[int]) -> bool:
    """Forced-value closure of one case (-1 = unknown) by repeated full
    scans; False on conflict. The oracle's former per-case body, kept as
    the reference the bit-sliced scan must agree with."""
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


def refute_case_by_case(s: TriadSystem, core: list[int]) -> tuple[bool, int]:
    cases = 0
    for bits in itertools.product((1, 0), repeat=len(core)):
        cases += 1
        vals = [-1] * s.n_rays
        for ray, value in zip(core, bits):
            vals[ray] = value
        if propagate_one_case(s, vals):
            return False, cases
    return True, cases


def placeholder_system(n: int, triads, pairs) -> TriadSystem:
    """A combinatorial system on n distinct rays. The oracle reads only the
    indices, so the rays need not satisfy the orthogonality they stand for."""
    rays = tuple(canonicalize((1.0, 0.1 * i, 1.0)) for i in range(n))
    return TriadSystem(rays=rays, triads=tuple(triads), pairs=tuple(pairs))


def one_is_fatal(r: int, a: int) -> tuple[list, list]:
    """Constraints under which r = 1 always conflicts: r excludes all three
    members a, a+1, a+2 of a triad, which then has three 0s."""
    return [(a, a + 1, a + 2)], [(r, a), (r, a + 1), (r, a + 2)]


@pytest.fixture(scope="module")
def demo_systems():
    out = []
    for t in (demo_first_proof(canonicalize((0.0, math.sin(0.3), math.cos(0.3)))),
              demo_second_proof()):
        s = extract_triad_system(t)
        out.append((s, list(decision_core(t, s))))
    return out


class TestCoreRefutation:
    def test_stalls_on_satisfiable(self):
        assert refute_by_core_enumeration(single_triad(), [0]) == (False, 1)

    def test_first_stall_after_a_conflicting_case(self):
        # case 1 sets rays 1 and 2 to 1 and conflicts; case 2 stalls
        assert refute_by_core_enumeration(single_triad(), [1, 2]) == (False, 2)

    def test_cap(self, monkeypatch):
        s = two_triads_sharing_one()
        monkeypatch.setattr(coloring, "CORE_CAP", 4)
        with pytest.raises(ValueError):
            refute_by_core_enumeration(s, list(range(5)))
        with pytest.raises(ValueError):
            refute_by_core_enumeration(s, [0, 0])

    @pytest.mark.parametrize("core", [[-1], [3], [True], [0, 1.0], ["0"]], ids=repr)
    def test_core_must_hold_ray_indices(self, core):
        with pytest.raises(ValueError, match="not an index"):
            refute_by_core_enumeration(single_triad(), core)

    def test_matches_case_by_case_on_demo_subsystems(self, demo_systems):
        rng = random.Random(10)
        outcomes = set()
        for trial in range(16):
            s, dcore = demo_systems[trial % 2]
            gone = set(rng.sample(range(len(s.triads)), rng.choice((0, 1, 2))))
            sub = TriadSystem(
                rays=s.rays,
                triads=tuple(t for i, t in enumerate(s.triads) if i not in gone),
                pairs=s.pairs,
            )
            if trial % 4 < 2:  # the decision core, shuffled, plus extra rays
                core = dcore + [r for r in rng.sample(range(s.n_rays), 3) if r not in dcore]
                core = rng.sample(core, min(len(core), 12))
            else:
                core = rng.sample(range(s.n_rays), rng.randint(1, 14))
            expected = refute_case_by_case(sub, core)
            assert refute_by_core_enumeration(sub, core) == expected, (trial, core)
            outcomes.add(expected[0])
        assert outcomes == {True, False}

    def test_constraint_order_and_ray_labels_do_not_change_the_result(self, demo_systems):
        # The oracle scans constraints by largest ray index, so shuffling
        # the lists and relabelling the rays changes its scan order; the
        # closure, and with it (refuted, cases), must not change.
        rng = random.Random(18)
        inputs = list(demo_systems)
        for trial in range(6):
            s, dcore = demo_systems[trial % 2]
            gone = set(rng.sample(range(len(s.triads)), rng.choice((1, 2))))
            sub = TriadSystem(
                rays=s.rays,
                triads=tuple(t for i, t in enumerate(s.triads) if i not in gone),
                pairs=s.pairs,
            )
            extra = [r for r in rng.sample(range(s.n_rays), 3) if r not in dcore]
            inputs.append((sub, rng.sample(dcore + extra, 10)))
        outcomes = set()
        for s, core in inputs:
            expected = refute_by_core_enumeration(s, core)
            assert refute_case_by_case(s, core) == expected
            outcomes.add(expected[0])
            for _ in range(2):
                perm = rng.sample(range(s.n_rays), s.n_rays)  # old index -> new index
                rays = [None] * s.n_rays
                for old, ray in enumerate(s.rays):
                    rays[perm[old]] = ray
                triads = [tuple(perm[r] for r in t) for t in s.triads]
                pairs = [tuple(perm[r] for r in p) for p in s.pairs]
                rng.shuffle(triads)
                rng.shuffle(pairs)
                variant = TriadSystem(rays=tuple(rays), triads=tuple(triads), pairs=tuple(pairs))
                variant_core = [perm[r] for r in core]
                assert refute_by_core_enumeration(variant, variant_core) == expected
                assert refute_case_by_case(variant, variant_core) == expected
        assert outcomes == {True, False}

    def test_first_stall_in_the_second_block(self):
        # k = 14: core[0] and core[1] are enumerated block by block, the
        # other 12 across lanes. core[1] = 1 and core[2] = 1 always
        # conflict, so block 0 (core[0] = core[1] = 1) conflicts throughout
        # and the first stall is lane 2^11 of block 1 (one-based 6145)
        k = LANE_BITS + 2
        triads, pairs = one_is_fatal(1, k)
        more_triads, more_pairs = one_is_fatal(2, k + 3)
        s = placeholder_system(k + 6, triads + more_triads, pairs + more_pairs)
        core = list(range(k))
        expected = (False, (1 << LANE_BITS) + (1 << (LANE_BITS - 1)) + 1)
        assert refute_case_by_case(s, core) == expected
        assert refute_by_core_enumeration(s, core) == expected

    def test_k20_memory_stays_within_one_block(self):
        # rays 0..5 form two triads whose members exclude each other
        # pairwise; 14 free rays fill the core to k = 20, all cases conflict
        pairs = [(i, j) for i in range(3) for j in range(3, 6)]
        s = placeholder_system(20, [(0, 1, 2), (3, 4, 5)], pairs)
        core = list(range(6, 20)) + list(range(6))
        tracemalloc.start()
        try:
            assert refute_by_core_enumeration(s, core) == (True, 1 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one mask over all 2^20 lanes alone would take 128 KiB
        assert peak < 64 * 1024
