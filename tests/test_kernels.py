import hashlib
import math
import random
from collections.abc import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksgeom import kernels
from ksgeom.coloring import SolveMode, count_colorings_by_enumeration, solve
from ksgeom.demos import DEFAULT_POLE_ANGLE, demo_first_proof, demo_second_proof
from ksgeom.kernels import FREE
from ksgeom.sphere import canonicalize, complete_tripod
from ksgeom.system import TriadSystem
from ksgeom.trace import extract_triad_system

from conftest import peres_system, relabelled


def reference_solve_kernel(n: int, triads: Sequence[tuple], pairs: Sequence[tuple], stop_at_first: bool):
    """kernels.solve_kernel as it was written before its per-node costs
    were cut: a nested decide() closure per node, triads summed over all
    three rays, and unwinding by slicing. It searches the same tree, so
    the production kernel must return the same 4-tuple on every input.
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


class TestBackendSelection:
    def test_pure_backend_always_available(self):
        assert kernels.available_backends() == {"py": kernels.solve_kernel}

    def test_selected_backend_is_available(self):
        assert kernels.BACKEND in kernels.available_backends()


class TestKernelEdgeCases:
    def test_empty_problem(self):
        count, nodes, witness, exhausted = kernels.solve_kernel(0, [], [], stop_at_first=False)
        assert (count, nodes, witness, exhausted) == (1, 0, [], True)

    def test_unconstrained_rays_double_count(self):
        count, _, _, _ = kernels.solve_kernel(3, [], [], stop_at_first=False)
        assert count == 8

    def test_pair_only(self):
        count, _, _, _ = kernels.solve_kernel(2, [], [(0, 1)], stop_at_first=False)
        assert count == 3  # 00, 01, 10

    def test_stop_at_first_keeps_one_witness(self):
        result = kernels.solve_kernel(3, [], [], stop_at_first=True)
        assert result == (1, 3, [1, 1, 1], False)  # value 1 is tried first

    def test_deep_search_is_iterative(self):
        # 5,000 nested decisions: a recursive search would pass Python's
        # default recursion limit of 1,000
        result = kernels.solve_kernel(5000, [], [], stop_at_first=True)
        assert result == (1, 5000, [1] * 5000, False)


def random_abstract_system(rng: random.Random) -> tuple[int, list, list]:
    """Random triads and pairs over n <= 14 rays, with no geometry behind them."""
    n = rng.randint(1, 14)
    triads = [tuple(rng.sample(range(n), 3)) for _ in range(rng.randint(0, n))] if n >= 3 else []
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))] if n >= 2 else []
    return n, triads, pairs


SWEEP_SYSTEMS = 2000
# sha256 over every (count, nodes, witness, exhaustive) of the sweep below,
# as the kernel returned them before its rewrite as the two forcing rules
SWEEP_SHA = "7187059cafa82111612136cf779faf8b5826c63faf8c3df7c40e669723e44a84"


class TestKernelRegression:
    def test_random_sweep_pinned(self):
        rng = random.Random(20261018)
        digest = hashlib.sha256()
        for _ in range(SWEEP_SYSTEMS):
            n, triads, pairs = random_abstract_system(rng)
            full = kernels.solve_kernel(n, triads, pairs, stop_at_first=False)
            first = kernels.solve_kernel(n, triads, pairs, stop_at_first=True)
            digest.update(f"{full!r}\n{first!r}\n".encode())
            assert first[0] == min(full[0], 1) and first[2] == full[2]
            if n <= 10:
                s = TriadSystem(rays=(canonicalize((0, 0, 1)),) * n, triads=triads, pairs=pairs)
                assert full[0] == count_colorings_by_enumeration(s)
        assert digest.hexdigest() == SWEEP_SHA

    @pytest.mark.parametrize("k", range(12, 18))
    def test_book_node_counts(self, k):
        # one spine shared by k tripods (2^k + 1 colorings), as color-count builds it
        base = complete_tripod(canonicalize((0.3, 0.4, 0.866)))
        rays, triads = [base.a, base.b, base.c], [(0, 1, 2)]
        for i in range(1, k):
            c, s = math.cos(i * math.pi / (2 * k)), math.sin(i * math.pi / (2 * k))
            b, d = base.b.vec, base.c.vec
            rays += [
                canonicalize(tuple(c * x + s * y for x, y in zip(b, d))),
                canonicalize(tuple(-s * x + c * y for x, y in zip(b, d))),
            ]
            triads.append((0, len(rays) - 2, len(rays) - 1))
        s = TriadSystem(rays=tuple(rays), triads=tuple(triads))
        count = solve(s, SolveMode.COUNT)
        assert (count.count, count.nodes_explored) == (2**k + 1, 2 ** (k + 1))
        assert solve(s, SolveMode.FIRST_WITNESS).nodes_explored == 1

    @pytest.mark.parametrize("which, nodes", [("first", 10), ("second", 32)])
    def test_demo_node_counts(self, which, nodes):
        if which == "first":
            pole = (0.0, math.sin(DEFAULT_POLE_ANGLE), math.cos(DEFAULT_POLE_ANGLE))
            t = demo_first_proof(canonicalize(pole))
        else:
            t = demo_second_proof()
        s = extract_triad_system(t)
        for mode in SolveMode:
            result = solve(s, mode)
            assert (result.count, result.nodes_explored, result.exhaustive) == (0, nodes, True)


@st.composite
def abstract_systems(draw) -> tuple[int, list, list]:
    """Triads and pairs of distinct rays over n <= 16 rays, n = 0 included."""
    n = draw(st.integers(0, 16))

    def constraints(size: int, most: int) -> list:
        if n < size:
            return []
        tuples = st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
        return draw(st.lists(tuples.map(tuple), max_size=most))

    return n, constraints(3, 2 * n), constraints(2, n)


def same_as_reference(n: int, triads, pairs) -> None:
    for stop_at_first in (False, True):
        want = reference_solve_kernel(n, triads, pairs, stop_at_first)
        assert kernels.solve_kernel(n, triads, pairs, stop_at_first) == want


class TestReferenceKernel:
    """The production kernel searches the reference kernel's tree: the
    same count, nodes, witness and exhaustive flag, in both modes."""

    @settings(max_examples=300, deadline=None)
    @given(abstract_systems())
    @example((0, [], []))
    def test_drawn_systems(self, system):
        same_as_reference(*system)

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_demo_systems(self, which):
        if which == "first":
            pole = (0.0, math.sin(DEFAULT_POLE_ANGLE), math.cos(DEFAULT_POLE_ANGLE))
            t = demo_first_proof(canonicalize(pole))
        else:
            t = demo_second_proof()
        s = extract_triad_system(t)
        same_as_reference(s.n_rays, s.triads, s.pairs)

    @pytest.mark.parametrize("k", range(8, 15))
    def test_book_systems(self, k):
        # one spine, ray 0, shared by k tripods (0, 2i - 1, 2i)
        same_as_reference(2 * k + 1, [(0, 2 * i - 1, 2 * i) for i in range(1, k + 1)], [])

    @pytest.mark.parametrize("seed", [None, *range(8)])
    def test_peres_set(self, seed):
        # the fixture's order, then TestPeresSet's relabellings
        s = peres_system()
        if seed is not None:
            s = relabelled(s, random.Random(f"peres/{seed}"))
        same_as_reference(s.n_rays, s.triads, s.pairs)
