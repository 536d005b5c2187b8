import hashlib
import math
import random

import pytest

from ksgeom import kernels
from ksgeom.coloring import SolveMode, count_colorings_by_enumeration, solve
from ksgeom.demos import DEFAULT_POLE_ANGLE, demo_first_proof, demo_second_proof
from ksgeom.sphere import canonicalize, complete_tripod
from ksgeom.system import TriadSystem
from ksgeom.trace import extract_triad_system


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
