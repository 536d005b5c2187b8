from ksgeom import kernels


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
