import numpy as np
import pytest

from swgfem.analysis import discrete_h1_error, discrete_l2_error
from swgfem.errors import NonPositiveKappa
from swgfem.fd import (
    assemble_fd5,
    assemble_fd7,
    check_equivalence,
    stencil_weights,
)
from swgfem.problems import get_problem
from swgfem.solver import solve


def zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


class TestStencilWeights:
    def test_kappa_four_is_five_point(self):
        s = stencil_weights(4.0)
        assert (s.c1, s.c2, s.c3, s.c4) == (0.0, 4.0, 0.0, -1.0)

    def test_kappa_07(self):
        s = stencil_weights(0.7)
        assert s.c1 == pytest.approx(-0.825)
        assert s.c2 == pytest.approx(2.35)
        assert s.c3 == pytest.approx(-0.825)
        assert s.c4 == pytest.approx(-0.175)

    @pytest.mark.parametrize("kappa", [0.1, 0.7, 1.0, 4.0, 20.0, 123.0])
    def test_zero_row_sum(self, kappa):
        s = stencil_weights(kappa)
        assert s.c1 + s.c2 + s.c3 + 4 * s.c4 == pytest.approx(0.0, abs=1e-13)

    def test_nonpositive_kappa(self):
        with pytest.raises(NonPositiveKappa):
            stencil_weights(0.0)
        with pytest.raises(NonPositiveKappa):
            stencil_weights(-2.0)


class TestFd7:
    def test_zero_data_zero_solution(self):
        system = assemble_fd7(8, 4.0, zero, zero)
        sol = solve(system)
        np.testing.assert_allclose(sol.values, 0.0, atol=1e-15)

    def test_constant_boundary_propagates(self):
        # zero row sums: u = 1 solves f = 0, g = 1
        system = assemble_fd7(6, 0.7, zero, one)
        sol = solve(system)
        np.testing.assert_allclose(sol.values, 1.0, rtol=1e-12)

    def test_interior_row_five_point_at_kappa_four(self):
        system = assemble_fd7(4, 4.0, zero, zero)
        dm = system.mesh.dof_map
        gid = dm.vertical_id(2, 1)
        row = dm.free_index[gid]
        mat = system.matrix.tocsr()
        cols = mat.indices[mat.indptr[row]:mat.indptr[row + 1]]
        vals = {int(c): v for c, v in zip(
            cols, mat.data[mat.indptr[row]:mat.indptr[row + 1]])}
        assert vals[row] == pytest.approx(4.0)
        flank = [dm.free_index[dm.horizontal_id(i, j)]
                 for i, j in ((1, 1), (1, 2), (2, 1), (2, 2))]
        for c in flank:
            assert vals[c] == pytest.approx(-1.0)
        # vertical neighbors have zero weight at kappa = 4
        for c, v in vals.items():
            if c != row and c not in flank:
                assert v == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_exactness_at_kappa_four(self):
        # u = x^2 + 2xy with matching f, g solved to machine precision
        u = lambda x, y: np.asarray(x, float) ** 2 + 2 * np.asarray(x) * np.asarray(y)
        f = lambda x, y: np.full_like(np.asarray(x, dtype=float), -2.0)
        system = assemble_fd7(8, 4.0, f, u)
        sol = solve(system)
        dm = system.mesh.dof_map
        exact = u(dm.midpoints[:, 0], dm.midpoints[:, 1])
        assert np.max(np.abs(sol.values - exact)) <= 1e-12

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            assemble_fd7(1, 4.0, zero, zero)


class TestFd5:
    def test_matches_scaled_fd7(self):
        p = get_problem("fd2")
        for n in (4, 8):
            h2 = (1.0 / n) ** 2
            sys5 = assemble_fd5(n, p.f, p.g)
            sys7 = assemble_fd7(n, 4.0, p.f, p.g)
            diff = (sys5.matrix - sys7.matrix / h2).tocoo()
            scale = np.abs(sys5.matrix.data).max()
            assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-13 * scale
            np.testing.assert_allclose(sys5.rhs, sys7.rhs / h2, rtol=1e-12, atol=1e-12)

    def test_table_accuracy_n8(self):
        p = get_problem("fd1")
        system = assemble_fd5(8, p.f, p.g)
        sol = solve(system)
        l2 = discrete_l2_error(sol, system.mesh, p.exact)
        assert l2 == pytest.approx(4.59e-04, rel=0.05)

    def test_constant_g_constant_solution(self):
        sol = solve(assemble_fd5(8, zero, one))
        np.testing.assert_allclose(sol.values, 1.0, rtol=1e-12)


class TestEquivalence:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("kappa", [0.7, 4.0, 20.0])
    def test_matrix_identity(self, n, kappa):
        report = check_equivalence(n, kappa)
        assert report.matrix_diff <= 1e-13

    @pytest.mark.parametrize("pid", ["fd1", "fd2"])
    def test_rhs_within_quadrature_gap(self, pid):
        problem = get_problem(pid)
        for n in (4, 8, 16):
            mesh_pts = np.linspace(0, 1, 4 * n + 1)
            f_inf = float(np.max(np.abs(problem.f(*np.meshgrid(mesh_pts, mesh_pts)))))
            report = check_equivalence(n, 4.0, problem=problem)
            assert report.rhs_diff <= 10.0 * (1.0 / n) ** 4 * f_inf


class TestFdConvergence:
    def test_fd1_rates(self):
        p = get_problem("fd1")
        errors = []
        for n in (16, 32, 64, 128):
            system = assemble_fd7(n, 4.0, p.f, p.g)
            sol = solve(system)
            errors.append(discrete_l2_error(sol, system.mesh, p.exact))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(rates - 2.0) <= 0.15)

    def test_fd2_values_n8(self):
        p = get_problem("fd2")
        system = assemble_fd7(8, 4.0, p.f, p.g)
        sol = solve(system)
        assert discrete_l2_error(sol, system.mesh, p.exact) == pytest.approx(
            3.47e-05, rel=0.05)
        assert discrete_h1_error(sol, system.mesh, p.exact_grad) == pytest.approx(
            4.10e-04, rel=0.05)
