import dataclasses
import gc
import math
import os
import pathlib
import re
import subprocess
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import swgfem.assembly
import swgfem.fd
import swgfem.mesh
import swgfem.solver
from swgfem.analysis import discrete_h1_error, discrete_l2_error, solve_problem
from swgfem.cli import main as cli_main
from swgfem.assembly import AssemblyConfig, Rows, SparseSystem, assemble, stored_numbering
from swgfem.errors import NonFiniteData, OutOfMemory, SingularMatrix
from swgfem.mesh import (
    DofMap,
    ND_LEAF_ELEMENTS,
    build_tensor_mesh,
    element_arrays,
    enumerate_dofs,
    factor_entries,
    nested_dissection,
    uniform_mesh,
)
from swgfem.problems import get_problem, make_custom, mesh_for
from swgfem.solver import (
    BYTES_PER_DOF,
    BYTES_PER_ENTRY,
    DIRECT_MEMORY_SHARE,
    SUPERLU_PANEL,
    SUPERLU_RELAX,
    Solution,
    SolveConfig,
    check_memory,
    solve,
)

from oracles import factor_entries_oracle, nested_dissection_oracle

GIB = 2**30
MIB = 2**20


def predicted_bytes(nx, ny):
    """The factor memory ``check_memory`` predicts for an nx x ny mesh."""
    dofs = (nx - 1) * ny + nx * (ny - 1)
    return BYTES_PER_ENTRY * factor_entries(nx, ny) + BYTES_PER_DOF * dofs


def assemble_tc1(n):
    problem = get_problem("tc1")
    return assemble(mesh_for(problem, n), problem, AssemblyConfig(kappa=4.0))


def assemble_fd5(n):
    problem = get_problem("fd2")
    return swgfem.fd.assemble_fd5(n, problem.f, problem.g)


def assemble_fd7(n):
    problem = get_problem("fd2")
    return swgfem.fd.assemble_fd7(n, 0.7, problem.f, problem.g)


def relative_residual(system, sol):
    """|b - Ax|_2 / |b|_2 over the interior dofs, in the natural order,
    summed by math.fsum (no BLAS)."""
    r = system.matrix @ sol.values[system.mesh.dof_map.interior] - system.rhs
    return math.sqrt(math.fsum(r * r) / math.fsum(system.rhs * system.rhs))


def identity_system(rhs):
    mesh = uniform_mesh(2)
    dm = enumerate_dofs(mesh)
    assert dm.interior.size == rhs.size
    # the diagonal in slot 0; the other slots in the boundary column
    values = np.zeros((rhs.size, 7))
    values[:, 0] = 1.0
    columns = np.full((rhs.size, 7), rhs.size, dtype=np.int32)
    columns[:, 0] = np.arange(rhs.size)
    return SparseSystem(Rows(values, columns), rhs, np.zeros(dm.boundary.size), mesh)


class TestSolve:
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0, 0.5])
        system = identity_system(rhs)
        sol = solve(system)
        np.testing.assert_allclose(sol.values[system.mesh.dof_map.interior], rhs)
        assert sol.iterations == 0
        assert relative_residual(system, sol) <= 1e-14

    def test_solution_holds_only_values(self):
        assert [f.name for f in dataclasses.fields(Solution)] == ["values"]
        _, _, sol = solve_problem(get_problem("tc2"), 4, 4.0)
        assert sol.iterations == 0

    def test_single_cell_returns_boundary_values(self):
        problem = make_custom(f=-1.0, g=2.5)
        system = assemble(uniform_mesh(1), problem, AssemblyConfig(kappa=1.0))
        sol = solve(system)
        np.testing.assert_allclose(sol.values, 2.5)

    def test_quadratic_reproduced_to_machine_precision(self):
        # kappa = 4 reproduces the midpoint samples of u = x^2 + 2xy
        problem = get_problem("tc1")
        mesh, system, sol = solve_problem(problem, 8, 4.0)
        dm = enumerate_dofs(mesh)
        exact_mid = problem.exact(dm.midpoints[:, 0], dm.midpoints[:, 1])
        assert relative_residual(system, sol) <= 1e-12
        assert np.max(np.abs(sol.values - exact_mid)) <= 1e-12

    # the "eliminate" in the case ids names the Dirichlet treatment assembled
    @pytest.mark.parametrize("n", [4, 8, 16], ids=lambda n: f"{n}-eliminate")
    @pytest.mark.parametrize("pid", ["tc1", "tc2", "tc3", "fd1", "fd2"])
    def test_matches_dense_solve(self, pid, n):
        # up to 1,984 dofs (tc3 at n = 16); measured at most 5.4e-15
        problem = get_problem(pid)
        system = assemble(mesh_for(problem, n), problem, AssemblyConfig(kappa=4.0))
        sol = solve(system)
        dense = np.linalg.solve(system.matrix.toarray(), system.rhs)
        sparse = sol.values[system.mesh.dof_map.interior]
        assert np.max(np.abs(sparse - dense)) <= 1e-12 * np.max(np.abs(dense))
        np.testing.assert_array_equal(sol.values[system.mesh.dof_map.boundary],
                                      system.boundary_values)

    def test_posthoc_residual_contract(self):
        problem = get_problem("tc3")
        _, system, sol = solve_problem(problem, 8, 0.7)
        r = system.matrix @ sol.values[system.mesh.dof_map.interior] - system.rhs
        assert np.linalg.norm(r) / np.linalg.norm(system.rhs) <= 10 * 1e-12

    @pytest.mark.parametrize("pid", ["fd1", "tc1", "tc2"],
                             ids=["transform", "decomposition", "factor"])
    def test_residual_norms_run_without_blas(self, monkeypatch, pid):
        # numpy.linalg.norm takes BLAS ddot, whose worker thread spins on after
        # the call above about 10,000 entries and slows the next factorization;
        # the backward-error check of solve must take neither it nor ddot
        problem = get_problem(pid)
        system = assemble(mesh_for(problem, 72), problem, AssemblyConfig(kappa=4.0))
        assert system.matrix.shape[0] >= 10_001
        assert (system.block is not None) == (pid != "tc2")

        def refuse(*args, **kwargs):
            raise AssertionError("a BLAS norm or dot product called")

        monkeypatch.setattr(np.linalg, "norm", refuse)
        for name in ("dot", "vdot", "inner"):
            monkeypatch.setattr(np, name, refuse)
        sol = solve(system)
        assert relative_residual(system, sol) <= 1e-12

    def test_direct_judged_by_backward_error(self):
        # the relative residual (1.3e-13 by sine transforms, 5.3e-14
        # factored) is above a 1e-14 bar, but the normwise backward error is
        # a few eps, so the solve is accepted
        _, system, sol = solve_problem(get_problem("fd1"), 32, 4.0)
        assert relative_residual(system, sol) > 1e-14

    def test_singular_matrix(self):
        mesh = uniform_mesh(2)
        dm = enumerate_dofs(mesh)
        # every slot in the boundary column: A stores no entry
        rows = Rows(np.zeros((4, 7)), np.full((4, 7), 4, dtype=np.int32))
        system = SparseSystem(rows, np.ones(4), np.zeros(dm.boundary.size), mesh)
        with pytest.raises(SingularMatrix):
            solve(system)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SolveConfig(method="magic")
        with pytest.raises(ValueError):
            SolveConfig(method="iterative")

    def test_direct_factors_in_nested_dissection_order(self, monkeypatch):
        calls = []
        splu = spla.splu

        def spy(matrix, **kwargs):
            calls.append((matrix, kwargs))
            return splu(matrix, **kwargs)

        monkeypatch.setattr(spla, "splu", spy)
        _, system, _ = solve_problem(get_problem("tc2"), 8, 4.0)
        [(factored, kwargs)] = calls
        assert kwargs == {"permc_spec": "NATURAL", "relax": SUPERLU_RELAX,
                          "panel_size": SUPERLU_PANEL}
        assert factored is system.ordered  # as stored, no copy
        perm = system.order
        dm = system.mesh.dof_map
        np.testing.assert_array_equal(perm, np.searchsorted(dm.interior, nested_dissection(dm)))
        assert (factored != system.matrix[perm][:, perm]).nnz == 0

    @pytest.mark.parametrize("build, n", [
        *((assemble_tc1, n) for n in (1, 2, 5, 16, 40)),
        *((build, n) for build in (assemble_fd5, assemble_fd7) for n in (2, 16)),
    ], ids=["1", "2", "5", "16", "40", "fd5-2", "fd5-16", "fd7-2", "fd7-16"])
    def test_permuted_copy_matches_two_step_permute(self, build, n):
        """The stored matrix is the two-step permute of the natural-order one,
        byte for byte with dtypes, as assembled straight into stored order."""
        system = build(n)
        order = system.order
        want = system.matrix[order][:, order].tocsc()
        got = system.ordered
        for a, b in zip((got.data, got.indices, got.indptr),
                        (want.data, want.indices, want.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_supernode_relaxation_fits_the_panel(self):
        # a relaxed supernode wider than a panel has corrupted SuperLU's heap
        assert 1 <= SUPERLU_RELAX <= SUPERLU_PANEL

    def test_auto_refuses_before_ordering_or_factoring(self, monkeypatch):
        # a system is ordered only by a solve that factors or refines it, and
        # the memory check comes before the order
        orders = []
        ordering = swgfem.assembly.nested_dissection

        def spy(dof_map):
            orders.append(dof_map)
            return ordering(dof_map)

        def no_lu(*args, **kwargs):
            raise AssertionError("factored a system past its budget")

        monkeypatch.setattr(swgfem.assembly, "nested_dissection", spy)
        problem = get_problem("tc2")
        system = assemble(mesh_for(problem, 8), problem, AssemblyConfig(kappa=4.0))
        assert orders == []
        monkeypatch.setattr(swgfem.solver, "DIRECT_MEMORY_SHARE", 1e-12)
        monkeypatch.setattr(spla, "splu", no_lu)
        with pytest.raises(OutOfMemory) as exc:
            solve(system)
        assert exc.value.dofs == system.matrix.shape[0]
        assert exc.value.predicted_bytes > exc.value.budget_bytes
        assert orders == []

    def test_auto_solves_by_transform_past_the_factor_budget(self, monkeypatch, factor_calls):
        # a transform solve factors nothing, so the memory check does not apply
        monkeypatch.setattr(swgfem.solver, "DIRECT_MEMORY_SHARE", 1e-12)
        _, system, sol = solve_problem(get_problem("fd1"), 8, 4.0)
        assert system.block is not None and factor_calls == []
        assert relative_residual(system, sol) <= 1e-12

    def test_auto_solves_by_decomposition_past_the_factor_budget(self, monkeypatch,
                                                                 factor_calls):
        # nor does a solve by the Schur decomposition
        monkeypatch.setattr(swgfem.solver, "DIRECT_MEMORY_SHARE", 1e-12)
        _, system, sol = solve_problem(get_problem("tc1"), 8, 4.0)
        assert system.block is not None and factor_calls == []
        assert relative_residual(system, sol) <= 1e-12

    def test_releases_free_heap_before_large_factorizations(self, monkeypatch):
        trims = []
        monkeypatch.setattr(swgfem.solver, "_malloc_trim", trims.append)
        solve_problem(get_problem("tc2"), 8, 4.0)
        assert trims == []
        monkeypatch.setattr(swgfem.solver, "TRIM_MIN_DOFS", 1)
        solve_problem(get_problem("tc2"), 8, 4.0)
        assert trims == [0]

    @pytest.mark.parametrize("kwargs", [
        {"f": math.nan}, {"g": math.nan}, {"alpha0": math.nan},
        {"c": math.inf}, {"beta": (math.nan, 0.0)},
    ])
    def test_non_finite_data_fails_at_assembly(self, kwargs):
        with pytest.raises(NonFiniteData):
            solve_problem(make_custom(**kwargs), 8, 4.0)


def stored_solution(system, sol):
    """The interior values of ``sol`` in the stored order of ``system``."""
    return sol.values[system.mesh.dof_map.interior[system.order]]


def stored_backward_error(system, sol):
    return swgfem.solver._backward_error(system.ordered, system.rhs[system.order],
                                         stored_solution(system, sol))


def factored(system):
    """``system`` without its element block, which the solver factors."""
    return dataclasses.replace(system, block=None)


@pytest.fixture
def factor_calls(monkeypatch):
    """The matrices ``splu`` factors while a test runs."""
    calls = []
    splu = spla.splu

    def spy(matrix, **kwargs):
        calls.append(matrix)
        return splu(matrix, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return calls


TRANSFORM_PROBLEMS = {
    "fd1": get_problem("fd1"),
    "fd2": get_problem("fd2"),
    "tc3": get_problem("tc3"),
    "custom-c0": make_custom(alpha0=1.5, f=-1.0, g=0.5),
    "custom-c5": make_custom(alpha0=1.5, c=5.0, f=-1.0, g=0.5),
}


class TestTransformSolve:
    """Sine-transform solves against factorizations of the same stored system."""

    @staticmethod
    def check_paths(system, factor_calls, dense):
        assert system.block is not None
        sol = solve(system)
        assert factor_calls == []
        reference = solve(factored(system))
        assert len(factor_calls) == 1
        values = sol.values
        scale = np.abs(reference.values).max()
        assert np.abs(values - reference.values).max() <= 1e-12 * scale
        np.testing.assert_array_equal(values[system.mesh.dof_map.boundary],
                                      system.boundary_values)
        for each in (sol, reference):
            assert stored_backward_error(system, each) <= swgfem.solver.DIRECT_BACKWARD_TOL
        if dense:
            rhs = system.rhs[system.order]
            dense = np.linalg.solve(system.ordered.toarray(), rhs)
            assert (np.abs(stored_solution(system, sol) - dense).max()
                    <= 1e-12 * np.abs(dense).max())

    @pytest.mark.parametrize("kappa", [0.7, 4.0, 20.0])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 64])
    @pytest.mark.parametrize("pid", TRANSFORM_PROBLEMS)
    def test_matches_factorization(self, pid, n, kappa, factor_calls):
        problem = TRANSFORM_PROBLEMS[pid]
        system = assemble(mesh_for(problem, n), problem, AssemblyConfig(kappa=kappa))
        self.check_paths(system, factor_calls, dense=n <= 6)

    @pytest.mark.parametrize("scheme", ["fd5", "fd7-0.7", "fd7-4", "fd7-20"])
    @pytest.mark.parametrize("n", [2, 3, 5, 64])
    def test_stencils_match_factorization(self, scheme, n, factor_calls):
        problem = get_problem("fd2")
        if scheme == "fd5":
            system = swgfem.fd.assemble_fd5(n, problem.f, problem.g)
        else:
            system = swgfem.fd.assemble_fd7(n, float(scheme[4:]), problem.f, problem.g)
        self.check_paths(system, factor_calls, dense=n <= 6)

    @settings(max_examples=30)
    @given(nx=st.integers(1, 9), ny=st.integers(1, 9), width=st.sampled_from([1.0, 2.0, 0.35]),
           c=st.sampled_from([0.0, 3.0]))
    def test_rectangles_of_any_shape(self, nx, ny, width, c):
        # elements of aspect up to 9 x 2, and one-element rows and columns
        assume(nx * ny > 1)  # one element has no interior dof
        mesh = build_tensor_mesh(np.linspace(0.0, width, nx + 1), np.linspace(0.0, 1.0, ny + 1))
        system = assemble(mesh, make_custom(alpha0=0.8, c=c, f=-1.0, g=0.25),
                          AssemblyConfig(kappa=2.0))
        assert system.block is not None
        y = swgfem.solver._transform_solve(system, system.rhs)[system.order]
        assert (swgfem.solver._backward_error(system.ordered, system.rhs[system.order], y)
                <= swgfem.solver.DIRECT_BACKWARD_TOL)
        sol = solve(system)
        reference = solve(factored(system))
        scale = max(np.abs(reference.values).max(), 1.0)
        assert np.abs(sol.values - reference.values).max() <= 1e-12 * scale

    @staticmethod
    def off_block(offset):
        """fd2 at n = 8 with its block's diagonal ``offset`` off the stored
        blocks, the backward error of its first transform solve and the
        system itself."""
        problem = get_problem("fd2")
        system = assemble(mesh_for(problem, 8), problem, AssemblyConfig(kappa=4.0))
        block = system.block * np.where(np.eye(4), 1 + offset, 1.0)
        off = dataclasses.replace(system, block=block)
        y = swgfem.solver._transform_solve(off, off.rhs)[system.order]
        rhs = system.rhs[system.order]
        return off, swgfem.solver._backward_error(system.ordered, rhs, y), system

    def test_missed_tolerance_is_refined_once(self, factor_calls):
        # a block 1e-12 off misses the tolerance; one step of refinement
        # against the stored matrix meets it, and nothing is factored
        off, first, system = self.off_block(1e-12)
        assert first > swgfem.solver.DIRECT_BACKWARD_TOL
        sol = solve(off)
        assert factor_calls == []
        assert stored_backward_error(system, sol) <= swgfem.solver.DIRECT_BACKWARD_TOL
        reference = solve(factored(system)).values
        assert np.abs(sol.values - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_missed_tolerance_falls_back_to_the_factor(self, factor_calls):
        # a block 1e-3 off leaves a backward error far past the tolerance, and
        # past it still after the refinement step; the solve factors instead,
        # with the factor's bits
        off, first, system = self.off_block(1e-3)
        assert first > swgfem.solver.DIRECT_BACKWARD_TOL
        sol = solve(off)
        assert len(factor_calls) == 1
        np.testing.assert_array_equal(sol.values, solve(factored(system)).values)


def random_breaks(rng, count, spread=0.6):
    """count cells of widths drawn in [1, 1 + spread], scaled onto [0, 1]."""
    widths = rng.uniform(1.0, 1.0 + spread, count)
    breaks = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    breaks[-1] = 1.0
    return breaks


def nearly_uniform_breaks(n):
    """Breaks of ``uniform_mesh(n)`` with one interior break moved by 1e-13."""
    breaks = np.linspace(0.0, 1.0, n + 1)
    breaks[n // 2] += 1e-13
    return breaks


class TestPathSelection:
    """Which systems store an element block, seen by whether ``splu`` runs."""

    @pytest.mark.parametrize("case", ["tc2", "random-breaks", "breaks-1e-13", "y-breaks-1e-13"])
    def test_factored(self, case, factor_calls):
        rng = np.random.default_rng(23)
        uniform = np.linspace(0.0, 1.0, 13)
        problem, x_breaks, y_breaks = {
            "tc2": (get_problem("tc2"), uniform, uniform),
            "random-breaks": (get_problem("fd2"), random_breaks(rng, 12), random_breaks(rng, 9)),
            "breaks-1e-13": (get_problem("fd2"), nearly_uniform_breaks(12), uniform),
            "y-breaks-1e-13": (make_custom(c=2.0, f=-1.0), uniform, nearly_uniform_breaks(12)),
        }[case]
        mesh = build_tensor_mesh(x_breaks, y_breaks)
        system = assemble(mesh, problem, AssemblyConfig(kappa=2.0))
        assert system.block is None
        solve(system)
        assert len(factor_calls) == 1

    @pytest.mark.parametrize("case", ["tc1", "custom-beta", "rectangle", "offset", "n2",
                                      "one-column", "one-row"])
    def test_decomposed(self, case, factor_calls):
        # a block changed by swapping left with right is decomposed, not
        # transformed, and factored by no shape or offset of the mesh
        uniform = np.linspace(0.0, 1.0, 13)
        beta = make_custom(beta=(0.3, 0.0), c=1.0, f=-1.0)
        problem, x_breaks, y_breaks = {
            "tc1": (get_problem("tc1"), uniform, uniform),
            "custom-beta": (beta, uniform, uniform),
            "rectangle": (make_custom(beta=(-1.0, 2.0), f=1.0, g=0.5),
                          np.linspace(0.0, 2.0, 17), np.linspace(0.0, 0.5, 6)),
            "offset": (beta, np.linspace(1e3, 1e3 + 1.0, 13), uniform),
            "n2": (get_problem("tc1"), np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 3)),
            "one-column": (beta, np.linspace(0.0, 1.0, 2), uniform),
            "one-row": (beta, uniform, np.linspace(0.0, 1.0, 2)),
        }[case]
        mesh = build_tensor_mesh(x_breaks, y_breaks)
        system = assemble(mesh, problem, AssemblyConfig(kappa=2.0))
        block = system.block
        assert not np.array_equal(block, block[[1, 0, 3, 2]][:, [1, 0, 3, 2]])
        sol = solve(system)
        assert factor_calls == []
        assert stored_backward_error(system, sol) <= swgfem.solver.DIRECT_BACKWARD_TOL

    @pytest.mark.parametrize("n", [2, 7, 16, 33])
    @pytest.mark.parametrize("case", ["fd1", "fd2", "tc3", "fd5", "fd7"])
    def test_transformed(self, case, n, factor_calls):
        problem = get_problem("fd2" if case in ("fd5", "fd7") else case)
        if case == "fd5":
            system = swgfem.fd.assemble_fd5(n, problem.f, problem.g)
        elif case == "fd7":
            system = swgfem.fd.assemble_fd7(n, 0.7, problem.f, problem.g)
        else:
            system = assemble(mesh_for(problem, n), problem, AssemblyConfig(kappa=4.0))
        assert system.block is not None
        solve(system)
        assert factor_calls == []

    def test_stencil_block_is_the_element_block(self):
        # the weak Galerkin and 7-point systems of fd2 are one matrix, so
        # their blocks are one block
        problem = get_problem("fd2")
        for n, kappa in ((4, 0.7), (9, 4.0), (16, 20.0)):
            swg = assemble(uniform_mesh(n), problem, AssemblyConfig(kappa=kappa))
            fd = swgfem.fd.assemble_fd7(n, kappa, problem.f, problem.g)
            np.testing.assert_allclose(swg.block, fd.block, rtol=1e-15, atol=1e-15)


def ulps_route(block):
    """Whether ``block`` took the sine transforms under the rule the exact
    symmetry test replaced: within 4 ulps of its largest entry of both its
    transpose and its mirror image (left <-> right, bottom <-> top)."""
    ulps = 4 * math.ulp(np.abs(block).max())
    mirror = [1, 0, 3, 2]
    return all(np.abs(block - other).max() <= ulps
               for other in (block.T, block[mirror][:, mirror]))


#: A constant beta component: 0, or a magnitude in [0.1, 3] of either sign.
BETA_COMPONENT = st.just(0.0) | st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)


class TestRouteBySymmetry:
    """A block goes to the sine transforms exactly when it equals its
    transpose bit for bit, which it does exactly when beta = 0."""

    @settings(max_examples=300)
    @given(x0=st.sampled_from([0.0, 0.1, -7.3, 1e3, 1e6]),
           y0=st.sampled_from([0.0, 0.1, -7.3, 1e3, 1e6]),
           sides=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
           nx=st.integers(2, 29), ny=st.integers(2, 29),
           c=st.just(0.0) | st.floats(0.1, 20.0), kappa=st.floats(0.3, 8.0),
           beta=st.just((0.0, 0.0)) | st.tuples(BETA_COMPONENT, BETA_COMPONENT).filter(any),
           scale=st.sampled_from([1.0, 1e-6, 1e-12]))
    def test_symmetric_exactly_when_beta_is_zero(self, x0, y0, sides, nx, ny, c, kappa,
                                                 beta, scale):
        mesh = build_tensor_mesh(np.linspace(x0, x0 + sides[0], nx + 1),
                                 np.linspace(y0, y0 + sides[1], ny + 1))
        problem = make_custom(beta=(scale * beta[0], scale * beta[1]), c=c, f=-1.0)
        system = assemble(mesh, problem, AssemblyConfig(kappa=kappa))
        block = system.block
        assert block is not None
        symmetric = np.array_equal(block, block.T)
        assert symmetric == (beta == (0.0, 0.0))
        _, decomposed = swgfem.solver._structured_solver(system)
        assert decomposed != symmetric
        # the ulps rule took every symmetric block to the transforms too; it
        # also took a block within 4 ulps of symmetric, the one case where the
        # routes part (test_block_within_ulps_of_symmetric_is_decomposed)
        assert ulps_route(block) or not symmetric

    @pytest.mark.parametrize("pid", ["fd1", "fd2", "tc3"])
    def test_transformed_problems_have_symmetric_blocks(self, pid):
        # a change to the order of a sum that breaks B = B^T sends these
        # problems to the Schur route, and fails here
        problem = get_problem(pid)
        for n in range(2, 65):
            kappa = (0.7, 4.0, 20.0)[n % 3]
            block = assemble(mesh_for(problem, n), problem, AssemblyConfig(kappa=kappa)).block
            assert np.array_equal(block, block.T), (n, kappa)

    def test_stencil_blocks_are_symmetric(self):
        problem = get_problem("fd2")
        for n in range(2, 65):
            kappa = (0.7, 4.0, 20.0)[n % 3]
            for system in (swgfem.fd.assemble_fd5(n, problem.f, problem.g),
                           swgfem.fd.assemble_fd7(n, kappa, problem.f, problem.g)):
                assert np.array_equal(system.block, system.block.T), (n, kappa)

    def test_block_within_ulps_of_symmetric_is_decomposed(self, factor_calls):
        # beta = (1.25e-13, 0) on elements of aspect 16.5 leaves B 1.5 ulps off
        # its transpose: the ulps rule took it to the sine transforms, and the
        # exact test decomposes it, with no factor and within the tolerance
        mesh = build_tensor_mesh(np.linspace(0.0, 3.0, 3), np.linspace(0.0, 1.0, 12))
        problem = make_custom(beta=(1.25e-13, 0.0), f=-1.0)
        system = assemble(mesh, problem, AssemblyConfig(kappa=1.0))
        block = system.block
        assert not np.array_equal(block, block.T) and ulps_route(block)
        assert swgfem.solver._structured_solver(system)[1]  # the Schur route
        sol = solve(system)
        assert factor_calls == []
        assert stored_backward_error(system, sol) <= swgfem.solver.DIRECT_BACKWARD_TOL


class TestDecompositionSolve:
    """Solves by one Schur decomposition along x, of systems whose one element
    block changes when left and right are swapped (constant beta != 0)."""

    @settings(max_examples=60)
    @given(nx=st.integers(2, 64), ny=st.integers(2, 64), alpha0=st.floats(0.2, 2.0),
           beta=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), c=st.floats(0.0, 10.0),
           kappa=st.floats(0.3, 8.0))
    def test_matches_factorization(self, nx, ny, alpha0, beta, c, kappa):
        mesh = build_tensor_mesh(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
        problem = make_custom(alpha0=alpha0, beta=beta, c=c, f=-1.0, g=0.5)
        system = assemble(mesh, problem, AssemblyConfig(kappa=kappa))
        with mock.patch.object(spla, "splu", wraps=spla.splu) as spy:
            sol = solve(system)
        assert spy.call_count == 0
        assert stored_backward_error(system, sol) <= swgfem.solver.DIRECT_BACKWARD_TOL
        reference = spla.splu(system.ordered).solve(system.rhs[system.order])
        assert (np.abs(stored_solution(system, sol) - reference).max()
                <= 1e-12 * np.abs(reference).max())

    def test_missed_tolerance_falls_back_to_the_factor(self, factor_calls):
        # a block whose diagonal is 1e-3 off leaves a backward error far past
        # the tolerance, and past it still after the refinement step; the
        # solve factors instead, with the factor's bits
        system = assemble_tc1(8)
        off = dataclasses.replace(system, block=system.block * np.where(np.eye(4), 1.001, 1.0))
        y = swgfem.solver._decomposition_solver(off)(off.rhs)[system.order]
        rhs = system.rhs[system.order]
        assert swgfem.solver._backward_error(system.ordered, rhs, y) > 1e6 * np.finfo(float).eps
        sol = solve(off)
        assert len(factor_calls) == 1
        np.testing.assert_array_equal(sol.values, solve(factored(system)).values)

    def test_quadratic_exact_at_n_256(self, factor_calls):
        # tc1 at kappa = 4 reproduces its quadratic: measured 4.4e-15 (l2)
        # and 7.9e-14 (h1), against 1.3e-11 and 5.7e-11 before the
        # refinement step every Schur solve takes
        problem = get_problem("tc1")
        mesh, _, sol = solve_problem(problem, 256, 4.0)
        assert factor_calls == []
        assert discrete_l2_error(sol, mesh, problem.exact) <= 1e-11
        assert discrete_h1_error(sol, mesh, problem.exact_grad) <= 1e-11


def test_import_leaves_scipy_fft_unloaded():
    # the transforms run through numpy.fft; scipy.fft would add about 0.1 s
    # and 5 MB to every process that imports swgfem
    src = pathlib.Path(swgfem.solver.__file__).parents[1]
    code = "import sys, swgfem; print('scipy.fft' in sys.modules, 'numpy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.split() == ["False", "True"]


@pytest.fixture
def pools():
    """The OpenBLAS pools the solver located, each set to 2 threads, a count
    the scope's 1 cannot be mistaken for, and given back its own afterwards."""
    located = swgfem.solver._blas_pools()
    counts = [get() for get, _ in located]
    for _, put in located:
        put(2)
    yield located
    for (_, put), count in zip(located, counts):
        put(count)


def thread_counts(pools):
    return [get() for get, _ in pools]


class TestOneBlasThread:
    """The Schur route runs every OpenBLAS pool on one thread, so its bytes do
    not depend on the thread count and no worker spins on after it; no other
    route touches the counts."""

    def test_output_bytes_do_not_depend_on_blas_threads(self):
        # unscoped, the route gave L2 errors 5.859589696416634e-13 on one
        # thread and 5.758423800566053e-13 on two here
        src = pathlib.Path(swgfem.solver.__file__).parents[1]
        code = ("import hashlib; from swgfem.analysis import solve_problem; "
                "from swgfem.problems import get_problem; "
                "sol = solve_problem(get_problem('tc1'), 260, 4.0)[2]; "
                "print(hashlib.sha256(sol.values.tobytes()).hexdigest())")
        digests = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  check=True, env={**os.environ, "PYTHONPATH": str(src),
                                                   "OPENBLAS_NUM_THREADS": threads}).stdout
                   for threads in ("1", "2")]
        assert digests[0] == digests[1] != ""

    def test_schur_route_runs_on_one_thread(self, monkeypatch, pools, factor_calls):
        seen = {"schur": [], "tridiagonal": []}
        schur, tridiagonal = scipy.linalg.schur, swgfem.solver._tridiagonal_solve

        def spy_schur(*args, **kwargs):
            seen["schur"].append(thread_counts(pools))
            return schur(*args, **kwargs)

        def spy_tridiagonal(*args):
            seen["tridiagonal"].append(thread_counts(pools))
            return tridiagonal(*args)

        monkeypatch.setattr(scipy.linalg, "schur", spy_schur)
        monkeypatch.setattr(swgfem.solver, "_tridiagonal_solve", spy_tridiagonal)
        solve(assemble_tc1(16))
        assert factor_calls == []
        assert seen["schur"] == [[1] * len(pools)]
        # vertical(kx), then in the solve and its refinement two vertical
        # solves and one per column each
        assert seen["tridiagonal"] == [[1] * len(pools)] * (1 + 2 * (2 + 16))
        assert thread_counts(pools) == [2] * len(pools)

    def test_counts_restored_when_schur_raises(self, monkeypatch, pools, factor_calls):
        def fail(*args, **kwargs):
            assert thread_counts(pools) == [1] * len(pools)
            raise np.linalg.LinAlgError("schur failed")

        monkeypatch.setattr(scipy.linalg, "schur", fail)
        system = assemble_tc1(8)
        sol = solve(system)
        assert len(factor_calls) == 1
        np.testing.assert_array_equal(sol.values, solve(factored(system)).values)
        assert thread_counts(pools) == [2] * len(pools)

    @pytest.mark.parametrize("route", ["transform", "factor"])
    def test_other_routes_set_no_count(self, monkeypatch, route, factor_calls):
        # a recording pool beside the located ones, so this holds where none is found
        sets = []
        recording = tuple((get, lambda n, put=put: (sets.append(n), put(n)))
                          for get, put in swgfem.solver._blas_pools())
        monkeypatch.setattr(swgfem.solver, "_blas_pools",
                            lambda: recording + ((lambda: 2, sets.append),))
        pid = {"transform": "fd1", "factor": "tc2"}[route]
        solve_problem(get_problem(pid), 16, 4.0)
        assert len(factor_calls) == (route == "factor")
        assert sets == []
        solve(assemble_tc1(8))
        counts = thread_counts(recording) + [2]
        assert sets == ([1] * len(counts) + counts) * 3  # set-up, solve, refinement


@pytest.mark.parametrize("pid", ["tc1", "tc2", "tc3", "fd1", "fd2"],
                         ids=lambda pid: f"eliminate-{pid}")
def test_inf_norm_is_largest_row_sum(pid):
    """The backward-error scale is the largest absolute row sum of the stored
    matrix, each row summed from 0 in storage order (columns ascending), and
    agrees with scipy's infinity norm of the natural-order matrix to round-off."""
    problem = get_problem(pid)
    for n in (2, 3, 12, 40):
        system = assemble(mesh_for(problem, n), problem, AssemblyConfig(kappa=4.0))
        assert np.all(np.diff(system.matrix.indptr) > 0)
        ordered = system.ordered
        sums = [0.0] * ordered.shape[0]
        for row, value in zip(ordered.indices.tolist(), ordered.data.tolist()):
            sums[row] += abs(value)
        assert swgfem.solver._inf_norm(ordered) == max(sums)
        assert max(sums) == pytest.approx(spla.norm(system.matrix, np.inf), rel=4e-16)


class TestResidency:
    def test_solve_builds_no_natural_matrix(self):
        problem = get_problem("tc2")
        system = assemble(mesh_for(problem, 16), problem, AssemblyConfig(kappa=4.0))
        solve(system)
        assert "matrix" not in vars(system)
        # the dof map keeps exactly the attributes its docstring lists
        stored = DofMap.__doc__.split("The map stores", 1)[1].split(", and not", 1)[0]
        assert set(vars(system.mesh.dof_map)) == set(re.findall(r"``(\w+)``", stored))
        assert system.matrix is system.matrix  # derived on first access, then kept

    def test_solved_triple_freed_by_reference_counting(self):
        gc.collect()
        gc.disable()
        try:
            mesh, system, sol = solve_problem(get_problem("fd1"), 8, 4.0)
            assert system.matrix.shape == system.ordered.shape
            alive = weakref.ref(mesh)
            del mesh, system, sol
            assert alive() is None
        finally:
            gc.enable()


@pytest.fixture
def derivations(monkeypatch):
    """The calls of ``nested_dissection`` and scipy's ``csr_tocsc`` while a test runs."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def called(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, called)

    for module in (swgfem.mesh, swgfem.assembly):
        spy(module, "nested_dissection")
    spy(_sparsetools, "csr_tocsc")
    return calls


def off_diagonal_system():
    """fd2 at n = 8 whose block's diagonal is 1e-12 off the stored blocks, as
    in ``test_missed_tolerance_is_refined_once``, sharing the rows of fd2."""
    problem = get_problem("fd2")
    system = assemble(mesh_for(problem, 8), problem, AssemblyConfig(kappa=4.0))
    return dataclasses.replace(system, block=system.block * np.where(np.eye(4), 1 + 1e-12, 1.0))


def nonuniform_fd2():
    mesh = build_tensor_mesh([0.0, 0.1, 0.35, 0.4, 0.8, 1.0], [0.0, 0.3, 0.45, 0.9, 1.0])
    return assemble(mesh, get_problem("fd2"), AssemblyConfig(kappa=4.0))


class TestRouteCost:
    """A solve by sine transforms builds no nested-dissection order and no
    CSC; a solve that refines or factors derives both from the rows once."""

    @pytest.mark.parametrize("pid", ["fd1", "fd2", "tc3"])
    def test_transform_solve_derives_nothing(self, pid, derivations, factor_calls):
        _, system, _ = solve_problem(get_problem(pid), 16, 4.0)
        assert system.block is not None and factor_calls == []
        assert derivations == []

    @pytest.mark.parametrize("build", [assemble_fd5, assemble_fd7], ids=["fd5", "fd7"])
    def test_stencil_solve_derives_nothing(self, build, derivations):
        solve(build(16))
        assert derivations == []

    def test_dump_and_equiv_derive_nothing(self, derivations, tmp_path):
        dump = tmp_path / "matrix.txt"
        assert cli_main(["run", "--problem", "fd2", "--kappa", "4", "--ns", "8",
                         "--dump-matrix", str(dump)]) == 0
        assert cli_main(["equiv", "--n", "8", "--kappa", "4"]) == 0
        assert dump.stat().st_size and derivations == []

    @pytest.mark.parametrize("build", [
        lambda: assemble_tc1(16),  # refined after its Schur solve
        lambda: assemble(mesh_for(get_problem("tc2"), 16), get_problem("tc2"),
                         AssemblyConfig(kappa=4.0)),
        nonuniform_fd2,
        off_diagonal_system,  # refined after its transform solve
    ], ids=["tc1", "tc2", "fd2-nonuniform", "block-offset"])
    def test_refined_or_factored_solve_derives_once(self, build, derivations):
        system = build()
        assert derivations == []
        solve(system)
        assert derivations == ["nested_dissection", "csr_tocsc"]
        solve(system)
        assert system.ordered.shape == system.matrix.shape and system.order.size
        assert derivations == ["nested_dissection", "csr_tocsc"]


ND_MESHES = {
    "square": uniform_mesh(6),
    "wide": build_tensor_mesh(np.linspace(0.0, 2.0, 10), np.linspace(0.0, 1.0, 4)),
    "one column": build_tensor_mesh([0.0, 1.0], np.linspace(0.0, 1.0, 10)),
    "one row": build_tensor_mesh(np.linspace(0.0, 1.0, 12), [0.0, 0.5]),
    "one cell": uniform_mesh(1),
    "nonuniform": build_tensor_mesh([0.0, 0.1, 0.35, 0.4, 0.8, 1.0],
                                    [0.0, 0.3, 0.45, 0.9, 1.2, 1.3, 2.0]),
}


class TestNestedDissection:
    @pytest.mark.parametrize("name", ND_MESHES, ids=lambda name: f"{name}-eliminate")
    def test_permutation_of_free_dofs(self, name):
        system = assemble(ND_MESHES[name], make_custom(f=1.0), AssemblyConfig(kappa=4.0))
        np.testing.assert_array_equal(np.sort(system.order), np.arange(system.matrix.shape[0]))

    @settings(max_examples=40)
    @given(nx=st.integers(1, 14), ny=st.integers(1, 14))
    def test_top_split_separates_halves(self, nx, ny):
        mesh = build_tensor_mesh(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
        problem = make_custom(beta=(1.0, -0.5), c=1.0, f=1.0)
        system = assemble(mesh, problem, AssemblyConfig(kappa=4.0))
        dm = system.mesh.dof_map
        order = nested_dissection(dm)
        if nx * ny <= ND_LEAF_ELEMENTS:
            np.testing.assert_array_equal(order, dm.interior)
            return
        # the longer side (x on a tie) is split at its middle grid line;
        # vertical edge (i, j) has id j*(nx+1) + i, horizontal edge (i, j) nv + j*nx + i
        vertical = np.arange(dm.count) < dm.n_vertical
        k = np.arange(dm.count) - np.where(vertical, 0, dm.n_vertical)
        row = np.where(vertical, nx + 1, nx)
        if nx >= ny:
            line, pos, on_line = nx // 2, k % row, vertical
        else:
            line, pos, on_line = ny // 2, k // row, ~vertical
        separator = on_line & (pos == line)
        first = ~separator & (pos < line)
        second = ~separator & ~first
        # the order ranks the interior edges, each exactly once
        rank = np.full(dm.count, -1)
        rank[order] = np.arange(order.size)
        np.testing.assert_array_equal(rank >= 0, ~dm.is_boundary)
        first_in, second_in = first & ~dm.is_boundary, second & ~dm.is_boundary
        assert rank[first_in].max() < rank[second_in].min()
        assert rank[second_in].max() < rank[separator].min()
        # an equation couples only the edges of the elements beside its edge,
        # so no element holding edges of both halves means no coupling
        # between them, boundary dofs included
        conn = element_arrays(mesh)[4]
        assert not np.any(first[conn].any(axis=1) & second[conn].any(axis=1))
        free = [np.searchsorted(dm.interior, np.flatnonzero(half & ~dm.is_boundary))
                for half in (first, second)]
        coupling = system.matrix[free[0]][:, free[1]]
        assert not np.any(coupling.toarray())

    @settings(max_examples=40)
    @given(nx=st.integers(1, 24), ny=st.integers(1, 24))
    @example(nx=1, ny=40)
    @example(nx=40, ny=1)
    @example(nx=64, ny=64)
    @example(nx=100, ny=3)
    @example(nx=37, ny=129)
    def test_matches_recursive_oracle(self, nx, ny):
        # the oracle orders every edge; the order keeps its interior ones
        mesh = build_tensor_mesh(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
        dm = enumerate_dofs(mesh)
        expected = np.array(nested_dissection_oracle(nx, ny, ND_LEAF_ELEMENTS))
        np.testing.assert_array_equal(nested_dissection(dm), expected[~dm.is_boundary[expected]])

    def test_successive_calls_share_no_state(self):
        # the meshes share block shapes, at other row strides
        for nx, ny in ((24, 10), (48, 10), (24, 10)):
            mesh = build_tensor_mesh(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
            dm = enumerate_dofs(mesh)
            expected = np.array(nested_dissection_oracle(nx, ny, ND_LEAF_ELEMENTS))
            np.testing.assert_array_equal(nested_dissection(dm),
                                          expected[~dm.is_boundary[expected]])

    @settings(max_examples=40)
    @given(nx=st.integers(1, 40), ny=st.integers(1, 40))
    @example(nx=1, ny=1)
    @example(nx=1, ny=40)
    @example(nx=40, ny=1)
    @example(nx=1, ny=7)
    @example(nx=9, ny=1)
    def test_orders_each_interior_edge_once(self, nx, ny):
        mesh = build_tensor_mesh(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
        dm = enumerate_dofs(mesh)
        np.testing.assert_array_equal(np.sort(nested_dissection(dm)), dm.interior)

    def test_fill_below_mmd(self, monkeypatch):
        factors = []
        splu = spla.splu

        def keep(matrix, **kwargs):
            factors.append(splu(matrix, **kwargs))
            return factors[-1]

        monkeypatch.setattr(spla, "splu", keep)
        _, system, _ = solve_problem(get_problem("tc2"), 64, 20.0)
        mmd = splu(system.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        # measured 292,328 against 458,386 entries
        assert factors[0].nnz < mmd.nnz


class TestFactorEntries:
    """The count of the factor's entries against an elimination-tree count of
    the stored structure, and against what SuperLU stores."""

    @settings(max_examples=30)
    @given(nx=st.integers(1, 60), ny=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    @example(nx=1, ny=1, seed=0)
    @example(nx=1, ny=12, seed=0)
    @example(nx=12, ny=1, seed=0)
    @example(nx=100, ny=2, seed=0)
    @example(nx=2, ny=100, seed=0)
    def test_equals_elimination_tree_count(self, nx, ny, seed):
        rng = np.random.default_rng(seed)
        mesh = build_tensor_mesh(random_breaks(rng, nx), random_breaks(rng, ny))
        ordered = assemble(mesh, get_problem("tc2"), AssemblyConfig(kappa=4.0)).ordered
        pattern = ordered.copy()
        pattern.data[:] = 1.0
        assert (pattern != pattern.T).nnz == 0  # the oracle reads one triangle
        assert factor_entries(nx, ny) == factor_entries_oracle(ordered)

    @pytest.mark.parametrize("nx, ny", [(16, 16), (49, 6), (24, 50), (60, 60), (1024, 64)])
    def test_superlu_stores_a_few_percent_more(self, nx, ny):
        # lu.nnz / count read 1.024-1.056 on these shapes, 1.017-1.035 on
        # 256 x 256, 512 x 512 and 4096 x 16; relaxed supernodes pad the factor
        mesh = build_tensor_mesh(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
        system = assemble(mesh, get_problem("tc2"), AssemblyConfig(kappa=20.0))
        lu = spla.splu(system.ordered, permc_spec="NATURAL", relax=SUPERLU_RELAX,
                       panel_size=SUPERLU_PANEL)
        assert 1.0 <= lu.nnz / factor_entries(nx, ny) <= 1.07


class TestAutoRule:
    def test_just_above_old_dof_limit_goes_direct(self, monkeypatch):
        # tc1 at n = 260 and fd1 at n = 512 on an 8 GiB machine
        monkeypatch.setattr(swgfem.solver, "PHYSICAL_MEMORY_BYTES", 8 * GIB)
        check_memory(260, 260)
        check_memory(512, 512)

    def test_factor_beyond_memory_share_raises_out_of_memory(self, monkeypatch):
        monkeypatch.setattr(swgfem.solver, "PHYSICAL_MEMORY_BYTES", 8 * GIB)
        with pytest.raises(OutOfMemory) as exc:
            check_memory(2240, 2240)
        assert exc.value.dofs == 10_030_720
        assert exc.value.predicted_bytes == predicted_bytes(2240, 2240)
        assert exc.value.budget_bytes == DIRECT_MEMORY_SHARE * 8 * GIB
        assert exc.value.predicted_bytes > exc.value.budget_bytes
        assert isinstance(exc.value, MemoryError)

    def test_physical_memory_is_read_once(self, monkeypatch):
        # solve takes the size stored at import: shrinking it refuses the
        # solve before anything is factored, with no query of the machine
        def refuse(*args, **kwargs):
            raise AssertionError("factored or queried despite the stored memory size")

        system = factored(assemble_tc1(8))
        predicted = predicted_bytes(8, 8)
        memory = math.ceil(predicted / DIRECT_MEMORY_SHARE) - 1
        monkeypatch.setattr(swgfem.solver, "PHYSICAL_MEMORY_BYTES", memory)
        monkeypatch.setattr(spla, "splu", refuse)
        monkeypatch.setattr(swgfem.solver.os, "sysconf", refuse)
        with pytest.raises(OutOfMemory) as exc:
            solve(system)
        assert exc.value.budget_bytes == DIRECT_MEMORY_SHARE * memory
        monkeypatch.setattr(swgfem.solver, "PHYSICAL_MEMORY_BYTES", memory + 1)
        with pytest.raises(AssertionError, match="factored"):  # now it fits
            solve(system)

    def test_prediction_tracks_measured_fill(self):
        # the peak RSS of solve() over the RSS before it, in MiB: tc1 factored
        # in the process that assembled it, and, higher, the largest of three
        # runs in a process that holds only the tc2 system, loaded from disk
        for nx, ny, peak in ((256, 256, 56.0), (512, 512, 331.0),
                             (256, 256, 80.2), (512, 512, 359.2), (1024, 64, 70.2),
                             (4096, 16, 51.9), (16384, 4, 31.7)):
            assert peak <= predicted_bytes(nx, ny) / MIB <= 1.5 * peak, (nx, ny, peak)

    def test_prediction_bounds_the_peak_at_two_million_dofs(self):
        # 1024 x 1024 (2,095,104 dofs), measured alone as above in one run
        assert predicted_bytes(1024, 1024) >= 1591.2 * MIB

    def test_monotone_in_dofs(self, monkeypatch):
        # over square meshes, whose dofs grow with n
        monkeypatch.setattr(swgfem.solver, "PHYSICAL_MEMORY_BYTES", 8 * GIB)
        sides = np.unique(np.geomspace(1, 8000, 300).astype(int))
        sizes = [factor_entries(int(n), int(n)) for n in sides]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        refusals = []
        for n in sides:
            try:
                check_memory(int(n), int(n))
                refusals.append(None)
            except OutOfMemory as exc:
                refusals.append(exc)
        first = next(i for i, exc in enumerate(refusals) if exc is not None)
        assert 0 < first
        assert all(exc is None for exc in refusals[:first])
        assert all(exc is not None and exc.predicted_bytes > exc.budget_bytes
                   for exc in refusals[first:])
