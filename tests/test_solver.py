import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swgfem.assembly
import swgfem.fd
import swgfem.solver
from swgfem.analysis import solve_problem
from swgfem.assembly import AssemblyConfig, SparseSystem, assemble, stored_numbering
from swgfem.errors import NonFiniteData, OutOfMemory, SingularMatrix
from swgfem.mesh import (
    ND_LEAF_ELEMENTS,
    build_tensor_mesh,
    element_arrays,
    enumerate_dofs,
    nested_dissection,
    uniform_mesh,
)
from swgfem.problems import get_problem, make_custom, mesh_for
from swgfem.solver import (
    DIRECT_MEMORY_SHARE,
    SUPERLU_PANEL,
    SUPERLU_RELAX,
    SolveConfig,
    check_memory,
    predicted_factor_bytes,
    solve,
)

from oracles import nested_dissection_oracle

GIB = 2**30


def assemble_tc1(n):
    problem = get_problem("tc1")
    return assemble(mesh_for(problem, n), problem, AssemblyConfig(kappa=4.0))


def assemble_fd5(n):
    problem = get_problem("fd2")
    return swgfem.fd.assemble_fd5(n, problem.f, problem.g)


def assemble_fd7(n):
    problem = get_problem("fd2")
    return swgfem.fd.assemble_fd7(n, 0.7, problem.f, problem.g)


def identity_system(rhs):
    mesh = uniform_mesh(2)
    dm = enumerate_dofs(mesh)
    assert dm.interior.size == rhs.size
    order, _ = stored_numbering(dm)
    return SparseSystem(
        sp.identity(rhs.size, format="csc"), order, rhs, np.zeros(dm.boundary.size), mesh)


class TestSolve:
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0, 0.5])
        sol = solve(identity_system(rhs))
        np.testing.assert_allclose(sol.values[identity_system(rhs).mesh.dof_map.interior], rhs)
        assert sol.iterations == 0
        assert sol.residual_norm <= 1e-14

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
        assert sol.residual_norm <= 1e-12
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

    def test_residual_norms_run_without_blas(self, monkeypatch):
        # numpy.linalg.norm takes BLAS ddot, whose worker thread spins on after
        # the call above about 10,000 entries and slows the next factorization
        problem = get_problem("fd1")
        system = assemble(mesh_for(problem, 72), problem, AssemblyConfig(kappa=4.0))
        assert system.matrix.shape[0] >= 10_001

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.norm called")

        monkeypatch.setattr(np.linalg, "norm", refuse)
        sol = solve(system)
        r = system.matrix @ sol.values[system.mesh.dof_map.interior] - system.rhs
        expected = math.sqrt(math.fsum(r * r) / math.fsum(system.rhs * system.rhs))
        assert sol.residual_norm == pytest.approx(expected, rel=1e-12)

    def test_direct_judged_by_backward_error(self):
        # the relative residual (6.5e-14) is above a 1e-14 bar, but the
        # normwise backward error is a few eps, so the solve is accepted
        _, _, sol = solve_problem(get_problem("fd1"), 32, 4.0,
                                  solve_config=SolveConfig(method="direct"))
        assert sol.residual_norm > 1e-14

    def test_singular_matrix(self):
        mesh = uniform_mesh(2)
        dm = enumerate_dofs(mesh)
        order, _ = stored_numbering(dm)
        system = SparseSystem(
            sp.csc_matrix((4, 4)), order, np.ones(4), np.zeros(dm.boundary.size), mesh)
        with pytest.raises(SingularMatrix):
            solve(system, SolveConfig(method="direct"))

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
        _, system, _ = solve_problem(get_problem("tc2"), 8, 4.0,
                                     solve_config=SolveConfig(method="direct"))
        [(factored, kwargs)] = calls
        assert kwargs == {"permc_spec": "NATURAL", "relax": SUPERLU_RELAX,
                          "panel_size": SUPERLU_PANEL}
        assert factored is system.ordered  # as stored, no copy
        perm = system.order
        np.testing.assert_array_equal(
            perm, system.mesh.dof_map.free_index[nested_dissection(system.mesh.dof_map)])
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
        # the system is ordered once, at assembly; no solve orders it again
        orders = []
        ordering = swgfem.assembly.nested_dissection

        def spy(dof_map):
            orders.append(dof_map)
            return ordering(dof_map)

        def no_lu(*args, **kwargs):
            raise AssertionError("auto factored a system past its budget")

        monkeypatch.setattr(swgfem.assembly, "nested_dissection", spy)
        problem = get_problem("fd1")
        system = assemble(mesh_for(problem, 8), problem, AssemblyConfig(kappa=4.0))
        assert orders == [system.mesh.dof_map]
        monkeypatch.setattr(swgfem.solver, "DIRECT_MEMORY_SHARE", 1e-12)
        splu = spla.splu
        monkeypatch.setattr(spla, "splu", no_lu)
        with pytest.raises(OutOfMemory) as exc:
            solve(system, SolveConfig())
        assert exc.value.dofs == system.matrix.shape[0]
        assert exc.value.predicted_bytes > exc.value.budget_bytes
        assert orders == [system.mesh.dof_map]
        # "direct" skips the check and factors the same system
        monkeypatch.setattr(spla, "splu", splu)
        sol = solve(system, SolveConfig(method="direct"))
        assert orders == [system.mesh.dof_map]
        assert sol.residual_norm <= 1e-12

    def test_releases_free_heap_before_large_factorizations(self, monkeypatch):
        trims = []
        monkeypatch.setattr(swgfem.solver, "_malloc_trim", trims.append)
        direct = SolveConfig(method="direct")
        solve_problem(get_problem("tc2"), 8, 4.0, solve_config=direct)
        assert trims == []
        monkeypatch.setattr(swgfem.solver, "TRIM_MIN_DOFS", 1)
        solve_problem(get_problem("tc2"), 8, 4.0, solve_config=direct)
        assert trims == [0]

    @pytest.mark.parametrize("kwargs", [
        {"f": math.nan}, {"g": math.nan}, {"alpha0": math.nan},
        {"c": math.inf}, {"beta": (math.nan, 0.0)},
    ])
    def test_non_finite_data_fails_at_assembly(self, kwargs):
        with pytest.raises(NonFiniteData):
            solve_problem(make_custom(**kwargs), 8, 4.0)


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
        assert not {"grid_i", "grid_j", "is_vertical", "lengths"} & set(vars(system.mesh.dof_map))
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

    @settings(max_examples=40, deadline=None)
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
        # the longer side (x on a tie) is split at its middle grid line
        if nx >= ny:
            line, pos, on_line = nx // 2, dm.grid_i, dm.is_vertical
        else:
            line, pos, on_line = ny // 2, dm.grid_j, ~dm.is_vertical
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
        free, interior = dm.free_index, ~dm.is_boundary
        coupling = system.matrix[free[first & interior]][:, free[second & interior]]
        assert not np.any(coupling.toarray())

    @settings(max_examples=40, deadline=None)
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

    @settings(max_examples=40, deadline=None, derandomize=True)
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
        _, system, _ = solve_problem(get_problem("tc2"), 64, 20.0,
                                     solve_config=SolveConfig(method="direct"))
        mmd = splu(system.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        # measured 292,328 against 458,386 entries
        assert factors[0].nnz < mmd.nnz


class TestAutoRule:
    def test_just_above_old_dof_limit_goes_direct(self):
        # tc1 at n = 260 and fd1 at n = 512 on an 8 GiB machine
        check_memory(134_680, memory_bytes=8 * GIB)
        check_memory(523_264, memory_bytes=8 * GIB)

    def test_factor_beyond_memory_share_raises_out_of_memory(self):
        dofs = 10_000_000
        with pytest.raises(OutOfMemory) as exc:
            check_memory(dofs, memory_bytes=8 * GIB)
        assert exc.value.dofs == dofs
        assert exc.value.predicted_bytes == predicted_factor_bytes(dofs)
        assert exc.value.budget_bytes == DIRECT_MEMORY_SHARE * 8 * GIB
        assert exc.value.predicted_bytes > exc.value.budget_bytes
        assert isinstance(exc.value, MemoryError)

    def test_prediction_tracks_measured_fill(self):
        # peak RSS of solve() over the RSS before it, tc1 at n = 256 and 512:
        # 56 and 331 MiB
        assert 56 * 2**20 <= predicted_factor_bytes(130_560) <= 1.5 * 56 * 2**20
        assert 331 * 2**20 <= predicted_factor_bytes(523_264) <= 1.5 * 331 * 2**20

    def test_monotone_in_dofs(self):
        dofs = np.unique(np.geomspace(1, 1e8, 400).astype(int))
        sizes = [predicted_factor_bytes(int(n)) for n in dofs]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        refusals = []
        for n in dofs:
            try:
                check_memory(int(n), memory_bytes=8 * GIB)
                refusals.append(None)
            except OutOfMemory as exc:
                refusals.append(exc)
        first = next(i for i, exc in enumerate(refusals) if exc is not None)
        assert 0 < first
        assert all(exc is None for exc in refusals[:first])
        assert all(exc is not None and exc.predicted_bytes > exc.budget_bytes
                   for exc in refusals[first:])
