import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from swgfem.assembly import (
    QB_RULES,
    AssemblyConfig,
    assemble,
    boundary_averages,
    dump_matrix,
    edge_average,
)
from swgfem.errors import NonPositiveDiffusion, NonPositiveKappa
from swgfem.kernels import (
    convection_matrix,
    diffusion_matrix,
    load_vector,
    reaction_matrix,
    stabilizer_matrix,
)
from swgfem.mesh import build_tensor_mesh, element_geometry, enumerate_dofs, uniform_mesh
from swgfem.problems import PROBLEM_IDS, get_problem, make_custom, mesh_for

from oracles import dump_matrix_oracle, scatter_assemble


def reference_assemble(mesh, problem, kappa):
    """Element-by-element assembly through the scalar kernels (full system,
    no boundary treatment); oracle for the vectorized path."""
    dm = enumerate_dofs(mesh)
    A = np.zeros((dm.count, dm.count))
    rhs = np.zeros(dm.count)
    for i in range(mesh.nx):
        for j in range(mesh.ny):
            geom = element_geometry(mesh, i, j)
            cval = float(problem.c(geom.center[0], geom.center[1]))
            loc = (
                kappa * stabilizer_matrix(geom, mesh.h)
                + diffusion_matrix(geom, problem.alpha)
                + convection_matrix(geom, problem.beta)
                + reaction_matrix(geom, cval)
            )
            idx = np.array(geom.edges)
            A[np.ix_(idx, idx)] += loc
            rhs[idx] += load_vector(geom, problem.f)
    return A, rhs, dm


class TestEdgeAverage:
    def test_constant(self):
        dm = enumerate_dofs(uniform_mesh(2))
        edge = dm.edge(dm.boundary[0])
        g = lambda x, y: np.full_like(np.asarray(x, float), 4.5)
        assert edge_average(g, edge) == pytest.approx(4.5)
        assert edge_average(g, edge, rule="midpoint") == pytest.approx(4.5)

    def test_linear_gives_midpoint_value(self):
        dm = enumerate_dofs(uniform_mesh(4))
        edge = dm.edge(dm.vertical_id(0, 2))
        g = lambda x, y: 2.0 * np.asarray(y, float) - 1.0
        assert edge_average(g, edge) == pytest.approx(g(*edge.midpoint))

    def test_quadratic_simpson_exact(self):
        # x^2 on the bottom edge of the 1x1 mesh: average = 1/3
        dm = enumerate_dofs(uniform_mesh(1))
        edge = dm.edge(dm.horizontal_id(0, 0))
        g = lambda x, y: np.asarray(x, float) ** 2
        assert edge_average(g, edge, rule="simpson") == pytest.approx(1 / 3)
        assert edge_average(g, edge, rule="midpoint") == pytest.approx(1 / 4)

    def test_vectorized_matches_scalar(self):
        mesh = mesh_for(get_problem("fd2"), 4)
        dm = enumerate_dofs(mesh)
        g = get_problem("fd2").g
        for rule in ("midpoint", "simpson"):
            vals = boundary_averages(mesh, dm, g, rule)
            for pos, k in enumerate(dm.boundary):
                assert vals[pos] == pytest.approx(
                    edge_average(g, dm.edge(k), rule=rule), rel=1e-14)


class TestAssemblyConfig:
    def test_bad_kappa(self):
        for kappa in (0.0, -1.0):
            with pytest.raises(NonPositiveKappa):
                AssemblyConfig(kappa=kappa)

    def test_bad_qb_rule(self):
        with pytest.raises(ValueError):
            AssemblyConfig(kappa=1.0, qb_rule="trapezoid")


class TestAssemble:
    def test_single_cell_empty_free_system(self):
        problem = make_custom(f=-1.0, g=2.0)
        system = assemble(uniform_mesh(1), problem, AssemblyConfig(kappa=1.0))
        assert system.matrix.shape == (0, 0)
        assert system.rhs.size == 0
        np.testing.assert_allclose(system.boundary_values, 2.0)

    @pytest.mark.parametrize("kappa", [0.7, 4.0, 20.0])
    def test_interior_vertical_row_stencil(self, kappa):
        problem = make_custom(alpha0=1.0, f=0.0, g=0.0)
        n = 4
        system = assemble(uniform_mesh(n), problem, AssemblyConfig(kappa=kappa))
        dm = system.dof_map
        # interior vertical edge away from the boundary
        gid = dm.vertical_id(2, 1)
        row = dm.free_index[gid]
        mat = system.matrix.tocsr()
        cols = mat.indices[mat.indptr[row]:mat.indptr[row + 1]]
        vals = mat.data[mat.indptr[row]:mat.indptr[row + 1]]
        assert cols.size == 7
        entries = {int(c): v for c, v in zip(cols, vals)}
        assert entries[row] == pytest.approx(kappa / 2 + 2)
        for neighbor in (dm.vertical_id(1, 1), dm.vertical_id(3, 1)):
            assert entries[dm.free_index[neighbor]] == pytest.approx(kappa / 4 - 1)
        for hi, hj in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert entries[dm.free_index[dm.horizontal_id(hi, hj)]] == pytest.approx(
                -kappa / 4)

    def test_row_support_bounded(self):
        problem = get_problem("tc2")
        system = assemble(mesh_for(problem, 8), problem, AssemblyConfig(kappa=4.0))
        nnz_per_row = np.diff(system.matrix.indptr)
        assert nnz_per_row.max() <= 7

    def test_symmetric_without_convection(self):
        problem = get_problem("fd2")
        system = assemble(mesh_for(problem, 8), problem, AssemblyConfig(kappa=0.7))
        diff = (system.matrix - system.matrix.T).tocoo()
        scale = np.abs(system.matrix.data).max()
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-13 * scale

    def test_matches_kernel_assembly(self):
        # vectorized path vs element-by-element scalar kernels
        for pid, kappa in (("tc1", 0.7), ("tc2", 4.0), ("tc3", 20.0)):
            problem = get_problem(pid)
            mesh = mesh_for(problem, 3)
            full, rhs, dm = reference_assemble(mesh, problem, kappa)
            system = assemble(mesh, problem, AssemblyConfig(kappa=kappa))
            inner = full[np.ix_(dm.interior, dm.interior)]
            scale = np.abs(full).max()
            np.testing.assert_allclose(
                system.matrix.toarray(), inner, atol=1e-13 * scale)
            g_b = system.boundary_values
            expect_rhs = rhs[dm.interior] - full[np.ix_(dm.interior, dm.boundary)] @ g_b
            np.testing.assert_allclose(system.rhs, expect_rhs, atol=1e-13 * max(
                1.0, np.abs(rhs).max()))

    def test_degenerate_diffusion_on_boundary_warns(self):
        problem = get_problem("tc2")
        mesh = mesh_for(problem, 4)

        def alpha_zero_at_corner(x, y):
            a11, a22 = problem.alpha(x, y)
            # force an exact zero at the lowest-left quadrature point
            qmin = np.min(3.0 * np.asarray(x) * np.asarray(y))
            return a11, np.asarray(a22) - qmin

        import dataclasses

        degenerate = dataclasses.replace(problem, alpha=alpha_zero_at_corner)
        with pytest.warns(RuntimeWarning):
            assemble(mesh, degenerate, AssemblyConfig(kappa=4.0))

    def test_negative_diffusion_rejected(self):
        problem = make_custom()
        import dataclasses

        bad = dataclasses.replace(
            problem,
            alpha=lambda x, y: (np.full_like(np.asarray(x, float), -1.0),
                                np.full_like(np.asarray(x, float), 1.0)),
        )
        with pytest.raises(NonPositiveDiffusion):
            assemble(uniform_mesh(4), bad, AssemblyConfig(kappa=1.0))


class TestDump:
    def test_coordinate_format_roundtrip(self, tmp_path):
        problem = get_problem("fd1")
        system = assemble(mesh_for(problem, 2), problem, AssemblyConfig(kappa=0.7))
        path = tmp_path / "mat.txt"
        dump_matrix(system, path)
        rows, cols, vals = [], [], []
        for line in path.read_text().splitlines():
            r, c, v = line.split()
            rows.append(int(r)), cols.append(int(c)), vals.append(float(v))
        rebuilt = sp.coo_matrix(
            (vals, (rows, cols)), shape=system.matrix.shape).tocsr()
        assert (rebuilt - system.matrix).nnz == 0


ORACLE_PROBLEMS = {
    **{pid: get_problem(pid) for pid in PROBLEM_IDS},
    "custom-beta-x-zero": make_custom(beta=(0.0, 1.5), f=1.0, g=0.5),
    "custom-c-positive": make_custom(beta=(-0.5, 0.25), c=3.0, f=-2.0, g=1.0),
}

#: Uniform meshes by n, thin meshes by elements (nx, ny), random break meshes by seed.
ORACLE_MESHES = (["n1", "n2", "n3", "n12", "n64", "1x5", "5x1", "2x7"]
                 + [f"random{seed}" for seed in range(5)])


def oracle_mesh(problem, label):
    """The mesh ``label`` names, stretched over the problem's domain."""
    if label.startswith("n"):
        return mesh_for(problem, int(label[1:]))
    if label.startswith("random"):
        rng = np.random.default_rng(int(label[6:]))
        nx, ny = rng.integers(2, 10, size=2)
        xt, yt = (np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, k - 1)), [1.0]])
                  for k in (nx, ny))
    else:
        nx, ny = (int(k) for k in label.split("x"))
        xt, yt = np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1)
    x0, x1, y0, y1 = problem.domain
    return build_tensor_mesh(x0 + (x1 - x0) * xt, y0 + (y1 - y0) * yt)


def assert_same_bytes(name, got, want):
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


class TestScatterOracle:
    @pytest.mark.parametrize("label", ORACLE_MESHES)
    @pytest.mark.parametrize("pid", list(ORACLE_PROBLEMS))
    def test_stencil_matches_scatter_bytes(self, pid, label):
        """The stencil-built CSR arrays, rhs and boundary values equal those of
        the COO scatter of the same element blocks, byte for byte."""
        problem = ORACLE_PROBLEMS[pid]
        mesh = oracle_mesh(problem, label)
        for kappa, qb_rule in itertools.product((0.7, 4.0), QB_RULES):
            config = AssemblyConfig(kappa=kappa, qb_rule=qb_rule)
            system = assemble(mesh, problem, config)
            matrix, rhs, g_b = scatter_assemble(mesh, problem, config)
            assert system.matrix.shape == matrix.shape, config
            for name, got, want in (
                ("data", system.matrix.data, matrix.data),
                ("indices", system.matrix.indices, matrix.indices),
                ("indptr", system.matrix.indptr, matrix.indptr),
                ("rhs", system.rhs, rhs),
                ("boundary_values", system.boundary_values, g_b),
            ):
                assert_same_bytes(f"{name} {config}", got, want)


class TestDumpBytes:
    @staticmethod
    def _with_data(system, data):
        matrix = sp.csr_matrix((data, system.matrix.indices, system.matrix.indptr),
                               shape=system.matrix.shape)
        return dataclasses.replace(system, matrix=matrix)

    @classmethod
    def _system(cls, case):
        if case == "wide-values":
            # entries of magnitude 1e10 and up, of both signs, give the
            # widest "%.17g" fields
            problem = get_problem("tc2")
            system = assemble(mesh_for(problem, 6), problem, AssemblyConfig(kappa=0.7))
            data = system.matrix.data.copy()
            wide = np.pi * 1e10 * np.geomspace(1.0, 1e290, data[::5].size)
            wide[1::2] *= -1.0
            data[::5] = wide
            return cls._with_data(system, data)
        if case == "nonuniform":
            problem = get_problem("tc1")
            return assemble(oracle_mesh(problem, "random3"), problem, AssemblyConfig(kappa=4.0))
        if case == "empty":
            problem = get_problem("fd2")
            return assemble(mesh_for(problem, 1), problem, AssemblyConfig(kappa=4.0))
        if case == "signed-zeros":
            problem = get_problem("fd1")
            system = assemble(mesh_for(problem, 4), problem, AssemblyConfig(kappa=0.7))
            data = system.matrix.data.copy()
            data[[0, 3]] = -0.0
            data[[1, 5]] = 0.0
            return cls._with_data(system, data)
        problem = get_problem("fd2")
        return assemble(mesh_for(problem, 128), problem, AssemblyConfig(kappa=4.0))

    @pytest.mark.parametrize("case", ["wide-values", "nonuniform", "empty", "signed-zeros",
                                      "fd2-k4-n128"])
    def test_matches_line_writer(self, case, tmp_path):
        system = self._system(case)
        got, want = tmp_path / "bulk.txt", tmp_path / "lines.txt"
        dump_matrix(system, got)
        dump_matrix_oracle(system.matrix, want)
        assert got.read_bytes() == want.read_bytes()
        text = got.read_text()
        assert text.count("\n") == system.matrix.nnz
        if case == "empty":
            assert text == ""
        if case == "signed-zeros":
            assert text.splitlines()[0].endswith(" -0")
            assert text.splitlines()[1].endswith(" 0")
