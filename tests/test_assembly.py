import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from swgfem.analysis import kappa_condition, sign_inequality_value
from swgfem.assembly import (
    QB_RULES,
    AssemblyConfig,
    SparseSystem,
    assemble,
    boundary_averages,
    dump_matrix,
    edge_average,
    sample_coefficients,
)
from swgfem.cli import main as cli_main
from swgfem.errors import NonFiniteData, NonPositiveDiffusion, NonPositiveKappa
from swgfem.fd import assemble_fd5, assemble_fd7, stencil_weights
from swgfem.kernels import (
    convection_matrix,
    diffusion_matrix,
    load_vector,
    reaction_matrix,
    stabilizer_matrix,
)
from swgfem.mesh import (
    ElementGeom,
    build_tensor_mesh,
    element_arrays,
    element_geometry,
    enumerate_dofs,
    uniform_mesh,
)
from swgfem.problems import PROBLEM_IDS, _const, _const_pair, get_problem, make_custom, mesh_for

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


def alpha_vanishing_on(mesh, i, j):
    """Unit diffusion except a22 = 0 at the Gauss points of element (i, j)."""
    xb, yb = mesh.x_breaks, mesh.y_breaks

    def alpha(x, y):
        inside = (xb[i] < x) & (x < xb[i + 1]) & (yb[j] < y) & (y < yb[j + 1])
        return np.ones(np.shape(x)), np.where(inside, 0.0, 1.0)

    return alpha


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

    KAPPA_ENTRIES = {
        "AssemblyConfig": lambda kappa: AssemblyConfig(kappa=kappa),
        "stencil_weights": stencil_weights,
        "kappa_condition": lambda kappa: kappa_condition(uniform_mesh(4), make_custom(), kappa),
        "sign_inequality_value": lambda kappa: sign_inequality_value(
            element_geometry(uniform_mesh(4), 1, 1), kappa, 0.25, make_custom(),
            np.array([0.3, -0.2, 0.5, -0.7])),
        "swg run": lambda kappa: cli_main(
            ["run", "--problem", "tc1", "--kappa", str(kappa), "--ns", "4"]),
        "swg fd": lambda kappa: cli_main(
            ["fd", "--problem", "fd1", "--kappa", str(kappa), "--n", "4"]),
        "swg equiv": lambda kappa: cli_main(["equiv", "--n", "4", "--kappa", str(kappa)]),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", KAPPA_ENTRIES)
    @pytest.mark.parametrize("kappa", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_kappa_rejected(self, kappa, entry, capsys):
        if entry.startswith("swg "):  # a usage error: exit 2, named on stderr
            assert self.KAPPA_ENTRIES[entry](kappa) == 2
            assert "kappa must be finite and positive" in capsys.readouterr().err
            return
        with pytest.raises(NonPositiveKappa, match="finite and positive"):
            self.KAPPA_ENTRIES[entry](kappa)

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
        dm = system.mesh.dof_map
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
        # (nx, ny) and the element (i, j) where a22 vanishes; every element
        # of a mesh one element thick touches the boundary
        for nx, ny, i, j in ((4, 4, 0, 0), (1, 5, 0, 2), (5, 1, 2, 0)):
            x, y = np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1)
            mesh = build_tensor_mesh(x, y)
            degenerate = dataclasses.replace(
                get_problem("tc2"), alpha=alpha_vanishing_on(mesh, i, j))
            with pytest.warns(RuntimeWarning, match="boundary-adjacent"):
                assemble(mesh, degenerate, AssemblyConfig(kappa=4.0))

    def test_vanishing_diffusion_inside_rejected(self):
        mesh = uniform_mesh(3)
        degenerate = dataclasses.replace(make_custom(), alpha=alpha_vanishing_on(mesh, 1, 1))
        with pytest.raises(NonPositiveDiffusion, match="interior"):
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


class TestSampleCoefficients:
    def test_shapes_batched_and_single(self):
        problem = get_problem("tc2")
        mesh = mesh_for(problem, 3)
        hx, hy, cx, cy, _ = element_arrays(mesh)
        (a11, a22), (b1, b2), c = sample_coefficients(ElementGeom(hx, hy, (cx, cy)), problem)
        assert all(a.shape == (9, 4) and a.dtype == np.float64 for a in (a11, a22, b1, b2))
        assert c.shape == (9,)
        (s11, s22), (t1, t2), sc = sample_coefficients(element_geometry(mesh, 2, 1), problem)
        k = mesh.nx + 2  # element (2, 1), numbered j*nx + i
        for single, batched in ((s11, a11), (s22, a22), (t1, b1), (t2, b2)):
            assert single.shape == (4,)
            np.testing.assert_array_equal(single, batched[k])
        assert float(sc) == c[k]

    def test_scalar_coefficients_broadcast(self):
        problem = dataclasses.replace(
            make_custom(), alpha=lambda x, y: (2.0, 3.0), beta=lambda x, y: (0.5, 0.0),
            c=lambda x, y: 1.5)
        hx, hy, cx, cy, _ = element_arrays(uniform_mesh(2))
        (a11, a22), (b1, b2), c = sample_coefficients(ElementGeom(hx, hy, (cx, cy)), problem)
        assert a11.shape == a22.shape == b1.shape == b2.shape == (4, 4)
        assert (a22 == 3.0).all() and (b1 == 0.5).all() and float(c) == 1.5

    BAD = {
        "alpha": {"alpha": _const_pair(math.nan, 1.0)},
        "beta": {"beta": _const_pair(0.0, math.inf)},
        "c": {"c": _const(math.nan)},
    }
    CONSUMERS = {
        "assemble": lambda mesh, p: assemble(mesh, p, AssemblyConfig(kappa=4.0)),
        "kappa_condition": lambda mesh, p: kappa_condition(mesh, p, 4.0),
        "sign_inequality_value": lambda mesh, p: sign_inequality_value(
            element_geometry(mesh, 1, 1), 4.0, mesh.h, p, np.array([0.3, -0.2, 0.5, -0.7])),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("consumer", CONSUMERS)
    @pytest.mark.parametrize("bad", BAD)
    def test_bad_data_raises_in_every_consumer(self, bad, consumer):
        problem = dataclasses.replace(get_problem("fd1"), **self.BAD[bad])
        with pytest.raises(NonFiniteData, match=bad):
            self.CONSUMERS[consumer](uniform_mesh(4), problem)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kernel, bad", [(diffusion_matrix, "alpha"),
                                             (convection_matrix, "beta")],
                             ids=["diffusion_matrix", "convection_matrix"])
    def test_bad_data_raises_in_single_block_kernels(self, kernel, bad):
        # a NaN a11 for the diffusion block, an infinite b1 for convection
        value = math.nan if bad == "alpha" else math.inf
        pair = _const_pair(value, 1.0)
        with pytest.raises(NonFiniteData, match=bad):
            kernel(ElementGeom.standalone(0.25, 0.25, (0.5, 0.5)), pair)


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
        order = system.order
        return SparseSystem(matrix[order][:, order].tocsc(), order, system.rhs,
                            system.boundary_values, system.mesh)

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


#: Meshes of the golden systems: uniform n, and random breaks seeded as in ``oracle_mesh``.
GOLDEN_MESHES = ("n1", "n8", "n17", "random5", "random6")
GOLDEN_FD = tuple(f"{scheme}-n{n}" for scheme in ("fd5", "fd7") for n in (2, 8, 17))

#: sha256 (first 16 hex digits) of every stored byte of the systems of a
#: case (:func:`golden_digest`), recorded before the stored order was
#: assembled directly, when it was made by permuting the natural-order CSR.
GOLDEN_SYSTEMS = {
    "tc1-n1": "3a3f0837e86bb1be",
    "tc1-n8": "78fb1c27275e3082",
    "tc1-n17": "17e832a0abd9c6ca",
    "tc1-random5": "49eb3e2b4f01941e",
    "tc1-random6": "7ba17c386a012623",
    "tc2-n1": "be00d2d3d3711fa4",
    "tc2-n8": "4065e4fe88442105",
    "tc2-n17": "473689e4e7c58cd2",
    "tc2-random5": "9458c454cc1ce534",
    "tc2-random6": "7042101dcc4f1350",
    "tc3-n1": "0d70e3da333cdbdf",
    "tc3-n8": "a7978fc8c7568243",
    "tc3-n17": "ef677cc2cd855f9b",
    "tc3-random5": "96facbbd283191a9",
    "tc3-random6": "c5862106f224905a",
    "fd1-n1": "b232f970ab8fbdcb",
    "fd1-n8": "58abda2c54827d4f",
    "fd1-n17": "ee37c13b2ed784e3",
    "fd1-random5": "18c9570e19891969",
    "fd1-random6": "66475fd0a9f66808",
    "fd2-n1": "fc009e240f9813f0",
    "fd2-n8": "40732b23c6cf9857",
    "fd2-n17": "e9e68f5dc924f718",
    "fd2-random5": "0552414d0a5dbf2b",
    "fd2-random6": "7f90c6e4dbe12fa0",
    "fd5-n2": "bdfd519491840f47",
    "fd5-n8": "ad895ec12b7fbc11",
    "fd5-n17": "909eb333338afd66",
    "fd7-n2": "546ae23ff2968c55",
    "fd7-n8": "4c6975c3433143a5",
    "fd7-n17": "37a3ad8858accfe0",
}


def golden_systems(case):
    """The systems a case names: an SWG problem on a mesh at kappa 0.7, 4 and
    20 with both ``qb`` rules, or a stencil scheme at size n with the f and g
    of fd1 and fd2 (and those kappa for fd7), with both rules."""
    pid, label = case.split("-", 1)
    if pid in ("fd5", "fd7"):
        n = int(label[1:])
        for source, qb_rule in itertools.product(("fd1", "fd2"), QB_RULES):
            f, g = get_problem(source).f, get_problem(source).g
            if pid == "fd5":
                yield assemble_fd5(n, f, g, qb_rule=qb_rule)
                continue
            for kappa in (0.7, 4.0, 20.0):
                yield assemble_fd7(n, kappa, f, g, qb_rule=qb_rule)
        return
    problem = get_problem(pid)
    mesh = oracle_mesh(problem, label)
    for kappa, qb_rule in itertools.product((0.7, 4.0, 20.0), QB_RULES):
        yield assemble(mesh, problem, AssemblyConfig(kappa=kappa, qb_rule=qb_rule))


def golden_digest(systems, path):
    """One digest over the shape, dtype and bytes of each stored array (the
    CSC arrays of ``ordered``, ``order``, ``rhs``, ``boundary_values``), the
    CSR arrays of the derived ``matrix`` and the ``dump_matrix`` file."""
    digest = hashlib.sha256()
    for system in systems:
        ordered, matrix = system.ordered, system.matrix
        for a in (ordered.data, ordered.indices, ordered.indptr, system.order, system.rhs,
                  system.boundary_values, matrix.data, matrix.indices, matrix.indptr):
            digest.update(f"{a.dtype.str}{a.shape}".encode())
            digest.update(a.tobytes())
        dump_matrix(system, path)
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class TestGoldenSystems:
    @pytest.mark.parametrize("case", [f"{pid}-{label}" for pid in PROBLEM_IDS
                                      for label in GOLDEN_MESHES] + list(GOLDEN_FD))
    def test_same_bytes(self, case, tmp_path):
        assert golden_digest(golden_systems(case), tmp_path / "dump.txt") == GOLDEN_SYSTEMS[case]

    def test_every_case_is_pinned(self):
        assert len(GOLDEN_SYSTEMS) == len(PROBLEM_IDS) * len(GOLDEN_MESHES) + len(GOLDEN_FD)
