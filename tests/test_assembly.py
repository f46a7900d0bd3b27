import dataclasses
import hashlib
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swgfem.analysis import kappa_condition, sign_inequality_value
from swgfem.assembly import (
    AssemblyConfig,
    Rows,
    SparseSystem,
    _edge_rows,
    assemble,
    boundary_averages,
    dump_matrix,
    row_numbering,
    sample_coefficients,
    stored_numbering,
)
from swgfem.cli import main as cli_main
from swgfem.errors import NonFiniteData, NonPositiveDiffusion, NonPositiveKappa
from swgfem.fd import assemble_fd5, assemble_fd7, stencil_weights
from swgfem.kernels import (
    convection_matrix,
    diffusion_matrix,
    reaction_matrix,
    stabilizer_matrix,
)
from swgfem.mesh import (
    ElementGeom,
    build_tensor_mesh,
    element_arrays,
    element_geometry,
    enumerate_dofs,
    nested_dissection,
    uniform_mesh,
)
from swgfem.problems import PROBLEM_IDS, _const, _const_pair, get_problem, make_custom, mesh_for

from oracles import dump_matrix_oracle, midpoint_load, scatter_assemble


def reference_assemble(mesh, problem, kappa):
    """Element-by-element assembly through the scalar kernels (full system,
    no boundary treatment); oracle for the vectorized path."""
    dm = enumerate_dofs(mesh)
    nx, nv = mesh.nx, dm.n_vertical
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
            # edge ids (left, right, bottom, top)
            idx = np.array([j * (nx + 1) + i, j * (nx + 1) + i + 1,
                            nv + j * nx + i, nv + (j + 1) * nx + i])
            A[np.ix_(idx, idx)] += loc
            rhs[idx] += midpoint_load(geom, problem.f)
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
        g = lambda x, y: np.full_like(np.asarray(x, float), 4.5)
        np.testing.assert_allclose(boundary_averages(dm, g), 4.5)

    def test_linear_gives_midpoint_value(self):
        dm = enumerate_dofs(uniform_mesh(4))
        g = lambda x, y: 2.0 * np.asarray(y, float) - 1.0
        mid = dm.midpoints[dm.boundary]
        np.testing.assert_allclose(boundary_averages(dm, g),
                                   g(mid[:, 0], mid[:, 1]), rtol=1e-14, atol=1e-15)

    def test_quadratic_sampled_at_midpoints(self):
        # x^2 on the 1x1 mesh (left, right, bottom, top): 0 and 1 on the
        # vertical edges, 1/4 at the midpoints of the horizontal ones
        dm = enumerate_dofs(uniform_mesh(1))
        g = lambda x, y: np.asarray(x, float) ** 2
        np.testing.assert_array_equal(dm.boundary, np.arange(4))
        np.testing.assert_allclose(boundary_averages(dm, g), [0, 1, 1 / 4, 1 / 4])


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
            ["fd", "--problem", "fd1", "--kappa", str(kappa), "--ns", "4"]),
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
        # interior vertical edge (2, 1), away from the boundary
        gid = 1 * (n + 1) + 2
        row = np.searchsorted(dm.interior, gid)
        mat = system.matrix.tocsr()
        cols = mat.indices[mat.indptr[row]:mat.indptr[row + 1]]
        vals = mat.data[mat.indptr[row]:mat.indptr[row + 1]]
        assert cols.size == 7
        entries = {int(c): v for c, v in zip(cols, vals)}
        assert entries[row] == pytest.approx(kappa / 2 + 2)
        for neighbor in (gid - 1, gid + 1):  # vertical edges (1, 1) and (3, 1)
            assert entries[np.searchsorted(dm.interior, neighbor)] == pytest.approx(kappa / 4 - 1)
        for hi, hj in ((1, 1), (1, 2), (2, 1), (2, 2)):
            column = np.searchsorted(dm.interior, dm.n_vertical + hj * n + hi)
            assert entries[column] == pytest.approx(-kappa / 4)

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


class TestEdgeRows:
    MESHES = {"5x4": ([0, 0.1, 0.35, 0.5, 0.8, 1], [0, 0.3, 0.4, 0.9, 1]),
              "1x3": ([0, 1], [0, 0.2, 0.7, 1]), "4x1": ([0, 0.25, 0.3, 0.6, 1], [0, 1])}

    @pytest.mark.parametrize("label", MESHES)
    def test_numbers_boundary_edge_k_as_inverted_k(self, label):
        dm = enumerate_dofs(build_tensor_mesh(*self.MESHES[label]))
        number = row_numbering(dm)
        assert np.array_equal(number[dm.boundary], ~np.arange(dm.boundary.size))
        assert np.array_equal(number[dm.interior], np.arange(dm.interior.size))
        order, place = stored_numbering(dm)
        assert np.array_equal(place[order], np.arange(order.size))
        assert place[-1] == order.size  # the boundary column stays last

    @pytest.mark.parametrize("label", ["6x6", "12x3", "12x1", "1x12", "random"])
    def test_order_is_the_interior_place_of_each_dissection_id(self, label):
        if label == "random":
            rng = np.random.default_rng(7)
            mesh = build_tensor_mesh(*(np.cumsum(rng.uniform(0.05, 1.0, k)) for k in (10, 8)))
        else:
            nx, ny = map(int, label.split("x"))
            mesh = build_tensor_mesh(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
        dm = enumerate_dofs(mesh)
        order, _ = stored_numbering(dm)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.searchsorted(dm.interior, nested_dissection(dm)))

    @pytest.mark.parametrize("label", MESHES)
    def test_columns_are_the_edges_of_the_rows_two_elements(self, label, rng):
        mesh = build_tensor_mesh(*self.MESHES[label])
        dm, conn = enumerate_dofs(mesh), element_arrays(mesh)[4]
        number = row_numbering(dm)
        planes = rng.normal(size=(4, 4, mesh.ny, mesh.nx))
        _, columns = _edge_rows(planes, number[conn.T].reshape(4, mesh.ny, mesh.nx))
        assert columns.shape == (dm.interior.size, 7)
        # every column decodes to an edge: an interior one by its natural
        # interior index, a boundary one by ~k
        edges = np.where(columns >= 0, dm.interior[np.maximum(columns, 0)],
                         dm.boundary[~np.minimum(columns, -1)])
        for edge, row in zip(dm.interior, edges):
            elements = conn[(conn == edge).any(axis=1)]
            assert elements.shape[0] == 2
            assert np.array_equal(row, np.unique(elements))  # ascending dof id


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

    @staticmethod
    def _geometries():
        mesh = build_tensor_mesh([0.0, 0.3, 0.45, 1.0], [0.0, 0.6, 1.0])
        hx, hy, cx, cy, _ = element_arrays(mesh)
        return ElementGeom(hx, hy, (cx, cy)), element_geometry(mesh, 2, 1)

    def test_finite_samples_whose_sum_overflows_pass(self):
        big = 1e308  # four of them, or two pairs, sum past the largest float
        problem = dataclasses.replace(
            make_custom(), alpha=_const_pair(big, big), beta=_const_pair(big, -big), c=_const(big))
        for geom in self._geometries():
            (a11, a22), (b1, b2), c = sample_coefficients(geom, problem)
            assert (a11 == big).all() and (a22 == big).all() and (c == big).all()
            assert (b1 == big).all() and (b2 == -big).all()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bad", ["alpha", "beta", "c"])
    def test_one_bad_sample_names_its_coefficient(self, bad, value):
        # the bad value sits at one element's points, beside finite samples
        # whose sum overflows, in the second component of a pair
        big = 1e308

        def spoil(x, y):
            return np.where(np.asarray(x) > 0.5, value, big)

        pairs = {"alpha": lambda x, y: (_const(big)(x, y), spoil(x, y)),
                 "beta": lambda x, y: (_const(-big)(x, y), spoil(x, y)),
                 "c": spoil}
        good = dataclasses.replace(
            make_custom(), alpha=_const_pair(big, big), beta=_const_pair(big, -big), c=_const(big))
        problem = dataclasses.replace(good, **{bad: pairs[bad]})
        for geom in self._geometries():
            with pytest.raises(NonFiniteData, match=f"^{bad} is NaN or infinite"):
                sample_coefficients(geom, problem)

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
            kernel(ElementGeom(0.25, 0.25, (0.5, 0.5)), pair)


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


def assert_matches_scatter(mesh, problem, config):
    """The stencil-built CSR arrays, rhs and boundary values equal those of
    the COO scatter of the same element blocks, byte for byte."""
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


def scaled_breaks(widths, lo, hi):
    """Breaks from lo to hi whose cells have the given relative widths."""
    ends = np.cumsum(widths)
    return lo + (hi - lo) * np.concatenate([[0.0], ends / ends[-1]])


class TestScatterOracle:
    @pytest.mark.parametrize("label", ORACLE_MESHES)
    @pytest.mark.parametrize("pid", list(ORACLE_PROBLEMS))
    def test_stencil_matches_scatter_bytes(self, pid, label):
        problem = ORACLE_PROBLEMS[pid]
        mesh = oracle_mesh(problem, label)
        for kappa in (0.7, 4.0):
            assert_matches_scatter(mesh, problem, AssemblyConfig(kappa=kappa))

    @settings(max_examples=100)
    @given(pid=st.sampled_from(list(ORACLE_PROBLEMS)), kappa=st.sampled_from([0.7, 4.0, 20.0]),
           x_widths=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=12),
           y_widths=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=12))
    @example(pid="tc2", kappa=20.0, x_widths=[1.0],
             y_widths=[0.3, 0.7, 0.5, 0.2, 1.0])
    @example(pid="custom-c-positive", kappa=0.7,
             x_widths=[0.5, 0.25, 1.0, 0.4, 0.9, 0.2, 0.6], y_widths=[1.0])
    def test_random_breaks_match_scatter_bytes(self, pid, kappa, x_widths, y_widths):
        problem = ORACLE_PROBLEMS[pid]
        x0, x1, y0, y1 = problem.domain
        mesh = build_tensor_mesh(scaled_breaks(x_widths, x0, x1), scaled_breaks(y_widths, y0, y1))
        assert_matches_scatter(mesh, problem, AssemblyConfig(kappa=kappa))


class TestDumpBytes:
    @staticmethod
    def _with_data(system, data):
        # the rows' slots of A's entries, row by row, hold them in CSR order
        values, columns = system.rows.values.copy(), system.rows.columns.copy()
        values[columns < values.shape[0]] = data
        return SparseSystem(Rows(values, columns), system.rhs, system.boundary_values,
                            system.mesh)

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
GOLDEN_FD = tuple(f"{scheme}-n{n}" for scheme in ("fd5", "fd7") for n in (2, 3, 8, 17, 33))

#: sha256 (first 16 hex digits) of every stored byte of the systems of a
#: case (:func:`golden_digest`), recorded on f18a219, before the Dirichlet
#: data lost its second (Simpson) rule, with the midpoint rule; the stencil
#: schemes at n = 3 and 33 on 2a6ba0e, before their rows left COO triplets.
GOLDEN_SYSTEMS = {
    "tc1-n1": "3f9c0d5dd9e7bbb6",
    "tc1-n8": "07539530969afc55",
    "tc1-n17": "ffbd0203db392241",
    "tc1-random5": "28f76a5be7342966",
    "tc1-random6": "77d70e1caff69303",
    "tc2-n1": "dffefb6587f17a99",
    "tc2-n8": "72f69b030219287b",
    "tc2-n17": "5aa77309a89a58f3",
    "tc2-random5": "494339007c4d7c2e",
    "tc2-random6": "169f984ed2e5252d",
    "tc3-n1": "8af45d403c98538a",
    "tc3-n8": "3b65ed3107a88ab5",
    "tc3-n17": "9bcab65173f7d6a3",
    "tc3-random5": "9df176de2bc2779a",
    "tc3-random6": "dc6eb11c8f1ec3ce",
    "fd1-n1": "a3e5f5488121a455",
    "fd1-n8": "62b74c45f9b841b4",
    "fd1-n17": "f8efaea591c1cbcc",
    "fd1-random5": "e85bdf0603817df9",
    "fd1-random6": "842f07a8e81fe142",
    "fd2-n1": "fbbbc8ea43e2af18",
    "fd2-n8": "3a0958640d732a53",
    "fd2-n17": "62f08c33777caf6d",
    "fd2-random5": "bd97057852b01fb8",
    "fd2-random6": "099de16405bbf101",
    "fd5-n2": "2da12a7710b718e9",
    "fd5-n3": "cb1c215de402cec7",
    "fd5-n8": "c138a934185fa09b",
    "fd5-n17": "ee665cabf4a7be75",
    "fd5-n33": "fc3413d8f5a02e1a",
    "fd7-n2": "660f521ca0a6e995",
    "fd7-n3": "8d53fff2b69837fa",
    "fd7-n8": "e0c6bef14a9dcb8d",
    "fd7-n17": "2f17440a48165a3b",
    "fd7-n33": "58a66facecfb312b",
}


def golden_systems(case):
    """The systems a case names: an SWG problem on a mesh at kappa 0.7, 4 and
    20, or a stencil scheme at size n with the f and g of fd1 and fd2 (and
    those kappa for fd7)."""
    pid, label = case.split("-", 1)
    if pid in ("fd5", "fd7"):
        n = int(label[1:])
        for source in ("fd1", "fd2"):
            f, g = get_problem(source).f, get_problem(source).g
            if pid == "fd5":
                yield assemble_fd5(n, f, g)
                continue
            for kappa in (0.7, 4.0, 20.0):
                yield assemble_fd7(n, kappa, f, g)
        return
    problem = get_problem(pid)
    mesh = oracle_mesh(problem, label)
    for kappa in (0.7, 4.0, 20.0):
        yield assemble(mesh, problem, AssemblyConfig(kappa=kappa))


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


def owner(array):
    """The array that owns the memory ``array`` views."""
    while array.base is not None:
        array = array.base
    return array


def assert_derived_from_rows(system):
    """``order`` and ``ordered``, derived from the rows on first read, equal an
    independent build from :func:`stored_numbering` and the natural matrix
    byte for byte; the natural matrix read from the rows equals the one read
    from ``ordered``; and once ``ordered`` is read the system holds no
    reference to the rows, whose buffers live on only as the storage of
    ``ordered``."""
    natural = system.matrix  # from the rows
    assert system.rows.values is not None
    held = [weakref.ref(a) for a in (system.rows.values, system.rows.columns)]
    copy = dataclasses.replace(system)  # shares the rows, holds no matrix
    order, _ = stored_numbering(system.mesh.dof_map)
    want = natural[order][:, order].tocsc()
    ordered = system.ordered
    assert system.rows.values is None and system.rows.columns is None
    for ref, stored in zip(held, (ordered.data, ordered.indices)):
        assert ref() is None or owner(ref()) is owner(stored)
    assert_same_bytes("order", system.order, order)
    for name in ("indptr", "indices", "data"):
        assert_same_bytes(name, getattr(ordered, name), getattr(want, name))
    assert "matrix" not in vars(copy) and copy.ordered is ordered
    for name in ("indptr", "indices", "data"):
        assert_same_bytes(f"matrix {name}", getattr(copy.matrix, name), getattr(natural, name))


class TestDerivedFromRows:
    @pytest.mark.parametrize("case", [f"{pid}-{label}" for pid in PROBLEM_IDS
                                      for label in GOLDEN_MESHES] + list(GOLDEN_FD))
    def test_golden_systems(self, case):
        for system in golden_systems(case):
            assert_derived_from_rows(system)

    @settings(max_examples=40)
    @given(pid=st.sampled_from(list(ORACLE_PROBLEMS)), kappa=st.sampled_from([0.7, 4.0]),
           x_widths=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=12),
           y_widths=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=12))
    def test_random_breaks(self, pid, kappa, x_widths, y_widths):
        problem = ORACLE_PROBLEMS[pid]
        x0, x1, y0, y1 = problem.domain
        mesh = build_tensor_mesh(scaled_breaks(x_widths, x0, x1), scaled_breaks(y_widths, y0, y1))
        assert_derived_from_rows(assemble(mesh, problem, AssemblyConfig(kappa=kappa)))
