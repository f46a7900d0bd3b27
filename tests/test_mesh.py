import numpy as np
import pytest

from swgfem.errors import (
    IndexOutOfRange,
    NonFiniteData,
    NonMonotoneBreaks,
    TooFewPoints,
    ZeroSubdivisions,
)
from swgfem.mesh import (
    build_tensor_mesh,
    element_arrays,
    element_geometry,
    enumerate_dofs,
    uniform_mesh,
)

from oracles import edge_lengths, edge_midpoints


class TestBuildTensorMesh:
    def test_single_cell(self):
        mesh = build_tensor_mesh([0, 1], [0, 1])
        dm = enumerate_dofs(mesh)
        assert (mesh.nx, mesh.ny) == (1, 1)
        assert dm.count == 4
        assert dm.interior.size == 0
        assert np.all(dm.is_boundary)

    def test_two_by_two_counts(self):
        mesh = build_tensor_mesh([0, 0.5, 1], [0, 0.5, 1])
        dm = enumerate_dofs(mesh)
        assert (mesh.nx, mesh.ny) == (2, 2)
        assert dm.count == 12
        assert dm.interior.size == 4

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneBreaks):
            build_tensor_mesh([0, 1, 0.5], [0, 1])

    def test_duplicate_rejected(self):
        with pytest.raises(NonMonotoneBreaks):
            build_tensor_mesh([0, 0, 1], [0, 1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("axis", ["x_breaks", "y_breaks"])
    def test_non_finite_rejected(self, axis, bad):
        # inf used to give h = inf, and NaN a NonMonotoneBreaks
        breaks = {"x_breaks": [0.0, 1.0], "y_breaks": [0.0, 1.0]}
        breaks[axis] = [0.0, 1.0, bad]
        with pytest.raises(NonFiniteData, match=axis):
            build_tensor_mesh(**breaks)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            build_tensor_mesh([0], [0, 1])

    def test_breaks_read_only(self):
        mesh = build_tensor_mesh([0, 1], [0, 1])
        with pytest.raises(ValueError):
            mesh.x_breaks[0] = 5.0


class TestUniformMesh:
    def test_n1_matches_explicit(self):
        mesh = uniform_mesh(1)
        np.testing.assert_allclose(mesh.x_breaks, [0, 1])
        np.testing.assert_allclose(mesh.y_breaks, [0, 1])

    def test_n8_spacing(self):
        mesh = uniform_mesh(8)
        geom = element_geometry(mesh, 0, 0)
        assert geom.hx == pytest.approx(0.125)
        assert geom.hy == pytest.approx(0.125)

    def test_n8_dof_count(self):
        # (n+1)*n + n*(n+1) = 144 for n = 8
        assert enumerate_dofs(uniform_mesh(8)).count == 144

    def test_zero_subdivisions(self):
        with pytest.raises(ZeroSubdivisions):
            uniform_mesh(0)


class TestElementGeometry:
    def test_uniform_center_and_sigma(self):
        geom = element_geometry(uniform_mesh(2), 0, 0)
        assert geom.center == (0.25, 0.25)
        assert geom.sigma == pytest.approx(1.0)

    def test_wide_element(self):
        mesh = build_tensor_mesh([0, 2, 3], [0, 1])
        geom = element_geometry(mesh, 0, 0)
        assert geom.hx == 2 and geom.hy == 1
        assert geom.sigma == pytest.approx(2.0)
        assert geom.area == pytest.approx(2.0)

    def test_tall_element(self):
        mesh = build_tensor_mesh([0, 1], [0, 4])
        assert element_geometry(mesh, 0, 0).sigma == pytest.approx(0.25)

    def test_dof_map_edges_match_element_edges(self, rng):
        # the edges assembly reads from the DofMap are those that the test
        # oracles compute from each element's sides and center
        mesh = build_tensor_mesh(np.cumsum(rng.uniform(0.1, 1, 4)) - 0.05,
                                 np.cumsum(rng.uniform(0.1, 1, 5)) - 0.05)
        hx, hy, cx, cy, conn = element_arrays(mesh)
        dm = enumerate_dofs(mesh)
        np.testing.assert_allclose(dm.midpoints[conn], edge_midpoints(hx, hy, (cx, cy)),
                                   rtol=1e-15, atol=1e-15)
        # vertical edges (ids below n_vertical) are dy long, horizontal ones dx
        lengths = np.concatenate([np.repeat(mesh.dy, mesh.nx + 1), np.tile(mesh.dx, mesh.ny + 1)])
        np.testing.assert_array_equal(conn[:, :2] < dm.n_vertical, True)
        np.testing.assert_array_equal(conn[:, 2:] >= dm.n_vertical, True)
        np.testing.assert_array_equal(lengths[conn], edge_lengths(hx, hy))

    def test_matches_element_arrays(self, rng):
        # the sign checks read element_geometry and assembly element_arrays
        mesh = build_tensor_mesh(np.cumsum(rng.uniform(0.1, 1, 5)),
                                 np.cumsum(rng.uniform(0.1, 1, 4)))
        hx, hy, cx, cy, _ = element_arrays(mesh)
        for j in range(mesh.ny):
            for i in range(mesh.nx):
                geom, k = element_geometry(mesh, i, j), j * mesh.nx + i
                assert (geom.hx, geom.hy) == (hx[k], hy[k])
                assert geom.center == (cx[k], cy[k])

    def test_out_of_range(self):
        mesh = uniform_mesh(2)
        with pytest.raises(IndexOutOfRange):
            element_geometry(mesh, 2, 0)
        with pytest.raises(IndexOutOfRange):
            element_geometry(mesh, 0, -1)


class TestEnumerateDofs:
    def test_n2_interior(self):
        dm = enumerate_dofs(uniform_mesh(2))
        assert dm.count == 12
        assert dm.interior.size == 4

    def test_n3_boundary_count(self):
        dm = enumerate_dofs(uniform_mesh(3))
        assert dm.boundary.size == 12

    def test_bijection_and_partition(self):
        dm = enumerate_dofs(build_tensor_mesh([0, 0.3, 0.7, 1], [0, 0.5, 1]))
        ids = np.concatenate([dm.interior, dm.boundary])
        assert np.array_equal(np.sort(ids), np.arange(dm.count))

    def test_deterministic(self):
        a = enumerate_dofs(uniform_mesh(4))
        b = enumerate_dofs(uniform_mesh(4))
        np.testing.assert_array_equal(a.midpoints, b.midpoints)
        np.testing.assert_array_equal(a.interior, b.interior)

    def test_built_once_per_mesh(self):
        mesh = uniform_mesh(4)
        dm = enumerate_dofs(mesh)
        assert enumerate_dofs(mesh) is dm
        assert enumerate_dofs(uniform_mesh(4)) is not dm
        for arr in (dm.midpoints, dm.is_boundary, dm.interior, dm.boundary):
            assert not arr.flags.writeable

    def test_midpoints_match_edges(self):
        # vertical edge (i, j) has id j*(nx+1) + i, horizontal edge (i, j) nv + j*nx + i
        mesh = build_tensor_mesh([0, 0.3, 0.7, 1], [0, 0.5, 0.6, 1])
        dm = enumerate_dofs(mesh)
        nx, ny, nv = mesh.nx, mesh.ny, dm.n_vertical
        xb, yb = mesh.x_breaks, mesh.y_breaks
        assert dm.midpoints.shape == (dm.count, 2)
        assert nv == (nx + 1) * ny
        for j in range(ny):
            for i in range(nx + 1):
                k = j * (nx + 1) + i
                assert tuple(dm.midpoints[k]) == (xb[i], 0.5 * (yb[j] + yb[j + 1]))
        for j in range(ny + 1):
            for i in range(nx):
                k = nv + j * nx + i
                assert tuple(dm.midpoints[k]) == (0.5 * (xb[i] + xb[i + 1]), yb[j])

    def test_midpoint_is_mean_of_endpoints(self):
        # edge k runs from midpoints[k] - step to midpoints[k] + step, step
        # being half its length along it; those are the grid vertices at its ends
        mesh = build_tensor_mesh([0, 0.4, 1], [0, 0.25, 1])
        dm = enumerate_dofs(mesh)
        nx, ny = mesh.nx, mesh.ny
        xb, yb = mesh.x_breaks, mesh.y_breaks
        ends = np.array([((xb[i], yb[j]), (xb[i], yb[j + 1]))
                         for j in range(ny) for i in range(nx + 1)]
                        + [((xb[i], yb[j]), (xb[i + 1], yb[j]))
                           for j in range(ny + 1) for i in range(nx)])
        vertical = np.arange(dm.count) < dm.n_vertical
        half = 0.5 * np.concatenate([np.repeat(mesh.dy, nx + 1), np.tile(mesh.dx, ny + 1)])
        step = np.stack([np.where(vertical, 0.0, half),
                         np.where(vertical, half, 0.0)], axis=1)
        np.testing.assert_allclose(dm.midpoints - step, ends[:, 0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(dm.midpoints + step, ends[:, 1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(dm.midpoints, ends.mean(axis=1), rtol=0, atol=1e-15)


class TestMeshInvariants:
    def test_area_sum(self, rng):
        xb = np.sort(rng.uniform(0, 1, 5))
        xb[0], xb[-1] = 0.0, 1.0
        yb = np.sort(rng.uniform(2, 5, 4))
        yb[0], yb[-1] = 2.0, 5.0
        mesh = build_tensor_mesh(xb, yb)
        hx, hy, _, _, _ = element_arrays(mesh)
        assert np.sum(hx * hy) == pytest.approx(1.0 * 3.0, rel=1e-14)

    def test_edge_sharing(self):
        mesh = build_tensor_mesh([0, 0.2, 0.9, 1], [0, 0.6, 1])
        dm = enumerate_dofs(mesh)
        _, _, _, _, conn = element_arrays(mesh)
        counts = np.bincount(conn.ravel(), minlength=dm.count)
        assert np.all(counts[dm.interior] == 2)
        assert np.all(counts[dm.boundary] == 1)

    def test_uniform_flag(self):
        assert uniform_mesh(5).is_uniform
        assert not build_tensor_mesh([0, 0.4, 1], [0, 0.5, 1]).is_uniform
        assert not build_tensor_mesh([0, 0.5, 1], [0, 0.25, 0.5]).is_uniform

    def test_global_meshsize(self):
        mesh = build_tensor_mesh([0, 0.2, 1], [0, 0.5, 1])
        assert mesh.h == pytest.approx(0.8)

    def test_geometry_computed_once_and_read_only(self):
        xb, yb = [0.0, 0.2, 0.45, 1.0], [-1.0, 0.5, 0.75]
        mesh = build_tensor_mesh(xb, yb)
        assert mesh.dx.tobytes() == np.diff(xb).tobytes()
        assert mesh.dy.tobytes() == np.diff(yb).tobytes()
        assert mesh.h == float(max(np.diff(xb).max(), np.diff(yb).max())) == 1.5
        assert mesh.dx is mesh.dx and mesh.dy is mesh.dy
        for arr in (mesh.dx, mesh.dy):
            with pytest.raises(ValueError):
                arr[0] = 5.0
        assert mesh.h == 1.5
