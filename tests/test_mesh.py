import numpy as np
import pytest

from swgfem.errors import (
    IndexOutOfRange,
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


class TestBuildTensorMesh:
    def test_single_cell(self):
        mesh = build_tensor_mesh([0, 1], [0, 1])
        dm = enumerate_dofs(mesh)
        assert mesh.n_elements == 1
        assert dm.count == 4
        assert dm.interior.size == 0
        assert np.all(dm.is_boundary)

    def test_two_by_two_counts(self):
        mesh = build_tensor_mesh([0, 0.5, 1], [0, 0.5, 1])
        dm = enumerate_dofs(mesh)
        assert mesh.n_elements == 4
        assert dm.count == 12
        assert dm.interior.size == 4

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneBreaks):
            build_tensor_mesh([0, 1, 0.5], [0, 1])

    def test_duplicate_rejected(self):
        with pytest.raises(NonMonotoneBreaks):
            build_tensor_mesh([0, 0, 1], [0, 1])

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

    def test_edge_lengths_match_sides(self, rng):
        mesh = build_tensor_mesh(np.cumsum(rng.uniform(0.1, 1, 4)) - 0.05,
                                 np.cumsum(rng.uniform(0.1, 1, 5)) - 0.05)
        for i in range(mesh.nx):
            for j in range(mesh.ny):
                geom = element_geometry(mesh, i, j)
                np.testing.assert_allclose(
                    geom.edge_lengths(), [geom.hy, geom.hy, geom.hx, geom.hx]
                )

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
        for arr in (dm.is_vertical, dm.grid_i, dm.grid_j, dm.midpoints, dm.lengths,
                    dm.is_boundary, dm.interior, dm.boundary, dm.free_index):
            assert not arr.flags.writeable

    def test_midpoint_is_mean_of_endpoints(self):
        dm = enumerate_dofs(build_tensor_mesh([0, 0.4, 1], [0, 0.25, 1]))
        for k in range(dm.count):
            edge = dm.edge(k)
            (x0, y0), (x1, y1) = edge.endpoints()
            assert edge.midpoint[0] == pytest.approx(0.5 * (x0 + x1))
            assert edge.midpoint[1] == pytest.approx(0.5 * (y0 + y1))

    def test_half_index_labels(self):
        dm = enumerate_dofs(uniform_mesh(2))
        assert dm.edge(dm.vertical_id(1, 0)).half_index_label() == "u[1, 0+1/2]"
        assert dm.edge(dm.horizontal_id(0, 1)).half_index_label() == "u[0+1/2, 1]"


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
