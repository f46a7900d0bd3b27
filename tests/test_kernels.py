import numpy as np
import pytest

from swgfem import kernels
from swgfem.analysis import kappa_condition
from swgfem.errors import (
    NegativeReaction,
    NonPositiveDiffusion,
    NonPositiveMeshsize,
)
from swgfem.kernels import (
    basis_extensions,
    convection_matrix,
    diffusion_matrix,
    extension_coeffs,
    gauss_points,
    local_operator,
    midpoint_defects,
    reaction_matrix,
    stabilizer_matrix,
    weak_gradient,
)
from swgfem.mesh import ElementGeom, build_tensor_mesh, element_arrays, element_geometry
from swgfem.problems import get_problem, make_custom, mesh_for

from oracles import (
    EDGE_NORMALS,
    basis_value_oracle,
    block_sum_operator,
    edge_lengths,
    edge_midpoints,
    extension_oracle,
    extension_value,
    gauss_legendre_2d,
    integrate,
    midpoint_load,
    random_geom,
    stabilizer_apply_oracle,
    weak_gradient_oracle,
)

SQUARE = ElementGeom(1.0, 1.0, (0.5, 0.5))
WIDE = ElementGeom(2.0, 1.0, (1.0, 0.5))


def const2(v1, v2):
    return lambda x, y: (np.full_like(np.asarray(x, float), v1),
                         np.full_like(np.asarray(x, float), v2))


class TestWeakGradient:
    def test_constant_vector_zero(self, rng):
        for _ in range(20):
            geom = random_geom(rng)
            c = rng.normal()
            gx, gy = weak_gradient(geom, [c, c, c, c])
            assert gx == pytest.approx(0.0, abs=1e-14)
            assert gy == pytest.approx(0.0, abs=1e-14)

    def test_wide_element(self):
        gx, gy = weak_gradient(WIDE, [1.0, 3.0, 0.0, 0.0])
        assert (gx, gy) == (pytest.approx(1.0), pytest.approx(0.0))

    def test_unit_square_top(self):
        gx, gy = weak_gradient(SQUARE, [0.0, 0.0, 0.0, 1.0])
        assert (gx, gy) == (pytest.approx(0.0), pytest.approx(1.0))

    def test_matches_boundary_sum_definition(self, rng):
        for _ in range(50):
            geom = random_geom(rng)
            v = rng.normal(size=4)
            got = np.array(weak_gradient(geom, v))
            np.testing.assert_allclose(got, weak_gradient_oracle(geom, v),
                                       rtol=1e-13, atol=1e-13)

    def test_divergence_identity(self, rng):
        # (grad_w v . phi)|T| = sum_i v_i |e_i| (phi . n_i) for constant phi
        for _ in range(100):
            geom = random_geom(rng)
            v = rng.normal(size=4)
            phi = rng.normal(size=2)
            gx, gy = weak_gradient(geom, v)
            lhs = (gx * phi[0] + gy * phi[1]) * geom.area
            rhs = float(
                (v * edge_lengths(geom.hx, geom.hy) * (EDGE_NORMALS @ phi)).sum()
            )
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestExtension:
    def test_constant_reproduction(self, rng):
        geom = random_geom(rng)
        c = 3.25
        g0, g1, g2 = extension_coeffs(geom, [c] * 4)
        assert g0 == pytest.approx(c)
        assert g1 == pytest.approx(0.0, abs=1e-14)
        assert g2 == pytest.approx(0.0, abs=1e-14)

    def test_square_example(self):
        assert extension_coeffs(SQUARE, [0.0, 1.0, 0.0, 1.0]) == (
            pytest.approx(0.5), pytest.approx(1.0), pytest.approx(1.0))

    def test_linear_reproduction(self, rng):
        for _ in range(100):
            geom = random_geom(rng)
            a, b, c = rng.uniform(-10, 10, 3)
            mids = edge_midpoints(geom.hx, geom.hy, geom.center)
            v = a + b * (mids[:, 0] - geom.center[0]) + c * (mids[:, 1] - geom.center[1])
            g0, g1, g2 = extension_coeffs(geom, v)
            assert g0 == pytest.approx(a, rel=1e-13, abs=1e-13)
            assert g1 == pytest.approx(b, rel=1e-13, abs=1e-12)
            assert g2 == pytest.approx(c, rel=1e-13, abs=1e-12)

    def test_matches_moment_system(self, rng):
        for _ in range(50):
            geom = random_geom(rng)
            v = rng.normal(size=4)
            gamma0, gamma1, gamma2 = extension_coeffs(geom, v)
            g0, g1, g2 = extension_oracle(geom, v)
            assert gamma0 == pytest.approx(g0, rel=1e-12, abs=1e-12)
            assert gamma1 == pytest.approx(g1, rel=1e-12, abs=1e-9)
            assert gamma2 == pytest.approx(g2, rel=1e-12, abs=1e-9)


class TestMidpointDefects:
    def test_linear_samples_vanish(self, rng):
        geom = random_geom(rng)
        mids = edge_midpoints(geom.hx, geom.hy, geom.center)
        v = 1.5 + 2.0 * mids[:, 0] - 0.75 * mids[:, 1]
        np.testing.assert_allclose(midpoint_defects(geom, v), 0.0, atol=1e-13)

    def test_square_pattern(self):
        # D = 2, hx = hy = 1: defect hx*D/(2(hx+hy)) = 1/2 on vertical edges
        np.testing.assert_allclose(
            midpoint_defects(SQUARE, [1.0, 1.0, 0.0, 0.0]),
            [0.5, 0.5, -0.5, -0.5])

    def test_wide_pattern(self):
        np.testing.assert_allclose(
            midpoint_defects(WIDE, [1.0, 1.0, 0.0, 0.0]),
            [2 / 3, 2 / 3, -1 / 3, -1 / 3])

    def test_matches_extension_evaluation(self, rng):
        for _ in range(50):
            geom = random_geom(rng)
            v = rng.normal(size=4)
            mids = edge_midpoints(geom.hx, geom.hy, geom.center)
            expected = v - extension_value(geom, extension_coeffs(geom, v), mids[:, 0], mids[:, 1])
            np.testing.assert_allclose(midpoint_defects(geom, v), expected,
                                       rtol=1e-12, atol=1e-13)


class TestStabilizer:
    def test_square_quarter(self):
        mat = stabilizer_matrix(SQUARE, 1.0)
        d = np.array([1.0, 1.0, -1.0, -1.0])
        np.testing.assert_allclose(mat, 0.25 * np.outer(d, d))
        u = np.array([1.0, 2.0, 3.0, 4.0])
        # row for the left-edge basis function: (u1+u2-u3-u4)/4
        assert mat[0] @ u == pytest.approx((1 + 2 - 3 - 4) / 4)

    def test_wide_mu(self):
        mat = stabilizer_matrix(WIDE, 2.0)
        assert mat[0, 0] == pytest.approx(1 / 6)

    def test_linear_in_kernel(self, rng):
        geom = random_geom(rng)
        mids = edge_midpoints(geom.hx, geom.hy, geom.center)
        v = -0.3 + 1.7 * mids[:, 0] + 0.9 * mids[:, 1]
        np.testing.assert_allclose(stabilizer_matrix(geom, 0.5) @ v, 0.0, atol=1e-12)

    def test_nonpositive_meshsize(self):
        with pytest.raises(NonPositiveMeshsize):
            stabilizer_matrix(SQUARE, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf], ids=["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("entry", ["stabilizer_matrix", "local_operator", "kappa_condition"])
    def test_meshsize_must_be_finite_and_positive(self, entry, h):
        # 0 divided by zero, -1 and NaN gave all_ok=False or NaN blocks, and
        # inf a zero stabilizer
        call = {
            "stabilizer_matrix": lambda: stabilizer_matrix(SQUARE, h),
            "local_operator": lambda: local_operator(SQUARE, 4.0, h, (1.0, 1.0), (0.0, 0.0), 0.0),
            "kappa_condition": lambda: kappa_condition(mesh_for(get_problem("fd1"), 4),
                                                       get_problem("fd1"), 4.0, h=h),
        }[entry]
        with pytest.raises(NonPositiveMeshsize, match="finite and positive"):
            call()

    def test_rank_one_form_matches_definition(self, rng):
        # closed form vs direct evaluation of the defect bilinear form
        cases = []
        for _ in range(100):
            geom = random_geom(rng)
            h = rng.uniform(0.5, 2.0) * max(geom.hx, geom.hy)
            u = rng.normal(size=4)
            w = rng.normal(size=4)
            got = float(w @ stabilizer_matrix(geom, h) @ u)
            want = stabilizer_apply_oracle(geom, h, u, w)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)
            cases.append((geom, u, w))
        # the same rectangles in one batched call with one meshsize, as in assembly
        geoms, us, ws = zip(*cases)
        h = max(max(g.hx, g.hy) for g in geoms)
        batch = ElementGeom(
            np.array([g.hx for g in geoms]), np.array([g.hy for g in geoms]),
            tuple(np.array([g.center[k] for g in geoms]) for k in (0, 1)))
        mats = stabilizer_matrix(batch, h)
        assert mats.shape == (100, 4, 4)
        got = np.einsum("ki,kij,kj->k", np.array(ws), mats, np.array(us))
        for k, geom in enumerate(geoms):
            want = stabilizer_apply_oracle(geom, h, us[k], ws[k])
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-13)


class TestDiffusion:
    def test_unit_square_block(self):
        mat = diffusion_matrix(SQUARE, const2(1.0, 1.0))
        expected = np.array(
            [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]], dtype=float)
        np.testing.assert_allclose(mat, expected, atol=1e-14)

    def test_constant_vector_in_kernel(self, rng):
        geom = random_geom(rng)
        mat = diffusion_matrix(geom, const2(1.0, 1.0))
        np.testing.assert_allclose(mat @ np.ones(4), 0.0, atol=1e-12)

    def test_wide_diagonal(self):
        mat = diffusion_matrix(WIDE, const2(1.0, 1.0))
        assert mat[0, 0] == pytest.approx(0.5)

    def test_variable_coefficient_integral(self, rng):
        # 2x2 Gauss integrates the coefficient exactly for bilinear alpha
        geom = random_geom(rng, lo=0.2)

        def alpha(x, y):
            return 2.0 + x * y, 1.0 + 0.5 * x

        mat = diffusion_matrix(geom, alpha)
        ia11 = integrate(geom, lambda x, y: 2.0 + x * y)
        assert mat[0, 0] == pytest.approx(ia11 / geom.hx**2, rel=1e-13)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveDiffusion):
            diffusion_matrix(SQUARE, const2(1.0, 0.0))


class TestConvection:
    def test_zero_beta(self, rng):
        geom = random_geom(rng)
        np.testing.assert_allclose(
            convection_matrix(geom, const2(0.0, 0.0)), 0.0, atol=1e-15)

    def test_partition_of_unity_column_sums(self, rng):
        # sum_i b(phi_j, phi_i) = beta . grad_w phi_j * |T| for constant beta
        for _ in range(20):
            geom = random_geom(rng)
            b = rng.normal(size=2)
            mat = convection_matrix(geom, const2(b[0], b[1]))
            gx = np.array([-1 / geom.hx, 1 / geom.hx, 0, 0])
            gy = np.array([0, 0, -1 / geom.hy, 1 / geom.hy])
            expected = (b[0] * gx + b[1] * gy) * geom.area
            np.testing.assert_allclose(mat.sum(axis=0), expected,
                                       rtol=1e-13, atol=1e-13)

    def test_unit_square_column(self):
        mat = convection_matrix(SQUARE, const2(1.0, 0.0))
        assert mat[:, 1].sum() == pytest.approx(1.0)

    def test_quadratic_beta_exact(self, rng):
        # integrand degree <= 3 per coordinate: 2x2 Gauss is exact
        geom = random_geom(rng, lo=0.2)

        def beta(x, y):
            return x * x - y, 2.0 * x * y

        mat = convection_matrix(geom, beta)
        for i in range(4):
            for j in range(4):
                gx = (-1 / geom.hx, 1 / geom.hx, 0, 0)[j]
                gy = (0, 0, -1 / geom.hy, 1 / geom.hy)[j]
                want = integrate(
                    geom,
                    lambda x, y: ((x * x - y) * gx + 2 * x * y * gy)
                    * basis_value_oracle(geom, i, x, y),
                )
                assert mat[i, j] == pytest.approx(want, rel=1e-12, abs=1e-13)


class TestReaction:
    def test_zero_coefficient(self, rng):
        np.testing.assert_allclose(reaction_matrix(random_geom(rng), 0.0), 0.0)

    def test_all_ones_energy(self, rng):
        geom = random_geom(rng)
        c = 2.5
        ones = np.ones(4)
        assert ones @ reaction_matrix(geom, c) @ ones == pytest.approx(
            c * geom.area, rel=1e-13)

    def test_unit_square_entry(self):
        # integral of s(phi_1)^2 = (1/4 - (x - cx))^2 over the unit square
        assert reaction_matrix(SQUARE, 1.0)[0, 0] == pytest.approx(7 / 48, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(NegativeReaction):
            reaction_matrix(SQUARE, -1.0)

    def test_psd(self, rng):
        for _ in range(20):
            mat = reaction_matrix(random_geom(rng), rng.uniform(0, 5))
            eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
            assert eigs.min() >= -1e-12


class TestBasisExtensions:
    def test_square_center_value(self):
        coeffs = basis_extensions(SQUARE)
        assert extension_value(SQUARE, coeffs[0], 0.5, 0.5) == pytest.approx(0.25)

    def test_wide_center_value(self):
        coeffs = basis_extensions(WIDE)
        assert extension_value(WIDE, coeffs[2], *WIDE.center) == pytest.approx(1 / 3)

    def test_partition_of_unity(self, rng):
        geom = random_geom(rng)
        pts = rng.uniform(-2, 2, size=(10, 2))
        total = sum(
            extension_value(geom, c, pts[:, 0], pts[:, 1]) for c in basis_extensions(geom)
        )
        np.testing.assert_allclose(total, 1.0, rtol=1e-12)

    def test_matches_moment_system(self, rng):
        geom = random_geom(rng)
        x, y, _ = gauss_legendre_2d(geom, 3)
        for i, coeffs in enumerate(basis_extensions(geom)):
            np.testing.assert_allclose(
                extension_value(geom, coeffs, x, y),
                basis_value_oracle(geom, i, x, y),
                rtol=1e-11, atol=1e-11)


class TestLoadVector:
    def test_zero_f(self, rng):
        np.testing.assert_allclose(
            midpoint_load(random_geom(rng), lambda x, y: np.zeros_like(np.asarray(x, float))),
            0.0)

    def test_square_constant(self):
        load = midpoint_load(SQUARE, lambda x, y: np.ones_like(np.asarray(x, float)))
        np.testing.assert_allclose(load, SQUARE.area / 4)
        assert load.sum() == pytest.approx(SQUARE.area)

    def test_constant_sum_any_aspect(self, rng):
        for _ in range(100):
            geom = random_geom(rng)
            load = midpoint_load(geom, lambda x, y: np.full_like(np.asarray(x, float), 3.0))
            assert load.sum() == pytest.approx(3.0 * geom.area, rel=1e-13)
            sigma = geom.sigma
            np.testing.assert_allclose(
                load[:2], 3.0 * geom.area / (2 * (1 + sigma)), rtol=1e-13)

    def test_linear_f_is_exact_integral(self, rng):
        # for linear f the product quadrature equals (f, s(phi_i)) exactly
        for _ in range(25):
            geom = random_geom(rng, lo=0.1)
            a, b, c = rng.uniform(-3, 3, 3)
            f = lambda x, y: a + b * np.asarray(x, float) + c * np.asarray(y, float)
            load = midpoint_load(geom, f)
            for i in range(4):
                want = integrate(
                    geom, lambda x, y: f(x, y) * basis_value_oracle(geom, i, x, y))
                assert load[i] == pytest.approx(want, rel=1e-11, abs=1e-13)


class TestQuadrature:
    def test_weights_sum_to_area(self, rng):
        geom = random_geom(rng)
        _, w = gauss_points(geom)
        assert w.sum() == pytest.approx(geom.area, rel=1e-14)

    def test_exact_bicubic(self, rng):
        geom = random_geom(rng, lo=0.2)
        pts, w = gauss_points(geom)
        fn = lambda x, y: (x**3 + 1.0) * (2.0 * y**3 - y + 0.5)
        assert float(w @ fn(pts[:, 0], pts[:, 1])) == pytest.approx(
            integrate(geom, fn), rel=1e-12)


class TestSymmetryProperties:
    def test_symmetric_matrices(self, rng):
        for _ in range(100):
            geom = random_geom(rng)
            h = max(geom.hx, geom.hy)
            s = stabilizer_matrix(geom, h)
            a = diffusion_matrix(geom, const2(2.0, 0.5))
            c = reaction_matrix(geom, 1.3)
            for mat in (s, a, c):
                np.testing.assert_allclose(mat, mat.T, rtol=1e-13, atol=1e-13)

    def test_diffusion_psd_with_directional_kernel(self, rng):
        geom = random_geom(rng)
        a = diffusion_matrix(geom, const2(1.0, 2.0))
        np.testing.assert_allclose(a @ [1, 1, 0, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(a @ [0, 0, 1, 1], 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(a).min() >= -1e-12


def _batched_inputs(problem, mesh):
    """The arguments ``assemble`` passes to ``local_operator`` for ``mesh``."""
    hx, hy, cx, cy, _ = element_arrays(mesh)
    geom = ElementGeom(hx, hy, (cx, cy))
    pts, _ = gauss_points(geom)
    qx, qy = pts[..., 0], pts[..., 1]
    c_value = np.asarray(problem.c(cx, cy), dtype=float)
    return geom, mesh.h, problem.alpha(qx, qy), problem.beta(qx, qy), c_value


def _element_inputs(problem, mesh, i, j):
    """The arguments ``sign_inequality_value`` passes for element (i, j)."""
    geom = element_geometry(mesh, i, j)
    pts, _ = gauss_points(geom)
    qx, qy = pts[:, 0], pts[:, 1]
    c_value = float(problem.c(*geom.center))
    return geom, mesh.h, problem.alpha(qx, qy), problem.beta(qx, qy), c_value


def _random_breaks(rng, count):
    widths = rng.uniform(1.0, 1.9, count)
    return np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()


def _random_custom(rng):
    """Constant coefficients with beta != 0, c > 0 or c = 0, and signed zeros."""
    beta = tuple(float(v) for v in rng.choice([-0.0, 0.0, -1.3, 0.45, 2.0], 2))
    if beta == (0.0, 0.0):
        beta = (0.8, beta[1])
    c = float(rng.choice([-0.0, 0.0, 0.5, 16.0]))
    return make_custom(alpha0=float(rng.uniform(0.5, 2.0)), beta=beta, c=c, f=1.0)


NONUNIFORM = build_tensor_mesh([0.0, 0.1, 0.45, 0.5, 1.0], [0.0, 0.3, 0.35, 1.0])
ZERO_BLOCK_PROBLEMS = {
    **{pid: get_problem(pid) for pid in ("tc1", "tc2", "tc3", "fd1", "fd2")},
    "beta-no-c": make_custom(alpha0=1.5, beta=(0.7, -0.2), c=0.0, f=1.0),
    "negative-zeros": make_custom(beta=(-0.0, -0.0), c=-0.0, f=1.0, g=-0.0),
    "negative-zero-beta1": make_custom(alpha0=2.0, beta=(-0.0, 1.0), c=-0.0, f=1.0),
    **{f"random-custom-{k}": _random_custom(np.random.default_rng([7, k])) for k in range(8)},
}


class TestLocalOperatorZeroBlocks:
    @pytest.mark.parametrize("name", ZERO_BLOCK_PROBLEMS)
    @pytest.mark.parametrize("kappa", [0.7, 4.0])
    def test_same_bytes_as_every_block_summed(self, name, kappa):
        problem = ZERO_BLOCK_PROBLEMS[name]
        rng = np.random.default_rng([11, len(name)])
        x0, x1, y0, y1 = problem.domain
        meshes = [mesh_for(problem, 8), NONUNIFORM] + [  # and seeded nonuniform ones
            build_tensor_mesh(x0 + (x1 - x0) * _random_breaks(rng, nx),
                              y0 + (y1 - y0) * _random_breaks(rng, ny))
            for nx, ny in ((9, 6), (1, 5), (13, 13))]
        for mesh in meshes:
            args = _batched_inputs(problem, mesh)
            got = local_operator(args[0], kappa, *args[1:])
            want = block_sum_operator(args[0], kappa, *args[1:])
            assert got.tobytes() == want.tobytes()
            for i, j in ((0, 0), (mesh.nx - 1, mesh.ny // 2)):  # one element at a time
                args = _element_inputs(problem, mesh, i, j)
                got = local_operator(args[0], kappa, *args[1:])
                want = block_sum_operator(args[0], kappa, *args[1:])
                assert got.shape == (4, 4) and got.tobytes() == want.tobytes()

    def test_zero_coefficients_form_no_block(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an all-zero block was formed")

        built = []
        monkeypatch.setattr(kernels, "_point_sums", refuse)  # forms every B and C
        monkeypatch.setattr(kernels, "_extensions", lambda *args: built.append(args))
        for name in ("fd1", "negative-zeros"):
            problem = ZERO_BLOCK_PROBLEMS[name]
            args = _batched_inputs(problem, mesh_for(problem, 4))
            local_operator(args[0], 4.0, *args[1:])
            args = _element_inputs(problem, mesh_for(problem, 4), 1, 2)
            local_operator(args[0], 4.0, *args[1:])
        assert built == []  # only B and C use the basis extensions
