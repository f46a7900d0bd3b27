import numpy as np
import pytest

from swgfem.analysis import f_nonpositive
from swgfem.errors import UnknownProblem, ZeroSubdivisions
from swgfem.problems import PROBLEM_IDS, get_problem, make_custom, mesh_for

STEP = 1e-5


def pde_residual(problem, x, y):
    """-(a11 u_x)_x - (a22 u_y)_y + beta . grad u + c u - f by central
    differences of the stored exact solution and coefficients."""
    u = problem.exact
    d = STEP

    def ux(x, y):
        return (u(x + d, y) - u(x - d, y)) / (2 * d)

    def uy(x, y):
        return (u(x, y + d) - u(x, y - d)) / (2 * d)

    def flux_x(x, y):
        return problem.alpha(x, y)[0] * ux(x, y)

    def flux_y(x, y):
        return problem.alpha(x, y)[1] * uy(x, y)

    div = (flux_x(x + d, y) - flux_x(x - d, y)) / (2 * d) + (
        flux_y(x, y + d) - flux_y(x, y - d)
    ) / (2 * d)
    b1, b2 = problem.beta(x, y)
    return -div + b1 * ux(x, y) + b2 * uy(x, y) + problem.c(x, y) * u(x, y) - problem.f(x, y)


def interior_grid(problem, m=10):
    x0, x1, y0, y1 = problem.domain
    xs = np.linspace(x0, x1, m + 2)[1:-1]
    ys = np.linspace(y0, y1, m + 2)[1:-1]
    return np.meshgrid(xs, ys)


class TestRegistry:
    def test_ids(self):
        assert PROBLEM_IDS == ("tc1", "tc2", "tc3", "fd1", "fd2")

    def test_unknown(self):
        with pytest.raises(UnknownProblem):
            get_problem("nosuch")

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_manufactured_consistency(self, pid):
        problem = get_problem(pid)
        xg, yg = interior_grid(problem)
        res = pde_residual(problem, xg, yg)
        assert np.max(np.abs(res)) < 1e-4

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_exact_gradient_consistency(self, pid):
        problem = get_problem(pid)
        xg, yg = interior_grid(problem)
        gx, gy = problem.exact_grad(xg, yg)
        fd_gx = (problem.exact(xg + STEP, yg) - problem.exact(xg - STEP, yg)) / (2 * STEP)
        fd_gy = (problem.exact(xg, yg + STEP) - problem.exact(xg, yg - STEP)) / (2 * STEP)
        np.testing.assert_allclose(gx, fd_gx, atol=1e-8)
        np.testing.assert_allclose(gy, fd_gy, atol=1e-8)

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_f_nonpositive_at_load_samples(self, pid):
        problem = get_problem(pid)
        assert f_nonpositive(problem, mesh_for(problem, 16))

    def test_g_matches_exact_trace(self):
        for pid in PROBLEM_IDS:
            problem = get_problem(pid)
            x0, x1, y0, y1 = problem.domain
            xs = np.linspace(x0, x1, 7)
            np.testing.assert_allclose(problem.g(xs, np.full_like(xs, y0)),
                                       problem.exact(xs, np.full_like(xs, y0)))


class TestSpecificValues:
    def test_tc1_fields(self):
        p = get_problem("tc1")
        assert p.domain == (0.0, 1.0, 0.0, 1.0)
        a11, a22 = p.alpha(0.3, 0.7)
        assert (a11, a22) == (1.0, 1.0)
        assert p.beta(0.3, 0.7) == (-1.0, -1.0)
        assert p.f(0.5, 0.25) == pytest.approx(-2 - 4 * 0.5 - 2 * 0.25)
        assert p.c_is_zero

    def test_tc2_fields(self):
        p = get_problem("tc2")
        a11, a22 = p.alpha(0.5, 0.4)
        assert a11 == pytest.approx(0.5 * 0.4 + 1)
        assert a22 == pytest.approx(3 * 0.5 * 0.4)
        b1, b2 = p.beta(0.5, 0.4)
        assert (b1, b2) == (pytest.approx(0.4), pytest.approx(1.5))
        assert p.f(0.5, 0.4) == pytest.approx(
            -(4 * 0.5 * 0.4 + 1) * np.sin(0.5) * np.sin(0.4))

    def test_tc3_fields(self):
        p = get_problem("tc3")
        assert p.domain == (-1.0, 1.0, -1.0, 1.0)
        assert p.c(0.0, 0.0) == 16.0
        assert not p.c_is_zero
        # u(0, 0) = -(-0.3)(-0.3)
        assert p.exact(0.0, 0.0) == pytest.approx(-0.09)

    def test_fd1_f(self):
        p = get_problem("fd1")
        assert p.f(0.25, 0.75) == pytest.approx(
            2 * 0.25 * (0.25 - 1) + 2 * 0.75 * (0.75 - 1))
        assert p.pure_unit_diffusion

    def test_fd2_boundary_value(self):
        p = get_problem("fd2")
        assert p.exact(0.0, 1.0) == pytest.approx(1.0)
        assert p.pure_unit_diffusion

    def test_tc1_not_pure_diffusion(self):
        assert not get_problem("tc1").pure_unit_diffusion

    def test_custom_never_flagged_pure_diffusion(self):
        # the flag is explicit: unit constants do not set it
        assert not make_custom(alpha0=1.0, beta=(0.0, 0.0), c=0.0).pure_unit_diffusion


class TestCustom:
    def test_constant_problem(self):
        p = make_custom(alpha0=2.0, beta=(1.0, -1.0), c=0.5, f=-1.0, g=3.0)
        assert p.alpha(0.1, 0.9)[0] == 2.0
        assert p.f(0.5, 0.5) == -1.0
        assert p.exact is None
        assert not p.c_is_zero

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            make_custom(alpha0=0.0)
        with pytest.raises(ValueError):
            make_custom(c=-1.0)


class TestMeshFor:
    def test_unit_square(self):
        mesh = mesh_for(get_problem("tc1"), 8)
        assert (mesh.nx, mesh.ny) == (8, 8)
        assert mesh.h == pytest.approx(1 / 8)

    def test_tc3_resolution_means_inverse_h(self):
        mesh = mesh_for(get_problem("tc3"), 8)
        assert (mesh.nx, mesh.ny) == (16, 16)
        assert mesh.h == pytest.approx(1 / 8)
        assert mesh.bounds == (-1.0, 1.0, -1.0, 1.0)

    def test_bad_resolution(self):
        with pytest.raises(ZeroSubdivisions):
            mesh_for(get_problem("tc1"), 0)
