import hashlib

import numpy as np
import pytest

from swgfem.assembly import ProblemSpec
from swgfem.errors import UnknownProblem, ZeroSubdivisions
from swgfem.mesh import element_arrays, enumerate_dofs
from swgfem.problems import PROBLEM_IDS, _const, _const_pair, get_problem, make_custom, mesh_for

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
        # f <= 0 at every edge midpoint and element centre the load samples
        problem = get_problem(pid)
        mesh = mesh_for(problem, 16)
        mid = enumerate_dofs(mesh).midpoints
        _, _, cx, cy, _ = element_arrays(mesh)
        assert np.all(np.asarray(problem.f(mid[:, 0], mid[:, 1])) <= 0)
        assert np.all(np.asarray(problem.f(cx, cy)) <= 0)

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


class TestSpecFields:
    def test_c_is_zero_has_no_default(self):
        # it picks dmp_check's bound, so a spec must state it
        fields = dict(name="spec", domain=(0.0, 1.0, 0.0, 1.0), alpha=_const_pair(1.0, 1.0),
                      beta=_const_pair(0.0, 0.0), c=_const(5.0), f=_const(0.0), g=_const(0.0))
        with pytest.raises(TypeError, match="c_is_zero"):
            ProblemSpec(**fields)
        assert not ProblemSpec(**fields, c_is_zero=False).c_is_zero


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


#: Points at which the golden bits are taken: one (2, 4) array pair, shaped
#: like the Gauss points of two elements, and two Python float pairs.
GOLDEN_POINTS = (
    (np.array([[-0.9, -0.25, 0.0, 0.1], [0.37, 0.83, 1.0, 0.5]]),
     np.array([[0.6, -1.0, 0.45, 0.9], [0.13, 0.5, 0.0, -0.3]])),
    (0.37, 0.13),
    (-0.7, 0.91),
)

#: First 16 hex digits of the sha256 of the space-joined ``float.hex`` of
#: every value a callable returns at ``GOLDEN_POINTS`` (each output
#: component in turn, broadcast to the input shape).  Any change to the
#: arithmetic of a problem, its evaluation order included, changes them.
#: Recorded with numpy 2.4.6 on x86-64 with AVX-512.  numpy's SIMD sin, cos
#: and power may round differently on another build or CPU; the digests of
#: the callables that use them (tc2, fd2, tc3's exact_grad) then have to be
#: recorded again from an unchanged checkout.
GOLDEN_BITS = {
    ("tc1", "alpha"): "024dfb4097f0eda0",
    ("tc1", "beta"): "a2e362c9c9bccfd1",
    ("tc1", "c"): "004d04b4efc4c1c0",
    ("tc1", "f"): "1f08e2438fb56605",
    ("tc1", "g"): "d771f38f310c48cd",
    ("tc1", "exact"): "d771f38f310c48cd",
    ("tc1", "exact_grad"): "44f3af8f8785b5df",
    ("tc2", "alpha"): "66897502db830625",
    ("tc2", "beta"): "2f2a351cef4fea6c",
    ("tc2", "c"): "004d04b4efc4c1c0",
    ("tc2", "f"): "3417e7140ed20151",
    ("tc2", "g"): "de359a444c74cca4",
    ("tc2", "exact"): "de359a444c74cca4",
    ("tc2", "exact_grad"): "ab5e636c6ae45f9c",
    ("tc3", "alpha"): "024dfb4097f0eda0",
    ("tc3", "beta"): "60cf612109b72d5a",
    ("tc3", "c"): "09194b715246c3b7",
    ("tc3", "f"): "e6c6c67601d6af0e",
    ("tc3", "g"): "d409ce1f83589b16",
    ("tc3", "exact"): "d409ce1f83589b16",
    ("tc3", "exact_grad"): "b99ddeee8403af57",
    ("fd1", "alpha"): "024dfb4097f0eda0",
    ("fd1", "beta"): "60cf612109b72d5a",
    ("fd1", "c"): "004d04b4efc4c1c0",
    ("fd1", "f"): "27b89b6d19c3e053",
    ("fd1", "g"): "b77ea082c2723d85",
    ("fd1", "exact"): "b77ea082c2723d85",
    ("fd1", "exact_grad"): "9a8fb5e1ba3fbb94",
    ("fd2", "alpha"): "024dfb4097f0eda0",
    ("fd2", "beta"): "60cf612109b72d5a",
    ("fd2", "c"): "004d04b4efc4c1c0",
    ("fd2", "f"): "48b11d4e0ed38cce",
    ("fd2", "g"): "e2c70f781c560763",
    ("fd2", "exact"): "e2c70f781c560763",
    ("fd2", "exact_grad"): "c6743750617d043d",
    ("custom", "alpha"): "77fd427a24ed96ac",
    ("custom", "beta"): "f71bb60b8b089fc6",
    ("custom", "c"): "c49b37eeeb9f52ab",
    ("custom", "f"): "d2e2cfba1458014d",
    ("custom", "g"): "d060df9766cd628c",
}


def golden_problems():
    return [get_problem(pid) for pid in PROBLEM_IDS] + [
        make_custom(2.5, (0.75, -1.25), 3.0, -1.5, 0.25)]


class TestGoldenBits:
    @pytest.mark.parametrize("problem", golden_problems(), ids=lambda p: p.name)
    def test_callables_keep_their_bits(self, problem):
        for (name, field), digest in GOLDEN_BITS.items():
            if name != problem.name:
                continue
            values = []
            for x, y in GOLDEN_POINTS:
                out = getattr(problem, field)(x, y)
                for component in out if isinstance(out, tuple) else (out,):
                    assert np.result_type(component) == np.float64, (field, x)
                    values += [float(v).hex()
                               for v in np.broadcast_to(component, np.shape(x)).ravel()]
            got = hashlib.sha256(" ".join(values).encode()).hexdigest()[:16]
            assert got == digest, (name, field, values)

    def test_every_callable_is_pinned(self):
        pinned = {(p.name, f) for p in golden_problems()
                  for f in ("alpha", "beta", "c", "f", "g", "exact", "exact_grad")
                  if getattr(p, f) is not None}
        assert pinned == set(GOLDEN_BITS)

    def test_constants_are_float_for_integer_input(self):
        x = np.arange(6).reshape(2, 3)
        for out in (_const(2)(x, x), *_const_pair(1, -3)(x, x)):
            assert out.dtype == np.float64 and out.shape == (2, 3)
        assert _const_pair(1, -3)(x, x)[1][0, 0] == -3.0
