import hashlib
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import swgfem.mesh as m
from swgfem.analysis import (
    _rate,
    convergence_table,
    discrete_h1_error,
    discrete_l2_error,
    dmp_check,
    kappa_condition,
    sign_inequality_value,
    solve_problem,
    split_pos_neg,
)
from swgfem.assembly import AssemblyConfig, assemble, sample_coefficients
from swgfem.errors import NegativeReaction, NonPositiveDiffusion, NonUniformMesh
from swgfem.kernels import local_operator
from swgfem.mesh import (
    ElementGeom,
    build_tensor_mesh,
    element_arrays,
    element_geometry,
    enumerate_dofs,
    uniform_mesh,
)
from swgfem.problems import PROBLEM_IDS, get_problem, make_custom, mesh_for
from swgfem.solver import Solution, solve


def solving(problem, kappa):
    """The weak Galerkin solve at resolution n, as ``swg run`` passes it."""
    def solve_at(n):
        mesh, _, sol = solve_problem(problem, n, kappa)
        return mesh, sol
    return solve_at


class TestNorms:
    def test_sampled_exact_gives_zero(self):
        problem = get_problem("fd2")
        mesh = mesh_for(problem, 8)
        dm = enumerate_dofs(mesh)
        vals = problem.exact(dm.midpoints[:, 0], dm.midpoints[:, 1])
        assert discrete_l2_error(Solution(values=vals), mesh, problem.exact) == 0.0

    def test_h1_zero_for_linear(self):
        mesh = uniform_mesh(8)
        dm = enumerate_dofs(mesh)
        u = lambda x, y: 2.0 * np.asarray(x, float) - 3.0 * np.asarray(y) + 1.0
        grad = lambda x, y: (np.full_like(np.asarray(x, float), 2.0),
                             np.full_like(np.asarray(x, float), -3.0))
        vals = u(dm.midpoints[:, 0], dm.midpoints[:, 1])
        assert discrete_h1_error(Solution(values=vals), mesh, grad) <= 1e-14

    def test_l2_table_values(self):
        # kappa = 0.7 and kappa = 20 rows at n = 8 / n = 16 (frozen from runs,
        # consistent with the reported magnitudes within their tolerance)
        problem = get_problem("tc1")
        mesh, _, sol = solve_problem(problem, 8, 0.7)
        assert discrete_l2_error(sol, mesh, problem.exact) == pytest.approx(
            1.268e-02, rel=1e-3)
        problem3 = get_problem("tc3")
        mesh, _, sol = solve_problem(problem3, 16, 20.0)
        assert discrete_l2_error(sol, mesh, problem3.exact) == pytest.approx(
            1.16e-03, rel=0.5)

    def test_h1_table_value(self):
        problem = get_problem("tc2")
        mesh, _, sol = solve_problem(problem, 8, 4.0)
        assert discrete_h1_error(sol, mesh, problem.exact_grad) == pytest.approx(
            1.03e-02, rel=0.5)

    def test_nonuniform_rejected(self):
        mesh = m.build_tensor_mesh([0, 0.4, 1], [0, 0.5, 1])
        zero = Solution(values=np.zeros(12))
        with pytest.raises(NonUniformMesh):
            discrete_l2_error(zero, mesh, lambda x, y: x)
        with pytest.raises(NonUniformMesh):
            discrete_h1_error(zero, mesh, lambda x, y: (x, y))


class TestConvergenceTable:
    def test_rates_near_two(self):
        problem = get_problem("fd1")
        rows = convergence_table(problem, (8, 16, 32), solving(problem, 0.7))
        assert rows[0].l2_rate is None and rows[0].h1_rate is None
        assert rows[1].l2_rate == pytest.approx(2.0, abs=0.3)
        assert rows[2].l2_rate == pytest.approx(2.0, abs=0.15)

    def test_exact_solution_rates_not_applicable(self):
        problem = get_problem("tc1")
        rows = convergence_table(problem, (8, 16), solving(problem, 4.0))
        assert all(r.l2_error <= 1e-12 for r in rows)
        assert rows[1].l2_rate is None
        assert rows[1].h1_rate is None

    def test_rate_floor_grows_with_n(self):
        # the floor is 1e-12 up to n = 64 and 1e-12 * (n/64)^2 beyond
        assert _rate(1e-10, 1e-12, 32, 64) is None
        assert _rate(1e-10, 1.1e-12, 32, 64) == pytest.approx(math.log2(1e-10 / 1.1e-12))
        assert _rate(4e-11, 1.6e-11, 128, 256) is None
        assert _rate(4e-11, 1.7e-11, 128, 256) == pytest.approx(math.log2(4e-11 / 1.7e-11))
        assert _rate(4e-12, 1e-9, 128, 256) is None
        assert _rate(4.1e-12, 1e-9, 128, 256) == pytest.approx(math.log2(4.1e-12 / 1e-9))

    def test_bad_resolutions(self):
        problem = get_problem("fd1")
        with pytest.raises(ValueError):
            convergence_table(problem, (8, 4), solving(problem, 4.0))
        with pytest.raises(ValueError):
            convergence_table(problem, (1, 2), solving(problem, 4.0))

    def test_requires_exact_solution(self):
        problem = make_custom()
        with pytest.raises(ValueError):
            convergence_table(problem, (4, 8), solving(problem, 4.0))

    def test_each_solve_dies_before_the_next(self):
        # the table keeps only errors: when solve_at(n_k+1) is entered, the
        # mesh and solution that solve_at(n_k) returned are gone
        problem = get_problem("fd1")
        solve_at = solving(problem, 0.7)
        returned, alive = [], []

        def tracked(n):
            alive.append([ref() is not None for ref in returned])
            mesh, sol = solve_at(n)
            returned.extend((weakref.ref(mesh), weakref.ref(sol)))
            return mesh, sol

        rows = convergence_table(problem, (4, 8, 16), tracked)
        assert [r.n for r in rows] == [4, 8, 16]
        assert alive == [[], [False] * 2, [False] * 4]


class TestDmpCheck:
    def test_constant_solution_margin_zero(self):
        mesh = uniform_mesh(4)
        dm = enumerate_dofs(mesh)
        rep = dmp_check(Solution(values=np.full(dm.count, 2.0)), mesh, c_nonneg=False)
        assert rep.satisfied
        assert rep.margin == pytest.approx(0.0, abs=1e-14)
        assert rep.interior_max == rep.boundary_max == 2.0

    def test_fd2_spot_values(self):
        problem = get_problem("fd2")
        mesh, _, sol = solve_problem(problem, 8, 0.7)
        rep = dmp_check(sol, mesh, c_nonneg=False)
        assert rep.satisfied
        assert rep.boundary_max == pytest.approx(0.9435, abs=5e-3)
        assert rep.interior_max == pytest.approx(0.7448, abs=2e-2)

    def test_fd1_interior_below_zero_bound(self):
        problem = get_problem("fd1")
        mesh, _, sol = solve_problem(problem, 32, 4.0)
        rep = dmp_check(sol, mesh, c_nonneg=False)
        assert rep.satisfied
        assert rep.boundary_max == pytest.approx(0.0, abs=1e-12)
        assert rep.interior_max == pytest.approx(-4.6e-04, abs=1e-4)

    def test_tc3_needs_clipped_bound(self):
        problem = get_problem("tc3")
        mesh, _, sol = solve_problem(problem, 8, 4.0)
        strict = dmp_check(sol, mesh, c_nonneg=False)
        clipped = dmp_check(sol, mesh, c_nonneg=True)
        # interior max exceeds the boundary max but stays below zero
        assert not strict.satisfied
        assert clipped.satisfied
        assert clipped.bound == 0.0

    @pytest.mark.parametrize("boundary", [-0.5, 0.0, 0.75])
    @pytest.mark.parametrize("c_nonneg", [False, True])
    def test_bound_and_margin(self, boundary, c_nonneg):
        mesh = uniform_mesh(4)
        dm = enumerate_dofs(mesh)
        vals = np.full(dm.count, boundary)
        vals[dm.interior] = np.linspace(-1.0, -0.6, dm.interior.size)
        rep = dmp_check(Solution(values=vals), mesh, c_nonneg=c_nonneg)
        assert rep.boundary_max == boundary and rep.interior_max == -0.6
        assert rep.bound == (max(rep.boundary_max, 0.0) if c_nonneg else rep.boundary_max)
        assert rep.margin == rep.bound - rep.interior_max

    def test_violation_detected(self):
        mesh = uniform_mesh(4)
        dm = enumerate_dofs(mesh)
        vals = np.zeros(dm.count)
        vals[dm.interior[0]] = 1.0
        assert not dmp_check(Solution(values=vals), mesh, c_nonneg=False).satisfied

    @pytest.mark.parametrize("pid", ["fd1", "tc2"])
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("kappa", [0.7, 4.0])
    def test_satisfied_at_intermediate_resolutions(self, pid, n, kappa):
        problem = get_problem(pid)
        mesh, _, sol = solve_problem(problem, n, kappa)
        assert dmp_check(sol, mesh, c_nonneg=not problem.c_is_zero).satisfied

    def test_fd1_kappa20_interior_value(self):
        problem = get_problem("fd1")
        mesh, _, sol = solve_problem(problem, 8, 20.0)
        rep = dmp_check(sol, mesh, c_nonneg=False)
        assert rep.satisfied
        assert rep.interior_max == pytest.approx(-6.3e-03, abs=1e-3)


class TestSplitPosNeg:
    def test_example(self):
        plus, minus = split_pos_neg([1.0, -2.0, 0.0, 3.0])
        np.testing.assert_array_equal(plus, [1, 0, 0, 3])
        np.testing.assert_array_equal(minus, [0, -2, 0, 0])

    def test_nonnegative_vector(self):
        plus, minus = split_pos_neg([0.5, 0.0, 2.0, 1.0])
        np.testing.assert_array_equal(minus, 0.0)

    def test_reconstruction_and_orthogonality(self, rng):
        for _ in range(50):
            v = rng.normal(size=4)
            plus, minus = split_pos_neg(v)
            np.testing.assert_allclose(plus + minus, v)
            np.testing.assert_array_equal(plus * minus, 0.0)


class TestKappaCondition:
    def test_square_threshold_four(self):
        problem = make_custom(alpha0=1.0)
        mesh = uniform_mesh(8)
        assert kappa_condition(mesh, problem, 3.99).all_ok
        assert kappa_condition(mesh, problem, 4.0).all_ok
        assert not kappa_condition(mesh, problem, 4.01).all_ok

    def test_kappa_twenty_fails(self):
        assert not kappa_condition(uniform_mesh(8), make_custom(), 20.0).all_ok

    def test_aspect_ratio_gate(self):
        problem = make_custom()
        stretched = m.build_tensor_mesh([0, 1], np.linspace(0, 1, 4))
        # sigma = 3: aspect test fails regardless of kappa
        assert not kappa_condition(stretched, problem, 0.1).all_ok

    @pytest.mark.parametrize("nx, ny", [(12, 6), (6, 12)])
    def test_aspect_at_the_limit_passes_despite_round_off(self, nx, ny):
        # on some elements of the 12x6 mesh hx/hy reads 0.49999999999999933
        mesh = m.build_tensor_mesh(np.linspace(0, 1, nx + 1), np.linspace(0, 1, ny + 1))
        report = kappa_condition(mesh, make_custom(), 2.0)
        assert min(report.slack1.min(), report.slack2.min(), report.slack3.min()) > 0
        assert report.aspect_ok.all() and report.all_ok

    def test_sigma_two_with_harmonic_meshsize(self):
        # with h = 2|T|/(hx+hy) the admissible range is kappa <= 4 min(sigma, 1/sigma)
        problem = make_custom()
        mesh = m.build_tensor_mesh([0, 2.0], [0, 1.0])
        h_harm = 2 * 2.0 / 3.0
        assert kappa_condition(mesh, problem, 1.99, h=h_harm).all_ok
        assert not kappa_condition(mesh, problem, 2.01, h=h_harm).all_ok

    def test_lower_order_terms_shrink_window(self):
        problem = make_custom(beta=(1.0, 0.0))
        mesh = uniform_mesh(4)  # h = 0.25: rhs bound = 0.25
        report = kappa_condition(mesh, problem, 3.9)
        assert not report.all_ok  # slack2 = 1 - eta - 0.25 < 0 at eta ~ 0.975
        assert kappa_condition(mesh, problem, 2.0).all_ok


class TestSignInequality:
    def test_single_signed_vectors_vanish(self, rng):
        geom = ElementGeom(0.01, 0.01, (0.0, 0.0))
        problem = make_custom()
        for v in ([1.0, 2.0, 0.5, 3.0], [-1.0, -0.1, -2.0, -0.5]):
            assert sign_inequality_value(geom, 1.0, 0.01, problem, v) == pytest.approx(0.0)

    def test_square_alternating_nonnegative(self):
        geom = ElementGeom(1.0, 1.0, (0.0, 0.0))
        problem = make_custom()
        val = sign_inequality_value(geom, 1.0, 1.0, problem, [1.0, -1.0, 1.0, -1.0])
        assert val >= -1e-13

    def test_sign_pattern_enumeration(self):
        # all 81 vectors with entries in {-1, 0, 1} on an admissible square
        geom = ElementGeom(0.5, 0.5, (0.0, 0.0))
        problem = make_custom()
        vals = []
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                for c in (-1, 0, 1):
                    for d in (-1, 0, 1):
                        vals.append(
                            sign_inequality_value(geom, 2.0, 0.5, problem, [a, b, c, d]))
        assert min(vals) >= -1e-13

    def test_rejects_nonpositive_diffusion_and_negative_reaction(self):
        geom = ElementGeom(0.5, 0.5, (0.25, 0.25))
        v = [1.0, -1.0, 0.5, -0.5]
        base = make_custom()
        for a22 in (0.0, -1.0):
            alpha = lambda x, y, a22=a22: (np.ones_like(x), np.full_like(x, a22))
            with pytest.raises(NonPositiveDiffusion):
                sign_inequality_value(geom, 1.0, 0.5, replace(base, alpha=alpha), v)
        negative_c = replace(base, c=lambda x, y: np.full_like(np.asarray(x, float), -0.1))
        with pytest.raises(NegativeReaction):
            sign_inequality_value(geom, 1.0, 0.5, negative_c, v)

    def test_random_vectors_nonnegative_under_condition(self, rng):
        problem = make_custom(beta=(0.5, -0.25), c=2.0)
        for sigma in (0.5, 1.0, 2.0):
            hy = 0.01
            hx = sigma * hy
            h = max(hx, hy)
            geom = ElementGeom(hx, hy, (0.25, 0.75))
            rhs_bound = 0.5 * h + 2.0 * h * h
            mu = hx * hy / (2 * h * (hx + hy))
            kappa = 0.5 * (rhs_bound + min(sigma, 1 / sigma) - rhs_bound) / mu
            mesh = m.build_tensor_mesh([0.25 - hx / 2, 0.25 + hx / 2],
                                       [0.75 - hy / 2, 0.75 + hy / 2])
            assert kappa_condition(mesh, problem, kappa).all_ok
            vals = [sign_inequality_value(geom, kappa, h, problem, rng.normal(size=4))
                    for _ in range(200)]
            assert min(vals) >= -1e-13


def condition_window(mesh, problem):
    """The kappas ``kappa_condition`` accepts on ``mesh``, as (lo, hi).

    eta and the three slacks are affine in kappa (slack1 grows with eta,
    slack2 and slack3 shrink with it), so their reading at kappa = 1 gives
    both ends.
    """
    at_one = kappa_condition(mesh, problem, 1.0)
    eta = at_one.eta
    lo = np.max((eta - at_one.slack1) / eta)
    hi = np.min((np.minimum(at_one.slack2, at_one.slack3) + eta) / eta)
    return lo, hi


def breaks(widths, lo, hi):
    """Breaks from lo to hi whose cells have the given relative widths."""
    return lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(widths) / np.sum(widths)])


#: Problems with f <= 0 and c >= 0, for which the paper's condition implies the DMP.
SOURCE_FREE_PROBLEMS = st.one_of(
    st.sampled_from(["fd1", "fd2", "tc1", "tc3"]).map(get_problem),
    st.builds(make_custom, alpha0=st.floats(0.5, 2.0),
              beta=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
              c=st.floats(0.0, 4.0), f=st.floats(-2.0, 0.0), g=st.floats(-1.0, 1.0)),
)


class TestPaperConditionImpliesDmp:
    @settings(max_examples=100)
    @given(problem=SOURCE_FREE_PROBLEMS,
           x_widths=st.lists(st.floats(1.0, 1.5), min_size=2, max_size=14),
           y_widths=st.lists(st.floats(1.0, 1.5), min_size=2, max_size=14),
           where=st.floats(0.001, 0.999),
           v=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    # tc1 and tc3 open a window only on near-uniform meshes of many cells
    @example(problem=get_problem("tc3"), x_widths=[1.0, 1.2] * 7, y_widths=[1.0] * 14,
             where=0.5, v=[1.0, -1.0, 0.5, -0.25])
    @example(problem=get_problem("tc1"), x_widths=[1.0, 1.5, 1.2] * 3, y_widths=[1.0, 1.4] * 4,
             where=0.999, v=[-0.5, 1.0, 1.0, -1.0])
    def test_condition_implies_dmp_and_sign_inequality(self, problem, x_widths, y_widths,
                                                       where, v):
        x0, x1, y0, y1 = problem.domain
        mesh = m.build_tensor_mesh(breaks(x_widths, x0, x1), breaks(y_widths, y0, y1))
        assume(kappa_condition(mesh, problem, 1.0).aspect_ok.all())
        lo, hi = condition_window(mesh, problem)
        assume(lo < hi)
        kappa = lo + where * (hi - lo)
        assert kappa_condition(mesh, problem, kappa).all_ok
        system = assemble(mesh, problem, AssemblyConfig(kappa=kappa))
        assert dmp_check(solve(system), mesh, not problem.c_is_zero).satisfied
        for i, j in ((0, 0), (mesh.nx - 1, mesh.ny - 1)):
            geom = element_geometry(mesh, i, j)
            assert sign_inequality_value(geom, kappa, mesh.h, problem, np.array(v)) >= -1e-12


#: Problems of the analysis digests: the five built-ins and a custom problem
#: with beta != 0 and c > 0, so that every block of the local operator forms.
GOLDEN_PROBLEMS = PROBLEM_IDS + ("custom",)
GOLDEN_KAPPAS = (0.7, 4.0, 20.0)

#: sha256 (first 16 hex digits) of :func:`kappa_condition_digest` and
#: :func:`sign_values_digest` per problem, recorded on 5ef50b1.  fd1 and fd2
#: share alpha = I, beta = 0, c = 0 and the unit square, so their digests agree.
GOLDEN_KAPPA_CONDITION = {
    "tc1": "df6fd0435f8e4f5d",
    "tc2": "f0e45cf2400d4f3f",
    "tc3": "27feea18c2e2837a",
    "fd1": "d8893dad93468826",
    "fd2": "d8893dad93468826",
    "custom": "7c7fb2e0a2c9335e",
}
GOLDEN_SIGN_VALUES = {
    "tc1": "b5711e232a7349bb",
    "tc2": "a808cb0970fd5949",
    "tc3": "cd000b712b4b9fbc",
    "fd1": "b779844dc0e58935",
    "fd2": "b779844dc0e58935",
    "custom": "4183673571ff078a",
}

#: The same digests on the n x 1 and 1 x n meshes of :func:`strip_meshes`,
#: and of the sign values on corner elements, recorded on 9c2fc6b.
GOLDEN_KAPPA_CONDITION_STRIPS = {
    "tc1": "7c0054addb0985e3",
    "tc2": "c340eb4ab4e1d52b",
    "tc3": "1eaef00dc8133278",
    "fd1": "d4a9dfd1d2fe0207",
    "fd2": "d4a9dfd1d2fe0207",
    "custom": "0eeda053ad330161",
}
GOLDEN_CORNER_SIGN_VALUES = {
    "tc1": "a6090853a6e65bbb",
    "tc2": "87e35a3986195e29",
    "tc3": "5c63eeacbd0071d7",
    "fd1": "c2d8532967975bc9",
    "fd2": "c2d8532967975bc9",
    "custom": "f263eb1ca5219529",
}


def golden_problem(pid):
    if pid == "custom":
        return make_custom(alpha0=1.3, beta=(0.6, -0.4), c=3.0, f=-1.0, g=0.5)
    return get_problem(pid)


def golden_meshes(problem):
    """Two seeded nonuniform meshes stretched over the problem's domain."""
    x0, x1, y0, y1 = problem.domain
    for seed in (5, 6):
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(2, 9, size=2)
        xt, yt = (np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, k - 1)), [1.0]])
                  for k in (nx, ny))
        yield build_tensor_mesh(x0 + (x1 - x0) * xt, y0 + (y1 - y0) * yt)


def strip_meshes(problem):
    """Seeded nonuniform n x 1 and 1 x n meshes over the problem's domain."""
    x0, x1, y0, y1 = problem.domain
    rng = np.random.default_rng(8)
    for nx, ny in ((7, 1), (1, 6)):
        xt, yt = (np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, k - 1)), [1.0]])
                  for k in (nx, ny))
        yield build_tensor_mesh(x0 + (x1 - x0) * xt, y0 + (y1 - y0) * yt)


def kappa_condition_digest(pid, meshes=golden_meshes):
    """The dtype, shape and bytes of every array of ``kappa_condition`` on
    the golden meshes, at each golden kappa, with the default h and half of it."""
    digest = hashlib.sha256()
    problem = golden_problem(pid)
    for mesh in meshes(problem):
        for kappa in GOLDEN_KAPPAS:
            for h in (None, 0.5 * mesh.h):
                report = kappa_condition(mesh, problem, kappa, h)
                for a in (report.eta, report.slack1, report.slack2, report.slack3,
                          report.aspect_ok):
                    digest.update(f"{a.dtype.str}{a.shape}".encode())
                    digest.update(a.tobytes())
                digest.update(bytes([report.all_ok]))
    return digest.hexdigest()[:16]


def sign_values(pid):
    """``sign_inequality_value`` on every element of the golden meshes at
    each golden kappa, for seeded edge vectors, with the batched local
    operator of the same mesh and kappa."""
    problem = golden_problem(pid)
    rng = np.random.default_rng(7)
    for mesh in golden_meshes(problem):
        hx, hy, cx, cy, _ = element_arrays(mesh)
        geom = ElementGeom(hx, hy, (cx, cy))
        alpha_q, beta_q, c = sample_coefficients(geom, problem)
        for kappa in GOLDEN_KAPPAS:
            blocks = local_operator(geom, kappa, mesh.h, alpha_q, beta_q, c)
            for j in range(mesh.ny):
                for i in range(mesh.nx):
                    v = rng.uniform(-1.0, 1.0, 4)
                    value = sign_inequality_value(element_geometry(mesh, i, j), kappa, mesh.h,
                                                  problem, v)
                    # a contiguous copy, as numpy multiplies the strided
                    # view by a loop of its own, whose sums round otherwise
                    yield value, v, blocks[j * mesh.nx + i].copy()


def sign_values_digest(pid):
    values = np.array([value for value, _, _ in sign_values(pid)])
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


def corner_sign_values_digest(pid):
    """``sign_inequality_value`` on the corner elements (0, 0) and
    (nx - 1, ny - 1) of the strip and golden meshes, at each golden kappa,
    for seeded edge vectors of every sign pattern."""
    problem = golden_problem(pid)
    rng = np.random.default_rng(9)
    values = []
    for mesh in (*strip_meshes(problem), *golden_meshes(problem)):
        for kappa in GOLDEN_KAPPAS:
            for i, j in ((0, 0), (mesh.nx - 1, mesh.ny - 1)):
                geom = element_geometry(mesh, i, j)
                for signs in ((1, -1, 1, -1), (-1, -1, 1, 1), (1, 1, 1, -1)):
                    v = np.array(signs) * rng.uniform(0.1, 1.0, 4)
                    values.append(sign_inequality_value(geom, kappa, mesh.h, problem, v))
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()[:16]


class TestGoldenAnalysis:
    @pytest.mark.parametrize("pid", GOLDEN_PROBLEMS)
    def test_kappa_condition_same_bytes(self, pid):
        assert kappa_condition_digest(pid) == GOLDEN_KAPPA_CONDITION[pid]

    @pytest.mark.parametrize("pid", GOLDEN_PROBLEMS)
    def test_sign_values_same_bytes(self, pid):
        assert sign_values_digest(pid) == GOLDEN_SIGN_VALUES[pid]

    @pytest.mark.parametrize("pid", GOLDEN_PROBLEMS)
    def test_kappa_condition_same_bytes_on_strips(self, pid):
        assert kappa_condition_digest(pid, strip_meshes) == GOLDEN_KAPPA_CONDITION_STRIPS[pid]

    @pytest.mark.parametrize("pid", GOLDEN_PROBLEMS)
    def test_corner_sign_values_same_bytes(self, pid):
        assert corner_sign_values_digest(pid) == GOLDEN_CORNER_SIGN_VALUES[pid]

    @pytest.mark.parametrize("pid", GOLDEN_PROBLEMS)
    def test_sign_value_is_batched_block_form(self, pid):
        for value, v, block in sign_values(pid):
            v_plus, v_minus = split_pos_neg(v)
            assert value == float(v_plus @ block @ v_minus)
