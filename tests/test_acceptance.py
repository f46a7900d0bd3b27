"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities.

Criteria (tolerances fixed here, not calibrated after the fact):
 1. quadratic exactness: tc1, kappa=4, n in {8,16,32,64} -> errors <= 1e-11
 2. error magnitudes within factor 2 of the reference values at n=8
 3. L2 rates in [1.8, 2.2], H1 rates in [1.5, 2.2] for n=16->64
 4. 7-point scheme accuracy and rates on fd1
 5. weak Galerkin / 7-point algebraic identity to 1e-13, rhs to 10 h^4 |f|
 6. maximum principle satisfied across problems, resolutions, kappas
 7. sign inequality of the local forms under the kappa condition
 8. kernel invariants over 1000 random rectangles to 1e-13
 9. positivity of v^T A v for random interior vectors
"""

import numpy as np

import swgfem as sw
from swgfem.kernels import (
    diffusion_matrix,
    extension_coeffs,
    stabilizer_matrix,
    weak_gradient,
)
from swgfem.mesh import ElementGeom
from swgfem.problems import get_problem, make_custom
from swgfem.solver import solve

from oracles import EDGE_NORMALS, edge_lengths, edge_midpoints, equivalence_gaps, midpoint_load

ALL_PROBLEMS = ("tc1", "tc2", "tc3", "fd1", "fd2")
KAPPAS = (0.7, 4.0, 20.0)


def solving(problem, kappa):
    """The weak Galerkin solve at resolution n, as ``swg run`` passes it."""
    def solve_at(n):
        mesh, _, sol = sw.solve_problem(problem, n, kappa)
        return mesh, sol
    return solve_at


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_quadratic_exactness():
    problem = get_problem("tc1")
    worst = 0.0
    for n in (8, 16, 32, 64):
        mesh, _, sol = sw.solve_problem(problem, n, 4.0)
        l2 = sw.discrete_l2_error(sol, mesh, problem.exact)
        h1 = sw.discrete_h1_error(sol, mesh, problem.exact_grad)
        worst = max(worst, l2, h1)
    report(1, worst <= 1e-11,
           f"tc1 kappa=4 max(L2, H1) over n in 8..64 = {worst:.2e} (<= 1e-11)")


def test_criterion_2_error_magnitudes():
    cases = (("tc1", 0.7, 1.79e-02), ("tc2", 20.0, 6.42e-04), ("tc3", 4.0, 1.99e-03))
    details, ok = [], True
    for pid, kappa, ref in cases:
        problem = get_problem(pid)
        mesh, _, sol = sw.solve_problem(problem, 8, kappa)
        l2 = sw.discrete_l2_error(sol, mesh, problem.exact)
        ratio = max(l2 / ref, ref / l2)
        ok &= ratio <= 2.0
        details.append(f"{pid} k={kappa}: {l2:.2e} vs {ref:.2e} (x{ratio:.2f})")
    report(2, ok, "; ".join(details))


def test_criterion_3_convergence_rates():
    bad = []
    for pid in ALL_PROBLEMS:
        problem = get_problem(pid)
        for kappa in KAPPAS:
            rows = sw.convergence_table(problem, (16, 32, 64), solving(problem, kappa))
            for row in rows[1:]:  # transitions 16->32 and 32->64
                if row.l2_rate is not None and not 1.8 <= row.l2_rate <= 2.2:
                    bad.append(f"{pid} k={kappa} n={row.n} L2 rate {row.l2_rate:.2f}")
                if row.h1_rate is not None and not 1.5 <= row.h1_rate <= 2.2:
                    bad.append(f"{pid} k={kappa} n={row.n} H1 rate {row.h1_rate:.2f}")
    report(3, not bad,
           "all rates in range for 5 problems x 3 kappas, n=16->64"
           if not bad else "; ".join(bad))


def test_criterion_4_fd_accuracy():
    problem = get_problem("fd1")
    errors = {}
    for n in (8, 16, 32, 64, 128):
        system = sw.assemble_fd7(n, 4.0, problem.f, problem.g)
        errors[n] = sw.discrete_l2_error(solve(system), system.mesh, problem.exact)
    ratio = max(errors[8] / 4.59e-04, 4.59e-04 / errors[8])
    rates = [np.log2(errors[n // 2] / errors[n]) for n in (32, 64, 128)]
    ok = ratio <= 2.0 and all(abs(r - 2.0) <= 0.15 for r in rates)
    report(4, ok,
           f"fd1 7-point k=4: L2(8)={errors[8]:.2e} (x{ratio:.2f} of 4.59e-04), "
           f"rates 16->128 = {['%.2f' % r for r in rates]}")


def test_criterion_5_swg_fd_equivalence():
    grid = np.linspace(0, 1, 129)
    xg, yg = np.meshgrid(grid, grid)
    bad, worst_m = [], 0.0
    for pid in ("fd1", "fd2"):
        problem = get_problem(pid)
        f_inf = float(np.max(np.abs(problem.f(xg, yg))))
        for n in (2, 4, 8, 16, 32):
            for kappa in KAPPAS:
                matrix_diff, rhs_diff = equivalence_gaps(n, kappa, problem)
                worst_m = max(worst_m, matrix_diff)
                if matrix_diff > 1e-13:
                    bad.append(f"{pid} n={n} k={kappa} matrix {matrix_diff:.1e}")
                if rhs_diff > 10.0 * (1.0 / n) ** 4 * f_inf:
                    bad.append(f"{pid} n={n} k={kappa} rhs {rhs_diff:.1e}")
    report(5, not bad,
           f"max matrix diff {worst_m:.1e} over n in 2..32, kappa in 0.7..20"
           if not bad else "; ".join(bad))


def test_criterion_6_dmp():
    bad = []
    for pid in ALL_PROBLEMS:
        problem = get_problem(pid)
        c_nonneg = not problem.c_is_zero
        for n in (8, 32, 128):
            for kappa in KAPPAS:
                mesh, _, sol = sw.solve_problem(problem, n, kappa)
                rep = sw.dmp_check(sol, mesh, c_nonneg)
                if not rep.satisfied:
                    bad.append(f"{pid} n={n} k={kappa} margin {rep.margin:.1e}")
    problem = get_problem("fd2")
    mesh, _, sol = sw.solve_problem(problem, 8, 0.7)
    spot = sw.dmp_check(sol, mesh, c_nonneg=False)
    spot_ok = (abs(spot.boundary_max - 0.9435) <= 5e-3
               and abs(spot.interior_max - 0.7448) <= 2e-2)
    ok = not bad and spot_ok
    report(6, ok,
           f"45/45 satisfied; fd2 k=0.7 n=8 boundary={spot.boundary_max:.4f} "
           f"interior={spot.interior_max:.4f}" if ok else "; ".join(
               bad + ([] if spot_ok else [f"spot check boundary={spot.boundary_max:.4f} "
                                          f"interior={spot.interior_max:.4f}"])))


def test_criterion_7_sign_inequality():
    rng = np.random.default_rng(7)
    problem = make_custom(beta=(0.5, -0.25), c=2.0)
    worst = np.inf
    for sigma in (0.5, 1.0, 2.0):
        hy = 0.01
        hx = sigma * hy
        h = max(hx, hy)
        geom = ElementGeom(hx, hy, (0.3, 0.4))
        rhs_bound = 1.0 * 0.5 * h + 1.0 * 2.0 * h * h
        mu = hx * hy / (2 * h * (hx + hy))
        kappa = 0.5 * (rhs_bound + (min(sigma, 1 / sigma) - rhs_bound)) / mu
        mesh = sw.build_tensor_mesh([0.3 - hx / 2, 0.3 + hx / 2],
                                    [0.4 - hy / 2, 0.4 + hy / 2])
        assert sw.kappa_condition(mesh, problem, kappa).all_ok
        for _ in range(1000):
            v = rng.normal(size=4) * rng.choice([0.1, 1.0, 10.0])
            worst = min(worst, sw.sign_inequality_value(geom, kappa, h, problem, v))
    report(7, worst >= -1e-13,
           f"min of kappa*S+a+b+c over v-, v+ pairs = {worst:.2e} "
           "(3000 random vectors, sigma in 0.5/1/2)")


def test_criterion_8_kernel_invariants():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        hx, hy = rng.uniform(1e-3, 1.0, 2)
        geom = ElementGeom(hx, hy, tuple(rng.uniform(-1, 1, 2)))
        h = max(hx, hy)

        # divergence identity of the weak gradient against a constant field
        v = rng.normal(size=4)
        phi = rng.normal(size=2)
        gx, gy = weak_gradient(geom, v)
        lhs = (gx * phi[0] + gy * phi[1]) * geom.area
        rhs = float((v * edge_lengths(hx, hy) * (EDGE_NORMALS @ phi)).sum())
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / scale)

        # linear exactness of extension and stabilizer kernel
        a, b, c = rng.uniform(-5, 5, 3)
        mids = edge_midpoints(hx, hy, geom.center)
        lin = a + b * (mids[:, 0] - geom.center[0]) + c * (mids[:, 1] - geom.center[1])
        g0, g1, g2 = extension_coeffs(geom, lin)
        lscale = max(1.0, abs(a), abs(b), abs(c))
        worst = max(worst, abs(g0 - a) / lscale, abs(g1 - b) / lscale, abs(g2 - c) / lscale)
        smat = stabilizer_matrix(geom, h)
        worst = max(worst, float(np.max(np.abs(smat @ lin))) / lscale)

        # constant load sums to |T|
        fval = rng.uniform(0.5, 2.0)
        load = midpoint_load(geom, lambda x, y: np.full_like(np.asarray(x, float), fval))
        worst = max(worst, abs(load.sum() - fval * geom.area) / (fval * geom.area))

        # symmetry and positive semidefiniteness of S and a
        amat = diffusion_matrix(
            geom, lambda x, y: (np.full_like(np.asarray(x, float), 2.0),
                                np.full_like(np.asarray(x, float), 0.5)))
        for mat in (smat, amat):
            mscale = max(1.0, float(np.max(np.abs(mat))))
            worst = max(worst, float(np.max(np.abs(mat - mat.T))) / mscale)
            worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(
                0.5 * (mat + mat.T)).min())) / mscale)
    report(8, worst <= 1e-13,
           f"worst scaled defect over 1000 random rectangles = {worst:.2e}")


def test_criterion_9_coercivity_witness():
    rng = np.random.default_rng(9)
    worst = np.inf
    for pid in ALL_PROBLEMS:
        problem = get_problem(pid)
        for kappa in KAPPAS:
            _, system, _ = sw.solve_problem(problem, 16, kappa)
            A = system.matrix
            vv = rng.normal(size=(A.shape[0], 100))
            quad = np.einsum("ij,ij->j", vv, A @ vv)
            worst = min(worst, float(quad.min() / (vv * vv).sum(axis=0).max()))
    report(9, worst > 0,
           f"min v^T A v (scaled) over 100 vectors x 5 problems x 3 kappas = {worst:.2e}")
