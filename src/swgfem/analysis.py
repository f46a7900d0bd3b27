"""Error norms, convergence tables, and maximum-principle verification.

The discrete norms are defined on uniform square meshes only: the L2 norm
sums squared midpoint errors over every edge (boundary included) and the
H1 norm sums squared errors of the per-element difference quotients
against the exact gradient at element centers, both scaled by h.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .assembly import AssemblyConfig, ProblemSpec, assemble, sample_coefficients
from .errors import NegativeReaction, NonPositiveDiffusion, NonUniformMesh
from .mesh import _UNIFORM_RTOL, ElementGeom, TensorMesh, element_arrays, elements, enumerate_dofs
from .problems import mesh_for
from .solver import Solution, solve

#: Errors at or below ``EXACT_FLOOR * max(1, (n / 64)**2)`` are treated as
#: exact reproduction and produce no convergence rate (printed as "-").  The
#: floor grows with n as the round-off of an exact solve does (tc1 at kappa 4:
#: H1 error 3.2e-12 at n = 256 and 1.05e-11 at n = 512).
EXACT_FLOOR = 1e-12

#: Absolute slack absorbing solver residual in maximum-principle checks.
DMP_SLACK = 1e-12


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    l2_error: float
    l2_rate: float | None
    h1_error: float
    h1_rate: float | None


@dataclass(frozen=True)
class DmpReport:
    interior_max: float
    boundary_max: float
    bound: float
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class KappaConditionReport:
    """Per-element slacks of the stabilization-parameter condition.

    With eta = kappa*|T| / (2h(hx+hy)) and rhs_bound = |beta|_inf*h +
    |c|_inf*h^2, the three slacks are eta - rhs_bound,
    alpha_min*hy/hx - eta - rhs_bound and alpha_min*hx/hy - eta - rhs_bound;
    the aspect test requires sigma = hx/hy in [0.5, 2] to a relative _UNIFORM_RTOL.
    """

    eta: np.ndarray
    slack1: np.ndarray
    slack2: np.ndarray
    slack3: np.ndarray
    aspect_ok: np.ndarray
    all_ok: bool


def _uniform_h(mesh: TensorMesh) -> float:
    if not mesh.is_uniform:
        raise NonUniformMesh("discrete norms are defined on uniform square meshes")
    return float(mesh.dx[0])


def discrete_l2_error(solution: Solution, mesh: TensorMesh, u_exact) -> float:
    """h * sqrt(sum over all edge midpoints of |u_b - u|^2)."""
    h = _uniform_h(mesh)
    dm = enumerate_dofs(mesh)
    diff = solution.values - np.asarray(u_exact(dm.midpoints[:, 0], dm.midpoints[:, 1]))
    return float(h * np.sqrt(np.sum(diff * diff)))


def discrete_h1_error(solution: Solution, mesh: TensorMesh, grad_exact) -> float:
    """h * sqrt(sum over elements of squared difference-quotient errors)."""
    h = _uniform_h(mesh)
    vals = solution.values
    hx, hy, cx, cy, conn = element_arrays(mesh)
    gx_exact, gy_exact = grad_exact(cx, cy)
    qx = (vals[conn[:, 1]] - vals[conn[:, 0]]) / hx - np.asarray(gx_exact)
    qy = (vals[conn[:, 3]] - vals[conn[:, 2]]) / hy - np.asarray(gy_exact)
    return float(h * np.sqrt(np.sum(qx * qx) + np.sum(qy * qy)))


def solve_problem(problem: ProblemSpec, n: int, kappa: float, *, solve_config=None):
    """Assemble and solve ``problem`` at resolution n (h = 1/n).

    Returns (mesh, system, solution).
    """
    mesh = mesh_for(problem, n)
    system = assemble(mesh, problem, AssemblyConfig(kappa=kappa))
    return mesh, system, solve(system, solve_config)


def _exact_floor(n):
    return EXACT_FLOOR * max(1.0, (n / 64) ** 2)


def _rate(prev_err, err, prev_n, n):
    if prev_err is None or prev_err <= _exact_floor(prev_n) or err <= _exact_floor(n):
        return None
    return math.log(prev_err / err) / math.log(n / prev_n)


def convergence_table(problem: ProblemSpec, ns, solve_at) -> list:
    """One solve per resolution; rates from successive error ratios.

    ``solve_at(n)`` solves ``problem`` at h = 1/n and returns (mesh, solution);
    its errors are taken before the next resolution is solved.
    """
    ns = list(ns)
    if any(n < 2 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"resolutions must be increasing and >= 2, got {ns}")
    if problem.exact is None or problem.exact_grad is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")

    def errors_at(n):
        mesh, sol = solve_at(n)
        return (
            discrete_l2_error(sol, mesh, problem.exact),
            discrete_h1_error(sol, mesh, problem.exact_grad),
        )

    errors = [errors_at(n) for n in ns]
    rows = []
    prev = (None, None, None)
    for n, (l2, h1) in zip(ns, errors):
        rows.append(
            ConvergenceRow(
                n=n,
                l2_error=l2,
                l2_rate=_rate(prev[0], l2, prev[2], n),
                h1_error=h1,
                h1_rate=_rate(prev[1], h1, prev[2], n),
            )
        )
        prev = (l2, h1, n)
    return rows


def dmp_check(solution: Solution, mesh: TensorMesh, c_nonneg: bool) -> DmpReport:
    """Compare the interior midpoint maximum against the boundary bound.

    The bound is the boundary maximum, clipped at zero when the reaction
    coefficient is nonnegative rather than identically zero.
    """
    dm = enumerate_dofs(mesh)
    vals = solution.values
    interior_max = float(np.max(vals[dm.interior])) if dm.interior.size else -np.inf
    boundary_max = float(np.max(vals[dm.boundary]))
    bound = max(boundary_max, 0.0) if c_nonneg else boundary_max
    return DmpReport(
        interior_max=interior_max,
        boundary_max=boundary_max,
        bound=bound,
        satisfied=bool(interior_max <= bound + DMP_SLACK),
        margin=float(bound - interior_max),
    )


def split_pos_neg(v):
    """Componentwise split v = v_plus + v_minus with v_plus >= 0 >= v_minus."""
    v = np.asarray(v, dtype=float)
    return np.maximum(v, 0.0), np.minimum(v, 0.0)


def sign_inequality_value(geom: ElementGeom, kappa, h_global, problem: ProblemSpec, v) -> float:
    """kappa*S(v-, v+) + a(v-, v+) + b(v-, v+) + c(v-, v+) on one element.

    Nonnegative whenever the element satisfies the stabilization-parameter
    condition (see :func:`kappa_condition`).
    """
    kernels.require_kappa(kappa)
    v_plus, v_minus = split_pos_neg(v)
    alpha_q, beta_q, c_val = sample_coefficients(geom, problem)
    if min(alpha_q[0].min(), alpha_q[1].min()) <= 0:
        raise NonPositiveDiffusion("diffusion tensor not positive at a quadrature point")
    if c_val < 0:
        raise NegativeReaction(f"reaction coefficient must be >= 0, got {float(c_val)}")
    op = kernels.local_operator(geom, kappa, h_global, alpha_q, beta_q, c_val)
    # rows are test functions, columns trial: B(v-, v+) = v+^T Op v-
    return float(v_plus @ op @ v_minus)


def kappa_condition(mesh: TensorMesh, problem: ProblemSpec, kappa: float,
                    h: float | None = None) -> KappaConditionReport:
    """Evaluate the per-element stabilization condition and aspect test.

    ``h`` defaults to the meshsize the stabilizer actually uses
    (max element extent); passing 2|T|/(hx+hy) instead reproduces the
    square-element reduction kappa <= 4*alpha*min(sigma, 1/sigma) when
    beta and c vanish.
    """
    kernels.require_kappa(kappa)
    h_eff = mesh.h if h is None else float(h)
    kernels.require_meshsize(h_eff)
    geom = elements(mesh)
    hx, hy = geom.hx, geom.hy
    area = hx * hy

    (a11, a22), (b1, b2), c = sample_coefficients(geom, problem)
    p0, p1, p2, p3 = np.minimum(a11, a22).T  # per Gauss point, over the elements
    alpha_min = np.minimum(np.minimum(p0, p1), np.minimum(p2, p3))
    beta_inf = max(float(np.abs(b1).max()), float(np.abs(b2).max()))
    c_inf = float(np.abs(c).max())

    rhs_bound = beta_inf * h_eff + c_inf * h_eff * h_eff
    eta = kappa * area / (2.0 * h_eff * (hx + hy))
    slack1 = eta - rhs_bound
    slack2 = alpha_min * hy / hx - eta - rhs_bound
    slack3 = alpha_min * hx / hy - eta - rhs_bound
    sigma = hx / hy
    aspect_ok = (sigma >= 0.5 * (1 - _UNIFORM_RTOL)) & (sigma <= 2.0 * (1 + _UNIFORM_RTOL))
    all_ok = bool(min(slack1.min(), slack2.min(), slack3.min()) >= 0 and aspect_ok.all())
    return KappaConditionReport(
        eta=eta, slack1=slack1, slack2=slack2, slack3=slack3,
        aspect_ok=aspect_ok, all_ok=all_ok,
    )

