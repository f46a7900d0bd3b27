"""Registry of built-in manufactured test problems.

Five problems with closed-form exact solutions drive the convergence and
maximum-principle experiments; ``make_custom`` builds constant-coefficient
problems without an exact solution.  Resolution ``n`` always means
h = 1/n: a domain of side length L is partitioned into L*n subdivisions
per direction, so printed resolutions coincide with 1/h on every domain.
"""

import numpy as np

from .assembly import ProblemSpec
from .errors import UnknownProblem, ZeroSubdivisions
from .mesh import TensorMesh, build_tensor_mesh


def _filled(x, v):
    """float(v) in the shape and memory layout of x, an array or a Python float."""
    values = np.empty_like(x, dtype=float)
    values.fill(float(v))
    return values


def _const_pair(v1, v2):
    if float(v1).hex() != float(v2).hex():
        return lambda x, y: (_filled(x, v1), _filled(x, v2))

    def pair(x, y):  # bit-identical components share one array
        values = _filled(x, v1)
        return values, values
    return pair


def _const(v):
    return lambda x, y: _filled(x, v)


def _tc1():
    u = lambda x, y: x**2 + 2.0 * x * y
    return ProblemSpec(
        name="tc1",
        domain=(0.0, 1.0, 0.0, 1.0),
        alpha=_const_pair(1.0, 1.0),
        beta=_const_pair(-1.0, -1.0),
        c=_const(0.0),
        f=lambda x, y: -2.0 - 4.0 * x - 2.0 * y,
        g=u,
        exact=u,
        exact_grad=lambda x, y: (2.0 * x + 2.0 * y, 2.0 * x + np.zeros_like(y)),
        c_is_zero=True,
        description="u = x^2 + 2xy, alpha = I, beta = (-1,-1), c = 0, f = -2-4x-2y",
    )


def _tc2():
    u = lambda x, y: -np.sin(x) * np.sin(y)
    return ProblemSpec(
        name="tc2",
        domain=(0.0, 1.0, 0.0, 1.0),
        alpha=lambda x, y: (x * y + 1.0, 3.0 * x * y),
        beta=lambda x, y: (y + np.zeros_like(x), 3.0 * x + np.zeros_like(y)),
        c=_const(0.0),
        f=lambda x, y: -(4.0 * x * y + 1.0) * np.sin(x) * np.sin(y),
        g=u,
        exact=u,
        exact_grad=lambda x, y: (-np.cos(x) * np.sin(y), -np.sin(x) * np.cos(y)),
        c_is_zero=True,
        description="u = -sin(x)sin(y), alpha = diag(xy+1, 3xy), beta = (y,3x), c = 0",
    )


def _tc3():
    # u = -P(x)P(y) with P(t) = t^2(t^2 - 1.2) - 0.3
    P = lambda t: t * t * (t * t - 1.2) - 0.3
    dP = lambda t: 4.0 * t**3 - 2.4 * t
    u = lambda x, y: -P(x) * P(y)
    return ProblemSpec(
        name="tc3",
        domain=(-1.0, 1.0, -1.0, 1.0),
        alpha=_const_pair(1.0, 1.0),
        beta=_const_pair(0.0, 0.0),
        c=_const(16.0),
        f=lambda x, y: 8.0 * y * y * (2.7 - y * y) * P(x) + 8.0 * x * x * (2.7 - x * x) * P(y),
        g=u,
        exact=u,
        exact_grad=lambda x, y: (-dP(x) * P(y), -P(x) * dP(y)),
        c_is_zero=False,
        description="u = -(x^2(x^2-1.2)-0.3)(y^2(y^2-1.2)-0.3) on (-1,1)^2, c = 16",
    )


def _fd1():
    u = lambda x, y: -x * (x - 1.0) * y * (y - 1.0)
    return ProblemSpec(
        name="fd1",
        domain=(0.0, 1.0, 0.0, 1.0),
        alpha=_const_pair(1.0, 1.0),
        beta=_const_pair(0.0, 0.0),
        c=_const(0.0),
        f=lambda x, y: 2.0 * x * (x - 1.0) + 2.0 * y * (y - 1.0),
        g=u,
        exact=u,
        exact_grad=lambda x, y: (
            -(2.0 * x - 1.0) * y * (y - 1.0),
            -x * (x - 1.0) * (2.0 * y - 1.0),
        ),
        c_is_zero=True,
        pure_unit_diffusion=True,
        description="u = -x(x-1)y(y-1), pure diffusion, f = 2x(x-1)+2y(y-1)",
    )


def _fd2():
    u = lambda x, y: -np.sin(x) * np.sin(y) - x * x + y * y
    return ProblemSpec(
        name="fd2",
        domain=(0.0, 1.0, 0.0, 1.0),
        alpha=_const_pair(1.0, 1.0),
        beta=_const_pair(0.0, 0.0),
        c=_const(0.0),
        f=lambda x, y: -2.0 * np.sin(x) * np.sin(y),
        g=u,
        exact=u,
        exact_grad=lambda x, y: (
            -np.cos(x) * np.sin(y) - 2.0 * x,
            -np.sin(x) * np.cos(y) + 2.0 * y,
        ),
        c_is_zero=True,
        pure_unit_diffusion=True,
        description="u = -sin(x)sin(y) - x^2 + y^2, pure diffusion, f = -2sin(x)sin(y)",
    )


_REGISTRY = {
    "tc1": _tc1,
    "tc2": _tc2,
    "tc3": _tc3,
    "fd1": _fd1,
    "fd2": _fd2,
}

PROBLEM_IDS = tuple(_REGISTRY)


def get_problem(name: str) -> ProblemSpec:
    """Look up a built-in problem by id (tc1, tc2, tc3, fd1, fd2)."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise UnknownProblem(
            f"unknown problem {name!r}; available: {', '.join(PROBLEM_IDS)} "
            "(or 'custom' with explicit constants)"
        ) from None


def make_custom(alpha0=1.0, beta=(0.0, 0.0), c=0.0, f=0.0, g=0.0) -> ProblemSpec:
    """Constant-coefficient problem without an exact solution."""
    if alpha0 <= 0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    if c < 0:
        raise ValueError(f"custom problems require c >= 0, got {c}")
    return ProblemSpec(
        name="custom",
        domain=(0.0, 1.0, 0.0, 1.0),
        alpha=_const_pair(alpha0, alpha0),
        beta=_const_pair(beta[0], beta[1]),
        c=_const(c),
        f=_const(f),
        g=_const(g),
        c_is_zero=(c == 0.0),
        description=f"constant coefficients: alpha = {alpha0} I, beta = {tuple(beta)}, "
        f"c = {c}, f = {f}, g = {g}",
    )


def mesh_for(problem: ProblemSpec, n: int) -> TensorMesh:
    """Uniform mesh of element size h = 1/n over the problem's domain."""
    if n < 1:
        raise ZeroSubdivisions(f"resolution must be >= 1, got n={n}")
    x0, x1, y0, y1 = problem.domain
    cnt_x = round((x1 - x0) * n)
    cnt_y = round((y1 - y0) * n)
    if abs(cnt_x - (x1 - x0) * n) > 1e-9 or abs(cnt_y - (y1 - y0) * n) > 1e-9:
        raise ValueError(f"resolution n={n} does not tile domain {problem.domain}")
    return build_tensor_mesh(
        np.linspace(x0, x1, cnt_x + 1), np.linspace(y0, y1, cnt_y + 1)
    )
