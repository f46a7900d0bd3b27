"""Global system assembly over edge midpoints with Dirichlet data.

The equation attached to an interior edge is the sum of the local-operator
rows contributed by its (at most two) adjacent elements, so every row
couples at most 7 unknowns.  Dirichlet data enters either by elimination
(default: boundary unknowns substituted and moved to the right-hand side)
or by a large diagonal penalty.

Boundary values are per-edge averages of g.  Two quadrature rules are
available: ``midpoint`` (the default; reproduces midpoint-sampled
quadratics exactly at kappa = 4) and the more accurate ``simpson``.
"""

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import kernels
from .errors import NonFiniteData, NonPositiveDiffusion, SingularConfig
from .mesh import DofMap, EdgeDof, ElementGeom, TensorMesh, element_arrays, enumerate_dofs

QB_RULES = ("midpoint", "simpson")
BC_MODES = ("eliminate", "penalty")
MIN_PENALTY_WEIGHT = 1e8


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients and data of one convection-diffusion-reaction problem.

    All callables are vectorized over numpy coordinate arrays.  ``alpha``
    returns the diagonal pair (a11, a22) of the diffusion tensor (scalar
    diffusion passes a11 = a22); off-diagonal tensors are not representable
    by construction.  ``exact``/``exact_grad`` are optional and enable
    error studies.
    """

    name: str
    domain: tuple  # (x0, x1, y0, y1)
    alpha: Callable
    beta: Callable
    c: Callable
    f: Callable
    g: Callable
    exact: Callable | None = None
    exact_grad: Callable | None = None
    alpha0: float = 0.0
    c_is_zero: bool = True
    pure_unit_diffusion: bool = False  # alpha = I, beta = 0, c = 0; gates the FD schemes
    description: str = ""


@dataclass(frozen=True)
class AssemblyConfig:
    """Stabilization parameter and boundary treatment."""

    kappa: float
    bc_mode: str = "eliminate"
    penalty_weight: float = 1e10
    qb_rule: str = "midpoint"

    def __post_init__(self):
        if self.kappa <= 0:
            raise SingularConfig(f"kappa must be positive, got {self.kappa}")
        if self.bc_mode not in BC_MODES:
            raise ValueError(f"bc_mode must be one of {BC_MODES}")
        if self.qb_rule not in QB_RULES:
            raise ValueError(f"qb_rule must be one of {QB_RULES}")
        if self.bc_mode == "penalty" and self.penalty_weight < MIN_PENALTY_WEIGHT:
            raise SingularConfig(
                f"penalty weight must be >= {MIN_PENALTY_WEIGHT:g}"
            )


@dataclass(frozen=True)
class SparseSystem:
    """Assembled sparse system over the free edge dofs.

    In ``eliminate`` mode the matrix covers interior dofs only and
    ``boundary_values`` holds the imposed averages of g (aligned with
    ``dof_map.boundary``).  In ``penalty`` mode the matrix covers all dofs.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dof_map: DofMap
    boundary_values: np.ndarray
    bc_mode: str
    mesh: TensorMesh


def _edge_averages(g, midpoints, lengths, vertical, rule: str) -> np.ndarray:
    """Averages of ``g`` over edges given by midpoint (k, 2), length and orientation.

    ``simpson`` uses the 3-point rule (exact for cubics along the edge);
    ``midpoint`` samples g at the edge midpoint.
    """
    mx, my = midpoints[:, 0], midpoints[:, 1]
    if rule == "midpoint":
        return np.asarray(g(mx, my), dtype=float) + np.zeros(mx.size)
    if rule != "simpson":
        raise ValueError(f"rule must be one of {QB_RULES}")
    half = 0.5 * lengths
    x0 = np.where(vertical, mx, mx - half)
    x1 = np.where(vertical, mx, mx + half)
    y0 = np.where(vertical, my - half, my)
    y1 = np.where(vertical, my + half, my)
    vals = (
        np.asarray(g(x0, y0), dtype=float)
        + 4.0 * np.asarray(g(mx, my), dtype=float)
        + np.asarray(g(x1, y1), dtype=float)
    ) / 6.0
    return vals + np.zeros(mx.size)


def edge_average(g, edge: EdgeDof, rule: str = "simpson") -> float:
    """Approximate average of ``g`` over one edge (see :func:`_edge_averages`)."""
    return float(_edge_averages(
        g, np.array([edge.midpoint]), np.array([edge.length]),
        np.array([edge.orientation == "vertical"]), rule,
    )[0])


def boundary_averages(mesh: TensorMesh, dof_map: DofMap, g, rule: str) -> np.ndarray:
    """Averages of g over all boundary edges, aligned with dof_map.boundary."""
    b = dof_map.boundary
    return _edge_averages(
        g, dof_map.midpoints[b], dof_map.lengths[b], dof_map.is_vertical[b], rule
    )


def _require_finite(name, *samples):
    if not all(np.all(np.isfinite(v)) for v in samples):
        raise NonFiniteData(f"{name} is NaN or infinite at a sample point")


def assemble(mesh: TensorMesh, problem: ProblemSpec, config: AssemblyConfig) -> SparseSystem:
    """Assemble the global system for ``problem`` on ``mesh``.

    Each coefficient is evaluated once over all elements; the batched
    :func:`kernels.local_operator` and :func:`kernels.load_vector` give the
    element blocks, which are accumulated in a fixed row-major order, so
    single-threaded assembly is bit-reproducible.
    """
    dof_map = enumerate_dofs(mesh)
    hx, hy, cx, cy, conn = element_arrays(mesh)
    geom = ElementGeom(hx, hy, (cx, cy))
    pts, _ = kernels.gauss_points(geom)
    qx, qy = pts[..., 0], pts[..., 1]
    a11, a22 = (np.broadcast_to(np.asarray(a, dtype=float), qx.shape)
                for a in problem.alpha(qx, qy))
    _require_finite("alpha", a11, a22)
    amin = min(a11.min(), a22.min())
    if amin < 0:
        raise NonPositiveDiffusion("diffusion tensor negative at a quadrature point")
    if amin == 0:
        # tolerate degeneracy confined to elements touching the domain boundary
        el_min = np.minimum(a11.min(axis=1), a22.min(axis=1))
        nx, ny = mesh.nx, mesh.ny
        ii = np.arange(hx.size) % nx
        jj = np.arange(hx.size) // nx
        at_boundary = (ii == 0) | (ii == nx - 1) | (jj == 0) | (jj == ny - 1)
        if np.any((el_min <= 0) & ~at_boundary):
            raise NonPositiveDiffusion(
                "diffusion tensor vanishes at an interior quadrature point"
            )
        warnings.warn(
            "diffusion tensor vanishes at boundary-adjacent quadrature points",
            RuntimeWarning,
            stacklevel=2,
        )
    beta_q = problem.beta(qx, qy)
    _require_finite("beta", *beta_q)
    c_val = np.asarray(problem.c(cx, cy), dtype=float)
    _require_finite("c", c_val)
    if c_val.min() < 0:
        warnings.warn(
            "reaction coefficient negative on some elements; "
            "maximum-principle guarantees do not apply",
            RuntimeWarning,
            stacklevel=2,
        )
    local = kernels.local_operator(
        geom, config.kappa, mesh.h, (a11, a22), beta_q, c_val)
    # f at the dof midpoints, which lie exactly on the mesh breakpoints
    f_mid = np.asarray(
        problem.f(dof_map.midpoints[:, 0], dof_map.midpoints[:, 1]), dtype=float
    ) + np.zeros(dof_map.count)
    loads = kernels.load_vector(geom, problem.f, f_mid=f_mid[conn])
    _require_finite("f", loads)

    count = dof_map.count
    rows = np.broadcast_to(conn[:, :, None], local.shape)
    cols = np.broadcast_to(conn[:, None, :], local.shape)
    full = sp.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(count, count)
    ).tocsr()
    rhs = np.zeros(count)
    np.add.at(rhs, conn.ravel(), loads.ravel())

    g_b = boundary_averages(mesh, dof_map, problem.g, config.qb_rule)
    _require_finite("g", g_b)

    if config.bc_mode == "eliminate":
        interior, boundary = dof_map.interior, dof_map.boundary
        interior_rows = full[interior]
        a_ii = interior_rows[:, interior].tocsr()
        rhs_free = rhs[interior] - interior_rows[:, boundary] @ g_b
        return SparseSystem(a_ii, rhs_free, dof_map, g_b, "eliminate", mesh)

    weight = config.penalty_weight
    pen = sp.coo_matrix(
        (np.full(dof_map.boundary.size, weight), (dof_map.boundary, dof_map.boundary)),
        shape=(count, count),
    ).tocsr()
    rhs_pen = rhs.copy()
    rhs_pen[dof_map.boundary] += weight * g_b
    return SparseSystem(full + pen, rhs_pen, dof_map, g_b, "penalty", mesh)


def dump_matrix(system: SparseSystem, path) -> None:
    """Write the matrix in coordinate text format (row col value per line)."""
    coo = system.matrix.tocoo()
    with open(path, "w") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write("%d %d %.17g\n" % (r, c, v))
