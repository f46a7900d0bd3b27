"""5- and 7-point finite difference schemes on uniform unit-square grids.

The unknowns sit at edge midpoints of a uniform n x n partition.  The
equation at an interior vertical midpoint couples it to the two flanking
vertical midpoints (weight c1 = c3 = kappa/4 - 1), itself (c2 = kappa/2 + 2)
and the four horizontal midpoints of the two adjacent cells (c4 = -kappa/4),
with right-hand side (h^2/2) f at the midpoint; horizontal rows are the
transpose picture.  At kappa = 4 the flanking weights vanish and the rows,
divided by h^2, become the 5-point scheme with weights (4, -1, -1, -1, -1).

The 7-point matrix equals the weak Galerkin one when alpha = 1, beta = 0,
c = 0, and its assembler stays an independent oracle of it: it shares the
dof numbering (:func:`~swgfem.assembly.row_numbering`) and the row layout
(:class:`~swgfem.assembly.Rows`), but slices its own neighbours and lifts
its own boundary legs.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import (
    AssemblyConfig,
    Rows,
    SparseSystem,
    assemble,
    boundary_averages,
    row_numbering,
)
from .kernels import require_kappa
from .mesh import enumerate_dofs, uniform_mesh
from .problems import get_problem


@dataclass(frozen=True)
class FdStencil:
    """7-point stencil weights; c2 + c1 + c3 + 4*c4 = 0."""

    c1: float
    c2: float
    c3: float
    c4: float


def stencil_weights(kappa: float) -> FdStencil:
    require_kappa(kappa)
    return FdStencil(
        c1=kappa / 4.0 - 1.0,
        c2=kappa / 2.0 + 2.0,
        c3=kappa / 4.0 - 1.0,
        c4=-kappa / 4.0,
    )


def _assemble_stencil(n, scheme, f, g):
    """Shared assembler: one row per interior edge midpoint, its 7 slots (the
    edge, its two flanking and its four crossing edges) sliced from the [j, i]
    grids of the vertical and horizontal edges' row numbers, and its
    boundary legs moved to the right-hand side slot by slot.  ``scheme(h)``
    gives the stencil and the rhs scale at the step h = 1/n."""
    if n < 2:
        raise ValueError(f"need n >= 2 for interior unknowns, got {n}")
    stencil, rhs_scale = scheme(1.0 / n)
    mesh = uniform_mesh(n)
    dm = enumerate_dofs(mesh)

    g_b = boundary_averages(dm, g)
    number = row_numbering(dm)

    rhs = rhs_scale * f(*dm.midpoints[dm.interior].T) + np.zeros(dm.interior.size)

    v, h = number[:dm.n_vertical].reshape(n, n + 1), number[dm.n_vertical:].reshape(n + 1, n)
    split = n * (n - 1)
    # v(i, j) couples v(i-1, j), v(i+1, j), h(i-1, j), h(i-1, j+1), h(i, j), h(i, j+1);
    # h(i, j) couples h(i, j-1), h(i, j+1), v(i, j-1), v(i+1, j-1), v(i, j), v(i+1, j)
    columns = np.empty((dm.interior.size, 7), dtype=number.dtype)
    for rows, legs in (
            (columns[:split].reshape(n, n - 1, 7),
             (v[:, 1:-1], v[:, :-2], v[:, 2:], h[:-1, :-1], h[1:, :-1], h[:-1, 1:], h[1:, 1:])),
            (columns[split:].reshape(n - 1, n, 7),
             (h[1:-1], h[:-2], h[2:], v[:-1, :-1], v[:-1, 1:], v[1:, :-1], v[1:, 1:]))):
        for slot, leg in enumerate(legs):
            rows[..., slot] = leg
    weights = (stencil.c2, stencil.c1, stencil.c3) + 4 * (stencil.c4,)
    boundary = columns < 0
    for slot in range(1, 7):  # the boundary legs, one slot after another
        lifted = np.flatnonzero(boundary[:, slot])
        rhs[lifted] -= weights[slot] * g_b[~columns[lifted, slot]]
    columns[boundary] = dm.interior.size
    # each row's slots by ascending dof id, as the rows of assemble hold them
    values = np.empty(columns.shape)
    for part, ascending in ((np.s_[:split], [1, 0, 2, 3, 5, 4, 6]),
                            (np.s_[split:], [3, 4, 5, 6, 1, 0, 2])):
        columns[part] = columns[part][:, ascending]
        values[part] = np.take(weights, ascending)
    # each row sums the rows of one element block B in two elements: B's
    # diagonal is c2 / 2, its flanking entries c1 (= c3) and its crossing c4
    half, c1, c4 = 0.5 * stencil.c2, stencil.c1, stencil.c4
    block = np.array([[half, c1, c4, c4], [c1, half, c4, c4],
                      [c4, c4, half, c1], [c4, c4, c1, half]])
    return SparseSystem(Rows(values, columns), rhs, g_b, mesh, block)


def assemble_fd7(n, kappa, f, g) -> SparseSystem:
    """7-point scheme with stabilization parameter kappa; rhs (h^2/2) f."""
    stencil = stencil_weights(kappa)
    return _assemble_stencil(n, lambda h: (stencil, 0.5 * h * h), f, g)


def assemble_fd5(n, f, g) -> SparseSystem:
    """5-point scheme: the kappa = 4 rows divided by h^2, rhs f/2."""
    return _assemble_stencil(
        n, lambda h: (FdStencil(c1=0.0, c2=4.0 / (h * h), c3=0.0, c4=-1.0 / (h * h)), 0.5), f, g)


@dataclass(frozen=True)
class EquivalenceReport:
    matrix_diff: float
    rhs_diff: float


def check_equivalence(n, kappa) -> EquivalenceReport:
    """Max entrywise difference between the weak Galerkin and 7-point systems.

    Both take f and g from fd2, whose alpha = 1, beta = 0 and c = 0 make the
    two schemes comparable.  Matrices agree exactly; right-hand sides differ
    only by the O(h^4) gap between the product quadrature of the load and
    the pointwise midpoint sampling.
    """
    problem = get_problem("fd2")
    swg = assemble(uniform_mesh(n), problem, AssemblyConfig(kappa=kappa))
    fd = assemble_fd7(n, kappa, problem.f, problem.g)

    diff = (swg.matrix - fd.matrix).tocoo()
    matrix_diff = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
    rhs_diff = float(np.max(np.abs(swg.rhs - fd.rhs))) if swg.rhs.size else 0.0
    return EquivalenceReport(matrix_diff=matrix_diff, rhs_diff=rhs_diff)
