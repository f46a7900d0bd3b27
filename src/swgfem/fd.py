"""5- and 7-point finite difference schemes on uniform unit-square grids.

The unknowns sit at edge midpoints of a uniform n x n partition.  The
equation at an interior vertical midpoint couples it to the two flanking
vertical midpoints (weight c1 = c3 = kappa/4 - 1), itself (c2 = kappa/2 + 2)
and the four horizontal midpoints of the two adjacent cells (c4 = -kappa/4),
with right-hand side (h^2/2) f at the midpoint; horizontal rows are the
transpose picture.  At kappa = 4 the flanking weights vanish and the rows,
divided by h^2, become the 5-point scheme with weights (4, -1, -1, -1, -1).

Both assemblers share the edge-dof enumeration and boundary treatment of
the weak Galerkin path, to which the 7-point matrix is algebraically
identical when alpha = 1, beta = 0, c = 0.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (
    AssemblyConfig,
    SparseSystem,
    assemble,
    boundary_averages,
    stored_numbering,
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


def _assemble_stencil(n, stencil, rhs_scale, f, g):
    """Shared assembler: one row per interior edge midpoint, boundary
    values eliminated into the right-hand side."""
    mesh = uniform_mesh(n)
    dm = enumerate_dofs(mesh)

    g_b = boundary_averages(dm, g)
    order, number = stored_numbering(dm)

    mods = dm.midpoints[dm.interior]
    rhs = rhs_scale * f(mods[:, 0], mods[:, 1]) + np.zeros(dm.interior.size)

    rows, cols, data = [], [], []

    def add(row_ids, col_ids, weight):
        """Append stencil legs in stored numbering; boundary columns move to the rhs."""
        col_numbers = number[col_ids]
        bnd = col_numbers < 0
        np.add.at(rhs, dm.free_index[row_ids[bnd]], -weight * g_b[~col_numbers[bnd]])
        rows.append(number[row_ids[~bnd]])
        cols.append(col_numbers[~bnd])
        data.append(np.full(rows[-1].size, weight))

    nv = dm.n_vertical

    # vertical interior midpoints: i in 1..n-1, j in 0..n-1
    vi, vj = np.meshgrid(np.arange(1, n), np.arange(n), indexing="ij")
    vi, vj = vi.ravel(), vj.ravel()
    vid = vj * (n + 1) + vi
    add(vid, vid, stencil.c2)
    add(vid, vj * (n + 1) + (vi - 1), stencil.c1)
    add(vid, vj * (n + 1) + (vi + 1), stencil.c3)
    for di, dj in ((-1, 0), (-1, 1), (0, 0), (0, 1)):
        add(vid, nv + (vj + dj) * n + (vi + di), stencil.c4)

    # horizontal interior midpoints: i in 0..n-1, j in 1..n-1
    hi, hj = np.meshgrid(np.arange(n), np.arange(1, n), indexing="ij")
    hi, hj = hi.ravel(), hj.ravel()
    hid = nv + hj * n + hi
    add(hid, hid, stencil.c2)
    add(hid, nv + (hj - 1) * n + hi, stencil.c1)
    add(hid, nv + (hj + 1) * n + hi, stencil.c3)
    for di, dj in ((0, -1), (1, -1), (0, 0), (1, 0)):
        add(hid, (hj + dj) * (n + 1) + (hi + di), stencil.c4)

    entries = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
    ordered = sp.csc_matrix(entries, shape=(order.size, order.size))
    # each row sums the rows of one element block B in two elements:
    # 2p = 2q = c2, a = d = c1 (= c3), e = c4
    half = 0.5 * stencil.c2
    return SparseSystem(ordered, order, rhs, g_b, mesh,
                        (half, stencil.c1, half, stencil.c1, stencil.c4))


def assemble_fd7(n, kappa, f, g) -> SparseSystem:
    """7-point scheme with stabilization parameter kappa; rhs (h^2/2) f."""
    if n < 2:
        raise ValueError(f"need n >= 2 for interior unknowns, got {n}")
    stencil = stencil_weights(kappa)
    h = 1.0 / n
    return _assemble_stencil(n, stencil, 0.5 * h * h, f, g)


def assemble_fd5(n, f, g) -> SparseSystem:
    """5-point scheme: the kappa = 4 rows divided by h^2, rhs f/2."""
    if n < 2:
        raise ValueError(f"need n >= 2 for interior unknowns, got {n}")
    h = 1.0 / n
    scaled = FdStencil(c1=0.0, c2=4.0 / (h * h), c3=0.0, c4=-1.0 / (h * h))
    return _assemble_stencil(n, scaled, 0.5, f, g)


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

    # both systems live on uniform_mesh(n), so they share one stored order
    diff = (swg.ordered - fd.ordered).tocoo()
    matrix_diff = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
    rhs_diff = float(np.max(np.abs(swg.rhs - fd.rhs))) if swg.rhs.size else 0.0
    return EquivalenceReport(matrix_diff=matrix_diff, rhs_diff=rhs_diff)
