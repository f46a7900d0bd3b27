"""Sparse linear solves with a post-hoc residual check.

The direct path is SuperLU on the system permuted by geometric nested
dissection of the tensor mesh (:func:`nested_dissection`; George, SIAM J.
Numer. Anal. 10 (1973) 345; Lipton, Rose & Tarjan, SIAM J. Numer. Anal. 16
(1979) 346).  Each SWG row couples only the edges of the two elements that
share its edge, so the edges on any grid line of a block of elements
separate the block's two sides.  The order recursively splits the mesh at
the middle grid line of the longer side and numbers each separator after
the two halves; SuperLU then keeps that order (``permc_spec="NATURAL"``).
This halves the factor against SuperLU's minimum-degree ordering of
A^T A + A: 6.69 M against 13.4 M entries at 130,560 dofs.  The iterative
path is ILU-preconditioned BiCGStab, which handles the nonsymmetric systems
produced by nonzero convection.

``auto`` solves directly while the factor predicted from the measured
nested-dissection fill (:func:`predicted_factor_bytes`) fits in
``DIRECT_MEMORY_SHARE`` of physical memory, and iteratively otherwise:
up to about 3.3 M dofs (the unit square at n = 1290) with 8 GB.

Every solve checks the returned vector independently of solver internals:
a direct solve by its normwise backward error (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 7), an iterative one by its
relative residual against ``tol``.
"""

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SparseSystem
from .errors import NoConvergence, SingularMatrix
from .mesh import DofMap

#: Factor entries per dof are FILL_SLOPE * ln(dofs / FILL_ORIGIN); the
#: measured nnz(L+U)/dofs was 51.2, 55.4, 58.9, 63.9 and 66.6 at 130,560,
#: 261,364, 523,264, 1,178,112 and 2,095,104 dofs, against 51.6, 55.5,
#: 59.4, 63.9 and 67.1 predicted.
FILL_SLOPE = 5.6
FILL_ORIGIN = 13.0

#: Peak bytes a direct solve adds per factor entry: 13.4-17.5 measured as
#: the peak RSS of ``solve`` over the RSS before it at the sizes above.
BYTES_PER_ENTRY = 18.0

#: Regions of at most this many elements keep the natural dof order.  At
#: tc2 n=256, leaves of 4, 16 and 64 elements gave 6.69 M, 7.07 M and
#: 11.3 M factor entries; leaves of 1 or 2 gave the same factor as 4.
ND_LEAF_ELEMENTS = 4

#: Share of physical memory a predicted factor may take under "auto".
DIRECT_MEMORY_SHARE = 0.5

#: Largest normwise backward error accepted from a direct solve.
DIRECT_BACKWARD_TOL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class SolveConfig:
    method: str = "auto"  # "direct" | "iterative" | "auto"
    tol: float = 1e-12
    max_iter: int = 100_000

    def __post_init__(self):
        if self.method not in ("direct", "iterative", "auto"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class Solution:
    """Edge-midpoint values (boundary dofs carry their imposed averages)."""

    values: np.ndarray
    residual_norm: float
    iterations: int
    method: str  # "direct" | "iterative": the path the solve took


def predicted_factor_bytes(dofs: int) -> float:
    """Predicted peak memory of the direct solve of ``dofs`` unknowns."""
    fill = max(FILL_SLOPE * math.log(max(dofs, 1) / FILL_ORIGIN), 1.0)
    return BYTES_PER_ENTRY * fill * dofs


def auto_method(dofs: int, memory_bytes: int | None = None) -> str:
    """The method "auto" picks: direct while the factor fits the memory share."""
    if memory_bytes is None:
        memory_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    fits = predicted_factor_bytes(dofs) <= DIRECT_MEMORY_SHARE * memory_bytes
    return "direct" if fits else "iterative"


def nested_dissection(dof_map: DofMap) -> np.ndarray:
    """Nested-dissection order of all edge dofs of a tensor mesh.

    A region is a block of elements.  It is split at the middle grid line of
    its longer side (counted in elements; x on a tie), and its edges on that
    line, which separate the two halves, are ordered after both halves.
    Regions of at most ``ND_LEAF_ELEMENTS`` elements keep the natural order.
    Edges on the global boundary stay in the region that holds them.  The
    order depends on (nx, ny) only.
    """
    vertical = dof_map.is_vertical
    # doubled coordinates: vertical edge (i, j) at (2i, 2j+1), horizontal at (2i+1, 2j)
    coords = np.stack([2 * dof_map.grid_i + ~vertical, 2 * dof_map.grid_j + vertical])
    # one base-3 digit per level: 0 first half, 1 second half, 2 separator;
    # a mesh needs about log2(nx * ny) levels, and an int64 key holds 39
    key = np.zeros(dof_map.count, dtype=np.int64)
    ids = np.arange(dof_map.count)
    region = np.zeros(dof_map.count, dtype=np.int64)
    # element-index corners (x, y) of each region; region r has children 2r, 2r+1
    lo = np.zeros((1, 2), dtype=np.int64)
    hi = np.array([[dof_map.nx, dof_map.ny]])
    while ids.size:
        size = hi - lo
        rows = np.arange(lo.shape[0])
        axis = (size[:, 0] < size[:, 1]).astype(np.int64)
        mid = (lo[rows, axis] + hi[rows, axis]) // 2
        live = (size[:, 0] * size[:, 1] > ND_LEAF_ELEMENTS)[region]
        ids, region = ids[live], region[live]
        key *= 3
        offset = coords[axis[region], ids] - 2 * mid[region]
        digit = (offset > 0) + 2 * (offset == 0)
        key[ids] += digit
        keep = offset != 0
        ids, region = ids[keep], 2 * region[keep] + digit[keep]
        lo, hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
        hi[2 * rows, axis] = mid
        lo[2 * rows + 1, axis] = mid
    return np.argsort(key, kind="stable")


def system_ordering(system: SparseSystem) -> np.ndarray:
    """Nested-dissection order of the rows and columns of ``system.matrix``."""
    order = nested_dissection(system.dof_map)
    if system.bc_mode == "eliminate":
        free = system.dof_map.free_index[order]
        return free[free >= 0]
    return order


def _solve_direct(matrix, rhs, perm):
    """Factor P A P^T in the given order and scatter the solution back."""
    try:
        lu = spla.splu(matrix[perm][:, perm].tocsc(), permc_spec="NATURAL")
        y = lu.solve(rhs[perm])
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularMatrix(str(exc)) from exc
    x = np.empty_like(y)
    x[perm] = y
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("factorization produced non-finite values")
    return x, 0


def _solve_iterative(matrix, rhs, tol, max_iter):
    csc = matrix.tocsc()
    precond = None
    try:
        ilu = spla.spilu(csc, drop_tol=1e-5, fill_factor=20)
        precond = spla.LinearOperator(matrix.shape, ilu.solve)
    except RuntimeError:
        pass  # fall back to unpreconditioned iteration
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    x, info = spla.bicgstab(
        csc, rhs, rtol=tol, atol=0.0, maxiter=max_iter, M=precond, callback=count
    )
    if info != 0:
        res = np.linalg.norm(matrix @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
        raise NoConvergence(iters, res)
    return x, iters


def solve(system: SparseSystem, config: SolveConfig | None = None) -> Solution:
    """Solve ``system`` and merge boundary values into a full edge vector."""
    config = config or SolveConfig()
    matrix, rhs = system.matrix, system.rhs
    dim = matrix.shape[0]

    method = config.method
    if method == "auto":
        method = auto_method(dim)

    if dim == 0:
        x = np.zeros(0)
        iters = 0
        residual = 0.0
    else:
        if method == "direct":
            x, iters = _solve_direct(matrix, rhs, system_ordering(system))
        else:
            x, iters = _solve_iterative(matrix, rhs, config.tol, config.max_iter)
        r = matrix @ x - rhs
        rhs_norm = np.linalg.norm(rhs)
        res = np.linalg.norm(r)
        residual = res / rhs_norm if rhs_norm > 0 else res
        if method == "direct":
            # |b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf); 0 when b = Ax = 0
            scale = spla.norm(matrix, np.inf) * np.abs(x).max() + np.abs(rhs).max()
            backward = np.abs(r).max() / scale if scale > 0 else 0.0
            if backward > DIRECT_BACKWARD_TOL:
                raise SingularMatrix(
                    f"direct solve left normwise backward error {backward:.3e}"
                )
        elif residual > 10.0 * config.tol:
            raise NoConvergence(iters, residual)

    dof_map = system.dof_map
    values = np.zeros(dof_map.count)
    if system.bc_mode == "eliminate":
        values[dof_map.boundary] = system.boundary_values
        values[dof_map.interior] = x
    else:
        values[:] = x
    return Solution(values=values, residual_norm=float(residual), iterations=iters,
                    method=method)
