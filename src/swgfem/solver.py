"""Sparse linear solves with a post-hoc residual check.

The direct path is SuperLU with the minimum-degree ordering of A^T A + A
(``MMD_AT_PLUS_A``; Liu, ACM TOMS 11 (1985) 141; Li, ACM TOMS 31 (2005)
302).  Every SWG matrix is structurally symmetric, and this ordering halves
the factor against SuperLU's default COLAMD: 13.3 M against 25.9 M entries
at 130,560 dofs.  The iterative path is ILU-preconditioned BiCGStab, which
handles the nonsymmetric systems produced by nonzero convection.

``auto`` solves directly while the factor predicted from the measured MMD
fill (:func:`predicted_factor_bytes`) fits in ``DIRECT_MEMORY_SHARE`` of
physical memory, and iteratively otherwise.

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

#: MMD factor entries per dof are FILL_SLOPE * ln(dofs / FILL_ORIGIN); the
#: measured nnz(L+U)/dofs was 101.8, 112.1 and 127.7 at 130,560, 230,520
#: and 523,264 dofs, against 103.8, 114.7 and 130.3 predicted.
FILL_SLOPE = 19.0
FILL_ORIGIN = 550.0

#: Peak bytes a direct solve adds per factor entry: 11.7-13.6 measured as
#: the peak-RSS rise over ``solve`` at 130,560-523,264 dofs.
BYTES_PER_ENTRY = 14.0

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


def predicted_factor_bytes(dofs: int) -> float:
    """Predicted peak memory of the MMD-ordered LU factor of ``dofs`` unknowns."""
    fill = max(FILL_SLOPE * math.log(max(dofs, 1) / FILL_ORIGIN), 1.0)
    return BYTES_PER_ENTRY * fill * dofs


def auto_method(dofs: int, memory_bytes: int | None = None) -> str:
    """The method "auto" picks: direct while the factor fits the memory share."""
    if memory_bytes is None:
        memory_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    fits = predicted_factor_bytes(dofs) <= DIRECT_MEMORY_SHARE * memory_bytes
    return "direct" if fits else "iterative"


def _solve_direct(matrix, rhs):
    try:
        lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        x = lu.solve(rhs)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularMatrix(str(exc)) from exc
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
            x, iters = _solve_direct(matrix, rhs)
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
    return Solution(values=values, residual_norm=float(residual), iterations=iters)
