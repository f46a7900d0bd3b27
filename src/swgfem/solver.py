"""Sparse direct solves with a post-hoc backward-error check.

A system covers the interior edge dofs, the Dirichlet data having been
eliminated at assembly; :func:`solve` returns the full edge vector, with the
imposed averages in the boundary slots.

Every system is solved by SuperLU on the system permuted by geometric nested
dissection of the tensor mesh (:func:`nested_dissection`; George, SIAM J.
Numer. Anal. 10 (1973) 345; Lipton, Rose & Tarjan, SIAM J. Numer. Anal. 16
(1979) 346).  Each SWG row couples only the edges of the two elements that
share its edge, so the edges on any grid line of a block of elements
separate the block's two sides.  The order recursively splits the mesh at
the middle grid line of the longer side and numbers each separator after
the two halves; it holds the interior edges only, and each distinct block
shape is ordered once and translated.  SuperLU then keeps that order
(``permc_spec="NATURAL"``) on one row-permuted copy of the system whose
column indices are remapped in place.  This halves
the factor against SuperLU's minimum-degree ordering of A^T A + A: 6.69 M
against 13.4 M entries at 130,560 dofs.  Most of its supernodes are the
small leaves of the dissection, so SuperLU runs with a panel of
``SUPERLU_PANEL`` columns instead of its default, which was tuned for long
supernodes (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal.
Appl. 20 (1999) 720); that cuts the memory a solve adds by 30-38%.

``auto`` first checks that the factor predicted from the measured
nested-dissection fill (:func:`predicted_factor_bytes`) fits in
``DIRECT_MEMORY_SHARE`` of physical memory, and raises
:class:`~swgfem.errors.OutOfMemory` before any ordering or factoring
otherwise: past about 4.5 M dofs (the unit square at n = 1500) with 8 GB.
``direct`` skips that check.

Every solve checks the returned vector independently of solver internals
by its normwise backward error (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 7).
"""

import ctypes
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import SparseSystem
from .errors import OutOfMemory, SingularMatrix
from .mesh import DofMap

#: Factor entries per dof are FILL_SLOPE * ln(dofs / FILL_ORIGIN); the
#: measured nnz(L+U)/dofs was 51.2, 55.4, 58.9, 63.9 and 66.6 at 130,560,
#: 261,364, 523,264, 1,178,112 and 2,095,104 dofs, against 51.6, 55.5,
#: 59.4, 63.9 and 67.1 predicted.
FILL_SLOPE = 5.6
FILL_ORIGIN = 13.0

#: Peak bytes a direct solve adds per factor entry: 8.6-13.0 measured as
#: the peak RSS of ``solve`` over the RSS before it at the sizes above.
BYTES_PER_ENTRY = 13.0

#: Regions of at most this many elements keep the natural dof order.  At
#: tc2 n=256, leaves of 4, 16 and 64 elements gave 6.69 M, 7.07 M and
#: 11.3 M factor entries; leaves of 1 or 2 gave the same factor as 4.
ND_LEAF_ELEMENTS = 4

#: SuperLU's supernode relaxation and panel width, in columns.  Nested
#: dissection leaves thousands of supernodes of a few columns, for which a
#: wide panel only enlarges the dense work arrays SuperLU sizes by it.  At 2
#: and 2, factor plus triangular solve took a median 0.78x the default's
#: time over 60 cases of 112 to 525,312 dofs, and the peak RSS a tc1 solve
#: adds fell from 90 to 56 MiB at 130,560 dofs and from 475 to 331 MiB at
#: 523,264.  Keep relax <= panel_size, as SuperLU's defaults do: a relaxed
#: supernode wider than a panel has been seen to corrupt the heap.
SUPERLU_RELAX = 2
SUPERLU_PANEL = 2

#: Share of physical memory a predicted factor may take under "auto".
DIRECT_MEMORY_SHARE = 0.5

#: Largest normwise backward error accepted from a direct solve.
DIRECT_BACKWARD_TOL = 64 * np.finfo(float).eps

#: Systems of at least this many unknowns release the free heap before they
#: are factored (:func:`_release_free_heap`).  Below it the release lowered
#: the peak RSS of an fd1 solve by at most 2.5 MiB (at 19,800 dofs), for
#: about 0.1 ms a call.
TRIM_MIN_DOFS = 20_000

try:  # glibc; elsewhere the heap is left as it is
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


@dataclass(frozen=True)
class SolveConfig:
    method: str = "auto"  # "direct" | "auto" (direct after the memory check)

    def __post_init__(self):
        if self.method not in ("direct", "auto"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class Solution:
    """Edge-midpoint values (boundary dofs carry their imposed averages)."""

    values: np.ndarray
    residual_norm: float
    iterations: int  # always 0: no solve iterates


def predicted_factor_bytes(dofs: int) -> float:
    """Predicted peak memory of the direct solve of ``dofs`` unknowns."""
    fill = max(FILL_SLOPE * math.log(max(dofs, 1) / FILL_ORIGIN), 1.0)
    return BYTES_PER_ENTRY * fill * dofs


def check_memory(dofs: int, memory_bytes: int | None = None) -> None:
    """Raise OutOfMemory unless the predicted factor fits the memory share."""
    if memory_bytes is None:
        memory_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    predicted = predicted_factor_bytes(dofs)
    budget = DIRECT_MEMORY_SHARE * memory_bytes
    if predicted > budget:
        raise OutOfMemory(dofs, predicted, budget)


def _block_order(w, h, row, nv, memo):
    """Order of the edges strictly inside a w x h block at the origin, as padded ids.

    Padded ids are j*row + i for vertical edge (i, j) and nv + j*row + i for
    horizontal ones, so moving a block by (di, dj) adds dj*row + di to each.
    """
    order = memo.get((w, h))
    if order is not None:
        return order
    if w * h <= ND_LEAF_ELEMENTS:  # id order: vertical edges row by row, then horizontal
        order = np.array([j * row + i for j in range(h) for i in range(1, w)]
                         + [nv + j * row + i for j in range(1, h) for i in range(w)],
                         dtype=np.int64)
    elif w >= h:
        k = w // 2
        first, second = _block_order(k, h, row, nv, memo), _block_order(w - k, h, row, nv, memo)
        order = np.concatenate([first, second + k, np.arange(k, k + h * row, row)])
    else:
        k = h // 2
        first, second = _block_order(w, k, row, nv, memo), _block_order(w, h - k, row, nv, memo)
        order = np.concatenate([first, second + k * row, nv + k * row + np.arange(w)])
    memo[(w, h)] = order
    return order


def nested_dissection(dof_map: DofMap) -> np.ndarray:
    """Nested-dissection order of the interior edge dofs of a tensor mesh.

    A region is a block of elements.  It is split at the middle grid line of
    its longer side (counted in elements; x on a tie), and its edges on that
    line, which separate the two halves, are ordered after both halves.  A
    region orders only the edges strictly inside it: those on its sides lie
    on an enclosing separator or on the eliminated Dirichlet boundary.
    Regions of at most ``ND_LEAF_ELEMENTS`` elements keep the natural order.
    The order depends on (nx, ny) only, and each block shape is ordered once
    per call and shifted into place.
    """
    nx, nv = dof_map.nx, dof_map.n_vertical
    padded = _block_order(nx, dof_map.ny, nx + 1, nv, {})
    # a horizontal edge on grid row j has a padded id j too large
    return padded - np.maximum(padded - nv, 0) // (nx + 1)


def system_ordering(system: SparseSystem) -> np.ndarray:
    """Nested-dissection order of the rows and columns of ``system.matrix``:
    the free indices of :func:`nested_dissection`'s dofs."""
    return system.dof_map.free_index[nested_dissection(system.dof_map)]


def _release_free_heap(dofs):
    """Hand the allocator's free heap pages back to the OS before a factorization.

    Building the permuted matrix leaves its temporaries as free heap, whose
    pages stay resident.  SuperLU's work arrays and its growing L and U
    storage reuse free blocks only when one is large enough and otherwise
    take fresh mappings, so those resident pages add to the factorization's
    peak.  Released, the peak RSS of a standalone fd1 n=340 solve fell from
    296 to 273 MiB in 3 of 3 runs.  The placement of each allocation also
    depends on how earlier allocations fragmented the heap, which differs
    between runs of the same code; the release makes both placements cost
    the same resident memory, so the peak no longer varies with it.
    """
    if _malloc_trim is not None and dofs >= TRIM_MIN_DOFS:
        _malloc_trim(0)


def _inf_norm(matrix) -> float:
    """Largest absolute row sum of a non-empty CSR matrix whose every row
    stores an entry, as assembled systems store their diagonal."""
    return np.add.reduceat(np.abs(matrix.data), matrix.indptr[:-1]).max()


def _permuted_csc(matrix, perm):
    """P A P^T in CSC, the same arrays as ``matrix[perm][:, perm].tocsc()``;
    the inverse permutation is freed before the caller factors it."""
    permuted = matrix[perm]
    inverse = np.empty(perm.size, dtype=permuted.indices.dtype)  # no int64 index copy
    inverse[perm] = np.arange(perm.size, dtype=inverse.dtype)
    permuted.indices[...] = inverse[permuted.indices]
    return permuted.tocsc()


def _solve_direct(matrix, rhs, perm):
    """Factor P A P^T in the given order and scatter the solution back."""
    permuted = _permuted_csc(matrix, perm)
    _release_free_heap(permuted.shape[0])
    try:
        lu = spla.splu(permuted, permc_spec="NATURAL", relax=SUPERLU_RELAX,
                       panel_size=SUPERLU_PANEL)
        y = lu.solve(rhs[perm])
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularMatrix(str(exc)) from exc
    x = np.empty_like(y)
    x[perm] = y
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("factorization produced non-finite values")
    return x


def solve(system: SparseSystem, config: SolveConfig | None = None) -> Solution:
    """Solve ``system`` and merge boundary values into a full edge vector."""
    config = config or SolveConfig()
    matrix, rhs = system.matrix, system.rhs
    if config.method == "auto":
        check_memory(matrix.shape[0])

    if matrix.shape[0] == 0:
        x = np.zeros(0)
        residual = 0.0
    else:
        x = _solve_direct(matrix, rhs, system_ordering(system))
        r = matrix @ x - rhs
        # summed in numpy, not by BLAS ddot, whose threads spin on past the call
        rhs_norm, res = (math.sqrt(np.add.reduce(v * v)) for v in (rhs, r))
        residual = res / rhs_norm if rhs_norm > 0 else res
        # |b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf); 0 when b = Ax = 0
        scale = _inf_norm(matrix) * np.abs(x).max() + np.abs(rhs).max()
        backward = np.abs(r).max() / scale if scale > 0 else 0.0
        if backward > DIRECT_BACKWARD_TOL:
            raise SingularMatrix(
                f"direct solve left normwise backward error {backward:.3e}"
            )

    dof_map = system.dof_map
    values = np.zeros(dof_map.count)
    values[dof_map.boundary] = system.boundary_values
    values[dof_map.interior] = x
    return Solution(values=values, residual_norm=float(residual), iterations=0)
