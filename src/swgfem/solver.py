"""Sparse direct solves with a post-hoc backward-error check.

A system covers the interior edge dofs, the Dirichlet data having been
eliminated at assembly; :func:`solve` returns the full edge vector, with the
imposed averages in the boundary slots.

Assembly stores each system once, as the CSC of P A P^T in the
nested-dissection order of the tensor mesh
(:func:`~swgfem.mesh.nested_dissection`), and :func:`solve` factors that
matrix as stored: SuperLU keeps the order (``permc_spec="NATURAL"``), and
no natural-order matrix or second copy is resident while it factors.  The
order halves the factor against SuperLU's minimum-degree ordering of
A^T A + A: 6.69 M against 13.4 M entries at 130,560 dofs.  Most of its
supernodes are the small leaves of the dissection, so SuperLU runs with a
panel of ``SUPERLU_PANEL`` columns instead of its default, which was tuned
for long supernodes (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix
Anal. Appl. 20 (1999) 720); that cuts the memory a solve adds by 30-38%.

``auto`` first checks that the factor predicted from the measured
nested-dissection fill (:func:`predicted_factor_bytes`) fits in
``DIRECT_MEMORY_SHARE`` of physical memory, and raises
:class:`~swgfem.errors.OutOfMemory` before anything is factored
otherwise: past about 4.5 M dofs (the unit square at n = 1500) with 8 GB.
``direct`` skips that check.

Every solve checks the returned vector independently of solver internals
by its normwise backward error, in the stored order (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 7).
"""

import ctypes
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from .assembly import SparseSystem
from .errors import OutOfMemory, SingularMatrix

#: Factor entries per dof are FILL_SLOPE * ln(dofs / FILL_ORIGIN); the
#: measured nnz(L+U)/dofs was 51.2, 55.4, 58.9, 63.9 and 66.6 at 130,560,
#: 261,364, 523,264, 1,178,112 and 2,095,104 dofs, against 51.6, 55.5,
#: 59.4, 63.9 and 67.1 predicted.
FILL_SLOPE = 5.6
FILL_ORIGIN = 13.0

#: Peak bytes a direct solve adds per factor entry: 8.6-13.0 measured as
#: the peak RSS of ``solve`` over the RSS before it at the sizes above.
BYTES_PER_ENTRY = 13.0

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

#: Physical memory in bytes, read once per process.
PHYSICAL_MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

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
    """Edge-midpoint values (boundary dofs carry their imposed averages) of a
    solve whose backward error passed ``DIRECT_BACKWARD_TOL``."""

    values: np.ndarray
    iterations: int  # always 0: no solve iterates


def predicted_factor_bytes(dofs: int) -> float:
    """Predicted peak memory of the direct solve of ``dofs`` unknowns."""
    fill = max(FILL_SLOPE * math.log(max(dofs, 1) / FILL_ORIGIN), 1.0)
    return BYTES_PER_ENTRY * fill * dofs


def check_memory(dofs: int, memory_bytes: int | None = None) -> None:
    """Raise OutOfMemory unless the predicted factor fits the memory share of
    ``memory_bytes``, by default ``PHYSICAL_MEMORY_BYTES``."""
    if memory_bytes is None:
        memory_bytes = PHYSICAL_MEMORY_BYTES
    predicted = predicted_factor_bytes(dofs)
    budget = DIRECT_MEMORY_SHARE * memory_bytes
    if predicted > budget:
        raise OutOfMemory(dofs, predicted, budget)


def _release_free_heap(dofs):
    """Hand the allocator's free heap pages back to the OS before a factorization.

    Assembly leaves its temporaries, the 7-slot rows among them, as
    free heap, whose pages stay resident.  SuperLU's work arrays and its growing L and U
    storage reuse free blocks only when one is large enough and otherwise
    take fresh mappings, so those resident pages add to the factorization's
    peak.  Released, the peak RSS of an fd1 n=340 solve on its own fell from
    296 to 273 MiB in 3 of 3 runs.  The placement of each allocation also
    depends on how earlier allocations fragmented the heap, which differs
    between runs of the same code; the release makes both placements cost
    the same resident memory, so the peak no longer varies with it.
    """
    if _malloc_trim is not None and dofs >= TRIM_MIN_DOFS:
        _malloc_trim(0)


def _matvec(matrix, x, data=None):
    """``matrix @ x`` for a square CSC matrix, with ``data`` in place of its
    entries if given, by the kernel behind scipy's operator but without its
    dispatch: each row sums its terms from 0 in storage order."""
    out = np.zeros(x.size)
    _sparsetools.csc_matvec(x.size, x.size, matrix.indptr, matrix.indices,
                            matrix.data if data is None else data, x, out)
    return out


def _inf_norm(matrix) -> float:
    """Largest absolute row sum of a square CSC matrix that stores an entry."""
    return _matvec(matrix, np.ones(matrix.shape[0]), np.abs(matrix.data)).max()


def _factor_and_solve(system):
    """Factor ``system.ordered`` as stored and solve it for the permuted rhs."""
    ordered = system.ordered
    _release_free_heap(ordered.shape[0])
    try:
        lu = spla.splu(ordered, permc_spec="NATURAL", relax=SUPERLU_RELAX,
                       panel_size=SUPERLU_PANEL)
        # permuted once the factorization, whose peak it would add to, is done
        rhs = system.rhs[system.order]
        return rhs, lu.solve(rhs)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularMatrix(str(exc)) from exc


def solve(system: SparseSystem, config: SolveConfig | None = None) -> Solution:
    """Solve ``system``, check its normwise backward error (SingularMatrix past
    ``DIRECT_BACKWARD_TOL``) and merge boundary values into a full edge vector."""
    ordered, order = system.ordered, system.order
    if config is None or config.method == "auto":
        check_memory(ordered.shape[0])

    y = np.zeros(0)
    if ordered.shape[0]:
        rhs, y = _factor_and_solve(system)
        y_max = np.abs(y).max()  # NaN or inf if any entry is
        if not math.isfinite(y_max):
            raise SingularMatrix("factorization produced non-finite values")
        r = _matvec(ordered, y) - rhs
        # |b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf); 0 when b = Ax = 0.  No
        # BLAS ddot: its threads spin on past the call and slow the next factor
        scale = _inf_norm(ordered) * y_max + np.abs(rhs).max()
        backward = np.abs(r).max() / scale if scale > 0 else 0.0
        if backward > DIRECT_BACKWARD_TOL:
            raise SingularMatrix(
                f"direct solve left normwise backward error {backward:.3e}"
            )

    dof_map = system.mesh.dof_map
    values = np.empty(dof_map.count)
    values[dof_map.boundary] = system.boundary_values
    values[dof_map.interior[order]] = y
    return Solution(values=values, iterations=0)
