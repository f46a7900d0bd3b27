"""Direct solves, by sine transforms, a Schur decomposition or sparse
factorization, with a post-hoc backward-error check.

A system covers the interior edge dofs, the Dirichlet data having been
eliminated at assembly; :func:`solve` returns the full edge vector, with the
imposed averages in the boundary slots.

A system whose element blocks are all one block B (``SparseSystem.block``:
constant alpha, beta and c on a uniform mesh, and both finite-difference
schemes) is a 7-point scheme with constant weights.  A B equal to its
transpose bit for bit (beta = 0; see ``SparseSystem``) is diagonalized by
sine transforms, with exactly formed determinants, as in the classic fast
Poisson solvers (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7 (1970)
627).  Along x the vertical edges sit at the nodes 1..nx-1 and the
horizontal edges at the cell centres, so a DST-I takes the first and a
DST-II the second, and likewise along y with the roles swapped; each mode
(k, l) then couples one vertical and one horizontal coefficient by a 2 x 2
system (:func:`_transform_solve`).  The transforms run through
``numpy.fft``, which ``import numpy`` has already loaded, in
O(dofs log dofs) time and a few copies of the rhs in memory: ``solve`` of
fd1 at n = 340 (230,520 dofs) took 40 ms, against 743 ms factored.  Every
other B (beta != 0) takes one Schur decomposition of a dense nx x nx matrix
and a tridiagonal solve per column (:func:`_decomposition_solver`): tc1 at
n = 260 took 0.085 s at kappa = 4, against 0.44 s factored.  It runs
numpy's and scipy's OpenBLAS on one thread (:func:`_one_blas_thread`): a
second changed its bytes, cost more to wake than it saved, and spun on
after the solve.  From n = 1024 one thread costs 10-30% (tc1, kappa = 4:
2.1-2.2 against 1.8-2.1 s; n = 1600: 6.5 against 4.9 s).

Every other system is factored.  Assembly stores each system as its
natural-order rows (:class:`~swgfem.assembly.Rows`), and a transform solve
reads nothing else.  The CSC of P A P^T, in the nested-dissection order of
the tensor mesh (:func:`~swgfem.mesh.nested_dissection`), is derived from
the rows once, into their buffers, when a solve that factors or refines
first reads it (``SparseSystem.ordered``), and the rows are dropped.
:func:`solve` factors that matrix as stored: SuperLU keeps the order
(``permc_spec="NATURAL"``), and no natural-order matrix or second copy is
resident while it factors.  The order halves the factor against SuperLU's
minimum-degree ordering of A^T A + A: 6.69 M against 13.4 M entries at
130,560 dofs.  Most of its supernodes are the small leaves of the
dissection, so SuperLU runs with a panel of ``SUPERLU_PANEL`` columns
instead of its default, which was tuned for long supernodes (Demmel,
Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 20 (1999) 720);
that cuts the memory a solve adds by 30-38%.

Before it factors, :func:`solve` checks that the factor, predicted from its
exact entry count in that order (:func:`~swgfem.mesh.factor_entries`), fits
in ``DIRECT_MEMORY_SHARE`` of physical memory, and raises
:class:`~swgfem.errors.OutOfMemory` before anything is factored otherwise:
on the unit square from n = 1562 (4.9 M dofs) with 8 GiB.  A solve from B
needs no check.

Every solve checks the returned vector independently of solver internals
by its normwise backward error (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 7): a first transform solve against the rows in
the natural order, a refined or factored solve against the stored matrix
in the stored order.  B is taken from one element, and this check alone
decides whether it fits the others: the stored blocks may differ from it by
a few ulps (``mesh_for``'s steps are not all equal in floating point), so a
transform solve that misses the tolerance takes one step of refinement
against the stored matrix (fd2 at kappa = 0.7, n = 1000: from 77 to 1.1
eps, for 0.4 s), as every Schur solve does (tc1 at n = 260: from 20 to 0.8
eps, and its H1 error from 9.5e-11 to 1.9e-12), and one that still misses
it is discarded and the system factored.
"""

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse import _sparsetools

from .assembly import Rows, SparseSystem
from .errors import OutOfMemory, SingularMatrix
from .mesh import factor_entries

#: Peak bytes a factorization adds per :func:`~swgfem.mesh.factor_entries` entry and
#: per dof.  The peak RSS of ``solve`` over the RSS before it, with only tc2 held, read
#: 0.96-0.97 of the prediction on 256², 512², 1024², 1024x64, 4096x16 and 16384x4.
BYTES_PER_ENTRY = 10.5
BYTES_PER_DOF = 140

#: SuperLU's supernode relaxation and panel width, in columns.  Nested
#: dissection leaves thousands of supernodes of a few columns, for which a
#: wide panel only enlarges the dense work arrays SuperLU sizes by it.  At 2
#: and 2, factor plus triangular solve took a median 0.79x the default's
#: time over 22 tc2 and nonuniform tc1 systems of 112 to 130,560 dofs, and
#: the peak RSS a tc2 solve adds fell from 93 to 58 MiB at 130,560 dofs and
#: from 440 to 296 MiB at 523,264.  Keep relax <= panel_size, as SuperLU's
#: defaults do: a relaxed supernode wider than a panel has been seen to
#: corrupt the heap.
SUPERLU_RELAX = 2
SUPERLU_PANEL = 2

#: Share of physical memory a predicted factor may take.
DIRECT_MEMORY_SHARE = 0.5

#: Physical memory in bytes, read once per process.
PHYSICAL_MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

#: Largest normwise backward error accepted from a direct solve.
DIRECT_BACKWARD_TOL = 64 * np.finfo(float).eps

#: Systems of at least this many unknowns release the free heap before they
#: are factored (:func:`_release_free_heap`).  Below it the release lowered
#: the peak RSS of a tc2 or nonuniform fd2 solve by at most 2.2 MiB (19,800
#: dofs), for 0.3-0.7 ms a call (50-175 us, below 1 MiB, at <= 3,120 dofs).
TRIM_MIN_DOFS = 20_000

try:  # glibc; elsewhere the heap is left as it is
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


@dataclass(frozen=True)
class SolveConfig:
    """A solve method that nothing reads: "auto" and "direct" solve the same
    way, and every factorization is checked against memory first.  It stays
    while the benchmark's ``large`` workload passes one to ``solve_problem``."""

    method: str = "auto"  # "direct" | "auto"

    def __post_init__(self):
        if self.method not in ("direct", "auto"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class Solution:
    """Edge-midpoint values (boundary dofs carry their imposed averages) of a
    solve whose backward error passed ``DIRECT_BACKWARD_TOL``."""

    values: np.ndarray
    iterations: ClassVar[int] = 0  # no solve iterates


def check_memory(nx: int, ny: int) -> None:
    """Raise OutOfMemory unless the predicted factor of the system of an
    nx x ny mesh fits ``DIRECT_MEMORY_SHARE`` of ``PHYSICAL_MEMORY_BYTES``."""
    dofs = (nx - 1) * ny + nx * (ny - 1)
    predicted = BYTES_PER_ENTRY * factor_entries(nx, ny) + BYTES_PER_DOF * dofs
    budget = DIRECT_MEMORY_SHARE * PHYSICAL_MEMORY_BYTES
    if predicted > budget:
        raise OutOfMemory(dofs, predicted, budget)


def _release_free_heap(dofs):
    """Hand the allocator's free heap pages back to the OS before a factorization.

    Assembly and the derivation of the stored matrix leave their
    temporaries, the 7-slot rows gathered into stored order among them, as
    free heap, whose pages stay resident.  SuperLU's work arrays and its
    growing L and U storage reuse free blocks only when one is large enough
    and otherwise take fresh mappings, so those resident pages add to the
    factorization's peak.  Released, the peak RSS of an fd1 n=340 solve on
    its own fell from 296 to 273 MiB in 3 of 3 runs.  The placement of each allocation also
    depends on how earlier allocations fragmented the heap, which differs
    between runs of the same code; the release makes both placements cost
    the same resident memory, so the peak no longer varies with it.
    """
    if _malloc_trim is not None and dofs >= TRIM_MIN_DOFS:
        _malloc_trim(0)


def _matvec(matrix, x, data=None):
    """``matrix @ x``, with ``data`` in place of its entries if given, by the
    kernel behind scipy's operator but without its dispatch.  ``matrix`` is
    a square CSC matrix, each row summing its terms from 0 in storage order,
    or a system's :class:`~swgfem.assembly.Rows`, read as an N x (N+1) CSR,
    each row summing its 7 slots from 0 in order, the boundary column
    meeting an entry 0 appended to x."""
    out = np.zeros(x.size)
    if isinstance(matrix, Rows):
        columns = matrix.columns.ravel()
        indptr = np.arange(0, columns.size + 1, 7, dtype=columns.dtype)
        _sparsetools.csr_matvec(x.size, x.size + 1, indptr, columns,
                                (matrix.values if data is None else data).ravel(),
                                np.append(x, 0.0), out)
    else:
        _sparsetools.csc_matvec(x.size, x.size, matrix.indptr, matrix.indices,
                                matrix.data if data is None else data, x, out)
    return out


def _inf_norm(matrix) -> float:
    """Largest absolute row sum of a square CSC matrix that stores an entry,
    or of a system's rows without their boundary column."""
    if isinstance(matrix, Rows):
        return _matvec(matrix, np.ones(matrix.values.shape[0]), np.abs(matrix.values)).max()
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


def _sines(x, n, shift):
    """sum_m x[..., m] sin(pi k (m + shift) / n) for k = 1 .. x.shape[-1]: with
    shift 1 the DST-I of the values at the nodes 1 .. n-1, with shift 1/2 the
    DST-II of the values at the n cell centres; both unnormalized."""
    k = np.arange(1, x.shape[-1] + 1)
    spectrum = np.fft.rfft(x, 2 * n)[..., 1:k.size + 1]
    return -(spectrum * np.exp((-1j * np.pi * shift / n) * k)).imag


def _cell_sines(w, n):
    """sum_l w[..., l-1] sin(pi l (j + 1/2) / n) for j = 0 .. n-1: the transpose
    of the DST-II of :func:`_sines`, unnormalized."""
    spectrum = np.zeros(w.shape[:-1] + (n + 1,), dtype=complex)
    spectrum[..., 1:] = w * (-1j * np.exp((0.5j * np.pi / n) * np.arange(1, n + 1)))
    spectrum[..., n] *= 2.0  # irfft counts the Nyquist term once, the others twice
    return n * np.fft.irfft(spectrum, 2 * n)[..., :n]


def _transform_solve(system, rhs):
    """The solution for ``rhs`` of a system with block weights, in natural order.

    Vertical edge (i, j), i = 1 .. nx-1, row j, couples a times each vertical
    neighbour in its row and e times the four horizontal edges of its two
    elements, with 2p on the diagonal; horizontal edges likewise, with q and
    d.  In the modes sin(k pi i / nx) sin(l pi (j + 1/2) / ny) of the
    vertical values and sin(k pi (i + 1/2) / nx) sin(l pi j / ny) of the
    horizontal ones, each mode (k, l) solves

        [[2p + 2a cos(k pi / nx), g], [g, 2q + 2d cos(l pi / ny)]],
        g = 4e cos(k pi / 2nx) cos(l pi / 2ny),

    and the vertical modes l = ny and the horizontal modes k = nx, whose g
    is 0, divide by their diagonal.  With s = sin^2(k pi / 2nx) and
    t = sin^2(l pi / 2ny) the diagonal is 2(p + a) - 4as and 2(q + d) - 4dt,
    and the determinant the polynomial in s and t of :func:`_determinant`.
    The transforms are unnormalized, so the mode solves take the factors
    that make each forward and backward pair the identity: 4 / (nx ny), or
    2 / (nx ny) for the uncoupled modes.
    """
    p, a, q, d, e = system.block[(0, 0, 2, 2, 0), (0, 1, 2, 3, 2)]
    nx, ny = system.mesh.nx, system.mesh.ny
    split = ny * (nx - 1)
    # (k, l) coefficients: vertical (nx-1, ny), horizontal (nx, ny-1)
    v = _sines(_sines(rhs[:split].reshape(ny, nx - 1), nx, 1.0).T, ny, 0.5)
    h = _sines(_sines(rhs[split:].reshape(ny - 1, nx), nx, 0.5).T, ny, 1.0)
    half_k = (0.5 * np.pi / nx) * np.arange(1, nx)[:, None]
    half_l = (0.5 * np.pi / ny) * np.arange(1, ny)
    s, t = np.sin(half_k) ** 2, np.sin(half_l) ** 2
    across = 2.0 * (p + a) - 4.0 * a * s
    up = 2.0 * (q + d) - 4.0 * d * t
    g = 4.0 * e * np.cos(half_k) * np.cos(half_l)
    scale = 2.0 / (nx * ny)
    c0, c1, c2, c3 = _determinant(p, a, q, d, e)
    det = (c0 + c1 * s + c2 * t + c3 * (s * t)) / (2.0 * scale)
    rv, rh = v[:, :-1].copy(), h[:-1]
    v[:, :-1] = (up * rv - g * rh) / det
    h[:-1] = (across * rh - g * rv) / det
    v[:, -1] *= scale / across[:, 0]
    h[-1] *= scale / up
    vertical = _sines(_cell_sines(v, ny).T, nx, 1.0)
    horizontal = _cell_sines(_sines(h, ny, 1.0).T, nx)
    return np.concatenate((vertical.ravel(), horizontal.ravel()))


def _determinant(p, a, q, d, e):
    """(c0, c1, c2, c3) with det = c0 + c1 s + c2 t + c3 s t for each mode of
    :func:`_transform_solve`, each formed exactly from the five weights and
    rounded once.

    c0 = 4(p + a)(q + d) - 16e^2 is the determinant of the constant mode,
    0 without reaction; formed in floats it would keep an absolute error of
    about eps (p + a)(q + d), which the smoothest modes, whose determinant is
    O(h^2), cannot absorb.  Formed exactly, the transform solve agreed with
    a refined solution to 6e-16 to 9e-15 relative at n = 17 and 64 and
    kappa up to 20, where SuperLU's agreed to 3e-15 to 7e-13.  Each weight
    is an integer over a power of two, so over the largest of those
    denominators all five are integers, and Python's integer division
    rounds each coefficient correctly.
    """
    ratios = [w.as_integer_ratio() for w in (p, a, q, d, e)]
    scale = max(den for _, den in ratios)
    p, a, q, d, e = (num * (scale // den) for num, den in ratios)
    e2 = 16 * e * e
    return tuple(c / scale**2 for c in (4 * (p + a) * (q + d) - e2, e2 - 8 * a * (q + d),
                                        e2 - 8 * d * (p + a), 16 * a * d - e2))


def _tridiagonal_solve(sub, diag, sup, rhs):
    """Solve the Toeplitz tridiagonal system with diagonals ``sub``, ``diag``
    and ``sup`` for each column of ``rhs`` by LAPACK's gtsv, which pivots."""
    size = rhs.shape[0]
    if size < 2:  # scipy's gtsv wrapper takes no system of order 1
        return rhs / diag
    gtsv = lapack.zgtsv if np.iscomplexobj(rhs) else lapack.dgtsv
    off = np.ones(size - 1, rhs.dtype)
    return gtsv(sub * off, np.full(size, diag, rhs.dtype), sup * off, rhs)[3]


def _bidiagonal(x, first, second):
    """first x[i - 1] + second x[i] for i = 0 .. n along axis 0 of x, which has
    n rows, with the rows outside x taken as 0."""
    out = np.zeros((x.shape[0] + 1,) + x.shape[1:], np.result_type(x, first, second))
    out[1:] += first * x
    out[:-1] += second * x
    return out


@functools.cache
def _blas_pools():
    """(get, set) thread-count functions of each OpenBLAS loaded (numpy's and
    scipy's wheels bundle one each, symbols renamed), found once from
    ``/proc/self/maps``; none under another BLAS or OS."""
    pools = []
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps if "openblas" in line}
        for lib in map(ctypes.CDLL, paths):
            for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                         "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
                if hasattr(lib, name.format("get")):
                    get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    pools.append((get, put))
                    break
    except (OSError, AttributeError):  # no /proc, or a library replaced since it was mapped
        return ()
    return tuple(pools)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every :func:`_blas_pools` pool on one thread, then restore its
    count.  The counts are process-wide: concurrent solves may leave them at 1."""
    pools = _blas_pools()
    counts = [get() for get, _ in pools]
    for _, put in pools:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, counts):
            put(count)


@_one_blas_thread()
def _decomposition_solver(system):
    """The natural-order solve of a system whose element blocks are all one
    block M, by matrix decomposition (Lynch, Rice & Thomas, Numer. Math. 6
    (1964) 185) with a Schur form (Bartels & Stewart, Comm. ACM 15 (1972) 820).

    The rows V of vertical and H of horizontal edges satisfy V Tv' + Gy H Kx'
    = Rv and Fy V Lx' + Th H = Rh: Tv and Th are tridiagonal, Kx and Fy sum
    the two cells beside a node, and Lx and Gy take M's crossing entries,
    which agree on its left and right rows and on its bottom and top rows.
    Eliminating V leaves Th H - Fy Gy H R' = Rh - Fy Rv Tv'^-1 Lx', with
    R = Lx Tv^-1 Kx dense.  For R = Z T Z^H, T upper triangular, column k of
    H conj(Z) solves Th - T[k, k] Fy Gy along y, its right-hand side taking
    the columns after it.  Eigenvectors in place of Z would decouple the
    columns, but are ill-conditioned where convection dominates on elements
    of high aspect (10 x 2 and 64 x 2 meshes of the unit square): refined,
    they missed the tolerance in 105 of 880 extreme cases, the Schur form in
    none of 1,408.
    """
    m = system.block
    nx, ny = system.mesh.nx, system.mesh.ny
    split = ny * (nx - 1)

    def vertical(rows):  # rows Tv'^-1
        return _tridiagonal_solve(m[1, 0], m[0, 0] + m[1, 1], m[0, 1], rows.T).T

    kx = np.eye(nx, nx - 1) + np.eye(nx, nx - 1, -1)  # Kx'
    t, z = scipy.linalg.schur(_bidiagonal(vertical(kx).T, m[2, 0], m[2, 1]))  # of R
    if np.any(np.diag(t, -1)):  # complex eigenvalues: the complex triangular form
        t, z = scipy.linalg.rsf2csf(t, z)
    modes = [(m[3, 2] - lam * m[0, 2], (m[2, 2] + m[3, 3]) - lam * (m[0, 2] + m[0, 3]),
              m[2, 3] - lam * m[0, 3]) for lam in np.diag(t)]

    @_one_blas_thread()
    def solve(rhs):
        rv, rh = rhs[:split].reshape(ny, nx - 1), rhs[split:].reshape(ny - 1, nx)
        nodes = vertical(rv)
        # row k: column k of (Rh - Fy Rv Tv'^-1 Lx') conj(Z)
        g = z.conj().T @ (rh.T - _bidiagonal((nodes[:-1] + nodes[1:]).T, m[2, 0], m[2, 1]))
        h, crossed = np.empty_like(g), np.empty_like(g)  # crossed[k] = Fy Gy h[k]
        for k in reversed(range(nx)):
            h[k] = _tridiagonal_solve(*modes[k], g[k] + t[k, k + 1:] @ crossed[k + 1:])
            pairs = _bidiagonal(h[k], m[0, 2], m[0, 3])
            crossed[k] = pairs[:-1] + pairs[1:]
        h = (z @ h).real.T
        crossing = _bidiagonal(h, m[0, 2], m[0, 3])  # Gy H
        v = vertical(rv - (crossing[:, :-1] + crossing[:, 1:]))
        return np.concatenate((v.ravel(), h.ravel()))

    return solve


def _backward_error(matrix, rhs, y) -> float:
    """|b - Ay|_inf / (|A|_inf |y|_inf + |b|_inf) for A the stored matrix and
    y and b in the stored order, or for A a system's rows and y and b in the
    natural order; 0 when b = Ay = 0, and inf when y holds a NaN or inf."""
    y_max = np.abs(y).max()
    if not math.isfinite(y_max):
        return math.inf
    r = _matvec(matrix, y) - rhs
    # no BLAS ddot: its threads spin on past the call and slow the next factor
    scale = _inf_norm(matrix) * y_max + np.abs(rhs).max()
    return np.abs(r).max() / scale if scale > 0 else 0.0


def _structured_solver(system):
    """(solve, refine): the natural-order solve of ``system`` from its block,
    and whether its first solve is always refined; (None, False) when it has
    no block, or a LinAlgError stops the Schur decomposition."""
    if system.block is None:
        return None, False
    if np.array_equal(system.block, system.block.T):  # beta = 0 (see SparseSystem)
        return lambda rhs: _transform_solve(system, rhs), False
    try:
        return _decomposition_solver(system), True
    except np.linalg.LinAlgError:
        return None, False


def solve(system: SparseSystem) -> Solution:
    """Solve ``system``, check its normwise backward error (SingularMatrix past
    ``DIRECT_BACKWARD_TOL``) and merge boundary values into a full edge vector.

    A system with a ``block`` is solved from it, its first solve judged
    against the rows while they are held; it is refined once, in the stored
    order, if that solve misses the tolerance, and always after a Schur
    solve.  If it misses it still, or the system has no block, it is
    factored after :func:`check_memory`."""
    y = np.zeros(0)  # the solution, in natural order
    if system.rhs.size:
        backward = math.inf
        structured, refine = _structured_solver(system)
        if structured is not None:
            y = structured(system.rhs)
            if not refine and system.rows.values is not None:
                backward = _backward_error(system.rows, system.rhs, y)
            elif not refine:  # rows dropped by an earlier read of ordered
                order = system.order
                backward = _backward_error(system.ordered, system.rhs[order], y[order])
            if not backward <= DIRECT_BACKWARD_TOL:  # one step of refinement
                ordered, order = system.ordered, system.order
                rhs, stored = system.rhs[order], y[order]
                residual = np.empty_like(rhs)
                residual[order] = rhs - _matvec(ordered, stored)
                y[order] = stored = stored + structured(residual)[order]
                backward = _backward_error(ordered, rhs, stored)
        if not backward <= DIRECT_BACKWARD_TOL:
            check_memory(system.mesh.nx, system.mesh.ny)
            rhs, stored = _factor_and_solve(system)
            backward = _backward_error(system.ordered, rhs, stored)
            if backward == math.inf:
                raise SingularMatrix("factorization produced non-finite values")
            if backward > DIRECT_BACKWARD_TOL:
                raise SingularMatrix(
                    f"direct solve left normwise backward error {backward:.3e}"
                )
            y = np.empty_like(stored)  # allocated once the factor is freed
            y[system.order] = stored

    dof_map = system.mesh.dof_map
    values = np.empty(dof_map.count)
    values[dof_map.boundary] = system.boundary_values
    values[dof_map.interior] = y
    return Solution(values=values)
