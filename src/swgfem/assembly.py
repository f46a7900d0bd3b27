"""Global system assembly over edge midpoints with Dirichlet data.

The equation attached to an interior edge is the sum of the local-operator
rows contributed by its two adjacent elements, so every row couples at
most 7 unknowns.  Dirichlet data enters by elimination: the
boundary unknowns take the imposed values, and their columns times those
values move to the right-hand side.

Each system is stored as its rows, in natural order: row i holds the 7
slots of the interior dof with natural interior index i (:func:`_edge_rows`),
each slot's column that index, or one extra column N for a boundary edge,
whose column times g has moved to the right-hand side.  A sine-transform
solve reads nothing else.  A solve that factors or refines reads the CSC of
P A P^T, for the natural-order operator A over the interior dofs and their
nested-dissection order P (:func:`~swgfem.mesh.nested_dissection`); that
matrix is derived from the rows once, into their own buffers, when first
read (``SparseSystem.ordered``), and the rows are then dropped, so one copy
stays resident.  A itself, as CSR, is derived on first use (``SparseSystem.matrix``)
for the matrix dump and other readers of the natural order.

When every element block is one block B, as for constant alpha, beta and c
on a uniform mesh, the system also stores B (:func:`shared_block`), from
which the solver decomposes it instead of factoring it.

Boundary values are g at the boundary edge midpoints, the sampling that
reproduces midpoint-sampled quadratics exactly at kappa = 4.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import kernels
from .errors import NonPositiveDiffusion
from .mesh import (
    DofMap,
    ElementGeom,
    TensorMesh,
    element_arrays,
    enumerate_dofs,
    nested_dissection,
)

#: Rows whose lines :func:`dump_matrix` lays out and writes at a time.  A
#: chunk of 8192 rows (at most 57,344 lines) takes a few MB, so the dump
#: does not raise the peak memory of a solve of the same system.
DUMP_CHUNK_ROWS = 8192

_INT32_MAX = np.iinfo(np.int32).max

#: :func:`shared_block` takes a mesh's steps as equal when they differ by at
#: most this many ulps of its largest coordinate (the steps of ``linspace``
#: differ by at most one).  The solver's choice of route for B takes none.
SHARED_BLOCK_ULPS = 4


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients and data of one convection-diffusion-reaction problem.

    All callables are vectorized: they take ``x, y`` as float64 arrays or
    Python floats, never integers or lists, and return values of that shape
    or scalars.  ``alpha`` returns the diagonal pair (a11, a22) of the
    diffusion tensor (scalar diffusion passes a11 = a22); off-diagonal
    tensors are not representable by construction.  The scheme samples
    alpha, beta and c through :func:`sample_coefficients`.
    ``exact``/``exact_grad`` are optional and enable error studies.
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
    c_is_zero: bool = field(kw_only=True)  # c = 0 everywhere; picks the DMP bound, so no default
    pure_unit_diffusion: bool = False  # alpha = I, beta = 0, c = 0; gates the FD schemes
    description: str = ""


@dataclass(frozen=True)
class AssemblyConfig:
    """Stabilization parameter of the assembled scheme."""

    kappa: float

    def __post_init__(self):
        kernels.require_kappa(self.kappa)


class Rows:
    """The rows of a system, held until its stored matrix is derived from them.

    ``values`` and ``columns`` are (N, 7): row i holds row i of A, the
    operator over the interior dofs in their natural order, in the 7-slot
    template of :func:`_edge_rows`, its slots in ascending dof id.  A slot's
    column is the natural interior index of its dof, or N for a boundary
    edge, whose entry belongs to no column of A (its column times g is on
    the right-hand side).  :meth:`stored` derives ``(ordered, order)`` of
    :class:`SparseSystem` from them once, into their buffers, and drops
    them.  The copies of a system that ``dataclasses.replace`` makes share
    its ``Rows``, so no copy reads rows that a derivation has overwritten.
    The first read is not guarded against a second thread reading at once.
    """

    def __init__(self, values, columns):
        self.values, self.columns = values, columns
        self._stored = None

    def stored(self, dof_map: DofMap):
        """``(ordered, order)``: :func:`stored_matrix` of the rows in the
        :func:`stored_numbering` of ``dof_map``."""
        if self._stored is None:
            order, place = stored_numbering(dof_map)
            rows, self.values, self.columns = (self.values, self.columns), None, None
            self._stored = stored_matrix(*rows, order, place), order
        return self._stored


@dataclass(frozen=True)
class SparseSystem:
    """Assembled sparse system over the interior edge dofs, stored as natural-order
    :class:`Rows` until a solve factors or refines it.

    ``ordered`` is the CSC of P A P^T, where A is the operator over the
    interior dofs in their natural order and ``order`` the nested-dissection
    order of its rows and columns (:func:`~swgfem.mesh.nested_dissection`):
    row k of ``ordered`` is row ``order[k]`` of A.  Both are derived from
    ``rows`` on first read, which drops the rows.  ``rhs`` is in the natural
    order, and ``boundary_values`` holds the imposed values of g, aligned
    with ``mesh.dof_map.boundary``.  ``block`` is the 4 x 4 block B, in the
    local order (left, right, bottom, top), when the inputs make every
    element block one block (see :func:`shared_block`), and None otherwise.
    The solver takes a B equal to its transpose to sine transforms, and any
    other to one Schur decomposition along x.  B is symmetric bit for bit
    when beta = 0 (kappa*S + A, C and the stencils are written symmetric) and
    not otherwise: B[0, 1] - B[1, 0] = 2|T| b1 g / hx, g = hy / (2(hx + hy)),
    and B[2, 3] - B[3, 2] likewise with b2, unless beta is below rounding.
    """

    rows: Rows
    rhs: np.ndarray
    boundary_values: np.ndarray
    mesh: TensorMesh
    block: np.ndarray | None = None

    @property
    def ordered(self) -> sp.csc_matrix:
        return self.rows.stored(self.mesh.dof_map)[0]

    @property
    def order(self) -> np.ndarray:
        return self.rows.stored(self.mesh.dof_map)[1]

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """A as CSR, derived on first access and kept, in the index dtype of
        the rows so that scipy converts no index: while the rows are held,
        a copy of their entries without the boundary slots (a derivation of
        ``ordered`` overwrites them), and otherwise the entries of
        ``ordered`` with rows and columns mapped through ``order``."""
        values, columns = self.rows.values, self.rows.columns
        if values is not None:
            size = values.shape[0]
            kept = columns < size
            indptr = np.zeros(size + 1, dtype=columns.dtype)
            np.cumsum(np.count_nonzero(kept, axis=1), out=indptr[1:])
            return sp.csr_matrix((values[kept], columns[kept], indptr), shape=(size, size))
        entries = self.ordered.tocoo()
        order = self.order.astype(self.ordered.indices.dtype)
        return sp.csr_matrix((entries.data, (order[entries.row], order[entries.col])),
                             shape=entries.shape)


def row_numbering(dof_map: DofMap):
    """The column of each edge dof in a system's rows: interior dof
    ``dof_map.interior[i]`` is numbered i, and boundary dof
    ``dof_map.boundary[k]`` ``~k`` (= -1 - k), which the lift of its slots
    reads before they are set to the boundary column N."""
    index = np.int32 if dof_map.count <= _INT32_MAX else np.int64
    number = np.empty(dof_map.count, dtype=index)
    number[dof_map.interior] = np.arange(dof_map.interior.size, dtype=index)
    number[dof_map.boundary] = ~np.arange(dof_map.boundary.size, dtype=index)
    return number


def stored_numbering(dof_map: DofMap):
    """``order`` and ``place``, the nested-dissection order of the interior
    dofs and its inverse, over natural interior indices.

    Row k of ``SparseSystem.ordered`` is natural row ``order[k]``, and
    natural index i is numbered ``place[i]`` in it.  ``place`` has one more
    entry, ``place[N] = N``, so that the rows' boundary column stays last.
    """
    natural = row_numbering(dof_map)[nested_dissection(dof_map)]
    place = np.empty(natural.size + 1, dtype=natural.dtype)
    place[natural] = np.arange(natural.size, dtype=natural.dtype)
    place[-1] = natural.size
    return natural.astype(np.int64), place


def boundary_averages(dof_map: DofMap, g) -> np.ndarray:
    """g at the midpoints of all boundary edges, aligned with dof_map.boundary."""
    x, y = dof_map.midpoints[dof_map.boundary].T
    return g(x, y) + np.zeros(x.size)


def sample_coefficients(geom: ElementGeom, problem: ProblemSpec):
    """alpha and beta of ``problem`` at the Gauss points, c at the centres.

    Returns ``(a11, a22)`` and ``(b1, b2)``, each a (..., 4) float array over
    the points of :func:`kernels.gauss_points`, and c.  Raises
    :class:`NonFiniteData` on a NaN or infinite sample; each caller applies
    its own sign policy.
    """
    alpha, beta = kernels.sample_pairs(geom, alpha=problem.alpha, beta=problem.beta)
    c = np.asarray(problem.c(*geom.center), dtype=float)
    kernels.require_finite("c", c)
    return alpha, beta, c


def assemble(mesh: TensorMesh, problem: ProblemSpec, config: AssemblyConfig) -> SparseSystem:
    """Assemble the global system for ``problem`` on ``mesh``.

    Each coefficient is evaluated once over all elements; the batched
    :func:`kernels.local_operator` and :func:`kernels.load_vector` give the
    element blocks.  Each interior edge's row is gathered from its two
    elements' blocks and ``conn`` numbers (:func:`_edge_rows`, numbered by
    :func:`row_numbering`); the boundary columns times g move to the
    right-hand side, and the rows are stored as they are (:class:`Rows`).
    Every sum runs in a fixed order, so assembly is bit-reproducible.
    """
    dof_map = enumerate_dofs(mesh)
    hx, hy, cx, cy, conn = element_arrays(mesh)
    geom = ElementGeom(hx, hy, (cx, cy))
    (a11, a22), beta_q, c_val = sample_coefficients(geom, problem)
    amin = min(a11.min(), a22.min())
    if amin < 0:
        raise NonPositiveDiffusion("diffusion tensor negative at a quadrature point")
    if amin == 0:
        # tolerate degeneracy confined to elements touching the domain boundary
        el_min = np.minimum(a11.min(axis=1), a22.min(axis=1))
        at_boundary = dof_map.is_boundary[conn].any(axis=1)
        if np.any((el_min <= 0) & ~at_boundary):
            raise NonPositiveDiffusion(
                "diffusion tensor vanishes at an interior quadrature point"
            )
        warnings.warn(
            "diffusion tensor vanishes at boundary-adjacent quadrature points",
            RuntimeWarning,
            stacklevel=2,
        )
    if c_val.min() < 0:
        warnings.warn(
            "reaction coefficient negative on some elements; "
            "maximum-principle guarantees do not apply",
            RuntimeWarning,
            stacklevel=2,
        )
    local = kernels.local_operator(geom, config.kappa, mesh.h, (a11, a22), beta_q, c_val)
    block = shared_block(mesh, ((a11, a22), beta_q, c_val), local)
    # f at the dof midpoints, which lie exactly on the mesh breakpoints
    f_mid = problem.f(*dof_map.midpoints.T) + np.zeros(dof_map.count)
    loads = kernels.load_vector(geom, problem.f, f_mid=f_mid[conn])
    kernels.require_finite("f", loads)

    rhs = np.bincount(conn.ravel(), loads.ravel(), minlength=dof_map.count)

    g_b = boundary_averages(dof_map, problem.g)
    kernels.require_finite("g", g_b)

    number = row_numbering(dof_map)
    planes = local.transpose(1, 2, 0).reshape(4, 4, mesh.ny, mesh.nx)  # no copy
    values, columns = _edge_rows(planes, number[conn.T].reshape(4, mesh.ny, mesh.nx))
    # each row's boundary slots, in slot (dof id) order, summed from +0
    slots = np.flatnonzero(columns < 0)
    lift = values.ravel()[slots] * g_b[~columns.ravel()[slots]]
    rhs = rhs[dof_map.interior] - np.bincount(slots // 7, lift, minlength=values.shape[0])
    columns.ravel()[slots] = values.shape[0]
    return SparseSystem(Rows(values, columns), rhs, g_b, mesh, block)


def stored_matrix(values, columns, order, place) -> sp.csc_matrix:
    """``SparseSystem.ordered`` from the (N, 7) ``values`` and ``columns`` of
    :class:`Rows` and the ``order`` and ``place`` of :func:`stored_numbering`.
    The rows are gathered into stored order, each column mapped to its place,
    and scipy's ``csr_tocsc``, a counting sort by column, transposes them
    into the buffers of ``values`` and ``columns``, which it overwrites, so
    that no second copy outlives the call: each column's rows ascending, and
    the boundary column last, cut off."""
    rows = (np.take(place, np.take(columns, order, axis=0)).ravel(),
            np.take(values, order, axis=0).ravel())
    size = order.size
    indptr = np.arange(0, 7 * size + 1, 7, dtype=columns.dtype)
    csc = (np.empty(size + 2, indptr.dtype), columns.ravel(), values.ravel())
    _sparsetools.csr_tocsc(size, size + 1, indptr, *rows, *csc)
    nnz = csc[0][size]
    ordered = sp.csc_matrix((csc[2][:nnz], csc[1][:nnz], csc[0][:size + 1]), shape=(size, size))
    ordered.has_canonical_format = True  # sorted, one entry per pair
    return ordered


def shared_block(mesh: TensorMesh, coefficients, blocks):
    """A copy of the block B that every element block equals, or None.

    Every element computes the same block, up to the rounding of its steps,
    when the mesh's steps are equal and each coefficient holds one value: so
    a mesh whose x or y steps differ by more than ``SHARED_BLOCK_ULPS`` ulps
    of its largest coordinate is rejected first, before any per-element
    array is read; then each of a11, a22, b1, b2 and c in ``coefficients``
    (as :func:`sample_coefficients` returns them) must hold one value, and B
    is the first of ``blocks``.  Whether B fits every block is left to the
    solver's backward-error check, and B's route to its exact symmetry.
    """
    ulp = math.ulp(max(map(abs, mesh.bounds)))
    if any(steps.max() - steps.min() > SHARED_BLOCK_ULPS * ulp for steps in (mesh.dx, mesh.dy)):
        return None
    (a11, a22), (b1, b2), c = coefficients
    if any(v.min() != v.max() for v in (a11, a22, b1, b2, c)):
        return None
    return blocks[0].copy()


#: How an edge's row is gathered from the rows of its two elements.  Vertical
#: edge v(i, j) is the right edge of element (i-1, j) and the left edge of
#: (i, j); horizontal edge h(i, j) is the top of (i, j-1) and the bottom of
#: (i, j).  Per orientation: the local row of the edge in the first element
#: and in the second, then the entry e that fills each of the 7 slots: local
#: column e % 4 (left, right, bottom, top) of the first element's row for
#: e < 4, of the second's otherwise.
_VERTICAL = (1, 0, (0, 1, 5, 2, 6, 3, 7))
_HORIZONTAL = (3, 2, (0, 1, 4, 5, 2, 3, 7))


def _edge_rows(planes, numbers):
    """Edge matrix rows in the tensor mesh's 7-slot template: (values, columns).

    Every interior edge has two elements, and its row is gathered from both:
    the edge's row of each element's block, and each element's column
    numbers.  A vertical edge's row holds v(i-1, j), itself, v(i+1, j) and
    the four horizontal edges of its two elements; a horizontal edge's row
    holds the same pattern turned 90 degrees.  Slots run in ascending dof
    id, and the diagonal is the sum of the two elements' entries.
    ``planes`` holds the element blocks as (4, 4, ny, nx) planes, entry
    (r, c) of every block in ``planes[r, c]``, and ``numbers`` the column
    numbers of each element's edges as (4, ny, nx) planes, ``number[conn.T]``;
    every slot is read from one plane, over contiguous elements.  Rows are
    the interior edges in dof order, shape (rows, 7).
    """
    ny, nx = planes.shape[2:]
    values = np.empty((ny * (nx - 1) + (ny - 1) * nx, 7))
    columns = np.empty(values.shape, dtype=numbers.dtype)
    start = 0
    for (first_row, second_row, slots), first, second in (
            (_VERTICAL, np.s_[:, :-1], np.s_[:, 1:]), (_HORIZONTAL, np.s_[:-1, :], np.s_[1:, :])):
        rows = (planes[first_row][(slice(None),) + first],
                planes[second_row][(slice(None),) + second])
        row_numbers = (numbers[(slice(None),) + first], numbers[(slice(None),) + second])
        shape = rows[0].shape[1:] + (7,)
        stop = start + shape[0] * shape[1]
        value, column = values[start:stop].reshape(shape), columns[start:stop].reshape(shape)
        for slot, e in enumerate(slots):
            value[..., slot] = rows[e // 4][e % 4]
            column[..., slot] = row_numbers[e // 4][e % 4]
        value[..., slots.index(first_row)] += rows[1][second_row]  # the diagonal
        start = stop
    return values, columns


def _as_byte_rows(strings):
    """A fixed-width bytes array as a (len, width) uint8 array, NUL padded."""
    return strings.view(np.uint8).reshape(strings.size, strings.itemsize)


def dump_matrix(system: SparseSystem, path) -> None:
    """Write the matrix in coordinate text format (row col value per line).

    Each stored entry gives one ``"%d %d %.17g"`` line, row by row.  Every
    index and every distinct value bit pattern is formatted once (so -0.0
    prints as -0), into NUL-padded byte fields; the lines of
    ``DUMP_CHUNK_ROWS`` rows are laid out side by side in one byte array and
    written at once without the padding.  No Python object is made per entry.
    """
    matrix = system.matrix
    indptr, indices = matrix.indptr, matrix.indices
    size = max(matrix.shape)
    ids = _as_byte_rows(np.arange(size).astype(f"S{len(str(max(size - 1, 0)))}"))
    patterns, which = np.unique(matrix.data.view(np.int64), return_inverse=True)
    texts = _as_byte_rows(np.array([b"%.17g" % v for v in patterns.view(np.float64)],
                                   dtype=bytes))
    wide, text_wide = ids.shape[1], texts.shape[1]
    with open(path, "wb") as fh:
        for first in range(0, matrix.shape[0], DUMP_CHUNK_ROWS):
            last = min(first + DUMP_CHUNK_ROWS, matrix.shape[0])
            lo, hi = indptr[first], indptr[last]
            lines = np.zeros((hi - lo, 2 * wide + text_wide + 3), dtype=np.uint8)
            lines[:, :wide] = np.repeat(ids[first:last], np.diff(indptr[first:last + 1]), axis=0)
            lines[:, wide + 1:2 * wide + 1] = ids[indices[lo:hi]]
            lines[:, 2 * wide + 2:-1] = texts[which[lo:hi]]
            lines[:, [wide, 2 * wide + 1]] = ord(" ")
            lines[:, -1] = ord("\n")
            fh.write(lines[lines != 0].tobytes())
