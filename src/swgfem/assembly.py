"""Global system assembly over edge midpoints with Dirichlet data.

The equation attached to an interior edge is the sum of the local-operator
rows contributed by its (at most two) adjacent elements, so every row
couples at most 7 unknowns.  Dirichlet data enters by elimination: the
boundary unknowns take the imposed values, and their columns times those
values move to the right-hand side.

The system is stored once, in the order the solver factors it: the CSC of
P A P^T, for the natural-order operator A over the interior dofs and their
nested-dissection order P (:func:`~swgfem.mesh.nested_dissection`).  Each
edge is numbered by its place in that order before any row is filled, so
the stored matrix is built from its entries in one step, with no permute.
A itself, as CSR, is derived on first use (``SparseSystem.matrix``) for the
matrix dump and other readers of the natural order.

Boundary values are per-edge averages of g.  Two quadrature rules are
available: ``midpoint`` (the default; reproduces midpoint-sampled
quadratics exactly at kappa = 4) and the more accurate ``simpson``.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import kernels
from .errors import NonPositiveDiffusion
from .mesh import (
    DofMap,
    EdgeDof,
    ElementGeom,
    TensorMesh,
    element_arrays,
    enumerate_dofs,
    nested_dissection,
)

QB_RULES = ("midpoint", "simpson")

#: Rows whose lines :func:`dump_matrix` lays out and writes at a time.  A
#: chunk of 8192 rows (at most 57,344 lines) takes a few MB, so the dump
#: does not raise the peak memory of a solve of the same system.
DUMP_CHUNK_ROWS = 8192


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
    c_is_zero: bool = True
    pure_unit_diffusion: bool = False  # alpha = I, beta = 0, c = 0; gates the FD schemes
    description: str = ""


@dataclass(frozen=True)
class AssemblyConfig:
    """Stabilization parameter and the averaging rule of the Dirichlet data."""

    kappa: float
    qb_rule: str = "midpoint"

    def __post_init__(self):
        kernels.require_kappa(self.kappa)
        if self.qb_rule not in QB_RULES:
            raise ValueError(f"qb_rule must be one of {QB_RULES}")


@dataclass(frozen=True)
class SparseSystem:
    """Assembled sparse system over the interior edge dofs, stored once, in
    the order the solver factors it.

    ``ordered`` is the CSC of P A P^T, where A is the operator over the
    interior dofs in their natural order and ``order`` the nested-dissection
    order of its rows and columns (:func:`~swgfem.mesh.nested_dissection`):
    row k of ``ordered`` is row ``order[k]`` of A.  ``rhs`` is in the natural
    order, and ``boundary_values`` holds the imposed averages of g, aligned
    with ``mesh.dof_map.boundary``.
    :func:`stored_system` builds a system from its entries.
    """

    ordered: sp.csc_matrix
    order: np.ndarray
    rhs: np.ndarray
    boundary_values: np.ndarray
    mesh: TensorMesh

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """A as CSR, derived on first access and kept: the entries of
        ``ordered`` with rows and columns mapped through ``order``."""
        entries, order = self.ordered.tocoo(), self.order
        return sp.csr_matrix((entries.data, (order[entries.row], order[entries.col])),
                             shape=entries.shape)


def stored_numbering(dof_map: DofMap):
    """``order`` and the number of each edge dof in the stored system.

    Interior dof ``order[k]`` (a natural interior index) is numbered k, its
    place in the nested-dissection order, and boundary dof k is numbered
    -2 - (its place in ``dof_map.boundary``).
    """
    index = np.int32 if dof_map.count <= np.iinfo(np.int32).max else np.int64
    ids = nested_dissection(dof_map)
    number = np.empty(dof_map.count, dtype=index)
    number[ids] = np.arange(ids.size, dtype=index)
    number[dof_map.boundary] = -2 - np.arange(dof_map.boundary.size, dtype=index)
    return dof_map.free_index[ids], number


def stored_system(values, rows, columns, order, rhs, boundary_values, mesh) -> SparseSystem:
    """The system whose stored matrix has ``values`` at (``rows``,
    ``columns``), numbered as :func:`stored_numbering` numbers them, one
    entry per pair.  Entries given in ascending row order come out of the
    counting sort by column in canonical CSC order, and scipy sorts nothing.
    """
    size = order.size
    ordered = sp.csc_matrix((values, (rows, columns)), shape=(size, size))
    return SparseSystem(ordered, order, rhs, boundary_values, mesh)


def _edge_averages(g, midpoints, lengths, vertical, rule: str) -> np.ndarray:
    """Averages of ``g`` over edges given by midpoint (k, 2), length and orientation.

    ``simpson`` uses the 3-point rule (exact for cubics along the edge);
    ``midpoint`` samples g at the edge midpoint.
    """
    mx, my = midpoints[:, 0], midpoints[:, 1]
    if rule == "midpoint":
        return g(mx, my) + np.zeros(mx.size)
    if rule != "simpson":
        raise ValueError(f"rule must be one of {QB_RULES}")
    half = 0.5 * lengths
    x0 = np.where(vertical, mx, mx - half)
    x1 = np.where(vertical, mx, mx + half)
    y0 = np.where(vertical, my - half, my)
    y1 = np.where(vertical, my + half, my)
    vals = (g(x0, y0) + 4.0 * g(mx, my) + g(x1, y1)) / 6.0
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
    element blocks.  The rows are filled straight from the blocks in the
    tensor mesh's 7-slot row template (:func:`_edge_rows`), with every edge
    numbered as it is stored (:func:`stored_numbering`); the boundary
    columns times g move to the right-hand side, and the rows, taken in
    stored order, give the stored matrix (:func:`stored_system`).  Every
    sum runs in a fixed order, so assembly is bit-reproducible.
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
    local = kernels.local_operator(
        geom, config.kappa, mesh.h, (a11, a22), beta_q, c_val)
    # f at the dof midpoints, which lie exactly on the mesh breakpoints
    f_mid = problem.f(*dof_map.midpoints.T) + np.zeros(dof_map.count)
    loads = kernels.load_vector(geom, problem.f, f_mid=f_mid[conn])
    kernels.require_finite("f", loads)

    rhs = np.bincount(conn.ravel(), loads.ravel(), minlength=dof_map.count)

    g_b = boundary_averages(mesh, dof_map, problem.g, config.qb_rule)
    kernels.require_finite("g", g_b)

    order, number = stored_numbering(dof_map)
    values, columns = _edge_rows(local.reshape(mesh.ny, mesh.nx, 4, 4), number)
    # each row's boundary slots, in slot (dof id) order, summed from +0
    slots = np.flatnonzero(columns <= -2)
    lift = values.ravel()[slots] * g_b[-2 - columns.ravel()[slots]]
    rhs = rhs[dof_map.interior] - np.bincount(slots // 7, lift, minlength=order.size)
    values, columns = (np.take(a, order, axis=0) for a in (values, columns))
    keep = columns >= 0
    rows = np.repeat(np.arange(order.size, dtype=columns.dtype), 7)[keep.ravel()]
    return stored_system(values[keep], rows, columns[keep], order, rhs, g_b, mesh)


#: How an edge's row values are gathered from the rows of its two elements.
#: Vertical edge v(i, j) is the right edge of element (i-1, j) and the left
#: edge of (i, j); horizontal edge h(i, j) is the top of (i, j-1) and the
#: bottom of (i, j).  Per orientation: each element as (the local row of the
#: edge, where the element grid sits on the edge grid), then which of the 8
#: gathered entries (the first element's row, then the second's; local
#: columns left, right, bottom, top) fills each of the 7 slots.
_VERTICAL = ((1, np.s_[:, 1:]), (0, np.s_[:, :-1]), (0, 1, 5, 2, 6, 3, 7))
_HORIZONTAL = ((3, np.s_[1:, :]), (2, np.s_[:-1, :]), (0, 1, 4, 5, 2, 3, 7))


def _edge_rows(blocks, number):
    """Edge matrix rows in the tensor mesh's 7-slot template: (values, columns).

    A vertical edge's row holds v(i-1, j), itself, v(i+1, j) and the four
    horizontal edges of its two elements; a horizontal edge's row holds the
    same pattern turned 90 degrees.  Slots run in ascending dof id, and the
    diagonal is the sum of the two elements' entries.  ``blocks`` holds the
    (ny, nx, 4, 4) element blocks and ``number`` the column number of each
    edge dof.  Rows are the interior edges in dof order, shape (rows, 7).
    A slot of an element beyond the mesh holds value 0 and column -1.
    """
    ny, nx = blocks.shape[:2]
    nv = (nx + 1) * ny
    vn, hn = number[:nv].reshape(ny, nx + 1), number[nv:].reshape(ny + 1, nx)
    # the number grids padded with -1 across x and across y
    vx, hx = (np.full((g.shape[0], g.shape[1] + 2), -1, dtype=g.dtype) for g in (vn, hn))
    vy, hy = (np.full((g.shape[0] + 2, g.shape[1]), -1, dtype=g.dtype) for g in (vn, hn))
    vx[:, 1:-1], hx[:, 1:-1], vy[1:-1], hy[1:-1] = vn, hn, vn, hn
    # per orientation: the edges, the rows kept, how values are gathered, and
    # the columns of slots 0-6: v(i-1, j), v(i, j), v(i+1, j), h(i-1, j),
    # h(i, j), h(i-1, j+1), h(i, j+1) for vertical edge v(i, j), and v(i, j-1),
    # v(i+1, j-1), v(i, j), v(i+1, j), h(i, j-1), h(i, j), h(i, j+1) for h(i, j)
    grids = (
        (vn, np.s_[:, 1:nx], _VERTICAL,
         (vx[:, :-2], vx[:, 1:-1], vx[:, 2:], hx[:-1, :-1], hx[:-1, 1:], hx[1:, :-1], hx[1:, 1:])),
        (hn, np.s_[1:ny, :], _HORIZONTAL,
         (vy[:-1, :-1], vy[:-1, 1:], vy[1:, :-1], vy[1:, 1:], hy[:-2], hy[1:-1], hy[2:])),
    )
    sizes = [own[rows].size for own, rows, _, _ in grids]
    values = np.empty((sum(sizes), 7))
    columns = np.empty((sum(sizes), 7), dtype=number.dtype)
    start = 0
    for size, (own, rows, (first, second, slots), slot_columns) in zip(sizes, grids):
        pairs = np.zeros(own.shape + (8,))
        for half, (local_row, place) in ((np.s_[:4], first), (np.s_[4:], second)):
            pairs[place + (half,)] = blocks[:, :, local_row]
        pairs[..., first[0]] += pairs[..., 4 + second[0]]  # the diagonal
        shape = own[rows].shape + (7,)
        np.take(pairs[rows], slots, axis=-1, mode="clip",
                out=values[start:start + size].reshape(shape))
        out_columns = columns[start:start + size].reshape(shape)
        for slot, grid in enumerate(slot_columns):
            out_columns[..., slot] = grid[rows]
        start += size
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
