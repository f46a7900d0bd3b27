"""Rectangular tensor-product meshes and edge degree-of-freedom enumeration.

A mesh is the Cartesian product of two strictly increasing breakpoint
arrays.  Element (i, j) spans ``[x_i, x_{i+1}] x [y_j, y_{j+1}]``.  The
unknowns of the scheme live at edge midpoints:

* vertical edges carry grid index (i, j) with i in 0..nx, j in 0..ny-1,
* horizontal edges carry grid index (i, j) with i in 0..nx-1, j in 0..ny.

Degrees of freedom are numbered deterministically: all vertical edges in
row-major order (j outer, i inner), then all horizontal edges likewise.
Meshes are immutable; each mesh computes its element sizes when built, and
its meshsize and dof map once, on first use.

:func:`nested_dissection` orders the interior edges for the direct solve
(George, SIAM J. Numer. Anal. 10 (1973) 345; Lipton, Rose & Tarjan, SIAM J.
Numer. Anal. 16 (1979) 346).  Each SWG row couples only the edges of the two
elements that share its edge, so the edges on any grid line of a block of
elements separate the block's two sides.  The order recursively splits the
mesh at the middle grid line of the longer side and numbers each separator
after the two halves; each distinct block shape is ordered once and
translated.
"""

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (
    IndexOutOfRange,
    NonFiniteData,
    NonMonotoneBreaks,
    TooFewPoints,
    ZeroSubdivisions,
)

_UNIFORM_RTOL = 1e-12


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TensorMesh:
    """Nonuniform rectangular partition of a rectangle.

    Attributes
    ----------
    x_breaks, y_breaks : ndarray
        Strictly increasing abscissas/ordinates, lengths nx+1 and ny+1.
    """

    x_breaks: np.ndarray
    y_breaks: np.ndarray
    dx: np.ndarray = field(init=False, repr=False, compare=False)  # element widths
    dy: np.ndarray = field(init=False, repr=False, compare=False)  # element heights

    def __post_init__(self):
        for name, steps_name in (("x_breaks", "dx"), ("y_breaks", "dy")):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size < 2:
                raise TooFewPoints(f"{name} needs at least 2 points, got {arr.size}")
            steps = arr[1:] - arr[:-1]
            # NaN fails every comparison: increasing breaks can only be infinite at an end
            if not ((steps > 0).all() and math.isfinite(arr[0]) and math.isfinite(arr[-1])):
                if not np.isfinite(arr).all():
                    raise NonFiniteData(f"{name} holds a NaN or infinite breakpoint")
                raise NonMonotoneBreaks(f"{name} must be strictly increasing")
            object.__setattr__(self, name, _read_only(arr))
            object.__setattr__(self, steps_name, _read_only(steps))

    @property
    def nx(self) -> int:
        return self.x_breaks.size - 1

    @property
    def ny(self) -> int:
        return self.y_breaks.size - 1

    @cached_property
    def h(self) -> float:
        """Global meshsize: max over elements of max(hx, hy)."""
        return float(max(self.dx.max(), self.dy.max()))

    @property
    def bounds(self) -> tuple:
        return (
            float(self.x_breaks[0]),
            float(self.x_breaks[-1]),
            float(self.y_breaks[0]),
            float(self.y_breaks[-1]),
        )

    @cached_property
    def dof_map(self) -> "DofMap":
        """The edge-dof map of this mesh, built on first use (read-only arrays)."""
        return DofMap(self)

    @property
    def is_uniform(self) -> bool:
        """True when all elements are squares of identical size."""
        dx, dy = self.dx, self.dy
        hx, hy = dx[0], dy[0]
        tol = _UNIFORM_RTOL * max(hx, hy)
        return (
            np.all(np.abs(dx - hx) <= tol)
            and np.all(np.abs(dy - hy) <= tol)
            and abs(hx - hy) <= tol
        )


@dataclass(frozen=True)
class ElementGeom:
    """Geometry of one rectangular element, or of a batch of them.

    Edge quantities follow the fixed local ordering e1=left, e2=right,
    e3=bottom, e4=top; :func:`element_arrays` gives the global edge-dof ids
    in that order.  ``hx``, ``hy`` and both entries of ``center`` may be
    equal-shape arrays (see :func:`element_arrays`); the geometry then
    describes that batch of elements.
    """

    hx: float
    hy: float
    center: tuple

    @property
    def area(self) -> float:
        return self.hx * self.hy

    @property
    def sigma(self) -> float:
        """Aspect ratio hx/hy."""
        return self.hx / self.hy


class DofMap:
    """Bijection between edge dofs and contiguous indices [0, count).

    Vertical edge (i, j) has id j*(nx+1) + i, and horizontal edge (i, j) id
    n_vertical + j*nx + i.  The map is read only through its arrays, each
    indexed by dof id.  ``interior`` and ``boundary`` partition the index
    range.  The map stores ``nx``, ``ny``, ``n_vertical``,
    ``n_horizontal``, ``count``, ``midpoints``, ``is_boundary``,
    ``interior`` and ``boundary``, and not the mesh, which caches the map.
    """

    def __init__(self, mesh: TensorMesh):
        nx, ny = mesh.nx, mesh.ny
        xb, yb = mesh.x_breaks, mesh.y_breaks
        self.nx, self.ny = nx, ny
        self.n_vertical = (nx + 1) * ny
        self.n_horizontal = nx * (ny + 1)
        self.count = self.n_vertical + self.n_horizontal

        xm = 0.5 * (xb[:-1] + xb[1:])
        ym = 0.5 * (yb[:-1] + yb[1:])
        self.midpoints = np.empty((self.count, 2))
        # vertical edges (i fastest): x on a grid line, y at an element mid-height;
        # horizontal edges (i fastest): x at an element mid-width, y on a grid line
        for edges, x, y in ((self.midpoints[:self.n_vertical].reshape(ny, nx + 1, 2), xb, ym),
                            (self.midpoints[self.n_vertical:].reshape(ny + 1, nx, 2), xm, yb)):
            edges[..., 0], edges[..., 1] = x, y[:, None]
        self.is_boundary = np.zeros(self.count, dtype=bool)
        vertical = self.is_boundary[:self.n_vertical].reshape(ny, nx + 1)
        vertical[:, 0] = vertical[:, nx] = True
        self.is_boundary[self.n_vertical:self.n_vertical + nx] = True
        self.is_boundary[self.count - nx:] = True

        self.interior = (~self.is_boundary).nonzero()[0]
        self.boundary = self.is_boundary.nonzero()[0]

        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                _read_only(arr)


#: Regions of at most this many elements keep the natural dof order.  At
#: tc2 n=256, leaves of 4, 16 and 64 elements gave 6.69 M, 7.07 M and
#: 11.3 M factor entries; leaves of 1 or 2 gave the same factor as 4.
ND_LEAF_ELEMENTS = 4


def _split(w, h):
    """Where the order cuts a w x h block: ("x", k) at the grid line x = k or
    ("y", k) at y = k, or (None, None) for one element.  A region is cut in
    the middle of its longer side (x on a tie); a leaf peels off its last row,
    or its last column if it has one row, which numbers its edges by id."""
    if w * h == 1:
        return None, None
    if w * h <= ND_LEAF_ELEMENTS:
        return ("y", h - 1) if h > 1 else ("x", w - 1)
    return ("x", w // 2) if w >= h else ("y", h // 2)


def _block_order(w, h, row, nv, memo):
    """Order of the edges strictly inside a w x h block at the origin, as padded ids.

    Padded ids are j*row + i for vertical edge (i, j) and nv + j*row + i for
    horizontal ones, so moving a block by (di, dj) adds dj*row + di to each.
    """
    order = memo.get((w, h))
    if order is not None:
        return order
    axis, k = _split(w, h)
    if axis is None:
        order = np.zeros(0, dtype=np.int64)
    elif axis == "x":
        first, second = _block_order(k, h, row, nv, memo), _block_order(w - k, h, row, nv, memo)
        order = np.concatenate([first, second + k, np.arange(k, k + h * row, row)])
    else:
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


def factor_entries(nx: int, ny: int) -> int:
    """nnz(L + U) of the interior system of an nx x ny mesh, every stored slot
    counted, factored without pivoting in the :func:`nested_dissection` order.

    Both sides of a cut are connected once eliminated, so each of its s edges
    reaches every later one and the b edges on its block's open sides (on an
    enclosing cut, not on the boundary): it adds s(s+1)/2 + s b entries of L.
    """
    return 2 * _lower_entries(nx, ny, (False,) * 4) - (nx - 1) * ny - nx * (ny - 1)


@cache
def _lower_entries(w, h, sides):
    """Entries of L, diagonal included, in the columns of the edges strictly
    inside a w x h block whose (left, right, bottom, top) sides are open."""
    left, right, bottom, top = sides
    axis, k = _split(w, h)
    if axis is None:
        return 0
    if axis == "x":
        s, halves = h, ((k, h, (left, True, bottom, top)), (w - k, h, (True, right, bottom, top)))
    else:
        s, halves = w, ((w, k, (left, right, bottom, True)), (w, h - k, (left, right, True, top)))
    b = h * (left + right) + w * (bottom + top)  # edges on the open sides
    return sum(_lower_entries(*half) for half in halves) + s * (s + 1) // 2 + s * b


def build_tensor_mesh(x_breaks, y_breaks) -> TensorMesh:
    """Build a mesh from two strictly increasing breakpoint arrays."""
    return TensorMesh(np.asarray(x_breaks, dtype=float), np.asarray(y_breaks, dtype=float))


def uniform_mesh(n: int) -> TensorMesh:
    """Uniform n x n partition of the unit square (breaks k/n)."""
    if n < 1:
        raise ZeroSubdivisions(f"need at least one subdivision, got n={n}")
    breaks = np.linspace(0.0, 1.0, n + 1)
    return TensorMesh(breaks, breaks.copy())


def element_geometry(mesh: TensorMesh, i: int, j: int) -> ElementGeom:
    """Geometry of element (i, j): row j*nx + i of :func:`element_arrays`."""
    if not (0 <= i < mesh.nx and 0 <= j < mesh.ny):
        raise IndexOutOfRange(
            f"element ({i}, {j}) outside ({mesh.nx}, {mesh.ny}) grid"
        )
    (x0, x1), (y0, y1) = mesh.x_breaks[i:i + 2].tolist(), mesh.y_breaks[j:j + 2].tolist()
    return ElementGeom(hx=x1 - x0, hy=y1 - y0, center=(0.5 * (x0 + x1), 0.5 * (y0 + y1)))


def enumerate_dofs(mesh: TensorMesh) -> DofMap:
    """Deterministic edge-dof enumeration for ``mesh``, built once per mesh."""
    return mesh.dof_map


def elements(mesh: TensorMesh) -> ElementGeom:
    """The geometry of all elements as one batch, flattened row-major
    (k = j*nx + i): the first four arrays of :func:`element_arrays`."""
    nx, ny = mesh.nx, mesh.ny
    xb, yb = mesh.x_breaks, mesh.y_breaks
    hx, cx = (a[None].repeat(ny, axis=0).ravel() for a in (mesh.dx, 0.5 * (xb[:-1] + xb[1:])))
    hy, cy = (a.repeat(nx) for a in (mesh.dy, 0.5 * (yb[:-1] + yb[1:])))
    return ElementGeom(hx, hy, (cx, cy))


def element_arrays(mesh: TensorMesh):
    """Vectorized element geometry: (hx, hy, cx, cy, conn) over all elements.

    Elements are flattened row-major (k = j*nx + i).  ``conn`` has shape
    (nx*ny, 4) holding the global edge ids (left, right, bottom, top).
    """
    nx, ny = mesh.nx, mesh.ny
    geom = elements(mesh)
    # element (i, j) lies between vertical edges i and i + 1 of row j and
    # horizontal edges j and j + 1 of column i
    vertical = np.arange((nx + 1) * ny).reshape(ny, nx + 1)
    horizontal = np.arange(vertical.size, vertical.size + nx * (ny + 1)).reshape(ny + 1, nx)
    conn = np.empty((ny, nx, 4), dtype=vertical.dtype)
    conn[..., 0], conn[..., 1] = vertical[:, :-1], vertical[:, 1:]
    conn[..., 2], conn[..., 3] = horizontal[:-1], horizontal[1:]
    return geom.hx, geom.hy, *geom.center, conn.reshape(-1, 4)
