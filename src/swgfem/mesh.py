"""Rectangular tensor-product meshes and edge degree-of-freedom enumeration.

A mesh is the Cartesian product of two strictly increasing breakpoint
arrays.  Element (i, j) spans ``[x_i, x_{i+1}] x [y_j, y_{j+1}]``.  The
unknowns of the scheme live at edge midpoints:

* vertical edges carry grid index (i, j) with i in 0..nx, j in 0..ny-1,
* horizontal edges carry grid index (i, j) with i in 0..nx-1, j in 0..ny.

Degrees of freedom are numbered deterministically: all vertical edges in
row-major order (j outer, i inner), then all horizontal edges likewise.
Meshes are immutable; each mesh computes its element sizes, meshsize and
dof map once, on first use.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IndexOutOfRange,
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

    def __post_init__(self):
        for name in ("x_breaks", "y_breaks"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size < 2:
                raise TooFewPoints(f"{name} needs at least 2 points, got {arr.size}")
            if not np.all(np.diff(arr) > 0):
                raise NonMonotoneBreaks(f"{name} must be strictly increasing")
            object.__setattr__(self, name, _read_only(arr))

    @property
    def nx(self) -> int:
        return self.x_breaks.size - 1

    @property
    def ny(self) -> int:
        return self.y_breaks.size - 1

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    @cached_property
    def dx(self) -> np.ndarray:
        return _read_only(np.diff(self.x_breaks))

    @cached_property
    def dy(self) -> np.ndarray:
        return _read_only(np.diff(self.y_breaks))

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

    ``edges`` holds the four global edge-dof ids in the fixed ordering
    e1=left, e2=right, e3=bottom, e4=top; it is None for standalone
    geometries created outside a mesh.  ``hx``, ``hy`` and both entries of
    ``center`` may be equal-shape arrays (see :func:`element_arrays`); the
    geometry then describes that batch of elements, and
    :meth:`edge_midpoints` and :meth:`edge_lengths` add a trailing edge axis.
    """

    hx: float
    hy: float
    center: tuple
    edges: tuple | None = None

    @property
    def area(self) -> float:
        return self.hx * self.hy

    @property
    def sigma(self) -> float:
        """Aspect ratio hx/hy."""
        return self.hx / self.hy

    @classmethod
    def standalone(cls, hx, hy, center=(0.0, 0.0)):
        return cls(float(hx), float(hy), (float(center[0]), float(center[1])))

    def edge_midpoints(self) -> np.ndarray:
        """Midpoints of (left, right, bottom, top) edges, shape (..., 4, 2)."""
        cx, cy = self.center
        x = np.stack([cx - 0.5 * self.hx, cx + 0.5 * self.hx, cx, cx], axis=-1)
        y = np.stack([cy, cy, cy - 0.5 * self.hy, cy + 0.5 * self.hy], axis=-1)
        return np.stack([x, y], axis=-1)

    def edge_lengths(self) -> np.ndarray:
        return np.stack([self.hy, self.hy, self.hx, self.hx], axis=-1)

    def edge_normals(self) -> np.ndarray:
        return np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])


@dataclass(frozen=True)
class EdgeDof:
    """One edge midpoint unknown."""

    orientation: str  # "vertical" | "horizontal"
    i: int
    j: int
    midpoint: tuple
    length: float
    is_boundary: bool

    def endpoints(self) -> tuple:
        x, y = self.midpoint
        if self.orientation == "vertical":
            return ((x, y - 0.5 * self.length), (x, y + 0.5 * self.length))
        return ((x - 0.5 * self.length, y), (x + 0.5 * self.length, y))

    def half_index_label(self) -> str:
        """Label in half-index notation, e.g. ``u[3, 1+1/2]``."""
        if self.orientation == "vertical":
            return f"u[{self.i}, {self.j}+1/2]"
        return f"u[{self.i}+1/2, {self.j}]"


class DofMap:
    """Bijection between edge dofs and contiguous indices [0, count).

    Vertical edges come first (id = j*(nx+1) + i), then horizontal edges
    (id = n_vertical + j*nx + i).  ``interior`` and ``boundary`` partition
    the index range; ``free_index`` maps a global id to its position in
    ``interior`` (or -1 for boundary dofs).
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
        # vertical edges (i fastest): x on a grid line, y at an element mid-height
        vi, vj = np.tile(np.arange(nx + 1), ny), np.repeat(np.arange(ny), nx + 1)
        # horizontal edges (i fastest): x at an element mid-width, y on a grid line
        hi, hj = np.tile(np.arange(nx), ny + 1), np.repeat(np.arange(ny + 1), nx)

        self.is_vertical = np.arange(self.count) < self.n_vertical
        self.grid_i = np.concatenate([vi, hi])
        self.grid_j = np.concatenate([vj, hj])
        self.midpoints = np.stack([np.concatenate([np.tile(xb, ny), np.tile(xm, ny + 1)]),
                                   np.concatenate([np.repeat(ym, nx + 1), np.repeat(yb, nx)])],
                                  axis=1)
        self.lengths = np.concatenate([np.repeat(mesh.dy, nx + 1), np.tile(mesh.dx, ny + 1)])
        self.is_boundary = np.concatenate([(vi == 0) | (vi == nx), (hj == 0) | (hj == ny)])

        self.interior = np.flatnonzero(~self.is_boundary)
        self.boundary = np.flatnonzero(self.is_boundary)
        self.free_index = np.full(self.count, -1, dtype=np.int64)
        self.free_index[self.interior] = np.arange(self.interior.size)

        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                _read_only(arr)

    def vertical_id(self, i, j) -> int:
        return j * (self.nx + 1) + i

    def horizontal_id(self, i, j) -> int:
        return self.n_vertical + j * self.nx + i

    def edge(self, k: int) -> EdgeDof:
        """Materialize edge dof ``k`` as an :class:`EdgeDof`."""
        if not 0 <= k < self.count:
            raise IndexOutOfRange(f"dof {k} outside [0, {self.count})")
        return EdgeDof(
            orientation="vertical" if self.is_vertical[k] else "horizontal",
            i=int(self.grid_i[k]),
            j=int(self.grid_j[k]),
            midpoint=(float(self.midpoints[k, 0]), float(self.midpoints[k, 1])),
            length=float(self.lengths[k]),
            is_boundary=bool(self.is_boundary[k]),
        )


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
    """Geometry of element (i, j) with edge ids (left, right, bottom, top)."""
    if not (0 <= i < mesh.nx and 0 <= j < mesh.ny):
        raise IndexOutOfRange(
            f"element ({i}, {j}) outside ({mesh.nx}, {mesh.ny}) grid"
        )
    xb, yb = mesh.x_breaks, mesh.y_breaks
    hx = float(xb[i + 1] - xb[i])
    hy = float(yb[j + 1] - yb[j])
    center = (float(0.5 * (xb[i] + xb[i + 1])), float(0.5 * (yb[j] + yb[j + 1])))
    dm_nv = (mesh.nx + 1) * mesh.ny
    edges = (
        j * (mesh.nx + 1) + i,          # left
        j * (mesh.nx + 1) + i + 1,      # right
        dm_nv + j * mesh.nx + i,        # bottom
        dm_nv + (j + 1) * mesh.nx + i,  # top
    )
    return ElementGeom(hx=hx, hy=hy, center=center, edges=edges)


def enumerate_dofs(mesh: TensorMesh) -> DofMap:
    """Deterministic edge-dof enumeration for ``mesh``, built once per mesh."""
    return mesh.dof_map


def element_arrays(mesh: TensorMesh):
    """Vectorized element geometry: (hx, hy, cx, cy, conn) over all elements.

    Elements are flattened row-major (k = j*nx + i).  ``conn`` has shape
    (n_elements, 4) holding the global edge ids (left, right, bottom, top).
    """
    nx, ny = mesh.nx, mesh.ny
    xb, yb = mesh.x_breaks, mesh.y_breaks
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()  # k = j*nx + i
    hx = mesh.dx[ii]
    hy = mesh.dy[jj]
    cx = 0.5 * (xb[ii] + xb[ii + 1])
    cy = 0.5 * (yb[jj] + yb[jj + 1])
    nv = (nx + 1) * ny
    conn = np.stack(
        [
            jj * (nx + 1) + ii,
            jj * (nx + 1) + ii + 1,
            nv + jj * nx + ii,
            nv + (jj + 1) * nx + ii,
        ],
        axis=1,
    )
    return hx, hy, cx, cy, conn
