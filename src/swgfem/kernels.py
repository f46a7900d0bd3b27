"""Element-local kernels of the simplified weak Galerkin discretization.

Local vectors hold one value per edge in the fixed ordering (left, right,
bottom, top).  On a rectangle the weak gradient of an edge-value vector is
the constant

    grad_w v = ((v2 - v1)/hx, (v4 - v3)/hy),

and the linear extension fitted to the edge values by the moment
conditions has the closed form

    s(v)(x, y) = gamma0 + gamma1*(x - xT) + gamma2*(y - yT),
    gamma0 = (hy*(v1 + v2) + hx*(v3 + v4)) / (2*(hx + hy)),
    gamma1 = (v2 - v1)/hx,   gamma2 = (v4 - v3)/hy.

All variable-coefficient integrals use a fixed 2x2 tensor Gauss rule,
exact for integrands of coordinate degree <= 3, which covers every
polynomial pairing of weak gradients with linear extensions.

Every kernel runs on one element or on a batch of elements: a geometry
whose ``hx``, ``hy`` and ``center`` hold equal-shape arrays (as built from
:func:`swgfem.mesh.element_arrays`) gives ``(..., 4)`` vectors and
``(..., 4, 4)`` blocks; a scalar geometry gives ``(4,)`` and ``(4, 4)``.
Edge-value vectors ``v`` batch the same way, with shape ``(..., 4)``.

The blocks of :func:`local_operator` are written from per-element scalars.
With d = (1, 1, -1, -1), mu = hx*hy/(2*h*(hx+hy)), W = |T|/4 * sum_q a11(q)
and X = (W/hx)/hx (Y likewise from a22 and hy), kappa*S + A is
kappa*mu*d d^T + X*(e1-e2)(e1-e2)^T + Y*(e3-e4)(e3-e4)^T: entries -kappa*mu
off the two 2x2 diagonal blocks and kappa*mu +- X (+- Y) on them.  Column 2
of B is |T|/4 * sum_q s_i(q) b1(q)/hx and column 1 its negative (columns 4
and 3 take b2/hy); C is c*|T|/4 * sum_q s_i(q) s_j(q).  Each sum over the
Gauss points runs as (p0 + p2) + (p1 + p3): the order in which numpy's
``einsum`` sums four terms on x86-64, as in the einsum form of B and C that
``tests/oracles.py::block_sum_operator`` keeps, so the bytes stay the same.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    NegativeReaction,
    NonFiniteData,
    NonPositiveDiffusion,
    NonPositiveKappa,
    NonPositiveMeshsize,
)
from .mesh import ElementGeom

#: Sign pattern of the stabilizer's rank-1 direction (left, right, bottom, top).
STAB_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])

_GAUSS_OFFSET = 1.0 / np.sqrt(3.0)
_GAUSS_SX = np.array([-1.0, 1.0, -1.0, 1.0]) * _GAUSS_OFFSET
_GAUSS_SY = np.array([-1.0, -1.0, 1.0, 1.0]) * _GAUSS_OFFSET


@dataclass(frozen=True)
class ExtensionCoeffs:
    """Coefficients of a linear extension about the element center."""

    gamma0: float
    gamma1: float
    gamma2: float

    def evaluate(self, geom: ElementGeom, x, y):
        cx, cy = geom.center
        return self.gamma0 + self.gamma1 * (np.asarray(x) - cx) + self.gamma2 * (
            np.asarray(y) - cy
        )


def require_finite(name, *samples):
    """Raise :class:`NonFiniteData` naming ``name`` if a sample is NaN or infinite."""
    if not all(np.isfinite(v).all() for v in samples):
        raise NonFiniteData(f"{name} is NaN or infinite at a sample point")


def require_kappa(kappa):
    """Raise :class:`NonPositiveKappa` unless the stabilization parameter is
    finite and positive."""
    if not (np.isfinite(kappa) and kappa > 0):
        raise NonPositiveKappa(f"kappa must be finite and positive, got {kappa}")


def require_meshsize(h):
    """Raise :class:`NonPositiveMeshsize` unless the meshsize is finite and positive."""
    if not (np.isfinite(h) and h > 0):
        raise NonPositiveMeshsize(f"meshsize must be finite and positive, got {h}")


def _gauss(geom: ElementGeom):
    """Columns (hx, hy, cx, cy), each (..., 1), and Gauss coordinates (..., 4)."""
    hx, hy, cx, cy = cols = [
        np.asarray(a, dtype=float)[..., None] for a in (geom.hx, geom.hy, *geom.center)
    ]
    return cols, cx + 0.5 * hx * _GAUSS_SX, cy + 0.5 * hy * _GAUSS_SY


def _extensions(geom: ElementGeom):
    """The basis extensions at the Gauss points, (4 basis, 4 points, ...)."""
    hx, hy, cx, cy = (np.asarray(a, dtype=float) for a in (geom.hx, geom.hy, *geom.center))
    # the Gauss coordinates of _gauss, point axis first
    xi = (cx + np.multiply.outer(_GAUSS_SX, 0.5 * hx) - cx) / hx
    eta = (cy + np.multiply.outer(_GAUSS_SY, 0.5 * hy) - cy) / hy
    den = 2.0 * (hx + hy)
    g_v, g_h = hy / den, hx / den
    return np.array([g_v - xi, g_v + xi, g_h - eta, g_h + eta])


def _at_points(pair, shape):
    """A coefficient pair broadcast to one value per Gauss point."""
    pair = [np.asarray(a, dtype=float) for a in pair]
    return [a if a.shape == shape else np.broadcast_to(a, shape) for a in pair]


def sample_pairs(geom: ElementGeom, **coefficients):
    """Each pair-valued coefficient ``name=callable`` at the points of
    :func:`gauss_points`, as two (..., 4) arrays, in the order given; checked
    by :func:`require_finite` under its name."""
    _, qx, qy = _gauss(geom)
    pairs = []
    for name, coefficient in coefficients.items():
        pairs.append(_at_points(coefficient(qx, qy), qx.shape))
        require_finite(name, *pairs[-1])
    return pairs


def gauss_points(geom: ElementGeom):
    """2x2 tensor Gauss rule: points (..., 4, 2) and weights (..., 4) summing to |T|."""
    (hx, hy, _, _), qx, qy = _gauss(geom)
    return np.stack([qx, qy], axis=-1), np.repeat(0.25 * (hx * hy), 4, axis=-1)


def weak_gradient(geom: ElementGeom, v):
    """Constant weak gradient of the edge-value vector ``v``."""
    v = np.asarray(v, dtype=float)
    return (v[..., 1] - v[..., 0]) / geom.hx, (v[..., 3] - v[..., 2]) / geom.hy


def extension_coeffs(geom: ElementGeom, v) -> ExtensionCoeffs:
    """Linear extension of ``v``; reproduces midpoint-sampled linears exactly."""
    v = np.asarray(v, dtype=float)
    denom = 2.0 * (geom.hx + geom.hy)
    return ExtensionCoeffs(
        gamma0=(geom.hy * (v[..., 0] + v[..., 1]) + geom.hx * (v[..., 2] + v[..., 3]))
        / denom,
        gamma1=(v[..., 1] - v[..., 0]) / geom.hx,
        gamma2=(v[..., 3] - v[..., 2]) / geom.hy,
    )


def midpoint_defects(geom: ElementGeom, v):
    """Vector of v_i - s(v)(M_i) over the four edge midpoints.

    The defect is +hx*D/(2(hx+hy)) on the vertical edges and
    -hy*D/(2(hx+hy)) on the horizontal ones, with D = v1+v2-v3-v4.
    """
    v = np.asarray(v, dtype=float)
    d = (v[..., 0] + v[..., 1] - v[..., 2] - v[..., 3]) / (2.0 * (geom.hx + geom.hy))
    return np.stack([geom.hx * d, geom.hx * d, -geom.hy * d, -geom.hy * d], axis=-1)


def basis_extensions(geom: ElementGeom):
    """Linear extensions of the four edge indicator functions."""
    g_v = geom.hy / (2.0 * (geom.hx + geom.hy))
    g_h = geom.hx / (2.0 * (geom.hx + geom.hy))
    return (
        ExtensionCoeffs(g_v, -1.0 / geom.hx, 0.0),
        ExtensionCoeffs(g_v, +1.0 / geom.hx, 0.0),
        ExtensionCoeffs(g_h, 0.0, -1.0 / geom.hy),
        ExtensionCoeffs(g_h, 0.0, +1.0 / geom.hy),
    )


#: Entry (i, j) of kappa*S + A as an index into (-kappa*mu, kappa*mu + X,
#: kappa*mu - X, kappa*mu + Y, kappa*mu - Y).
_EDGE_PATTERN = np.array([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 3, 4], [0, 0, 4, 3]])


def _point_sums(s, factors):
    """Row k sums s_i(q) * factors[k](q) over the Gauss points as (p0 + p2) + (p1 + p3)."""
    rows = np.empty((len(factors),) + s.shape[:1] + s.shape[2:])
    products = np.empty_like(s)
    for k, f in enumerate(factors):
        np.multiply(s, f, out=products)
        np.add(products[:, :2], products[:, 2:], out=products[:, :2])
        np.add(products[:, 0], products[:, 1], out=rows[k])
    return rows


def stabilizer_matrix(geom: ElementGeom, h_global: float):
    """Rank-1 stabilizer matrix mu * d d^T with d = (1, 1, -1, -1).

    mu = hx*hy / (2*h_global*(hx+hy)); on a square with h_global = hx this
    is exactly 1/4.
    """
    return local_operator(geom, 1.0, h_global, (0.0, 0.0), (0.0, 0.0), 0.0)


def diffusion_matrix(geom: ElementGeom, alpha):
    """Diffusion matrix; entry (i, j) integrates grad_w phi_j . alpha grad_w phi_i.

    ``alpha(x, y)`` returns the diagonal pair (a11, a22); both components
    must be positive at every quadrature point.
    """
    [(a11, a22)] = sample_pairs(geom, alpha=alpha)
    if min(a11.min(), a22.min()) <= 0:
        raise NonPositiveDiffusion("diffusion tensor not positive at a quadrature point")
    return local_operator(geom, 0.0, 1.0, (a11, a22), (0.0, 0.0), 0.0)


def convection_matrix(geom: ElementGeom, beta):
    """Convection matrix; entry (i, j) integrates (beta . grad_w phi_j) s(phi_i)."""
    [(b1, b2)] = sample_pairs(geom, beta=beta)
    return local_operator(geom, 0.0, 1.0, (0.0, 0.0), (b1, b2), 0.0)


def reaction_matrix(geom: ElementGeom, c_value):
    """Reaction mass matrix c * (s(phi_i), s(phi_j)); requires c >= 0."""
    if np.min(c_value) < 0:
        raise NegativeReaction(f"reaction coefficient must be >= 0, got {np.min(c_value)}")
    return local_operator(geom, 0.0, 1.0, (0.0, 0.0), (0.0, 0.0), c_value)


def load_vector(geom: ElementGeom, f, f_mid=None):
    """Quadrature load (f, s(phi_i)) with midpoint/Simpson product accuracy.

    entry_i = |T|/6 * f(M_i) + |T|/(6(1+sigma)) * w_i * f(center), where
    sigma = hx/hy and w = (2-sigma, 2-sigma, 2*sigma-1, 2*sigma-1).  For
    constant f the entries sum to |T| exactly.  ``f_mid`` may hold f at the
    four edge midpoints, shape (..., 4), instead of sampling f at
    ``geom.edge_midpoints()``.
    """
    if f_mid is None:
        mids = geom.edge_midpoints()
        f_mid = f(mids[..., 0], mids[..., 1])
    area = np.asarray(geom.area, dtype=float)
    sigma = np.asarray(geom.sigma, dtype=float)
    fm = np.broadcast_to(np.asarray(f_mid, dtype=float), sigma.shape + (4,))
    fc = np.asarray(f(*geom.center), dtype=float)[..., None]
    wgt = np.stack([2.0 - sigma, 2.0 - sigma, 2.0 * sigma - 1.0, 2.0 * sigma - 1.0], axis=-1)
    return (area / 6.0)[..., None] * fm + (
        area / (6.0 * (1.0 + sigma))
    )[..., None] * wgt * fc


def local_operator(geom: ElementGeom, kappa, h_global, alpha_q, beta_q, c_value):
    """Full local matrix kappa*S + A + B + C used by the scheme.

    ``alpha_q = (a11, a22)`` and ``beta_q = (b1, b2)`` are the coefficients
    at the :func:`gauss_points`, ``c_value`` the reaction at the element
    center.  The caller evaluates and validates them.  Each entry sums the
    blocks in the order S, A, B, C (closed forms in the module docstring);
    the block stacks are built with the element axes last, so that every
    array operation runs over contiguous elements.  B is skipped when beta
    is zero at every Gauss point, C when c is zero on every element: with
    kappa > 0 no entry of kappa*S + A is -0.0, so adding a block of (signed)
    zeros changes no bit.  The kernels of single blocks call this with the
    other coefficients, and kappa, set to zero.
    """
    require_meshsize(h_global)
    hx, hy = np.asarray(geom.hx, dtype=float), np.asarray(geom.hy, dtype=float)
    w, rx, ry = 0.25 * (hx * hy), 1.0 / hx, 1.0 / hy
    diag = kappa * (hx * hy / (2.0 * h_global * (hx + hy)))
    shape = w.shape + (4,)
    x, y = ((w * a.sum(axis=-1) * r) * r for a, r in zip(_at_points(alpha_q, shape), (rx, ry)))
    values = np.array([-diag, diag + x, diag - x, diag + y, diag - y])
    local = np.take(values, _EDGE_PATTERN, axis=0)
    b1, b2 = _at_points(beta_q, shape)
    c = np.asarray(c_value, dtype=float)
    convection, reaction = b1.any() or b2.any(), c.any()
    if convection or reaction:  # only B and C use the basis extensions
        s = _extensions(geom)
    if convection:  # columns 2 and 4; columns 1 and 3 are their negatives
        fluxes = [r * b.transpose(-1, *range(b.ndim - 1)) for r, b in ((rx, b1), (ry, b2))]
        columns = (w * _point_sums(s, fluxes)).swapaxes(0, 1)
        local[:, 0::2] -= columns
        local[:, 1::2] += columns
    if reaction:
        local += (w * c) * _point_sums(s, s)
    return np.ascontiguousarray(local.transpose(*range(2, local.ndim), 0, 1))
