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
"""

from dataclasses import dataclass

import numpy as np

from .errors import NegativeReaction, NonPositiveDiffusion, NonPositiveMeshsize
from .mesh import ElementGeom

#: Sign pattern of the stabilizer's rank-1 direction (left, right, bottom, top).
STAB_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])

_GAUSS_OFFSET = 1.0 / np.sqrt(3.0)
_GAUSS_SX = np.array([-1.0, 1.0, -1.0, 1.0]) * _GAUSS_OFFSET
_GAUSS_SY = np.array([-1.0, -1.0, 1.0, 1.0]) * _GAUSS_OFFSET
_STAB_OUTER = np.outer(STAB_SIGNS, STAB_SIGNS)
_GRAD_X = np.array([-1.0, 1.0, 0.0, 0.0])  # hx * grad_w of each basis function
_GRAD_Y = np.array([0.0, 0.0, -1.0, 1.0])  # hy * grad_w of each basis function


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


def _gauss(geom: ElementGeom):
    """Columns (hx, hy, cx, cy), each (..., 1), and Gauss coordinates (..., 4)."""
    hx, hy, cx, cy = cols = [
        np.asarray(a, dtype=float)[..., None] for a in (geom.hx, geom.hy, *geom.center)
    ]
    return cols, cx + 0.5 * hx * _GAUSS_SX, cy + 0.5 * hy * _GAUSS_SY


def _element_terms(geom: ElementGeom):
    """The intermediates every block shares, computed once.

    The columns (hx, hy, cx, cy) of :func:`_gauss`; Gauss coordinates qx, qy
    (..., 4); the Gauss weight |T|/4 (...); and the basis weak gradients
    gx, gy (..., 4).
    """
    cols, qx, qy = _gauss(geom)
    hx, hy = cols[:2]
    return cols, qx, qy, 0.25 * (hx * hy)[..., 0], (1.0 / hx) * _GRAD_X, (1.0 / hy) * _GRAD_Y


def _extensions(cols, qx, qy):
    """The basis extensions at the Gauss points, (..., 4 basis, 4 points)."""
    hx, hy, cx, cy = cols
    xi, eta = (qx - cx) / hx, (qy - cy) / hy
    g_v, g_h = hy / (2.0 * (hx + hy)), hx / (2.0 * (hx + hy))
    return np.stack([g_v - xi, g_v + xi, g_h - eta, g_h + eta], axis=-2)


def _at_points(pair, shape):
    """A coefficient pair broadcast to one value per Gauss point."""
    pair = [np.asarray(a, dtype=float) for a in pair]
    return [a if a.shape == shape else np.broadcast_to(a, shape) for a in pair]


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


def _diffusion_terms(w, gx, gy, a11, a22):
    """The a11 and a22 parts of the diffusion block; ``w`` is the Gauss weight."""
    return [
        (w * a.sum(axis=-1))[..., None, None] * g[..., :, None] * g[..., None, :]
        for a, g in ((a11, gx), (a22, gy))
    ]


def _convection_block(w, s, gx, gy, b1, b2):
    """Entry (i, j) integrates (beta . grad_w phi_j) s(phi_i); ``s`` is (..., 4, 4)."""
    flux = gx[..., :, None] * b1[..., None, :] + gy[..., :, None] * b2[..., None, :]
    return w[..., None, None] * np.einsum("...iq,...jq->...ij", s, flux)


def _reaction_block(w, s, c):
    """Entry (i, j) integrates c s(phi_i) s(phi_j), with c one value per element."""
    return (w * np.asarray(c, dtype=float))[..., None, None] * np.einsum(
        "...iq,...jq->...ij", s, s
    )


def stabilizer_matrix(geom: ElementGeom, h_global: float):
    """Rank-1 stabilizer matrix mu * d d^T with d = (1, 1, -1, -1).

    mu = hx*hy / (2*h_global*(hx+hy)); on a square with h_global = hx this
    is exactly 1/4.
    """
    if h_global <= 0:
        raise NonPositiveMeshsize(f"h_global must be positive, got {h_global}")
    mu = geom.hx * geom.hy / (2.0 * h_global * (geom.hx + geom.hy))
    return np.asarray(mu)[..., None, None] * _STAB_OUTER


def diffusion_matrix(geom: ElementGeom, alpha):
    """Diffusion matrix; entry (i, j) integrates grad_w phi_j . alpha grad_w phi_i.

    ``alpha(x, y)`` returns the diagonal pair (a11, a22); both components
    must be positive at every quadrature point.
    """
    _, qx, qy, w, gx, gy = _element_terms(geom)
    a11, a22 = _at_points(alpha(qx, qy), qx.shape)
    if min(a11.min(), a22.min()) <= 0:
        raise NonPositiveDiffusion("diffusion tensor not positive at a quadrature point")
    a_x, a_y = _diffusion_terms(w, gx, gy, a11, a22)
    return a_x + a_y


def convection_matrix(geom: ElementGeom, beta):
    """Convection matrix; entry (i, j) integrates (beta . grad_w phi_j) s(phi_i)."""
    cols, qx, qy, w, gx, gy = _element_terms(geom)
    s = _extensions(cols, qx, qy)
    return _convection_block(w, s, gx, gy, *_at_points(beta(qx, qy), qx.shape))


def reaction_matrix(geom: ElementGeom, c_value):
    """Reaction mass matrix c * (s(phi_i), s(phi_j)); requires c >= 0."""
    if np.min(c_value) < 0:
        raise NegativeReaction(f"reaction coefficient must be >= 0, got {np.min(c_value)}")
    cols, qx, qy, w, _, _ = _element_terms(geom)
    return _reaction_block(w, _extensions(cols, qx, qy), c_value)


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
    center.  The caller evaluates and validates them.  The blocks are summed
    in the fixed order S, A, B, C.  B is skipped when beta is zero at every
    Gauss point, C when c is zero on every element: with kappa > 0 no entry
    of S + A is -0.0, so adding such a block of (signed) zeros changes no bit.
    The basis extensions, which only B and C use, are built only for them.
    """
    cols, qx, qy, w, gx, gy = _element_terms(geom)
    a11, a22 = _at_points(alpha_q, qx.shape)
    local = kappa * stabilizer_matrix(geom, h_global)
    for term in _diffusion_terms(w, gx, gy, a11, a22):
        local += term
    b1, b2 = _at_points(beta_q, qx.shape)
    convection, reaction = b1.any() or b2.any(), np.any(c_value)
    if convection or reaction:
        s = _extensions(cols, qx, qy)
    if convection:
        local += _convection_block(w, s, gx, gy, b1, b2)
    if reaction:
        local += _reaction_block(w, s, c_value)
    return local
