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
Edge-value vectors ``v`` batch the same way, with shape ``(..., 4)``.  The
per-element scalars take the type the geometry holds: Python floats for
one element of :func:`swgfem.mesh.element_geometry`, arrays for a batch,
with the same operations in the same order.

The blocks of :func:`local_operator` are written from per-element scalars.
With d = (1, 1, -1, -1), mu = hx*hy/(2*h*(hx+hy)), W = |T|/4 * sum_q a11(q)
and X = (W/hx)/hx (Y likewise from a22 and hy), kappa*S + A is
kappa*mu*d d^T + X*(e1-e2)(e1-e2)^T + Y*(e3-e4)(e3-e4)^T: entries -kappa*mu
off the two 2x2 diagonal blocks and kappa*mu +- X (+- Y) on them.  Column 2
of B is |T|/4 * sum_q s_i(q) b1(q)/hx and column 1 its negative (columns 4
and 3 take b2/hy); C is c*|T|/4 * sum_q s_i(q) s_j(q).  The sums over the
Gauss points run in the orders of the numpy forms that
``tests/oracles.py::block_sum_operator`` keeps, so the bytes stay the same:
((p0 + p1) + p2) + p3 for A, as ``sum`` over a last axis of four, and
(p0 + p2) + (p1 + p3) for B and C, as ``einsum`` sums four terms on x86-64.
"""

import math

import numpy as np

from .errors import (
    NegativeReaction,
    NonFiniteData,
    NonPositiveDiffusion,
    NonPositiveKappa,
    NonPositiveMeshsize,
)
from .mesh import ElementGeom

_GAUSS_OFFSET = 1.0 / np.sqrt(3.0)
_GAUSS_SX = np.array([-1.0, 1.0, -1.0, 1.0]) * _GAUSS_OFFSET
_GAUSS_SY = np.array([-1.0, -1.0, 1.0, 1.0]) * _GAUSS_OFFSET
_GAUSS_SIDES = np.array([-1.0, 1.0]) * _GAUSS_OFFSET
#: Gauss point q lies on side q % 2 of the rule across, which s_1 and s_2
#: read, and on side q // 2 up, which s_3 and s_4 read.
_BASIS = np.arange(4)[:, None]
_SIDE_OF_POINT = np.array([[0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 1, 1]])
#: ``ndarray.all`` over every axis, without its Python-level wrapper.
_ALL = np.logical_and.reduce


def require_finite(name, *samples):
    """Raise :class:`NonFiniteData` naming ``name`` if a sample is NaN or infinite."""
    for sample in samples:
        if not _ALL(np.isfinite(sample), axis=None):
            raise NonFiniteData(f"{name} is NaN or infinite at a sample point")


def require_kappa(kappa):
    """Raise :class:`NonPositiveKappa` unless the stabilization parameter is
    finite and positive."""
    if not (math.isfinite(kappa) and kappa > 0):
        raise NonPositiveKappa(f"kappa must be finite and positive, got {kappa}")


def require_meshsize(h):
    """Raise :class:`NonPositiveMeshsize` unless the meshsize is finite and positive."""
    if not (math.isfinite(h) and h > 0):
        raise NonPositiveMeshsize(f"meshsize must be finite and positive, got {h}")


def _gauss(geom: ElementGeom):
    """The Gauss coordinates (qx, qy), each (..., 4), formed point axis first."""
    (cx, cy), half_x, half_y = geom.center, 0.5 * geom.hx, 0.5 * geom.hy
    qx = cx + np.multiply.outer(_GAUSS_SX, half_x)
    qy = cy + np.multiply.outer(_GAUSS_SY, half_y)
    axes = (*range(1, qx.ndim), 0)
    return qx.transpose(axes), qy.transpose(axes)


def _extensions(geom: ElementGeom):
    """The basis extensions at the Gauss points, (4 basis, 4 points, ...)."""
    hx, hy, (cx, cy) = geom.hx, geom.hy, geom.center
    # the Gauss coordinates of _gauss, once per side of the rule
    xi = (cx + np.multiply.outer(_GAUSS_SIDES, 0.5 * hx) - cx) / hx
    eta = (cy + np.multiply.outer(_GAUSS_SIDES, 0.5 * hy) - cy) / hy
    den = 2.0 * (hx + hy)
    g_v, g_h = hy / den, hx / den
    return np.array([g_v - xi, g_v + xi, g_h - eta, g_h + eta])[_BASIS, _SIDE_OF_POINT]


def _at_points(pair, shape):
    """A coefficient pair broadcast to one value per Gauss point."""
    first, second = np.asarray(pair[0], dtype=float), np.asarray(pair[1], dtype=float)
    return (first if first.shape == shape else np.broadcast_to(first, shape),
            second if second.shape == shape else np.broadcast_to(second, shape))


def sample_pairs(geom: ElementGeom, **coefficients):
    """Each pair-valued coefficient ``name=callable`` at the points of
    :func:`gauss_points`, as two (..., 4) arrays, in the order given; checked
    by :func:`require_finite` under its name."""
    qx, qy = _gauss(geom)
    pairs = []
    for name, coefficient in coefficients.items():
        first, second = _at_points(coefficient(qx, qy), qx.shape)
        # a pair of bit-identical constants may share one array
        require_finite(name, *((first,) if second is first else (first, second)))
        pairs.append((first, second))
    return pairs


def gauss_points(geom: ElementGeom):
    """2x2 tensor Gauss rule: points (..., 4, 2) and weights (..., 4) summing to |T|."""
    qx, qy = _gauss(geom)
    weights = np.repeat(np.expand_dims(0.25 * (geom.hx * geom.hy), -1), 4, axis=-1)
    return np.stack([qx, qy], axis=-1), weights


def weak_gradient(geom: ElementGeom, v):
    """Constant weak gradient of the edge-value vector ``v``: (gamma1, gamma2)."""
    return extension_coeffs(geom, v)[1:]


def extension_coeffs(geom: ElementGeom, v):
    """(gamma0, gamma1, gamma2) of the linear extension of ``v`` about the
    element center; reproduces midpoint-sampled linears exactly."""
    v = np.asarray(v, dtype=float)
    denom = 2.0 * (geom.hx + geom.hy)
    return (
        (geom.hy * (v[..., 0] + v[..., 1]) + geom.hx * (v[..., 2] + v[..., 3])) / denom,
        (v[..., 1] - v[..., 0]) / geom.hx,
        (v[..., 3] - v[..., 2]) / geom.hy,
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
    """:func:`extension_coeffs` of the four edge indicator functions."""
    return tuple(extension_coeffs(geom, e) for e in np.eye(4))


#: Entry (i, j) of kappa*S + A as an index into (-kappa*mu, kappa*mu + X,
#: kappa*mu - X, kappa*mu + Y, kappa*mu - Y).
_EDGE_PATTERN = np.array([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 3, 4], [0, 0, 4, 3]])


def _point_sums(s, factors):
    """Row k sums s_i(q) * factors[k](q) over the Gauss points as (p0 + p2) + (p1 + p3)."""
    s0, s1, s2, s3 = s.swapaxes(0, 1)  # (4 basis, ...) at each point
    f0, f1, f2, f3 = factors.swapaxes(0, 1)[:, :, None]  # (rows, 1, ...) at each point
    sums = s0 * f0  # one point at a time, three arrays at most
    point = s2 * f2
    sums += point
    rest = s1 * f1
    rest += np.multiply(s3, f3, out=point)
    sums += rest
    return sums


def _zero_pair(geom: ElementGeom):
    """A coefficient pair that is zero at every Gauss point."""
    zeros = np.zeros(np.shape(geom.hx) + (4,))
    return zeros, zeros


def stabilizer_matrix(geom: ElementGeom, h_global: float):
    """Rank-1 stabilizer matrix mu * d d^T with d = (1, 1, -1, -1).

    mu = hx*hy / (2*h_global*(hx+hy)); on a square with h_global = hx this
    is exactly 1/4.
    """
    return local_operator(geom, 1.0, h_global, _zero_pair(geom), _zero_pair(geom), 0.0)


def diffusion_matrix(geom: ElementGeom, alpha):
    """Diffusion matrix; entry (i, j) integrates grad_w phi_j . alpha grad_w phi_i.

    ``alpha(x, y)`` returns the diagonal pair (a11, a22); both components
    must be positive at every quadrature point.
    """
    [(a11, a22)] = sample_pairs(geom, alpha=alpha)
    if min(a11.min(), a22.min()) <= 0:
        raise NonPositiveDiffusion("diffusion tensor not positive at a quadrature point")
    return local_operator(geom, 0.0, 1.0, (a11, a22), _zero_pair(geom), 0.0)


def convection_matrix(geom: ElementGeom, beta):
    """Convection matrix; entry (i, j) integrates (beta . grad_w phi_j) s(phi_i)."""
    [beta_q] = sample_pairs(geom, beta=beta)
    return local_operator(geom, 0.0, 1.0, _zero_pair(geom), beta_q, 0.0)


def reaction_matrix(geom: ElementGeom, c_value):
    """Reaction mass matrix c * (s(phi_i), s(phi_j)); requires c >= 0."""
    if np.min(c_value) < 0:
        raise NegativeReaction(f"reaction coefficient must be >= 0, got {np.min(c_value)}")
    return local_operator(geom, 0.0, 1.0, _zero_pair(geom), _zero_pair(geom), c_value)


def load_vector(geom: ElementGeom, f, f_mid):
    """Quadrature load (f, s(phi_i)) with midpoint/Simpson product accuracy.

    entry_i = |T|/6 * f(M_i) + |T|/(6(1+sigma)) * w_i * f(center), where
    sigma = hx/hy and w = (2-sigma, 2-sigma, 2*sigma-1, 2*sigma-1).  For
    constant f the entries sum to |T| exactly.  ``f_mid`` holds f at the
    four edge midpoints M_i, a (..., 4) float array; ``f`` is sampled at the
    center.
    """
    area, sigma = geom.area, geom.sigma
    w_vertical, w_horizontal = 2.0 - sigma, 2.0 * sigma - 1.0
    wgt = np.array([w_vertical, w_vertical, w_horizontal, w_horizontal])
    at_center = (area / (6.0 * (1.0 + sigma))) * wgt * f(*geom.center)  # (4, ...)
    return np.asarray(area / 6.0)[..., None] * f_mid + at_center.transpose(
        *range(1, at_center.ndim), 0)


def local_operator(geom: ElementGeom, kappa, h_global, alpha_q, beta_q, c_value):
    """Full local matrix kappa*S + A + B + C used by the scheme.

    ``alpha_q = (a11, a22)`` and ``beta_q = (b1, b2)`` are the coefficients
    at the :func:`gauss_points`, each a (..., 4) float array, and
    ``c_value`` the reaction at the element center.  The caller evaluates
    and validates them, as :func:`sample_pairs` does.  Each entry sums the
    blocks in the order S, A, B, C (closed forms in the module docstring);
    the block stacks are built with the element axes last, so that every
    array operation runs over contiguous elements, and the (..., 4, 4)
    result is a view of those (4, 4, ...) planes, not a copy.  B is skipped
    when beta is zero at every Gauss point, C when c is zero on every
    element: with kappa > 0 no entry of kappa*S + A is -0.0, so adding a
    block of (signed) zeros changes no bit.  The kernels of single blocks
    call this with the other coefficients, and kappa, set to zero.
    """
    require_meshsize(h_global)
    hx, hy = geom.hx, geom.hy
    area = hx * hy
    w, rx, ry = 0.25 * area, 1.0 / hx, 1.0 / hy
    diag = kappa * (area / (2.0 * h_global * (hx + hy)))
    batch = getattr(w, "shape", ())  # () for one element of Python floats
    points_first = (-1, *range(len(batch)))
    a11, a22 = (a.transpose(points_first) for a in alpha_q)
    x = (w * (((a11[0] + a11[1]) + a11[2]) + a11[3]) * rx) * rx
    y = (w * (((a22[0] + a22[1]) + a22[2]) + a22[3]) * ry) * ry
    local = np.array([-diag, diag + x, diag - x, diag + y, diag - y])[_EDGE_PATTERN]
    b1, b2 = beta_q
    convection = np.count_nonzero(b1) or np.count_nonzero(b2)  # no (signed) zero counts
    reaction = np.count_nonzero(c_value)
    if convection or reaction:  # only B and C use the basis extensions
        s = _extensions(geom)
    if convection:  # columns 2 and 4; columns 1 and 3 are their negatives
        fluxes = np.empty((2, 4) + batch)
        np.multiply(rx, b1.transpose(points_first), out=fluxes[0])
        np.multiply(ry, b2.transpose(points_first), out=fluxes[1])
        columns = (w * _point_sums(s, fluxes)).swapaxes(0, 1)
        local[:, 0::2] -= columns
        local[:, 1::2] += columns
    if reaction:
        local += (w * c_value) * _point_sums(s, s)
    return local.transpose(*range(2, local.ndim), 0, 1)
