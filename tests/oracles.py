"""Independent reference computations used to freeze expected test values.

These deliberately avoid the closed forms used by the implementation:
the edge geometry is computed here, the weak gradient is evaluated from
the boundary-sum definition, the linear extension by solving its defining
3x3 moment system, the stabilizer from its bilinear-form definition, and
element integrals by a high-order Gauss rule.
"""

import numpy as np

#: Outward unit normals of the (left, right, bottom, top) edges.
EDGE_NORMALS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])


def edge_midpoints(hx, hy, center):
    """Midpoints of the (left, right, bottom, top) edges, shape (..., 4, 2)."""
    cx, cy = center
    x = np.stack([cx - 0.5 * hx, cx + 0.5 * hx, cx, cx], axis=-1)
    y = np.stack([cy, cy, cy - 0.5 * hy, cy + 0.5 * hy], axis=-1)
    return np.stack([x, y], axis=-1)


def edge_lengths(hx, hy):
    """Lengths of the (left, right, bottom, top) edges, shape (..., 4)."""
    return np.stack([hy, hy, hx, hx], axis=-1)


def extension_value(geom, coeffs, x, y):
    """The linear extension with coefficients (gamma0, gamma1, gamma2) at (x, y)."""
    g0, g1, g2 = coeffs
    cx, cy = geom.center
    return g0 + g1 * (np.asarray(x) - cx) + g2 * (np.asarray(y) - cy)


def midpoint_load(geom, f):
    """:func:`swgfem.kernels.load_vector` with f sampled at the edge midpoints."""
    from swgfem.kernels import load_vector

    mids = edge_midpoints(geom.hx, geom.hy, geom.center)
    return load_vector(geom, f, f(mids[..., 0], mids[..., 1]))


def weak_gradient_oracle(geom, v):
    """(1/|T|) * sum_i v_i |e_i| n_i over the four edges."""
    v = np.asarray(v, dtype=float)
    lengths = edge_lengths(geom.hx, geom.hy)
    return (v[:, None] * lengths[:, None] * EDGE_NORMALS).sum(axis=0) / geom.area


def extension_oracle(geom, v):
    """Solve the moment system sum_i (s(M_i) - v_i) phi(M_i) |e_i| = 0
    for phi in {1, x - xT, y - yT}; returns (gamma0, gamma1, gamma2)."""
    v = np.asarray(v, dtype=float)
    mids = edge_midpoints(geom.hx, geom.hy, geom.center)
    cx, cy = geom.center
    lengths = edge_lengths(geom.hx, geom.hy)
    # phi_k(M_i), rows k = test polynomial, cols i = edge
    phi = np.stack(
        [np.ones(4), mids[:, 0] - cx, mids[:, 1] - cy]
    )
    # s(M_i) = gamma0 + gamma1 (Mx - cx) + gamma2 (My - cy) -> same matrix
    lhs = (phi * lengths) @ phi.T
    rhs = (phi * lengths) @ v
    return np.linalg.solve(lhs, rhs)


def extension_eval_oracle(geom, v, x, y):
    return extension_value(geom, extension_oracle(geom, v), x, y)


def stabilizer_apply_oracle(geom, h_global, u, v):
    """h^-1 sum_i (s(u)(M_i) - u_i)(s(v)(M_i) - v_i) |e_i| from definitions."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    mids = edge_midpoints(geom.hx, geom.hy, geom.center)
    du = extension_eval_oracle(geom, u, mids[:, 0], mids[:, 1]) - u
    dv = extension_eval_oracle(geom, v, mids[:, 0], mids[:, 1]) - v
    return float((du * dv * edge_lengths(geom.hx, geom.hy)).sum() / h_global)


def gauss_legendre_2d(geom, order=5):
    """Tensor Gauss rule exact for coordinate degree <= 2*order - 1."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    cx, cy = geom.center
    xs = cx + 0.5 * geom.hx * nodes
    ys = cy + 0.5 * geom.hy * nodes
    wx = 0.5 * geom.hx * weights
    wy = 0.5 * geom.hy * weights
    X, Y = np.meshgrid(xs, ys)
    W = np.outer(wy, wx)
    return X.ravel(), Y.ravel(), W.ravel()


def integrate(geom, fn, order=5):
    x, y, w = gauss_legendre_2d(geom, order)
    return float(np.sum(w * fn(x, y)))


def basis_value_oracle(geom, idx, x, y):
    """Extension of the idx-th edge indicator via the moment system."""
    e = np.zeros(4)
    e[idx] = 1.0
    return extension_eval_oracle(geom, e, x, y)


def random_geom(rng, lo=1e-3, hi=1.0):
    from swgfem.mesh import ElementGeom

    hx = rng.uniform(lo, hi)
    hy = rng.uniform(lo, hi)
    cx, cy = rng.uniform(-1.0, 1.0, size=2)
    return ElementGeom(hx, hy, (cx, cy))


def nested_dissection_oracle(nx, ny, leaf):
    """Recursive nested dissection of the edge dofs of an nx x ny mesh.

    Splits each element block at the middle grid line of its longer side
    (x on a tie) and lists first half, second half, then the edges on that
    line; blocks of at most ``leaf`` elements list their dofs by id.
    """
    nv = (nx + 1) * ny

    def doubled(d):
        if d < nv:
            j, i = divmod(d, nx + 1)
            return 2 * i, 2 * j + 1
        j, i = divmod(d - nv, nx)
        return 2 * i + 1, 2 * j

    def order(i0, i1, j0, j1, dofs):
        if (i1 - i0) * (j1 - j0) <= leaf:
            return sorted(dofs)
        axis = 0 if i1 - i0 >= j1 - j0 else 1
        k = (i0 + i1) // 2 if axis == 0 else (j0 + j1) // 2
        first = [d for d in dofs if doubled(d)[axis] < 2 * k]
        second = [d for d in dofs if doubled(d)[axis] > 2 * k]
        separator = [d for d in dofs if doubled(d)[axis] == 2 * k]
        if axis == 0:
            halves = order(i0, k, j0, j1, first) + order(k, i1, j0, j1, second)
        else:
            halves = order(i0, i1, j0, k, first) + order(i0, i1, k, j1, second)
        return halves + sorted(separator)

    return order(0, nx, 0, ny, list(range(nv + nx * (ny + 1))))


_STAB_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_GAUSS_SX = np.array([-1.0, 1.0, -1.0, 1.0]) * (1.0 / np.sqrt(3.0))  # in half-widths
_GAUSS_SY = np.array([-1.0, -1.0, 1.0, 1.0]) * (1.0 / np.sqrt(3.0))
_GRAD_X = np.array([-1.0, 1.0, 0.0, 0.0])  # hx * grad_w of each basis function
_GRAD_Y = np.array([0.0, 0.0, -1.0, 1.0])  # hy * grad_w of each basis function


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


def block_sum_operator(geom, kappa, h_global, alpha_q, beta_q, c_value):
    """kappa*S + A + B + C with every block formed in full and summed in order.

    The byte oracle of :func:`swgfem.kernels.local_operator`: S is mu times
    the outer product of the stabilizer signs, A the outer products of the
    basis weak gradients, and B and C ``einsum`` contractions over the
    Gauss points; no block is left out, even when its coefficient is zero.
    Takes the same arguments, batched or for one element.
    """
    hx, hy, cx, cy = (np.asarray(a, dtype=float)[..., None]
                      for a in (geom.hx, geom.hy, *geom.center))
    qx, qy = cx + 0.5 * hx * _GAUSS_SX, cy + 0.5 * hy * _GAUSS_SY
    w = 0.25 * (hx * hy)[..., 0]
    gx, gy = (1.0 / hx) * _GRAD_X, (1.0 / hy) * _GRAD_Y
    xi, eta = (qx - cx) / hx, (qy - cy) / hy
    g_v, g_h = hy / (2.0 * (hx + hy)), hx / (2.0 * (hx + hy))
    s = np.stack([g_v - xi, g_v + xi, g_h - eta, g_h + eta], axis=-2)
    a11, a22 = (np.broadcast_to(np.asarray(a, dtype=float), qx.shape) for a in alpha_q)
    b1, b2 = (np.broadcast_to(np.asarray(b, dtype=float), qx.shape) for b in beta_q)
    mu = geom.hx * geom.hy / (2.0 * h_global * (geom.hx + geom.hy))
    local = kappa * (np.asarray(mu)[..., None, None] * np.outer(_STAB_SIGNS, _STAB_SIGNS))
    for term in (
        *_diffusion_terms(w, gx, gy, a11, a22),
        _convection_block(w, s, gx, gy, b1, b2),
        _reaction_block(w, s, c_value),
    ):
        local += term
    return local


def scatter_assemble(mesh, problem, config):
    """The global system by COO scatter of the element blocks.

    Sums the (nx*ny, 4, 4) blocks of :func:`swgfem.kernels.local_operator`
    into a full CSR matrix over all edge dofs, then slices out the interior
    rows and columns and moves the boundary columns times g to the
    right-hand side.  Returns (matrix, rhs, boundary_values).
    """
    import scipy.sparse as sp

    from swgfem import kernels
    from swgfem.assembly import boundary_averages
    from swgfem.mesh import ElementGeom, element_arrays

    dof_map = mesh.dof_map
    hx, hy, cx, cy, conn = element_arrays(mesh)
    geom = ElementGeom(hx, hy, (cx, cy))
    pts, _ = kernels.gauss_points(geom)
    qx, qy = pts[..., 0], pts[..., 1]
    alpha_q = problem.alpha(qx, qy)
    c_val = np.asarray(problem.c(cx, cy), dtype=float)
    local = kernels.local_operator(
        geom, config.kappa, mesh.h, alpha_q, problem.beta(qx, qy), c_val)
    f_mid = np.asarray(
        problem.f(dof_map.midpoints[:, 0], dof_map.midpoints[:, 1]), dtype=float
    ) + np.zeros(dof_map.count)
    loads = kernels.load_vector(geom, problem.f, f_mid=f_mid[conn])

    count = dof_map.count
    rows = np.broadcast_to(conn[:, :, None], local.shape)
    cols = np.broadcast_to(conn[:, None, :], local.shape)
    full = sp.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(count, count)
    ).tocsr()
    rhs = np.zeros(count)
    np.add.at(rhs, conn.ravel(), loads.ravel())
    g_b = boundary_averages(dof_map, problem.g)

    interior, boundary = dof_map.interior, dof_map.boundary
    interior_rows = full[interior]
    a_ii = interior_rows[:, interior].tocsr()
    return a_ii, rhs[interior] - interior_rows[:, boundary] @ g_b, g_b


def equivalence_gaps(n, kappa, problem):
    """(matrix, rhs) max differences between the weak Galerkin and 7-point
    systems of a pure unit-diffusion ``problem`` on the uniform n x n mesh,
    formed as :func:`swgfem.fd.check_equivalence` forms them for fd2."""
    from swgfem.assembly import AssemblyConfig, assemble
    from swgfem.fd import assemble_fd7
    from swgfem.mesh import uniform_mesh

    assert problem.pure_unit_diffusion, problem.name
    swg = assemble(uniform_mesh(n), problem, AssemblyConfig(kappa=kappa))
    fd = assemble_fd7(n, kappa, problem.f, problem.g)
    diff = (swg.ordered - fd.ordered).tocoo()
    matrix_diff = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
    rhs_diff = float(np.max(np.abs(swg.rhs - fd.rhs))) if swg.rhs.size else 0.0
    return matrix_diff, rhs_diff


def dump_matrix_oracle(matrix, path):
    """Coordinate text of ``matrix``: one "%d %d %.17g" line per stored entry,
    row by row, written line by line."""
    coo = matrix.tocoo()
    with open(path, "w") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write("%d %d %.17g\n" % (r, c, v))


def stencil_oracle(n, weights, rhs_scale, f, g, leaf):
    """The stored system of a 5- or 7-point scheme on the uniform n x n grid,
    by a loop over the interior edge midpoints.

    ``weights`` is (c1, c2, c3, c4).  Each row takes its legs in the order:
    itself (c2), its flanking midpoints left and right, or below and above
    (c1, c3), then the four crossing midpoints of its two cells (c4); each
    boundary leg times g moves to the rhs in that order.  Returns the CSC
    (data, indices, indptr) of the interior rows and columns, both in the
    order of :func:`nested_dissection_oracle`, and the rhs in natural order.
    """
    from swgfem.mesh import uniform_mesh

    c1, c2, c3, c4 = weights
    nv = n * (n + 1)

    def vertical(i, j):
        return j * (n + 1) + i

    def horizontal(i, j):
        return nv + j * n + i

    def legs(d):
        if d < nv:
            j, i = divmod(d, n + 1)
            return [(d, c2), (vertical(i - 1, j), c1), (vertical(i + 1, j), c3),
                    (horizontal(i - 1, j), c4), (horizontal(i - 1, j + 1), c4),
                    (horizontal(i, j), c4), (horizontal(i, j + 1), c4)]
        j, i = divmod(d - nv, n)
        return [(d, c2), (horizontal(i, j - 1), c1), (horizontal(i, j + 1), c3),
                (vertical(i, j - 1), c4), (vertical(i + 1, j - 1), c4),
                (vertical(i, j), c4), (vertical(i + 1, j), c4)]

    def on_boundary(d):
        return d % (n + 1) in (0, n) if d < nv else (d - nv) // n in (0, n)

    dofs = range(2 * nv)
    interior = [d for d in dofs if not on_boundary(d)]
    boundary = [d for d in dofs if on_boundary(d)]
    mids = uniform_mesh(n).dof_map.midpoints
    loads = f(mids[interior, 0], mids[interior, 1]) + np.zeros(len(interior))
    g_b = g(mids[boundary, 0], mids[boundary, 1]) + np.zeros(len(boundary))
    g_at = dict(zip(boundary, g_b))
    number = {d: k for k, d in enumerate(
        d for d in nested_dissection_oracle(n, n, leaf) if not on_boundary(d))}
    columns = [[] for _ in interior]
    rhs = []
    for d, load in zip(interior, loads):
        value = rhs_scale * load + 0.0
        for e, weight in legs(d):
            if on_boundary(e):
                value -= weight * g_at[e]
            else:
                columns[number[e]].append((number[d], weight))
        rhs.append(value)
    entries = [entry for column in columns for entry in sorted(column)]
    indptr = np.cumsum([0] + [len(column) for column in columns]).astype(np.int32)
    return (np.array([w for _, w in entries]), np.array([r for r, _ in entries], dtype=np.int32),
            indptr, np.array(rhs))
