"""Output checks made apart from swgfem.

Every expected value here comes from the paper's formulas and the
documented edge numbering, recomputed in this file; none comes from the
program's own helpers or from a stored copy of its earlier output.  Each
check returns a list of messages, empty when the output passes.
"""

import math

import numpy as np

EPS = float(np.finfo(float).eps)

#: Accepted L2 convergence rate on the finest pair of a table.
RATE_RANGE = (1.8, 2.2)
#: tc1 at kappa = 4 reproduces its quadratic solution (direct solves).
EXACT_TOL = 1e-10
#: Largest SWG minus 7-point matrix entry accepted from `swg equiv`.
EQUIV_TOL = 1e-13
#: Absolute slack of the maximum-principle comparison.
DMP_SLACK = 1e-12
#: Lowest accepted value of the local sign inequality.
SIGN_FLOOR = -1e-12
#: Normwise backward error accepted from a direct solve (about 64 ulp).
DIRECT_BACKWARD_TOL = 64 * EPS
#: Backward error accepted from an iterative solve: 10 x its default
#: relative-residual target of 1e-12, the solver's own acceptance bar.
ITERATIVE_BACKWARD_TOL = 1e-11
#: tc1 at kappa = 4 solved iteratively is exact up to that target
#: (about 4e-11 in L2 and 3e-10 in H1 at n = 260).
EXACT_ITERATIVE_TOL = 1e-8
#: Errors at or below this floor carry no rate in the program's tables.
RATE_FLOOR = 1e-12


def boundary_mask(nx, ny):
    """Boundary flags of all edge dofs in the documented numbering.

    Vertical edges come first with id j*(nx+1) + i, then horizontal edges
    with id (nx+1)*ny + j*nx + i.
    """
    i_vert = np.tile(np.arange(nx + 1), ny)
    j_horiz = np.repeat(np.arange(ny + 1), nx)
    return np.concatenate([(i_vert == 0) | (i_vert == nx),
                           (j_horiz == 0) | (j_horiz == ny)])


def dmp_errors(values, nx, ny, c_positive, label):
    """Interior maximum against the boundary maximum (clipped at 0 if c > 0)."""
    values = np.asarray(values)
    mask = boundary_mask(nx, ny)
    if values.shape != mask.shape:
        return [f"{label}: {values.size} values for {mask.size} edges"]
    bound = float(values[mask].max())
    if c_positive:
        bound = max(bound, 0.0)
    interior = float(values[~mask].max())
    if interior > bound + DMP_SLACK:
        return [f"{label}: DMP violated, interior max {interior:.17g} > bound {bound:.17g}"]
    return []


def backward_error(matrix, rhs, x):
    """Normwise backward error |b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf)."""
    resid = float(np.max(np.abs(rhs - matrix @ x)))
    a_norm = float(abs(matrix).sum(axis=1).max())
    return resid / (a_norm * float(np.max(np.abs(x))) + float(np.max(np.abs(rhs))))


def backward_tol(iterations):
    """Direct solves report 0 iterations."""
    return DIRECT_BACKWARD_TOL if iterations == 0 else ITERATIVE_BACKWARD_TOL


def exact_tol(iterations):
    return EXACT_TOL if iterations == 0 else EXACT_ITERATIVE_TOL


def backward_errors(matrix, rhs, x, tol, label):
    err = backward_error(matrix, rhs, x)
    if not err <= tol:
        return [f"{label}: backward error {err:.3e} above {tol:.3e}"]
    return []


def kappa_windows(hx, hy, alpha_min, beta_inf, c_inf):
    """Per-element kappa window [lo, hi] of the stabilization condition.

    hx, hy and alpha_min are element arrays.  With h the largest element
    extent, F = 2h(hx+hy)/|T|, m = min(hx/hy, hy/hx) and
    r = |beta|_inf h + |c|_inf h^2, the condition eta >= r and
    alpha_min*m - eta >= r with eta = kappa/F gives r*F <= kappa <=
    (alpha_min*m - r)*F.
    """
    h = float(max(np.max(hx), np.max(hy)))
    r = beta_inf * h + c_inf * h * h
    f = 2.0 * h * (hx + hy) / (hx * hy)
    m = np.minimum(hx / hy, hy / hx)
    return r * f, (alpha_min * m - r) * f


def sign_errors(values, label):
    values = np.asarray(values, dtype=float)
    if values.size and not values.min() >= SIGN_FLOOR:
        return [f"{label}: sign inequality {values.min():.3e} below {SIGN_FLOOR:g}"]
    return []


def rate(err_coarse, err_fine, n_coarse, n_fine):
    return math.log(err_coarse / err_fine) / math.log(n_fine / n_coarse)


def rate_errors(err_coarse, err_fine, n_coarse, n_fine, label):
    if not (err_coarse > 0 and err_fine > 0):
        return [f"{label}: nonpositive errors {err_coarse:.3e}, {err_fine:.3e}"]
    r = rate(err_coarse, err_fine, n_coarse, n_fine)
    if not RATE_RANGE[0] <= r <= RATE_RANGE[1]:
        return [f"{label}: L2 rate {r:.4f} on n={n_coarse}->{n_fine} outside {RATE_RANGE}"]
    return []


def exact_errors(errors, tol, label):
    worst = max(errors)
    if not worst <= tol:
        return [f"{label}: error {worst:.3e} above {tol:.1e} where the solution is exact"]
    return []


def parse_table(text):
    """Rows (n, l2, l2_rate, h1, h1_rate) of a `--format csv` error table."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "n,l2,l2_rate,h1,h1_rate":
        raise ValueError(f"unexpected table header {lines[:1]}")
    rows = []
    for line in lines[1:]:
        n, l2, l2r, h1, h1r = line.split(",")
        rows.append((int(n), float(l2), float(l2r) if l2r else None,
                     float(h1), float(h1r) if h1r else None))
    return rows


def table_errors(rows, ns, exact, label):
    """Printed rates equal rates recomputed from the printed errors; then
    either every error is at rounding level (exact) or the finest L2 rate
    is second order."""
    out = []
    if [r[0] for r in rows] != list(ns):
        return [f"{label}: rows for n={[r[0] for r in rows]}, expected {list(ns)}"]
    for prev, row in zip(rows, rows[1:]):
        for col, name in ((1, "l2"), (3, "h1")):
            printed = row[col + 1]
            e0, e1 = prev[col], row[col]
            if e0 <= RATE_FLOOR or e1 <= RATE_FLOOR:
                if printed is not None:
                    out.append(f"{label}: n={row[0]} {name} rate printed for exact errors")
                continue
            own = rate(e0, e1, prev[0], row[0])
            if printed is None or abs(printed - own) > 1e-9:
                out.append(f"{label}: n={row[0]} {name} rate {printed} != {own:.12g}")
    if exact:
        out += exact_errors([e for r in rows for e in (r[1], r[3])], EXACT_TOL, label)
    elif len(rows) >= 2:
        (n0, e0), (n1, e1) = (rows[-2][0], rows[-2][1]), (rows[-1][0], rows[-1][1])
        out += rate_errors(e0, e1, n0, n1, label)
    return out


def dmp_table_errors(text, ns, c_positive, label):
    """Rows of `swg dmp --format csv`: bound recomputed from boundary_max."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "n,boundary_max,interior_max,bound,margin,satisfied":
        return [f"{label}: unexpected header {lines[:1]}"]
    out = []
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(ns):
        return [f"{label}: {len(rows)} rows for {len(ns)} meshes"]
    for (n, bmax, imax, bound, margin, sat), want_n in zip(rows, ns):
        bmax, imax, bound, margin = map(float, (bmax, imax, bound, margin))
        own = max(bmax, 0.0) if c_positive else bmax
        if int(n) != want_n:
            out.append(f"{label}: row n={n}, expected {want_n}")
        if bound != own or abs(margin - (own - imax)) > 1e-15 * max(1.0, abs(own)):
            out.append(f"{label}: n={n} bound/margin {bound}/{margin} != {own}/{own - imax}")
        if imax > own + DMP_SLACK or sat != "true":
            out.append(f"{label}: n={n} DMP violated, interior {imax:.17g} > bound {own:.17g}")
    return out


def equiv_errors(text, label):
    try:
        diff = float(text.split()[0].split("=")[1])
    except (IndexError, ValueError):
        return [f"{label}: unparsable output {text!r}"]
    if not diff <= EQUIV_TOL:
        return [f"{label}: matrix_diff {diff:.3e} above {EQUIV_TOL:g}"]
    return []


def seven_point(n, kappa):
    """The 7-point matrix on the interior edges of a uniform n x n grid.

    Returns (keys, weights) sorted by key = row*N + col over the interior
    numbering: vertical interior edges (i = 1..n-1) row by row, then
    horizontal interior edges (j = 1..n-1).  Legs: self kappa/2 + 2, the
    two flanking parallel edges kappa/4 - 1, the four crossing edges of the
    two adjacent cells -kappa/4.  Legs to boundary edges are eliminated.
    """
    c_self, c_flank, c_cross = kappa / 2.0 + 2.0, kappa / 4.0 - 1.0, -kappa / 4.0
    n_vert = n * (n - 1)

    def vert(i, j):  # vertical edge (i, j), interior when 1 <= i <= n-1
        return np.where((i >= 1) & (i <= n - 1), j * (n - 1) + i - 1, -1)

    def horiz(i, j):  # horizontal edge (i, j), interior when 1 <= j <= n-1
        return np.where((j >= 1) & (j <= n - 1), n_vert + (j - 1) * n + i, -1)

    rows, cols, vals = [], [], []

    def leg(r, c, w):
        keep = c >= 0
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(np.full(int(keep.sum()), w))

    vi, vj = np.meshgrid(np.arange(1, n), np.arange(n), indexing="ij")
    vi, vj = vi.ravel(), vj.ravel()
    v = vert(vi, vj)
    leg(v, v, c_self)
    leg(v, vert(vi - 1, vj), c_flank)
    leg(v, vert(vi + 1, vj), c_flank)
    for di, dj in ((-1, 0), (-1, 1), (0, 0), (0, 1)):
        leg(v, horiz(vi + di, vj + dj), c_cross)

    hi, hj = np.meshgrid(np.arange(n), np.arange(1, n), indexing="ij")
    hi, hj = hi.ravel(), hj.ravel()
    hz = horiz(hi, hj)
    leg(hz, hz, c_self)
    leg(hz, horiz(hi, hj - 1), c_flank)
    leg(hz, horiz(hi, hj + 1), c_flank)
    for di, dj in ((0, -1), (1, -1), (0, 0), (1, 0)):
        leg(hz, vert(hi + di, hj + dj), c_cross)

    size = 2 * n_vert
    keys = np.concatenate(rows) * size + np.concatenate(cols)
    order = np.argsort(keys, kind="stable")
    return keys[order], np.concatenate(vals)[order]


def dump_errors(entries, n, kappa, label):
    """Every dumped (row, col, value) is a 7-point leg with its weight, and
    every leg is dumped, explicit zeros included."""
    entries = np.asarray(entries, dtype=float).reshape(-1, 3)
    size = 2 * n * (n - 1)
    keys = entries[:, 0].astype(np.int64) * size + entries[:, 1].astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], entries[order, 2]
    want_keys, want_vals = seven_point(n, kappa)
    if keys.shape != want_keys.shape or not np.array_equal(keys, want_keys):
        return [f"{label}: {keys.size} dumped entries, pattern differs from the "
                f"{want_keys.size} legs of the 7-point stencil"]
    bad = np.abs(vals - want_vals) > 1e-13 * max(1.0, kappa)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        return [f"{label}: {int(bad.sum())} entries differ from the stencil weight, "
                f"first ({keys[k] // size}, {keys[k] % size}) = {float(vals[k])!r} "
                f"vs {float(want_vals[k])!r}"]
    return []
