"""Exact identities of the element closed forms, proved with sympy.

The closed forms of the ``swgfem.kernels`` module docstring are written
here in symbols and compared, as rational functions, with the element
built from its definitions, and the 7-point weights of ``swgfem.fd`` are
derived from them.  sympy is imported directly: a missing sympy fails.
"""

import numpy as np
import sympy

from swgfem import kernels
from swgfem.mesh import ElementGeom

HX, HY, H, KAPPA = sympy.symbols("h_x h_y h kappa", positive=True)
#: a11 and a22 at the four Gauss points
A11 = sympy.symbols("a11_0:4", positive=True)
A22 = sympy.symbols("a22_0:4", positive=True)
#: Outward unit normals and lengths of the (left, right, bottom, top) edges.
NORMALS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def lengths(hx, hy):
    return (hy, hy, hx, hx)


def midpoints(hx, hy):
    """Edge midpoints relative to the element centre."""
    return ((-hx / 2, 0), (hx / 2, 0), (0, -hy / 2), (0, hy / 2))


def extension(hx, hy, v):
    """(gamma0, gamma1, gamma2) of the linear fitted to the edge values ``v``
    by the moment conditions sum_e |e| (s(M_e) - v_e) phi(M_e) = 0 for phi in
    {1, x - xT, y - yT}."""
    gammas = sympy.symbols("gamma0:3")
    s = [gammas[0] + gammas[1] * x + gammas[2] * y for x, y in midpoints(hx, hy)]
    tests = [[1, x, y] for x, y in midpoints(hx, hy)]
    conditions = [sum(e * (s_e - v_e) * phi[k]
                      for e, s_e, v_e, phi in zip(lengths(hx, hy), s, v, tests))
                  for k in range(3)]
    solution = sympy.solve(conditions, gammas, dict=True)[0]
    return tuple(sympy.simplify(solution[g]) for g in gammas)


def definition_block(hx, hy, h, kappa, a11, a22):
    """kappa S + A of one element from the definitions: the weak gradient by
    its boundary sum, S from the midpoint defects of the fitted extension,
    and A by the 2x2 Gauss rule with a11 and a22 at its points."""
    area = hx * hy
    basis = [[int(i == k) for i in range(4)] for k in range(4)]
    grads = [[sum(v_e * e * n[axis] for v_e, e, n in zip(v, lengths(hx, hy), NORMALS)) / area
              for axis in (0, 1)] for v in basis]
    defects = []
    for v in basis:
        g0, g1, g2 = extension(hx, hy, v)
        defects.append([g0 + g1 * x + g2 * y - v_e for (x, y), v_e in zip(midpoints(hx, hy), v)])
    block = sympy.zeros(4, 4)
    for i in range(4):
        for j in range(4):
            stab = sum(e * defects[i][k] * defects[j][k]
                       for k, e in enumerate(lengths(hx, hy))) / h
            diffusion = sum(area / 4 * (p * grads[i][0] * grads[j][0]
                                        + q * grads[i][1] * grads[j][1])
                            for p, q in zip(a11, a22))
            block[i, j] = kappa * stab + diffusion
    return block


def closed_form_block(hx, hy, h, kappa, a11, a22):
    """kappa S + A as the ``kernels`` docstring writes it: kappa mu d d^T +
    X (e1 - e2)(e1 - e2)^T + Y (e3 - e4)(e3 - e4)^T."""
    area = hx * hy
    mu = hx * hy / (2 * h * (hx + hy))
    x = (area / 4 * sum(a11) / hx) / hx
    y = (area / 4 * sum(a22) / hy) / hy
    d = sympy.Matrix([1, 1, -1, -1])
    across, up = sympy.Matrix([1, -1, 0, 0]), sympy.Matrix([0, 0, 1, -1])
    return kappa * mu * d * d.T + x * across * across.T + y * up * up.T


def test_closed_form_is_the_definition():
    # any rectangle, any positive diffusion samples, any h and kappa
    difference = (definition_block(HX, HY, H, KAPPA, A11, A22)
                  - closed_form_block(HX, HY, H, KAPPA, A11, A22))
    assert difference.applyfunc(sympy.simplify) == sympy.zeros(4, 4)


def test_extension_closed_form():
    v = sympy.symbols("v1:5")
    g0, g1, g2 = extension(HX, HY, v)
    assert sympy.simplify(g0 - (HY * (v[0] + v[1]) + HX * (v[2] + v[3])) / (2 * (HX + HY))) == 0
    assert sympy.simplify(g1 - (v[1] - v[0]) / HX) == 0
    assert sympy.simplify(g2 - (v[3] - v[2]) / HY) == 0


def seven_point_rows(block):
    """(vertical row, horizontal row) of the 7-point template, each summed
    from two elements' rows of ``block``: v(i, j) is the right edge (local
    1) of element (i-1, j) and the left edge (local 0) of (i, j); h(i, j) is
    the top (3) of (i, j-1) and the bottom (2) of (i, j).  Each row lists
    itself, its flanking edges and its four crossing edges, as in ``fd``."""
    vertical = (block[1, 1] + block[0, 0], block[1, 0], block[0, 1],
                block[1, 2], block[1, 3], block[0, 2], block[0, 3])
    horizontal = (block[3, 3] + block[2, 2], block[3, 2], block[2, 3],
                  block[3, 0], block[3, 1], block[2, 0], block[2, 1])
    return vertical, horizontal


def test_two_square_elements_give_the_seven_point_weights():
    # unit diffusion on a square of side h, with h_global = h
    block = closed_form_block(H, H, H, KAPPA, (1,) * 4, (1,) * 4)
    c1, c2, c3, c4 = KAPPA / 4 - 1, KAPPA / 2 + 2, KAPPA / 4 - 1, -KAPPA / 4
    want = (c2, c1, c3) + 4 * (c4,)
    for row in seven_point_rows(block):
        assert [sympy.simplify(w - v) for w, v in zip(row, want)] == [0] * 7
    assert sympy.simplify(c1 + c2 + c3 + 4 * c4) == 0


def test_closed_form_matches_local_operator():
    # the proved block, evaluated, is the one the code computes
    h, kappa = 0.25, 0.7
    block = closed_form_block(H, H, H, KAPPA, (1,) * 4, (1,) * 4)
    want = np.array(block.subs({H: sympy.Rational(1, 4), KAPPA: sympy.Rational(7, 10)}),
                    dtype=float)
    ones = (np.ones(4), np.ones(4))
    zeros = (np.zeros(4), np.zeros(4))
    got = kernels.local_operator(ElementGeom(h, h, (0.5, 0.5)), kappa, h, ones, zeros, 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
