"""Simplified weak Galerkin solver on rectangular tensor meshes.

The unknowns are piecewise constants on element edges; each element
contributes a stabilizer, diffusion, convection, and reaction block built
from the weak gradient and the linear extension of the edge values.  On
uniform unit-square grids the pure-diffusion scheme coincides with a
7-point finite difference stencil (5-point at kappa = 4), and solutions
satisfy a discrete maximum principle under an explicit condition on the
stabilization parameter.
"""

from .analysis import (
    ConvergenceRow,
    DmpReport,
    KappaConditionReport,
    convergence_table,
    discrete_h1_error,
    discrete_l2_error,
    dmp_check,
    kappa_condition,
    sign_inequality_value,
    solve_problem,
    split_pos_neg,
)
from .assembly import (
    AssemblyConfig,
    ProblemSpec,
    SparseSystem,
    assemble,
    dump_matrix,
)
from .fd import (
    EquivalenceReport,
    FdStencil,
    assemble_fd5,
    assemble_fd7,
    check_equivalence,
    stencil_weights,
)
from .mesh import (
    DofMap,
    ElementGeom,
    TensorMesh,
    build_tensor_mesh,
    element_geometry,
    enumerate_dofs,
    uniform_mesh,
)
from .problems import PROBLEM_IDS, get_problem, make_custom, mesh_for
from .solver import SolveConfig, Solution, solve

__version__ = "0.1.0"
