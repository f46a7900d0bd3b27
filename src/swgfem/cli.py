"""Command-line front end for convergence tables, DMP reports, and the
finite-difference schemes.

Exit codes: 0 success, 1 numerical or verification failure (including a
solve refused because its factor would not fit in memory), 2 usage error
or an output path that cannot be written (checked before any solve).
Output is deterministic: re-running a command with identical flags writes
byte-identical files.
"""

import argparse
import functools
import os
import sys

from . import analysis, fd
from .assembly import AssemblyConfig, assemble, dump_matrix
from .errors import OutOfMemory, SingularMatrix
from .mesh import build_tensor_mesh
from .problems import PROBLEM_IDS, get_problem, make_custom, mesh_for
from .solver import solve

EQUIV_TOL = 1e-13

#: The constants of ``--problem custom``, flags of ``swg dmp`` only, with no
#: parser default: :func:`~swgfem.problems.make_custom` owns the defaults.
_CUSTOM_FLAGS = ("alpha0", "beta", "c", "f", "g")

_USAGE_ERRORS = (ValueError,)
_SOLVE_ERRORS = (SingularMatrix, OutOfMemory)


def _parse_ns(text):
    try:
        ns = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad resolution list {text!r}")
    if not ns:
        raise argparse.ArgumentTypeError("empty resolution list")
    return ns


def _parse_breaks(text):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad breakpoint list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty breakpoint list")
    return vals


def _parse_pair(text):
    vals = _parse_breaks(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    return tuple(vals)


def _add_common(p, need_kappa=True):
    p.add_argument("--problem", required=True, help="problem id or 'custom'")
    p.add_argument("--kappa", type=float, required=need_kappa,
                   help="stabilization parameter")
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--format", choices=("text", "csv"), default="text")


def _resolve_problem(args):
    """The problem ``--problem`` names; custom constants default where not
    given (`run` and `fd` take none, and refuse the problem), and a built-in
    problem refuses them."""
    given = {k: getattr(args, k) for k in _CUSTOM_FLAGS if k in args}
    if args.problem == "custom":
        return make_custom(**given)
    if given:
        raise ValueError(f"--{next(iter(given))} applies only to --problem custom")
    return get_problem(args.problem)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_rate(rate, csv):
    if rate is None:
        return "" if csv else "   -"
    return "%.17g" % rate if csv else "%4.1f" % rate


def _render_rows(rows, header, csv):
    if csv:
        lines = ["n,l2,l2_rate,h1,h1_rate"]
        for r in rows:
            lines.append("%d,%.17e,%s,%.17e,%s" % (
                r.n, r.l2_error, _fmt_rate(r.l2_rate, True),
                r.h1_error, _fmt_rate(r.h1_rate, True)))
        return "\n".join(lines) + "\n"
    lines = [header, "%6s  %9s  %4s  %9s  %4s" % ("n", "l2", "r=", "h1", "r=")]
    for r in rows:
        lines.append("%6d  %9.3e  %s  %9.3e  %s" % (
            r.n, r.l2_error, _fmt_rate(r.l2_rate, False),
            r.h1_error, _fmt_rate(r.h1_rate, False)))
    return "\n".join(lines) + "\n"


def cmd_run(args):
    problem = _resolve_problem(args)
    if args.dump_matrix and len(args.ns) != 1:
        print("--dump-matrix requires a single resolution", file=sys.stderr)
        return 2

    def solve_at(n):
        mesh, system, sol = analysis.solve_problem(problem, n, args.kappa)
        if args.dump_matrix:  # the one system the table solves
            dump_matrix(system, args.dump_matrix)
        return mesh, sol

    rows = analysis.convergence_table(problem, args.ns, solve_at)
    header = "# problem=%s kappa=%g bc=eliminate qb=midpoint" % (
        problem.name, args.kappa)
    _emit(_render_rows(rows, header, args.format == "csv"), args.out)
    return 0


def cmd_fd(args):
    problem = _resolve_problem(args)
    if not problem.pure_unit_diffusion:
        print(f"problem {problem.name!r} is not pure unit diffusion; "
              "the finite-difference schemes require alpha=1, beta=0, c=0",
              file=sys.stderr)
        return 2
    if args.scheme == 5:
        if args.kappa is not None and args.kappa != 4.0:
            print("the 5-point scheme is the kappa=4 case; drop --kappa or pass 4",
                  file=sys.stderr)
            return 2
        kappa = 4.0
    else:
        if args.kappa is None:
            print("--kappa is required for the 7-point scheme", file=sys.stderr)
            return 2
        kappa = args.kappa

    def solve_at(n):
        if args.scheme == 5:
            system = fd.assemble_fd5(n, problem.f, problem.g)
        else:
            system = fd.assemble_fd7(n, kappa, problem.f, problem.g)
        return system.mesh, solve(system)

    rows = analysis.convergence_table(problem, args.ns, solve_at)
    header = "# problem=%s scheme=%d-point kappa=%g qb=midpoint" % (
        problem.name, args.scheme, kappa)
    _emit(_render_rows(rows, header, args.format == "csv"), args.out)
    return 0


def _render_dmp(entries, header, csv):
    if csv:
        lines = ["n,boundary_max,interior_max,bound,margin,satisfied"]
        for n, rep in entries:
            lines.append("%d,%.17e,%.17e,%.17e,%.17e,%s" % (
                n, rep.boundary_max, rep.interior_max, rep.bound, rep.margin,
                "true" if rep.satisfied else "false"))
        return "\n".join(lines) + "\n"
    lines = [header, "%6s  %13s  %13s  %13s  %s" % (
        "n", "boundary_max", "interior_max", "margin", "satisfied")]
    for n, rep in entries:
        lines.append("%6d  %13.4e  %13.4e  %13.4e  %s" % (
            n, rep.boundary_max, rep.interior_max, rep.margin,
            "yes" if rep.satisfied else "NO"))
    return "\n".join(lines) + "\n"


def cmd_dmp(args):
    problem = _resolve_problem(args)
    c_nonneg = not problem.c_is_zero
    if args.x_breaks or args.y_breaks:
        if args.ns:
            print("pass either --ns or explicit breaks, not both", file=sys.stderr)
            return 2
        if not (args.x_breaks and args.y_breaks):
            print("--x-breaks and --y-breaks go together", file=sys.stderr)
            return 2
        mesh = build_tensor_mesh(args.x_breaks, args.y_breaks)
        x0, x1, y0, y1 = problem.domain
        if mesh.bounds != (x0, x1, y0, y1):
            print(f"mesh bounds {mesh.bounds} do not match problem domain "
                  f"{problem.domain}", file=sys.stderr)
            return 2
        meshes = [(max(mesh.nx, mesh.ny), mesh)]
    else:
        if not args.ns:
            print("pass --ns or explicit breaks", file=sys.stderr)
            return 2
        meshes = ((n, mesh_for(problem, n)) for n in args.ns)

    def check(mesh):  # the system dies on return, before the next one is assembled
        system = assemble(mesh, problem, AssemblyConfig(kappa=args.kappa))
        return analysis.dmp_check(solve(system), mesh, c_nonneg)

    entries = [(label, check(mesh)) for label, mesh in meshes]
    rule = "max(boundary, 0)" if c_nonneg else "boundary"
    header = "# problem=%s kappa=%g bound=%s" % (problem.name, args.kappa, rule)
    _emit(_render_dmp(entries, header, args.format == "csv"), args.out)
    return 0 if all(rep.satisfied for _, rep in entries) else 1


def cmd_equiv(args):
    report = fd.check_equivalence(args.n, args.kappa)
    text = "matrix_diff=%.3e rhs_diff=%.3e (n=%d kappa=%g)\n" % (
        report.matrix_diff, report.rhs_diff, args.n, args.kappa)
    _emit(text, args.out)
    return 0 if report.matrix_diff <= EQUIV_TOL else 1


def cmd_list_problems(args):
    lines = []
    for pid in PROBLEM_IDS:
        p = get_problem(pid)
        x0, x1, y0, y1 = p.domain
        lines.append("%-4s  domain=(%g,%g)x(%g,%g)  %s" % (
            pid, x0, x1, y0, y1, p.description))
    lines.append("custom  constant coefficients via --alpha0 --beta --c --f --g"
                 " (swg dmp only)")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache  # built once per process; each parse_args call starts afresh
def build_parser():
    parser = argparse.ArgumentParser(
        prog="swg",
        description="Simplified weak Galerkin experiments on rectangular meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching, so that a removed flag (fd --n) is not taken for a longer one (--ns)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p_run = add_parser("run", help="convergence table for one problem")
    _add_common(p_run)
    p_run.add_argument("--ns", type=_parse_ns, required=True,
                       help="comma-separated resolutions, e.g. 8,16,32,64")
    p_run.add_argument("--dump-matrix", default=None,
                       help="write the assembled matrix in coordinate format")
    p_run.set_defaults(fn=cmd_run)

    p_fd = add_parser("fd", help="finite-difference scheme table")
    _add_common(p_fd, need_kappa=False)
    p_fd.add_argument("--scheme", type=int, choices=(5, 7), default=7)
    p_fd.add_argument("--ns", type=_parse_ns, required=True)
    p_fd.set_defaults(fn=cmd_fd)

    p_dmp = add_parser("dmp", help="discrete maximum principle report")
    _add_common(p_dmp)
    # constants for --problem custom, which only dmp accepts; unset unless given
    p_dmp.add_argument("--alpha0", type=float, default=argparse.SUPPRESS)
    p_dmp.add_argument("--beta", type=_parse_pair, default=argparse.SUPPRESS)
    p_dmp.add_argument("--c", type=float, default=argparse.SUPPRESS)
    p_dmp.add_argument("--f", type=float, default=argparse.SUPPRESS)
    p_dmp.add_argument("--g", type=float, default=argparse.SUPPRESS)
    p_dmp.add_argument("--ns", type=_parse_ns, default=None)
    p_dmp.add_argument("--x-breaks", type=_parse_breaks, default=None)
    p_dmp.add_argument("--y-breaks", type=_parse_breaks, default=None)
    p_dmp.set_defaults(fn=cmd_dmp)

    p_eq = add_parser("equiv", help="weak Galerkin vs 7-point identity check")
    p_eq.add_argument("--n", type=int, required=True)
    p_eq.add_argument("--kappa", type=float, required=True)
    p_eq.add_argument("--out", default=None)
    p_eq.set_defaults(fn=cmd_equiv)

    p_ls = add_parser("list-problems", help="print the problem registry")
    p_ls.add_argument("--out", default=None)
    p_ls.set_defaults(fn=cmd_list_problems)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for path in filter(None, (args.out, getattr(args, "dump_matrix", None))):
            if not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK):
                raise OSError(0, "directory missing or not writable", path)
        return args.fn(args)
    except _SOLVE_ERRORS as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
