"""The benchmark's workloads: inputs made from the seed, the operations of
one round, and the check of each operation's output.

Every round of a workload runs the same operations, so the share of
failed operations is the same in every run.  A workload's operations call
swgfem through module attributes at call time, so the tracer's wrappers
see them.
"""

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import swgfem as sw
from swgfem import cli

#: Resolutions of the `swg run` / `swg fd` tables (tc3 lives on (-1,1)^2,
#: four times the elements, so it stops one level earlier).
TABLE_NS = (8, 16, 32, 64, 128)
TC3_NS = (8, 16, 32, 64)

#: Built-in problems with c > 0 (tc3 has c = 16): the DMP bound is clipped at 0.
C_POSITIVE = {"tc3"}


@dataclass
class Op:
    """One timed call into the program and the untimed check of its output."""

    label: str
    run: Callable
    check: Callable


def _join(values):
    return ",".join(str(v) for v in values)


def _breaks(rng, count, lo, hi, spread):
    """count cells of widths drawn in [1, 1 + spread], scaled onto [lo, hi]."""
    w = rng.uniform(1.0, 1.0 + spread, count)
    b = lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(w) / w.sum()])
    b[-1] = hi
    return b


def _windowed_mesh(rng, counts, domain, draw_consts, attempts=60):
    """Breaks with every aspect ratio in [0.5, 2] and a kappa window.

    draw_consts(rng) gives (alpha_min, |beta|_inf, |c|_inf, extra); the
    cell spread shrinks on each failed attempt.  Returns
    (x_breaks, y_breaks, lo, hi, extra).
    """
    x0, x1, y0, y1 = domain
    for attempt in range(attempts):
        spread = 0.6 * 0.8 ** attempt
        alpha_min, beta_inf, c_inf, extra = draw_consts(rng)
        xb = _breaks(rng, counts[0], x0, x1, spread)
        yb = _breaks(rng, counts[1], y0, y1, spread)
        hx, hy = np.meshgrid(np.diff(xb), np.diff(yb))
        lo, hi = checks.kappa_windows(hx, hy, alpha_min, beta_inf, c_inf)
        lo, hi = float(lo.max()), float(hi.min())
        aspect = hx / hy
        if hi > 0 and hi > 1.05 * lo and aspect.min() >= 0.5 and aspect.max() <= 2.0:
            return xb, yb, lo, hi, extra
    raise RuntimeError(f"no mesh with a kappa window in {attempts} attempts")


def _inside(rng, lo, hi):
    return float(rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo)))


class Study:
    """The paper's experiments as users run them, through `swg` (cli.main).

    One round: error tables (`swg run`, `swg fd`), DMP reports (`swg dmp`,
    one on explicit breaks from the seed), one `swg equiv` and one
    `swg run --dump-matrix` at n = 128.  Outputs go to CSV files.
    """

    gauged = True

    RUNS = (("tc1", "0.7"), ("tc1", "4"), ("tc2", "20"), ("fd1", "20"),
            ("fd2", "0.7"), ("tc3", "4"))
    FDS = (("fd1", "5", None), ("fd2", "7", "20"))
    DMPS = (("tc1", "0.7"), ("tc2", "20"), ("tc3", "4"), ("fd1", "4"), ("fd2", "0.7"))
    DMP_NS = (8, 32, 64)
    TC3_DMP_NS = (8, 16, 32)
    EQUIV = (64, 0.7)
    DUMP = ("fd2", 128, 4.0)

    def __init__(self, seed, scratch):
        self.seed, self.scratch = seed, scratch
        self.dumps = []
        self.kept = {}

    def setup(self):
        for pid in sw.PROBLEM_IDS:
            sw.get_problem(pid)
        out = os.path.join(self.scratch, "warmup.csv")
        if cli.main(["run", "--problem", "tc1", "--kappa", "4", "--ns", "8,16",
                     "--format", "csv", "--out", out]) != 0:
            raise RuntimeError("warm-up `swg run` failed")

    def _op(self, label, argv, check):
        out = os.path.join(self.scratch, label + ".out")

        def run():
            rc = cli.main(argv + ["--out", out])
            if rc != 0:
                raise RuntimeError(f"swg {argv[0]} exited with {rc}")
            with open(out) as fh:
                return fh.read()

        return Op(label, run, check)

    def _table_check(self, label, ns, exact):
        def check(text):
            rows = checks.parse_table(text)
            self.kept.setdefault("exact" if exact else "table", (rows, ns, label))
            return checks.table_errors(rows, ns, exact, label)
        return check

    def _dmp_check(self, label, ns, c_positive):
        def check(text):
            self.kept.setdefault("dmp", (text, ns, c_positive, label))
            return checks.dmp_table_errors(text, ns, c_positive, label)
        return check

    def _explicit_dmp(self, r):
        """fd2 on random breaks (24 x 20 cells) with kappa inside its window."""
        rng = np.random.default_rng([self.seed, r])
        xb, yb, lo, hi, _ = _windowed_mesh(
            rng, (24, 20), (0.0, 1.0, 0.0, 1.0), lambda g: (1.0, 0.0, 0.0, None))
        kappa = _inside(rng, lo, hi)
        argv = ["dmp", "--problem", "fd2", "--kappa", repr(kappa),
                "--x-breaks", _join(repr(float(v)) for v in xb),
                "--y-breaks", _join(repr(float(v)) for v in yb), "--format", "csv"]
        label = "dmp-fd2-breaks"
        return self._op(label, argv, self._dmp_check(label, [24], False))

    def round_ops(self, r):
        ops = []
        for pid, kappa in self.RUNS:
            ns = TC3_NS if pid == "tc3" else TABLE_NS
            label = f"run-{pid}-k{kappa}"
            ops.append(self._op(label, ["run", "--problem", pid, "--kappa", kappa,
                                        "--ns", _join(ns), "--format", "csv"],
                                self._table_check(label, ns, pid == "tc1" and kappa == "4")))
        for pid, scheme, kappa in self.FDS:
            label = f"fd{scheme}-{pid}"
            argv = ["fd", "--scheme", scheme, "--problem", pid, "--ns", _join(TABLE_NS),
                    "--format", "csv"] + (["--kappa", kappa] if kappa else [])
            ops.append(self._op(label, argv, self._table_check(label, TABLE_NS, False)))
        for pid, kappa in self.DMPS:
            ns = self.TC3_DMP_NS if pid == "tc3" else self.DMP_NS
            label = f"dmp-{pid}-k{kappa}"
            ops.append(self._op(label, ["dmp", "--problem", pid, "--kappa", kappa,
                                        "--ns", _join(ns), "--format", "csv"],
                                self._dmp_check(label, ns, pid in C_POSITIVE)))
        ops.append(self._explicit_dmp(r))

        n, kappa = self.EQUIV

        def equiv_check(text):
            self.kept.setdefault("equiv", text)
            return checks.equiv_errors(text, "equiv")

        ops.append(self._op("equiv", ["equiv", "--n", str(n), "--kappa", str(kappa)],
                            equiv_check))

        pid, n, kappa = self.DUMP
        dump = os.path.join(self.scratch, f"dump-{r}.txt")

        def dump_check(text):
            self.dumps.append(dump)
            return checks.table_errors(checks.parse_table(text), [n], False, "dump-table")

        ops.append(self._op("run-dump", ["run", "--problem", pid, "--kappa", repr(kappa),
                                         "--ns", str(n), "--format", "csv",
                                         "--dump-matrix", dump], dump_check))
        return ops

    def finish(self):
        """Every dumped entry against the 7-point weight of its leg."""
        errors = []
        _, n, kappa = self.DUMP
        for path in self.dumps:
            entries = np.loadtxt(path, ndmin=2)
            errors += checks.dump_errors(entries, n, kappa, os.path.basename(path))
            self.kept["dump"] = entries
        return errors

    def self_test(self):
        """Corrupted copies of this run's outputs that each check must reject."""
        missing = [k for k in ("table", "exact", "dmp", "equiv", "dump") if k not in self.kept]
        if missing:
            return [f"self-test: no output kept for {missing}"]
        _, n, kappa = self.DUMP
        rows, ns, label = self.kept["table"]
        wrong_rate = rows[:-1] + [rows[-1][:2] + (rows[-1][2] + 0.1,) + rows[-1][3:]]
        (n0, e0), (n1, e1) = rows[-2][:2], rows[-1][:2]
        exact_rows = self.kept["exact"][0]
        text, dmp_ns, c_positive, _ = self.kept["dmp"]
        lines = text.strip().splitlines()
        fields = lines[-1].split(",")
        fields[2] = repr(float(fields[3]) + 1e-9)          # interior max above the bound
        fields[4] = repr(-1e-9)
        bad_dmp = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
        entries = self.kept["dump"]
        zero = int(np.flatnonzero(entries[:, 2] == 0.0)[0]) if kappa == 4.0 else 0
        altered = entries.copy()
        altered[zero, 2] += 1e-9
        corrupt = {
            "wrong printed rate": checks.table_errors(wrong_rate, ns, False, label),
            "finest error x1.5": checks.rate_errors(e0, 1.5 * e1, n0, n1, label),
            "tc1 kappa=4 error 1e-9": checks.exact_errors(
                [e for r in exact_rows for e in (r[1], r[3])] + [1e-9], checks.EXACT_TOL, "tc1"),
            "interior max above bound": checks.dmp_table_errors(bad_dmp, dmp_ns, c_positive, "dmp"),
            "equiv diff 2e-13": checks.equiv_errors("matrix_diff=2.000e-13 rhs_diff=0", "equiv"),
            "altered dump entry": checks.dump_errors(altered, n, kappa, "dump"),
            "missing dump entry": checks.dump_errors(entries[1:], n, kappa, "dump"),
        }
        return [f"self-test: check accepted a corrupted output ({name})"
                for name, errs in corrupt.items() if not errs]


def _solution_checks(label, system, sol, counts, c_positive):
    """Backward error from the matrix and rhs, and the DMP from the values."""
    interior = ~checks.boundary_mask(*counts)
    tol = checks.backward_tol(sol.iterations)
    return (checks.backward_errors(system.matrix, system.rhs, sol.values[interior], tol, label)
            + checks.dmp_errors(sol.values, *counts, c_positive, label))


def _solution_self_test(label, kept):
    """A perturbed solution must fail the DMP and backward-error checks."""
    values, matrix, rhs, counts, c_positive = kept
    mask = checks.boundary_mask(*counts)
    bound = values[mask].max()
    if c_positive:
        bound = max(bound, 0.0)
    raised = values.copy()
    raised[np.flatnonzero(~mask)[0]] = bound + 1e-6
    x = values[~mask] * (1.0 + 1e-9)
    corrupt = {
        "interior value above the bound": checks.dmp_errors(raised, *counts, c_positive, label),
        "solution scaled by 1+1e-9": checks.backward_errors(
            matrix, rhs, x, checks.DIRECT_BACKWARD_TOL, label),
        "sign value -1e-9": checks.sign_errors([0.0, -1e-9], label),
    }
    return [f"self-test: check accepted a corrupted output ({name})"
            for name, errs in corrupt.items() if not errs]


class Sweep:
    """DMP verification on random nonuniform tensor meshes.

    A round is one case for every (problem, n) with n = 8..40: tc1, tc3,
    fd1, fd2 and a constant-coefficient custom problem with f <= 0 and
    c >= 0, so every round costs about the same.  Breaks, custom
    coefficients and kappa (inside the mesh's window) are drawn afresh
    each round.  tc2 is left out: a22 = 3xy vanishes on the axes, so no
    kappa satisfies the condition on the elements there.
    """

    gauged = True

    NS = tuple(range(8, 41))
    PROBLEMS = ("tc1", "tc3", "fd1", "fd2", "custom")
    #: (alpha_min, |beta|_inf, |c|_inf) from the problem statements.
    CONSTS = {"tc1": (1.0, 1.0, 0.0), "tc3": (1.0, 0.0, 16.0),
              "fd1": (1.0, 0.0, 0.0), "fd2": (1.0, 0.0, 0.0)}
    SIGN_SAMPLES = 6

    def __init__(self, seed, scratch):
        self.seed = seed
        self.kept = None

    def setup(self):
        problems = {pid: sw.get_problem(pid) for pid in self.CONSTS}
        mesh = sw.build_tensor_mesh(np.linspace(0, 1, 17), np.linspace(0, 1, 17))
        sw.solve(sw.assemble(mesh, problems["fd2"], sw.AssemblyConfig(kappa=2.0)))

    @staticmethod
    def _draw_custom(rng):
        alpha0 = float(rng.uniform(0.5, 2.0))
        beta = tuple(float(b) for b in rng.uniform(-1.0, 1.0, 2))
        c = float(rng.uniform(0.0, 8.0)) if rng.random() < 0.5 else 0.0
        spec = dict(alpha0=alpha0, beta=beta, c=c,
                    f=float(rng.uniform(-2.0, 0.0)), g=float(rng.uniform(-1.0, 1.0)))
        return alpha0, max(abs(beta[0]), abs(beta[1])), c, spec

    def _case(self, rng, pid, n):
        if pid == "custom":
            domain, draw = (0.0, 1.0, 0.0, 1.0), self._draw_custom
        else:
            problem = sw.get_problem(pid)
            domain, draw = problem.domain, lambda g: self.CONSTS[pid] + (None,)
        counts = (round((domain[1] - domain[0]) * n), round((domain[3] - domain[2]) * n))
        xb, yb, lo, hi, spec = _windowed_mesh(rng, counts, domain, draw)
        if pid == "custom":
            problem = sw.make_custom(**spec)
            c_positive = spec["c"] > 0
        else:
            c_positive = pid in C_POSITIVE
        kappa = _inside(rng, lo, hi)
        samples = [(int(rng.integers(counts[0])), int(rng.integers(counts[1])),
                    rng.uniform(-1.0, 1.0, 4)) for _ in range(self.SIGN_SAMPLES)]
        label = f"{pid}-n{n}"

        def run():
            mesh = sw.build_tensor_mesh(xb, yb)
            report = sw.kappa_condition(mesh, problem, kappa)
            system = sw.assemble(mesh, problem, sw.AssemblyConfig(kappa=kappa))
            sol = sw.solve(system)
            dmp = sw.dmp_check(sol, mesh, not problem.c_is_zero)
            signs = [sw.sign_inequality_value(sw.element_geometry(mesh, i, j), kappa,
                                              mesh.h, problem, v) for i, j, v in samples]
            return report, system, sol, dmp, signs

        def check(out):
            report, system, sol, dmp, signs = out
            errors = _solution_checks(label, system, sol, counts, c_positive)
            errors += checks.sign_errors(signs, label)
            if not report.all_ok:
                errors.append(f"{label}: kappa_condition rejects kappa={kappa!r} "
                              f"inside the window [{lo!r}, {hi!r}]")
            if not dmp.satisfied:
                errors.append(f"{label}: dmp_check reports a violation")
            if self.kept is None:
                self.kept = (sol.values, system.matrix, system.rhs, counts, c_positive)
            return errors

        return Op(label, run, check)

    def round_ops(self, r):
        rng = np.random.default_rng([self.seed, r])
        return [self._case(rng, pid, n) for n in self.NS for pid in self.PROBLEMS]

    def finish(self):
        return []

    def self_test(self):
        if self.kept is None:
            return ["self-test: no solution kept"]
        return _solution_self_test("sweep", self.kept)


class Large:
    """Single solves at and beyond the `auto` direct limit.

    tc2 n=256 goes direct under `auto`, tc1 n=260 goes to ILU+BiCGStab,
    fd1 n=340 is forced direct.  The sign inequality is sampled on
    elements whose own kappa window is nonempty, with kappa drawn inside
    it (the solves' kappa lies outside the condition).
    """

    #: Wall seconds, not scaled by the reference: these solves are bound by
    #: memory traffic, and the reference's compute-speed swings (up to 1.7x)
    #: move them by about a tenth of that.
    gauged = False

    #: (problem, n, kappa, solver method, accuracy check)
    CASES = (("tc2", 256, 20.0, "auto", "rate"),
             ("tc1", 260, 4.0, "auto", "exact"),
             ("fd1", 340, 4.0, "direct", "rate"))
    SIGN_SAMPLES = 16

    def __init__(self, seed, scratch):
        rng = np.random.default_rng(seed)
        self.samples = {case[0]: self._samples(rng, case[0], case[1]) for case in self.CASES}
        self.fine = {}
        self.kept = None

    def setup(self):
        problems = {case[0]: sw.get_problem(case[0]) for case in self.CASES}
        sw.solve_problem(problems["tc2"], 64, 20.0)

    def _samples(self, rng, pid, n):
        """Elements with a nonempty window; alpha_min from the cell corners."""
        problem = sw.get_problem(pid)
        x0, x1, y0, y1 = problem.domain
        xs = np.linspace(x0, x1, round((x1 - x0) * n) + 1)
        ys = np.linspace(y0, y1, round((y1 - y0) * n) + 1)
        vx, vy = np.meshgrid(xs, ys)
        a11, a22 = (np.broadcast_to(a, vx.shape) for a in problem.alpha(vx, vy))
        amin = np.minimum(a11, a22)
        amin = np.minimum.reduce([amin[:-1, :-1], amin[1:, :-1], amin[:-1, 1:], amin[1:, 1:]])
        b1, b2 = problem.beta(vx, vy)
        beta_inf = float(max(np.max(np.abs(b1)), np.max(np.abs(b2))))
        c_inf = float(np.max(np.abs(problem.c(vx, vy))))
        hx, hy = np.meshgrid(np.diff(xs), np.diff(ys))
        lo, hi = checks.kappa_windows(hx, hy, amin, beta_inf, c_inf)
        cells = np.flatnonzero((hi > 0) & (hi > 1.05 * lo))
        picked = rng.choice(cells, self.SIGN_SAMPLES, replace=False)
        nx = xs.size - 1
        return [(int(k % nx), int(k // nx), _inside(rng, lo.flat[k], hi.flat[k]),
                 rng.uniform(-1.0, 1.0, 4)) for k in picked]

    def _case(self, pid, n, kappa, method, accuracy):
        label = f"{pid}-n{n}-{method}"
        samples = self.samples[pid]

        def run():
            problem = sw.get_problem(pid)
            mesh, system, sol = sw.solve_problem(
                problem, n, kappa, solve_config=sw.SolveConfig(method=method))
            l2 = sw.discrete_l2_error(sol, mesh, problem.exact)
            h1 = sw.discrete_h1_error(sol, mesh, problem.exact_grad)
            dmp = sw.dmp_check(sol, mesh, not problem.c_is_zero)
            signs = [sw.sign_inequality_value(sw.element_geometry(mesh, i, j), k,
                                              mesh.h, problem, v) for i, j, k, v in samples]
            return mesh, system, sol, l2, h1, dmp, signs

        def check(out):
            mesh, system, sol, l2, h1, dmp, signs = out
            counts = (mesh.nx, mesh.ny)
            errors = _solution_checks(label, system, sol, counts, pid in C_POSITIVE)
            errors += checks.sign_errors(signs, label)
            if not dmp.satisfied:
                errors.append(f"{label}: dmp_check reports a violation")
            if accuracy == "exact":
                errors += checks.exact_errors([l2, h1], checks.exact_tol(sol.iterations), label)
            else:
                self.fine[(pid, n, kappa, method)] = l2
            return errors

        return Op(label, run, check)

    def round_ops(self, r):
        return [self._case(*case) for case in self.CASES]

    def finish(self):
        """Second order against a solve on the mesh twice as coarse."""
        errors = []
        for (pid, n, kappa, method), l2 in self.fine.items():
            problem = sw.get_problem(pid)
            mesh, system, sol = sw.solve_problem(
                problem, n // 2, kappa, solve_config=sw.SolveConfig(method=method))
            coarse = sw.discrete_l2_error(sol, mesh, problem.exact)
            errors += checks.rate_errors(coarse, l2, n // 2, n, f"{pid}-n{n}")
            if self.kept is None:
                self.kept = ((sol.values, system.matrix, system.rhs, (mesh.nx, mesh.ny),
                              pid in C_POSITIVE), coarse, l2, n)
        return errors

    def self_test(self):
        if self.kept is None:
            return ["self-test: no solution kept"]
        solution, coarse, fine, n = self.kept
        errors = _solution_self_test("large", solution)
        if not checks.rate_errors(coarse, 1.5 * fine, n // 2, n, "large"):
            errors.append("self-test: check accepted a corrupted output (fine error x1.5)")
        if not checks.exact_errors([1e-6], checks.exact_tol(1), "large"):
            errors.append("self-test: check accepted a corrupted output (error 1e-6 where exact)")
        return errors


WORKLOADS = {"study": Study, "sweep": Sweep, "large": Large}
