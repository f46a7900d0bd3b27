import dataclasses
import hashlib
import math
import os
import pathlib
import re
import weakref

import numpy as np
import pytest

import swgfem.analysis
import swgfem.cli
import swgfem.fd
import swgfem.solver
from swgfem.analysis import EXACT_FLOOR
from swgfem.assembly import AssemblyConfig, assemble, dump_matrix
from swgfem.cli import build_parser, main
from swgfem.mesh import factor_entries
from swgfem.problems import get_problem, mesh_for


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_table_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--problem", "tc1", "--kappa", "0.7", "--ns", "8,16")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# problem=tc1")
        row8 = lines[2].split()
        assert row8[0] == "8"
        assert float(row8[1]) == pytest.approx(1.268e-02, rel=1e-3)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--problem", "fd1", "--kappa", "4", "--ns", "4,8",
            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,l2,l2_rate,h1,h1_rate"
        assert lines[1].split(",")[2] == ""  # first row has no rate
        assert len(lines) == 3

    def test_unknown_problem_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--problem", "nosuch", "--kappa", "1", "--ns", "4")
        assert code == 2
        assert "unknown problem" in err

    def test_custom_problem_has_no_table(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(swgfem.analysis, "solve_problem",
                            lambda *args, **kwargs: calls.append(args))
        code, _, err = run_cli(
            capsys, "run", "--problem", "custom", "--kappa", "1", "--ns", "4")
        assert (code, calls) == (2, [])
        assert "no exact solution" in err

    def test_byte_identical_outputs(self, tmp_path, capsys):
        args = ("run", "--problem", "tc2", "--kappa", "4", "--ns", "4,8",
                "--format", "csv")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--out", str(p1)]) == 0
        assert main([*args, "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_dump_matrix(self, tmp_path, capsys):
        path = tmp_path / "mat.txt"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "fd1", "--kappa", "4", "--ns", "4",
            "--dump-matrix", str(path))
        assert code == 0
        first = path.read_text().splitlines()[0].split()
        assert len(first) == 3

    def test_dump_matrix_solves_once(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counting_solve(system):
            calls.append(system.matrix.shape)
            return swgfem.solver.solve(system)

        monkeypatch.setattr(swgfem.analysis, "solve", counting_solve)
        monkeypatch.setattr(swgfem.cli, "solve", counting_solve)
        path = tmp_path / "mat.txt"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "fd2", "--kappa", "4", "--ns", "8",
            "--dump-matrix", str(path))
        assert code == 0
        assert len(calls) == 1
        problem = get_problem("fd2")
        expected = tmp_path / "expected.txt"
        dump_matrix(assemble(mesh_for(problem, 8), problem, AssemblyConfig(kappa=4.0)),
                    expected)
        assert path.read_bytes() == expected.read_bytes()

    def test_dump_matrix_assembles_once(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counting_assemble(mesh, problem, config):
            calls.append(mesh.nx)
            return swgfem.assembly.assemble(mesh, problem, config)

        monkeypatch.setattr(swgfem.analysis, "assemble", counting_assemble)
        monkeypatch.setattr(swgfem.cli, "assemble", counting_assemble)
        code, _, _ = run_cli(
            capsys, "run", "--problem", "fd2", "--kappa", "4", "--ns", "8",
            "--dump-matrix", str(tmp_path / "mat.txt"))
        assert code == 0
        assert calls == [8]

    def test_dump_matrix_needs_single_n(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--problem", "fd1", "--kappa", "4", "--ns", "4,8",
            "--dump-matrix", "x.txt")
        assert code == 2


class TestRemovedFlags:
    @pytest.mark.parametrize("command", ["run", "dmp"])
    @pytest.mark.parametrize("flags", [("--bc", "penalty"), ("--penalty-weight", "1e10")],
                             ids=["bc", "penalty-weight"])
    def test_boundary_flags_exit_2(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--problem", "tc1", "--kappa", "4", "--ns", "8", *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["run", "fd"])
    def test_custom_flags_only_on_dmp(self, capsys, command):
        # run and fd refuse --problem custom, so they take no custom constants
        with pytest.raises(SystemExit) as exc:
            main([command, "--problem", "fd1", "--kappa", "4", "--ns", "8", "--alpha0", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha0 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "fd", "dmp"])
    @pytest.mark.parametrize("rule", ["simpson", "midpoint"])
    def test_qb_flag_exit_2(self, capsys, command, rule):
        # g is taken at the boundary edge midpoints, with no rule to choose
        with pytest.raises(SystemExit) as exc:
            main([command, "--problem", "fd1", "--kappa", "4", "--ns", "8", "--qb", rule])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --qb {rule}" in capsys.readouterr().err

    def test_fd_n_exit_2(self, capsys):
        # --ns 8 tabulates one size; --n is not taken as an abbreviation of it
        with pytest.raises(SystemExit) as exc:
            main(["fd", "--problem", "fd1", "--kappa", "4", "--n", "8"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestSolveFlags:
    @pytest.mark.parametrize("flags", [("--solver", "iterative"), ("--tol", "1e-12"),
                                       ("--solver", "direct"), ("--solver", "auto")])
    def test_removed_solver_flags_exit_2(self, capsys, flags):
        # every factorization is checked against memory first: no flag skips it
        for command in ("run", "fd", "dmp"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--problem", "fd1", "--kappa", "4", "--ns", "8", *flags])
            assert exc.value.code == 2
            assert "unrecognized arguments: %s" % " ".join(flags) in capsys.readouterr().err

    def test_out_of_memory_exit_1(self, tmp_path, monkeypatch, capsys):
        share = 1e-6
        monkeypatch.setattr(swgfem.solver, "DIRECT_MEMORY_SHARE", share)
        out = tmp_path / "table.csv"
        code, _, err = run_cli(
            capsys, "run", "--problem", "tc2", "--kappa", "4", "--ns", "8",
            "--out", str(out))
        assert code == 1
        assert err.startswith("solve failed:")
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert "solve of 112 dofs" in err
        predicted = (swgfem.solver.BYTES_PER_ENTRY * factor_entries(8, 8)
                     + swgfem.solver.BYTES_PER_DOF * 112)
        assert "%d bytes" % predicted in err
        assert "%d bytes" % (share * memory) in err
        assert not out.exists()


class TestOutputPaths:
    COMMANDS = {
        "run": ("run", "--problem", "tc1", "--kappa", "4", "--ns", "8", "--out"),
        "fd": ("fd", "--problem", "fd1", "--kappa", "4", "--ns", "8", "--out"),
        "dmp": ("dmp", "--problem", "fd2", "--kappa", "4", "--ns", "8", "--out"),
        "equiv": ("equiv", "--n", "8", "--kappa", "4", "--out"),
        "dump-matrix": ("run", "--problem", "tc1", "--kappa", "4", "--ns", "8", "--dump-matrix"),
    }

    @staticmethod
    def record_solves(monkeypatch):
        """Wrap every solve the commands run, and equiv's comparison, to record each call."""
        calls = []
        for module, name in ((swgfem.cli, "solve"), (swgfem.analysis, "solve"),
                             (swgfem.fd, "check_equivalence")):
            def recorded(*args, _name=name, _fn=getattr(module, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(module, name, recorded)
        return calls

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_directory_exit_2_before_solving(self, tmp_path, monkeypatch, capsys,
                                                     command):
        calls = self.record_solves(monkeypatch)
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *self.COMMANDS[command], str(path))
        assert (code, out, calls) == (2, "", [])
        assert err == f"cannot write {path}: directory missing or not writable\n"

    @pytest.mark.parametrize("command", ["run", "dump-matrix"])
    def test_write_error_exit_2(self, tmp_path, monkeypatch, capsys, command):
        # a directory passes the check, and opening it for writing fails after the solve
        calls = self.record_solves(monkeypatch)
        code, _, err = run_cli(capsys, *self.COMMANDS[command], str(tmp_path))
        assert (code, calls) == (2, ["solve"])
        assert err == f"cannot write {tmp_path}: Is a directory\n"


class TestFdCommand:
    def test_seven_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "fd", "--scheme", "7", "--kappa", "4", "--problem", "fd1",
            "--ns", "8,16")
        assert code == 0
        assert float(out.strip().splitlines()[2].split()[1]) == pytest.approx(
            4.59e-04, rel=0.05)

    def test_five_point_single_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "fd", "--scheme", "5", "--problem", "fd2", "--ns", "8")
        assert code == 0
        assert float(out.strip().splitlines()[2].split()[1]) == pytest.approx(
            3.47e-05, rel=0.05)

    def test_rejects_convection_problem(self, capsys):
        code, _, err = run_cli(
            capsys, "fd", "--scheme", "7", "--kappa", "4", "--problem", "tc1",
            "--ns", "8")
        assert code == 2
        assert "pure unit diffusion" in err

    def test_rejects_custom_problem(self, capsys):
        # alpha = 1, beta = 0, c = 0 here, but only fd1/fd2 carry the flag
        code, _, err = run_cli(
            capsys, "fd", "--scheme", "5", "--problem", "custom", "--ns", "8")
        assert code == 2
        assert "pure unit diffusion" in err

    def test_five_point_with_other_kappa(self, capsys):
        code, _, err = run_cli(
            capsys, "fd", "--scheme", "5", "--kappa", "2", "--problem", "fd1",
            "--ns", "8")
        assert code == 2


class TestDmp:
    def test_satisfied_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "dmp", "--problem", "fd2", "--kappa", "0.7", "--ns", "8,32")
        assert code == 0
        lines = out.strip().splitlines()
        row8 = lines[2].split()
        assert float(row8[1]) == pytest.approx(0.9435, abs=5e-3)
        assert float(row8[2]) == pytest.approx(0.7448, abs=2e-2)
        assert row8[-1] == "yes"

    def test_tc3_clipped_rule(self, capsys):
        code, out, _ = run_cli(
            capsys, "dmp", "--problem", "tc3", "--kappa", "4", "--ns", "8")
        assert code == 0
        assert "max(boundary, 0)" in out

    def test_custom_constant_margin_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "dmp", "--problem", "custom", "--kappa", "1", "--ns", "4",
            "--g", "2.0", "--f", "0.0")
        assert code == 0
        row = out.strip().splitlines()[2].split()
        assert float(row[3]) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("flag, value", [("--alpha0", "2"), ("--beta", "9,9"), ("--c", "5"),
                                             ("--f", "1"), ("--g", "1")])
    def test_custom_flags_refused_with_builtin_problem(self, capsys, flag, value):
        # the constants belong to --problem custom; a built-in problem would
        # drop them silently
        code, out, err = run_cli(
            capsys, "dmp", "--problem", "tc1", "--kappa", "0.7", "--ns", "4", flag, value)
        assert code == 2
        assert out == "" and f"{flag} applies only to --problem custom" in err

    def test_explicit_breaks(self, capsys):
        code, out, _ = run_cli(
            capsys, "dmp", "--problem", "fd1", "--kappa", "0.7",
            "--x-breaks", "0,0.3,0.6,1", "--y-breaks", "0,0.4,0.8,1")
        assert code == 0

    @pytest.mark.parametrize("pid", ["fd2", "tc1"])
    def test_explicit_breaks_match_ns(self, tmp_path, capsys, pid):
        # breaks k/8 build the mesh --ns 8 builds, and both take one solve path
        breaks = ",".join(str(k / 8) for k in range(9))
        args = ("dmp", "--problem", pid, "--kappa", "0.7", "--format", "csv", "--out")
        explicit, by_n = tmp_path / "breaks.csv", tmp_path / "ns.csv"
        code = main([*args, str(explicit), "--x-breaks", breaks, "--y-breaks", breaks])
        assert main([*args, str(by_n), "--ns", "8"]) == code
        assert explicit.read_bytes() == by_n.read_bytes()

    def test_each_system_dies_before_the_next_assembly(self, monkeypatch, capsys):
        systems, alive = [], []

        def tracking_assemble(mesh, problem, config):
            alive.append([ref() is not None for ref in systems])
            system = swgfem.assembly.assemble(mesh, problem, config)
            systems.append(weakref.ref(system))
            return system

        monkeypatch.setattr(swgfem.analysis, "assemble", tracking_assemble)
        monkeypatch.setattr(swgfem.cli, "assemble", tracking_assemble)
        code, _, _ = run_cli(
            capsys, "dmp", "--problem", "fd2", "--kappa", "0.7", "--ns", "4,8,16")
        assert code == 0
        assert alive == [[], [False], [False, False]]

    @pytest.mark.parametrize("x_breaks, y_breaks", [("", ""), ("", "0,0.5,1"), ("0,1", " , ")],
                             ids=["both", "x", "y"])
    def test_empty_breaks_exit_2(self, capsys, x_breaks, y_breaks):
        # an empty list is refused, not taken for an absent flag
        with pytest.raises(SystemExit) as exc:
            main(["dmp", "--problem", "fd1", "--kappa", "4", "--ns", "4",
                  "--x-breaks", x_breaks, "--y-breaks", y_breaks])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "empty breakpoint list" in err

    def test_breaks_domain_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "dmp", "--problem", "tc3", "--kappa", "1",
            "--x-breaks", "0,1", "--y-breaks", "0,1")
        assert code == 2

    @pytest.mark.parametrize("problem, options", [
        ("custom", {"--beta": "-1,-1"}),  # tc1's own beta
        ("custom", {"--f": "-2e-1"}),
        ("custom", {"--f": "-1e3"}),
        ("tc3", {"--x-breaks": "-1,0,1", "--y-breaks": "-1,-0.5,1"}),
    ], ids=["beta", "f-exponent", "f-large", "breaks"])
    def test_negative_values_that_are_not_plain_numbers(self, capsys, problem, options):
        # each reads as its --flag=value spelling, which argparse always took
        ns = () if "--x-breaks" in options else ("--ns", "4")
        argv = ("dmp", "--problem", problem, "--kappa", "2", "--format", "csv", *ns)
        spaced = run_cli(capsys, *argv, *(token for pair in options.items() for token in pair))
        assert spaced[0] in (0, 1) and spaced[1]
        assert spaced == run_cli(capsys, *argv, *(f"{flag}={value}"
                                                  for flag, value in options.items()))

    @pytest.mark.parametrize("mesh", [("--x-breaks", "0,1", "--y-breaks", "0,1"), ("--ns", "1"),
                                      ("--ns", "4,1")], ids=["breaks", "ns", "ns-last"])
    def test_one_element_mesh_refused_before_any_solve(self, capsys, monkeypatch, mesh):
        # one element has no interior edge, whose maximum the report compares
        def refuse(system):
            raise AssertionError("solved")
        monkeypatch.setattr(swgfem.cli, "solve", refuse)
        code, out, err = run_cli(capsys, "dmp", "--problem", "fd1", "--kappa", "4", *mesh)
        assert (code, out) == (2, "")
        assert err == "a mesh of one element has no interior edge to check\n"


class TestExtremeData:
    """Data whose structured solve overflows, or underflows to a singular
    operator, ends in a table or in one named line, and warns of nothing."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("dmp", "--problem", "custom", "--kappa", "2", "--alpha0", "1e300", "--ns", "4"),
        ("dmp", "--problem", "custom", "--kappa", "2", "--c", "1e200", "--ns", "4"),
        ("dmp", "--problem", "custom", "--kappa", "2", "--alpha0", "1e-300", "--ns", "4"),
        ("run", "--problem", "tc1", "--kappa", "1e300", "--ns", "4"),
    ], ids=" ".join)
    def test_exit_0_or_1_with_one_stderr_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1) and "Traceback" not in err
        assert err.count("\n") == (code == 1) and bool(out) == (code == 0)


class TestNonFiniteData:
    @pytest.mark.parametrize("flag", ["--f", "--g", "--alpha0"])
    def test_dmp_custom_exit_2(self, capsys, flag):
        code, _, err = run_cli(
            capsys, "dmp", "--problem", "custom", "--kappa", "4", "--ns", "8",
            flag, "nan")
        assert code == 2
        assert "NaN or infinite" in err

    @pytest.mark.parametrize("field", ["f", "g", "alpha"])
    def test_run_exit_2(self, capsys, monkeypatch, field):
        # `swg run` refuses custom problems (no exact solution), so feed it
        # fd1 with one non-finite field
        if field == "alpha":
            bad = lambda x, y: (np.full_like(x, math.nan), np.ones_like(x))
        else:
            bad = lambda x, y: np.full_like(np.asarray(x, dtype=float), math.nan)
        problem = dataclasses.replace(get_problem("fd1"), **{field: bad})
        monkeypatch.setattr(swgfem.cli, "_resolve_problem", lambda args: problem)
        code, _, err = run_cli(
            capsys, "run", "--problem", "fd1", "--kappa", "4", "--ns", "8")
        assert code == 2
        assert f"{field} is NaN or infinite" in err


class TestEquiv:
    def test_identity_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "--n", "8", "--kappa", "4")
        assert code == 0
        assert "matrix_diff=0.000e+00" in out

    def test_kappa_07(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "--n", "16", "--kappa", "0.7")
        assert code == 0

    def test_nonpositive_kappa_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "equiv", "--n", "8", "--kappa", "0")
        assert code == 2


class TestListProblems:
    def test_lists_all(self, capsys):
        code, out, _ = run_cli(capsys, "list-problems")
        assert code == 0
        for pid in ("tc1", "tc2", "tc3", "fd1", "fd2", "custom"):
            assert pid in out

    def test_custom_flags_named_for_dmp_only(self, capsys):
        _, out, _ = run_cli(capsys, "list-problems")
        [custom] = [line for line in out.splitlines() if line.startswith("custom")]
        assert "--alpha0 --beta --c --f --g" in custom
        assert "swg dmp only" in custom

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "list-problems")
        _, out2, _ = run_cli(capsys, "list-problems")
        assert out1 == out2


#: First 16 hex digits of the sha256 of each file a small command writes:
#: its ``--out`` file, then its ``--dump-matrix`` file where it has one.
#: Recorded at c556b29; a change that moves any output byte fails here.  The
#: fd2 7-point table and the tc3 DMP report were re-recorded when their
#: systems came to be solved by sine transforms instead of SuperLU, and the
#: constant-beta DMP report when its system came to be solved by the
#: Schur decomposition; ``TestTransformedOutputs`` pins their values to the
#: factored ones.  That report was re-recorded once more when the Schur
#: solve came to be refined against the natural-order rows instead of the
#: stored matrix: the residual sums in another order, and n = 4's
#: interior_max moved from ...861336e-01 to ...861392e-01, SuperLU's value.
GOLDEN_OUTPUTS = {
    ("run", "--problem", "tc1", "--kappa", "0.7", "--ns", "4,8"):
        ("34ea673f4544c9e5",),
    ("run", "--problem", "tc2", "--kappa", "4", "--ns", "4,8", "--format", "csv"):
        ("9394ccc495c790d3",),
    ("run", "--problem", "fd2", "--kappa", "4", "--ns", "8", "--dump-matrix"):
        ("c828c0349ae158b0", "fe99029424736461"),
    ("run", "--problem", "tc2", "--kappa", "0.7", "--ns", "6", "--format", "csv",
     "--dump-matrix"):
        ("3b0175b402519fca", "2e8d66676e3999a3"),
    ("fd", "--problem", "fd1", "--scheme", "5", "--ns", "4,8"):
        ("50c16a5177832b3d",),
    ("fd", "--problem", "fd2", "--scheme", "7", "--kappa", "0.7", "--ns", "4,8",
     "--format", "csv"):
        ("24cefe218de25f7c",),
    ("dmp", "--problem", "tc3", "--kappa", "4", "--ns", "4,8", "--format", "csv"):
        ("a8f3016d45b23e9d",),
    ("dmp", "--problem", "custom", "--kappa", "2", "--c", "1", "--beta", "0.3,-0.2",
     "--f", "-1", "--g", "0.5", "--ns", "4,6", "--format", "csv"):
        ("296f3bf1ba7ff2b0",),
    ("dmp", "--problem", "fd2", "--kappa", "3", "--x-breaks", "0,0.2,0.45,0.7,1",
     "--y-breaks", "0,0.3,0.5,0.8,1", "--format", "csv"):
        ("a1d0bd6c2a060969",),
    # the strict bound (c = 0): boundary_max, above 0 for fd2 and below it here
    ("dmp", "--problem", "fd2", "--kappa", "0.7", "--ns", "4,8", "--format", "csv"):
        ("2d395c4d719f85b9",),
    ("dmp", "--problem", "custom", "--kappa", "2", "--f", "-1", "--g", "-0.5", "--ns", "4",
     "--format", "csv"):
        ("3ae68f8ba1812869",),
    ("equiv", "--n", "16", "--kappa", "0.7"):
        ("62bd32000e05d4c6",),
    ("list-problems",):
        ("acbb49db2213a274",),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("argv", GOLDEN_OUTPUTS, ids=" ".join)
    def test_same_bytes(self, argv, tmp_path, capsys):
        paths = [tmp_path / "out.txt"]
        if argv[-1] == "--dump-matrix":
            paths.append(tmp_path / "dump.txt")
        command = (*argv, *map(str, paths[1:]), "--out", str(paths[0]))
        assert run_cli(capsys, *command)[0] == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in paths)
        assert digests == GOLDEN_OUTPUTS[argv]


#: The CSV rows of the golden commands whose systems are solved without a
#: factor, as SuperLU's solves printed them before: the fd2 and tc3 rows by
#: sine transforms (recorded c556b29 to 799f317), the tc1 and constant-beta
#: rows by the Schur decomposition (recorded at aaa1abc).  The tc1 command at
#: kappa = 4 pins its round-off errors only below ``ROUND_OFF``, where no
#: rate is printed.
FACTORED_OUTPUTS = {
    ("run", "--problem", "tc1", "--kappa", "0.7", "--ns", "4,8", "--format", "csv"): (
        "n,l2,l2_rate,h1,h1_rate",
        "4,3.79718990674008106e-02,,1.17113708557357046e-01,",
        "8,1.26790610425931462e-02,1.5824842438971685,4.11014511287779646e-02,1.5106487223349621",
    ),
    ("run", "--problem", "tc1", "--kappa", "4", "--ns", "8,16,32", "--format", "csv"): (
        "n,l2,l2_rate,h1,h1_rate",
        "8,1.69146658564494903e-16,,1.74650732776032286e-15,",
        "16,3.10695263667955355e-15,,1.17452904466045718e-14,",
        "32,5.11145047667973392e-15,,2.06161988515683843e-14,",
    ),
    ("dmp", "--problem", "custom", "--kappa", "2", "--c", "1", "--beta", "0.3,-0.2",
     "--f", "-1", "--g", "0.5", "--ns", "4,6", "--format", "csv"): (
        "n,boundary_max,interior_max,bound,margin,satisfied",
        "4,5.00000000000000000e-01,4.56781782941861392e-01,5.00000000000000000e-01,"
        "4.32182170581386083e-02,true",
        "6,5.00000000000000000e-01,4.75521415183532858e-01,5.00000000000000000e-01,"
        "2.44785848164671416e-02,true",
    ),
    ("fd", "--problem", "fd2", "--scheme", "7", "--kappa", "0.7", "--ns", "4,8",
     "--format", "csv"): (
        "n,l2,l2_rate,h1,h1_rate",
        "4,7.58796394977368227e-02,,2.33575766923222267e-01,",
        "8,2.53565141533259666e-02,1.581356397667635,8.19719245929441676e-02,1.5106888289092173",
    ),
    ("dmp", "--problem", "tc3", "--kappa", "4", "--ns", "4,8", "--format", "csv"): (
        "n,boundary_max,interior_max,bound,margin,satisfied",
        "4,-1.59252929687499961e-01,-9.49862760338940765e-02,0.00000000000000000e+00,"
        "9.49862760338940765e-02,true",
        "8,-1.52336120605468722e-01,-9.12776115113455577e-02,0.00000000000000000e+00,"
        "9.12776115113455577e-02,true",
    ),
}


#: Absolute slack of the round-off errors of exact solves: the error floor
#: below which no rate is printed, at n <= 64.
ROUND_OFF = {
    ("run", "--problem", "tc1", "--kappa", "4", "--ns", "8,16,32", "--format", "csv"):
        EXACT_FLOOR,
}


class TestTransformedOutputs:
    @pytest.mark.parametrize("argv", FACTORED_OUTPUTS, ids=" ".join)
    def test_values_match_factored_output(self, argv, tmp_path, capsys):
        # measured: at most 9.8e-16 (fd) and 1.8e-15 (dmp) relative
        out = tmp_path / "out.csv"
        assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
        got = [line.split(",") for line in out.read_text().splitlines()]
        want = [line.split(",") for line in FACTORED_OUTPUTS[argv]]
        assert got[0] == want[0] and len(got) == len(want)
        for got_row, want_row in zip(got[1:], want[1:]):
            assert len(got_row) == len(want_row)
            for g, w in zip(got_row, want_row):
                try:
                    expected = float(w)
                except ValueError:  # an empty rate, or the DMP verdict
                    assert g == w
                else:
                    assert float(g) == pytest.approx(expected, rel=1e-12,
                                                        abs=ROUND_OFF.get(argv, 0.0))


class TestParserReuse:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_back_to_back_calls_parse_independently(self, tmp_path, capsys):
        # the golden commands forward, then backward, in one process: no flag
        # or default of one call (the custom dmp's --c and --beta, run's
        # --dump-matrix) carries into the next
        for argv in [*GOLDEN_OUTPUTS, *reversed(GOLDEN_OUTPUTS)]:
            paths = [tmp_path / "out.txt", tmp_path / "dump.txt"][:len(GOLDEN_OUTPUTS[argv])]
            assert run_cli(capsys, *argv, *map(str, paths[1:]), "--out", str(paths[0]))[0] == 0
            digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in paths)
            assert digests == GOLDEN_OUTPUTS[argv]


class TestOptionCensus:
    #: Every option string each subcommand takes.  Adding or removing a knob
    #: changes this set, and CHANGES.md says why.
    OPTIONS = {
        "run": {"-h", "--help", "--problem", "--kappa", "--out", "--format", "--ns",
                "--dump-matrix"},
        "fd": {"-h", "--help", "--problem", "--kappa", "--out", "--format", "--scheme", "--ns"},
        "dmp": {"-h", "--help", "--problem", "--kappa", "--out", "--format", "--alpha0",
                "--beta", "--c", "--f", "--g", "--ns", "--x-breaks", "--y-breaks"},
        "equiv": {"-h", "--help", "--n", "--kappa", "--out"},
        "list-problems": {"-h", "--help", "--out"},
    }

    def test_each_subcommand_takes_exactly_its_options(self):
        [subparsers] = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
        assert {name: set(sub._option_string_actions)
                for name, sub in subparsers.choices.items()} == self.OPTIONS


class TestReadme:
    def test_cli_section_names_only_parser_flags(self):
        # every --flag README's CLI section names is an option of some subcommand
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        [subparsers] = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
        options = {flag for sub in subparsers.choices.values()
                   for flag in sub._option_string_actions}
        named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
        assert named, "no flag found in README's CLI section"
        assert named - options == set()
