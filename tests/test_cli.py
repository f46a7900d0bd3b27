import dataclasses
import math
import os

import numpy as np
import pytest

import swgfem.analysis
import swgfem.cli
import swgfem.solver
from swgfem.assembly import AssemblyConfig, assemble, dump_matrix
from swgfem.cli import main
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

    def test_custom_problem_has_no_table(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--problem", "custom", "--kappa", "1", "--ns", "4")
        assert code == 2
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

        def counting_solve(system, config=None):
            calls.append(system.matrix.shape)
            return swgfem.solver.solve(system, config)

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


class TestSolveFlags:
    @pytest.mark.parametrize("flags", [("--solver", "iterative"), ("--tol", "1e-12")])
    def test_removed_solver_flags_exit_2(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "tc1", "--kappa", "4", "--ns", "8", *flags])
        assert exc.value.code == 2

    def test_out_of_memory_exit_1(self, tmp_path, monkeypatch, capsys):
        share = 1e-6
        monkeypatch.setattr(swgfem.solver, "DIRECT_MEMORY_SHARE", share)
        out = tmp_path / "table.csv"
        code, _, err = run_cli(
            capsys, "run", "--problem", "tc1", "--kappa", "4", "--ns", "8",
            "--out", str(out))
        assert code == 1
        assert err.startswith("solve failed:")
        problem = get_problem("tc1")
        dofs = assemble(mesh_for(problem, 8), problem, AssemblyConfig(kappa=4.0)).matrix.shape[0]
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert "%d bytes" % swgfem.solver.predicted_factor_bytes(dofs) in err
        assert "%d bytes" % (share * memory) in err
        assert not out.exists()


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
            capsys, "fd", "--scheme", "5", "--problem", "fd2", "--n", "8")
        assert code == 0
        assert float(out.strip().splitlines()[2].split()[1]) == pytest.approx(
            3.47e-05, rel=0.05)

    def test_n_and_ns_together_rejected(self, capsys):
        # --n used to be dropped without a word, tabulating --ns only
        code, out, err = run_cli(
            capsys, "fd", "--scheme", "5", "--problem", "fd2", "--n", "8", "--ns", "16")
        assert code == 2
        assert out == ""
        assert "pass either --n or --ns, not both" in err

    def test_rejects_convection_problem(self, capsys):
        code, _, err = run_cli(
            capsys, "fd", "--scheme", "7", "--kappa", "4", "--problem", "tc1",
            "--n", "8")
        assert code == 2
        assert "pure unit diffusion" in err

    def test_rejects_custom_problem(self, capsys):
        # alpha = 1, beta = 0, c = 0 here, but only fd1/fd2 carry the flag
        code, _, err = run_cli(
            capsys, "fd", "--scheme", "5", "--problem", "custom", "--n", "8")
        assert code == 2
        assert "pure unit diffusion" in err

    def test_five_point_with_other_kappa(self, capsys):
        code, _, err = run_cli(
            capsys, "fd", "--scheme", "5", "--kappa", "2", "--problem", "fd1",
            "--n", "8")
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

    def test_explicit_breaks(self, capsys):
        code, out, _ = run_cli(
            capsys, "dmp", "--problem", "fd1", "--kappa", "0.7",
            "--x-breaks", "0,0.3,0.6,1", "--y-breaks", "0,0.4,0.8,1")
        assert code == 0

    def test_breaks_domain_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "dmp", "--problem", "tc3", "--kappa", "1",
            "--x-breaks", "0,1", "--y-breaks", "0,1")
        assert code == 2


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
