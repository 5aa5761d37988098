"""CLI contract: exit codes, CSV schema, determinism."""

import subprocess
import sys

from indexkernels.cli import main, parse_grid


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestParseGrid:
    def test_basic(self):
        axis, vals = parse_grid("tau=1:3:1")
        assert axis == "tau"
        assert [float(v) for v in vals] == [1.0, 2.0, 3.0]

    def test_single_point(self):
        axis, vals = parse_grid("x=2:2:1")
        assert len(vals) == 1


class TestEval:
    def test_series_ok(self, capsys):
        code, out, _ = run(["eval", "--kernel", "kl", "--x", "1",
                            "--tau", "2", "--route", "series"], capsys)
        assert code == 0
        assert "value_re = 0.080616997622365979" in out

    def test_precision_loss_exit_code(self, capsys):
        code, _, err = run(["eval", "--kernel", "kl", "--x", "1",
                            "--tau", "200", "--route", "series"], capsys)
        assert code == 3
        assert "numerical failure" in err

    def test_missing_argument(self, capsys):
        code, _, err = run(["eval", "--kernel", "kl", "--tau", "2"], capsys)
        assert code == 2

    def test_near_one_limit(self, capsys):
        code, out, _ = run(["eval", "--kernel", "olevskii", "--mu", "1.3",
                            "--nu", "0.2", "--x", "1e-4", "--tau", "1"],
                           capsys)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("value_re")][0]
        assert abs(float(line.split("=")[1]) - 1) < 1e-6


class TestVerify:
    def test_pass_grid(self, capsys):
        code, out, err = run(["verify", "--bound", "kl", "--n", "1",
                              "--grid", "tau=1:2:1", "--grid", "x=0.5:1:0.5"],
                             capsys)
        assert code == 0
        assert "violations=0" in err
        header = out.splitlines()[0]
        assert header == ("bound,n,mu,nu,rho,tau,x,z_abs,z_arg,"
                          "lhs,rhs,margin,holds,error")

    def test_single_point_grid(self, capsys):
        code, out, _ = run(["verify", "--bound", "kl", "--n", "1",
                            "--grid", "tau=1:1:1", "--grid", "x=1:1:1"],
                           capsys)
        assert code == 0
        assert len([l for l in out.splitlines() if l.strip()]) == 2

    def test_unknown_bound(self, capsys):
        code, _, _ = run(["verify", "--bound", "nope",
                          "--grid", "tau=1:1:1"], capsys)
        assert code == 2

    def test_domain_guard(self, capsys):
        code, _, _ = run(["verify", "--bound", "olevskii", "--mu", "1.2",
                          "--nu", "0.2", "--grid", "tau=1:1:1",
                          "--grid", "x=1:1:1"], capsys)
        assert code == 2

    def test_missing_bound_flag(self, capsys):
        code, _, _ = run(["verify", "--grid", "tau=1:1:1"], capsys)
        assert code == 2


class TestExpand:
    def test_small_grid(self, capsys):
        code, out, err = run(["expand", "--kernel", "kl", "--N", "2",
                              "--tau0", "5", "--X", "1",
                              "--grid", "tau=6:8:2", "--grid", "x=0.5:1:0.5"],
                             capsys)
        assert code == 0
        assert "violations=0" in err

    def test_boundary_of_hypothesis(self, capsys):
        # tau equal to tau0 is still a valid row
        code, out, _ = run(["expand", "--kernel", "lebedev-square",
                            "--tau0", "5", "--X", "1",
                            "--grid", "tau=5:5:1", "--grid", "x=1:1:1"],
                           capsys)
        assert code == 0
        assert len([l for l in out.splitlines() if l.strip()]) == 2

    def test_unsupported_kernel(self, capsys):
        code, _, _ = run(["expand", "--kernel", "olevskii",
                          "--grid", "tau=6:6:1", "--grid", "x=1:1:1"],
                         capsys)
        assert code == 2


class TestCrossover:
    def test_huge_tolerance_hits_grid_minimum(self, capsys):
        code, out, _ = run(["crossover", "--kernel", "kl", "--x", "1",
                            "--tol", "10", "--grid", "tau=2:6:1"], capsys)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("tau_star")][0]
        assert float(line.split("=")[1]) == 2.0

    def test_stdout_deterministic(self, capsys):
        argv = ["crossover", "--kernel", "kl", "--x", "1", "--tol", "10",
                "--grid", "tau=2:6:1"]
        code1, out1, err1 = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "direct_time_s" in err1 and "direct_time_s" not in out1

    def test_unreachable_tolerance(self, capsys):
        code, _, err = run(["crossover", "--kernel", "kl", "--x", "1",
                            "--tol", "1e-35", "--grid", "tau=2:6:1"], capsys)
        assert code == 1
        assert "no crossover" in err


class TestSweepDeterminism:
    def test_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            r = subprocess.run(
                [sys.executable, "-m", "indexkernels.cli", "sweep",
                 "--kernel", "kl", "--grid", "tau=1:3:1",
                 "--grid", "x=0.5:1:0.5", "--out", str(path)],
                capture_output=True)
            assert r.returncode == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] == (
            b"kernel,route,x,tau,mu,nu,rho,value_re,value_im,"
            b"rel_err_est,flags,error")


class TestFitConstants:
    def test_small_fit(self, capsys):
        code, out, _ = run(["fit-constants", "--T", "1", "--nx", "6",
                            "--ntau", "6"], capsys)
        assert code == 0
        assert any(l.startswith("A,") for l in out.splitlines())

    def test_bad_range(self, capsys):
        code, _, _ = run(["fit-constants", "--T", "50"], capsys)
        assert code == 2
