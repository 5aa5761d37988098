"""CLI contract: exit codes, CSV schema, determinism."""

import importlib.util
import random
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf, workdps

from indexkernels import bessel, bounds, config, kernels, special
from indexkernels.cli import EXPANSIONS, build_parser, main, parse_grid
from indexkernels.errors import DomainError


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
        _, vals = parse_grid("x=2:2:1")
        assert len(vals) == 1

    @pytest.mark.parametrize("spec", ["x=nan:nan:1", "x=0:inf:1",
                                      "x=-inf:1:1", "x=0:1:nan"])
    def test_non_finite_rejected(self, spec):
        with pytest.raises(DomainError):
            parse_grid(spec)

    @pytest.mark.parametrize("spec, first, step, count", [
        ("x=0.1:2:0.1", 10, 10, 20), ("x=0.1:5:0.05", 10, 5, 99)])
    def test_values_are_their_decimals(self, spec, first, step, count):
        # repeated addition drifted up to 11 ulps from these at dps 40
        with workdps(40):
            _, vals = parse_grid(spec)
            assert len(vals) == count
            for i, v in enumerate(vals):
                n = first + i * step  # the value in hundredths
                assert v == mpf("%d.%02d" % divmod(n, 100)), (spec, i)

    def test_non_finite_sweep_exit_code(self, capsys):
        code, out, err = run(["sweep", "--kernel", "kl",
                              "--grid", "x=nan:nan:1"], capsys)
        assert code == 2
        assert out == ""
        assert "bad grid spec" in err


class TestEval:
    def test_series_ok(self, capsys):
        code, out, _ = run(["eval", "--kernel", "kl", "--x", "1",
                            "--tau", "2", "--route", "series"], capsys)
        assert code == 0
        assert "value_re = 0.080616997622365979" in out

    def test_precision_loss_exit_code(self, capsys):
        # K_{60i}(1) is about e^{-30 pi} of the K_0(1) that scales the
        # cosine integral's roundoff: its estimate passes the threshold
        code, _, err = run(["eval", "--kernel", "kl", "--x", "1",
                            "--tau", "60", "--route", "quadrature"], capsys)
        assert code == 3
        assert "numerical failure" in err
        assert "k_itau_quad precision loss (tau=60.0)" in err

    def test_quadrature_at_large_argument(self, capsys):
        # K_{3i}(90) is about 1e-40; the cosine integral holds working
        # precision there because its stop is relative to the integral
        code, out, _ = run(["eval", "--kernel", "kl", "--x", "90",
                            "--tau", "3", "--route", "quadrature"], capsys)
        assert code == 0
        assert "value_re = " in out

    def test_missing_argument(self, capsys):
        code, _, _ = run(["eval", "--kernel", "kl", "--tau", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--x", "nan"), ("--tau", "inf"),
                                             ("--rho", "nan")])
    def test_non_finite_point(self, capsys, flag, value):
        argv = ["eval", "--kernel", "whittaker", "--x", "0.5", "--tau", "2",
                "--rho", "0.3"]
        argv[argv.index(flag) + 1] = value
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_series218_terms_run_out(self, capsys, monkeypatch):
        # a numerical failure, as on the f11 route, not a truncated value
        monkeypatch.setattr(special, "MAX_TERMS", 3)
        for route in ("series218", "f11"):
            code, out, err = run(["eval", "--kernel", "whittaker", "--rho",
                                  "0.3", "--x", "0.5", "--tau", "2",
                                  "--route", route], capsys)
            assert (code, out) == (3, ""), route
            assert "did not converge in 3 terms" in err

    @pytest.mark.parametrize("nu", ["-1.2", "-1"])
    def test_olevskii_quadrature_refuses_nu(self, capsys, nu):
        # a usage error of the route's own, not one from ln_gamma
        code, out, err = run(["eval", "--kernel", "olevskii", "--route",
                              "quadrature", "--mu", "1.4", "--nu", nu,
                              "--x", "0.5", "--tau", "1"], capsys)
        assert (code, out) == (2, "")
        assert "olevskii_quad requires nu > -1" in err

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

    @pytest.mark.parametrize("argv, flag", [
        (["--bound", "mehler-fock"], "--mu"),
        (["--bound", "whittaker", "--mu", "0.5"], None),
        (["--bound", "olevskii", "--mu", "0.5"], "--nu")])
    def test_bound_flags(self, capsys, argv, flag):
        code, out, err = run(["verify"] + argv + ["--grid", "tau=1:1:1",
                                                  "--grid", "x=1:1:1"],
                             capsys)
        if flag is None:
            assert code == 0
        else:
            assert (code, out) == (2, "")
            assert "requires %s" % flag in err

    def test_domain_guard(self, capsys):
        code, _, _ = run(["verify", "--bound", "olevskii", "--mu", "1.2",
                          "--nu", "0.2", "--grid", "tau=1:1:1",
                          "--grid", "x=1:1:1"], capsys)
        assert code == 2

    def test_missing_bound_flag(self, capsys):
        code, _, _ = run(["verify", "--grid", "tau=1:1:1"], capsys)
        assert code == 2

    def test_kummer_default_x_grid_in_domain(self, capsys):
        code, out, err = run(["verify", "--bound", "kummer",
                              "--grid", "tau=1:2:1"], capsys)
        assert code == 0
        assert "points=18 violations=0 failures=0" in err
        assert len(out.splitlines()) == 19


class TestExpand:
    def test_small_grid(self, capsys):
        code, _, err = run(["expand", "--kernel", "kl", "--N", "2",
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

    def test_numerical_failure(self, capsys, monkeypatch):
        # a point that fails voids the search: exit 3 and no tau_star
        monkeypatch.setattr(bessel, "_ks_cache", {})
        monkeypatch.setattr(special, "MAX_TERMS", 3)
        code, out, err = run(["crossover", "--kernel", "kl", "--x", "1",
                              "--grid", "tau=2:6:1"], capsys)
        assert (code, out) == (3, "")
        assert "numerical failure at tau=2.0: bessel_i series stalled" in err


class TestSweepDeterminism:
    def test_byte_identical(self, tmp_path, src_env):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            r = subprocess.run(
                [sys.executable, "-m", "indexkernels.cli", "sweep",
                 "--kernel", "kl", "--grid", "tau=1:3:1",
                 "--grid", "x=0.5:1:0.5", "--out", str(path)],
                capture_output=True, env=src_env)
            assert r.returncode == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] == (
            b"kernel,route,x,tau,mu,nu,rho,value_re,rel_err_est,flags,"
            b"error")


def _bench_module(name):
    # bench/<name>.py, loaded by path: bench/ is not a package
    path = Path(__file__).resolve().parents[1] / "bench" / (name + ".py")
    spec = importlib.util.spec_from_file_location("bench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _point_entries():
    # bench/workloads.py's POINT_ENTRIES: per subcommand, the (module,
    # attribute) pairs that bench/child.py replaces to time each grid point
    return _bench_module("workloads").POINT_ENTRIES


HOOK_GRID = ["--grid", "tau=5:5:1", "--grid", "x=0.5:0.5:1"]


def _counting(fn, key, calls):
    def counted(*args, **kwargs):
        calls[key] = calls.get(key, 0) + 1
        return fn(*args, **kwargs)
    return counted


class TestBenchmarkPointHooks:
    # the CLI looks each per-point entry up as a module attribute at call
    # time, so a wrapper set on it sees every point
    COMMANDS = {
        "verify": [["verify", "--bound", "kl"] + HOOK_GRID],
        "sweep": [["sweep", "--kernel", "kl"] + HOOK_GRID],
        "expand": [["expand", "--kernel", kernel] + HOOK_GRID
                   for kernel in EXPANSIONS],
        "fit-constants": [["fit-constants", "--T", "1", "--nx", "2",
                           "--ntau", "2"]],
    }

    def test_every_subcommand_covered(self):
        assert sorted(_point_entries()) == sorted(self.COMMANDS)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_entry_called(self, command, capsys, monkeypatch):
        argvs = self.COMMANDS[command]
        ref = [run(argv, capsys)[:2] for argv in argvs]
        entries, calls = _point_entries()[command], {}
        for mod_name, attr in entries:
            module = importlib.import_module("indexkernels." + mod_name)
            monkeypatch.setattr(module, attr, _counting(
                getattr(module, attr), (mod_name, attr), calls))
        assert [run(argv, capsys)[:2] for argv in argvs] == ref
        assert sorted(calls) == sorted(entries)


class TestBenchmarkOracle:
    # the benchmark's correctness gate on a tiny pass of each workload, in
    # this process: every command exits 0 and bench/oracle.py finds no
    # wrong row.  A mehler-fock quadrature value at |P| counts as wrong
    # here, where bench/run.py forgives it as a known defect
    @pytest.mark.parametrize("name", _bench_module("workloads").NAMES)
    def test_tiny_pass_correct(self, name, capsys, monkeypatch):
        monkeypatch.delenv("INDEX_KERNELS_CFG", raising=False)
        workloads, oracle = _bench_module("workloads"), _bench_module("oracle")
        outputs = []
        for argv in workloads.commands(name, 0, tiny=True):
            code, out, _ = run(list(argv), capsys)
            assert code == 0, argv
            outputs.append({"argv": argv, "csv": out})
        checked, wrong, _ = oracle.check(
            outputs, config.Config().dps,
            random.Random("oracle:%s:0" % name), None)
        assert checked > 0 and wrong == 0, (name, checked, wrong)


class TestParserBuiltOnce:
    def test_memoized(self):
        assert build_parser() is build_parser()

    def test_reuse_writes_fresh_process_bytes(self, tmp_path, src_env):
        # --grid appends, so a list kept between parses would carry the
        # first run's axes into the second
        argvs = [["sweep", "--kernel", "kl", "--grid", "tau=1:2:1",
                  "--grid", "x=0.5:1:0.5"],
                 ["sweep", "--kernel", "kl", "--grid", "tau=3:3:1",
                  "--grid", "x=2:2:1"]]
        for i, argv in enumerate(argvs):
            here, fresh = tmp_path / ("main%d.csv" % i), tmp_path / (
                "child%d.csv" % i)
            assert main(argv + ["--out", str(here)]) == 0
            subprocess.run([sys.executable, "-m", "indexkernels.cli", *argv,
                            "--out", str(fresh)], env=src_env, check=True,
                           capture_output=True)
            assert here.read_bytes() == fresh.read_bytes()


class TestGlobalState:
    def test_main_restores_precision_and_config(self, capsys):
        argv = ["eval", "--kernel", "kl", "--x", "1", "--tau", "1"]
        _, ref, _ = run(argv, capsys)
        dps = mp.dps
        try:
            mp.dps = 25
            code, out, _ = run(argv, capsys)
            assert code == 0
            assert out == ref  # the command ran at the config's dps
            assert mp.dps == 25
            code, _, _ = run(["eval", "--kernel", "kl", "--x", "1"], capsys)
            assert code == 2
            assert mp.dps == 25
        finally:
            mp.dps = dps

    def test_import_sets_no_precision(self, src_env):
        code = ("from mpmath import mp; mp.dps = 25; import indexkernels; "
                "print(mp.dps)")
        out = subprocess.run([sys.executable, "-c", code], env=src_env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["25"]


class TestFitConstants:
    def test_small_fit(self, capsys):
        code, out, _ = run(["fit-constants", "--T", "1", "--nx", "6",
                            "--ntau", "6"], capsys)
        assert code == 0
        assert any(l.startswith("A,") for l in out.splitlines())

    def test_bad_range(self, capsys):
        code, _, _ = run(["fit-constants", "--T", "50"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--nx", "1"), ("--nx", "0"),
                                             ("--ntau", "1"),
                                             ("--ntau", "-2")])
    def test_grid_too_small(self, capsys, flag, value):
        code, out, err = run(["fit-constants", "--T", "1", flag, value],
                             capsys)
        assert code == 2
        assert out == ""
        assert "nx >= 2 and ntau >= 2" in err


class TestNumberFlags:
    # a non-finite number flag, or a tolerance that is not positive, is a
    # usage error at parse time, not a failure of the points it reaches
    GRID = ["--grid", "tau=1:1:1", "--grid", "x=0.5:0.5:1"]

    @pytest.mark.parametrize("argv", [
        ["verify", "--bound", "mehler-fock", "--mu", "nan"] + GRID,
        ["verify", "--bound", "olevskii", "--mu", "0.5", "--nu", "nan"]
        + GRID,
        ["verify", "--bound", "kummer", "--rho", "nan"] + GRID,
        ["expand", "--kernel", "whittaker", "--rho", "nan",
         "--grid", "tau=6:6:1", "--grid", "x=0.25:0.25:1"],
        ["fit-constants", "--X", "inf", "--nx", "2", "--ntau", "2"],
        ["crossover", "--kernel", "kl", "--tol", "nan"],
        ["crossover", "--kernel", "kl", "--tol", "-1"],
        ["crossover", "--kernel", "kl", "--tol", "0"],
    ])
    def test_rejected_as_usage_error(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "is not a finite number" in err or "is not positive" in err


class TestSubcommandFlags:
    @pytest.mark.parametrize("argv", [
        ["eval", "--kernel", "kl", "--x", "1", "--tau", "1",
         "--grid", "tau=1:1:1"],
        ["eval", "--kernel", "kl", "--x", "1", "--tau", "1", "--slack", "1"],
        ["crossover", "--kernel", "kl", "--out", "c.csv"],
        ["fit-constants", "--grid", "x=1:1:1"],
        ["sweep", "--kernel", "kl", "--tol", "1"],
        ["verify", "--bound", "kl", "--kernel", "kl"],
        ["expand", "--kernel", "kl", "--mu", "1"],
    ])
    def test_flag_of_another_subcommand_is_usage_error(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_unknown_config_key(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "index-kernels.cfg"
        cfg.write_text("dps = 30\nthm4_phase = squared\n")
        monkeypatch.setenv("INDEX_KERNELS_CFG", str(cfg))
        code, out, err = run(["eval", "--kernel", "kl", "--x", "1",
                              "--tau", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "unknown config key 'thm4_phase'" in err

    def test_known_config_key_applies(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "index-kernels.cfg"
        cfg.write_text("# comment\n\ndps = 20\n")
        monkeypatch.setenv("INDEX_KERNELS_CFG", str(cfg))
        code, out, _ = run(["eval", "--kernel", "kl", "--x", "1",
                            "--tau", "2"], capsys)
        assert code == 0
        assert "value_re = 0.080616997622365979" in out


    @pytest.mark.parametrize("dps, x, tau, ref", [
        (15, "0.5", "2", 0.016502018949481443),
        (16, "0.1", "5.123", 0.00017419752222634745)])
    def test_low_dps_config_sums_the_i_series(self, capsys, tmp_path,
                                              monkeypatch, dps, x, tau, ref):
        # the I-series stalled here: its tolerance, 1e-24, is below the
        # fixed-point sum's unit at dps 15 and 16 (ref: mpmath.besselk)
        cfg = tmp_path / "index-kernels.cfg"
        cfg.write_text("dps = %d\n" % dps)
        monkeypatch.setenv("INDEX_KERNELS_CFG", str(cfg))
        code, out, err = run(["eval", "--kernel", "kl", "--x", x,
                              "--tau", tau], capsys)
        assert (code, err) == (0, "")
        line = [l for l in out.splitlines() if l.startswith("value_re")][0]
        assert abs(float(line.split("=")[1]) - ref) <= 1e-14 * ref


class TestConfigValues:
    EVAL = ["eval", "--kernel", "kl", "--x", "1", "--tau", "2"]

    def test_missing_config_file(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "missing.cfg")
        monkeypatch.setenv("INDEX_KERNELS_CFG", path)
        code, out, err = run(self.EVAL, capsys)
        assert code == 2
        assert out == ""
        assert "cannot read INDEX_KERNELS_CFG file %s" % path in err

    def test_config_path_is_a_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("INDEX_KERNELS_CFG", str(tmp_path))
        code, out, err = run(self.EVAL, capsys)
        assert code == 2
        assert out == ""
        assert "cannot read INDEX_KERNELS_CFG file %s" % tmp_path in err

    @pytest.mark.parametrize("line, msg", [
        ("dps = 0", "dps must be >= 1"),
        ("dps = -3", "dps must be >= 1"),
        ("rel_tol = 1e-24", "unknown config key 'rel_tol'"),
        ("max_terms = 3", "unknown config key 'max_terms'"),
        ("precision_loss_threshold = 1e-6",
         "unknown config key 'precision_loss_threshold'"),
        ("bound_slack = -1", "bound_slack must"),
        ("remainder_slack = nan", "remainder_slack must")])
    def test_config_value_out_of_range(self, capsys, tmp_path, monkeypatch,
                                       line, msg):
        cfg = tmp_path / "index-kernels.cfg"
        cfg.write_text(line + "\n")
        monkeypatch.setenv("INDEX_KERNELS_CFG", str(cfg))
        code, out, err = run(self.EVAL, capsys)
        assert code == 2
        assert out == ""
        assert "usage error: " + msg in err

    @pytest.mark.parametrize("command", [
        ["verify", "--bound", "kl"], ["expand", "--kernel", "kl"]])
    @pytest.mark.parametrize("slack", ["inf", "nan", "-1"])
    def test_slack_out_of_range(self, capsys, command, slack):
        code, out, err = run(command + ["--grid", "tau=6:6:1",
                                        "--grid", "x=1:1:1",
                                        "--slack", slack], capsys)
        assert code == 2
        assert out == ""
        assert "bound_slack must be finite and >= 0" in err


class TestSlackSources:
    # --slack and the env file both reach the verdicts, which the CLI
    # computes from the library's lhs/rhs and remainder/bound
    GRID = ["--grid", "tau=6:6:1", "--grid", "x=1:1:1"]

    @staticmethod
    def use_cfg(line, tmp_path, monkeypatch):
        path = tmp_path / "index-kernels.cfg"
        path.write_text(line + "\n")
        monkeypatch.setenv("INDEX_KERNELS_CFG", str(path))

    @pytest.mark.parametrize("flags, cfg, code", [
        ([], None, 1), (["--slack", "1e-7"], None, 0),
        ([], "bound_slack = 1e-7", 0)], ids=["default", "flag", "file"])
    def test_verify(self, capsys, tmp_path, monkeypatch, flags, cfg, code):
        def over_by_1e8(bound_id, **point):
            rhs = mpf(1)
            lhs = rhs * (1 + mpf("1e-8"))
            return bounds.BoundReport(bound_id, point, lhs, rhs, rhs - lhs)

        monkeypatch.setattr(bounds, "evaluate_bound", over_by_1e8)
        if cfg:
            self.use_cfg(cfg, tmp_path, monkeypatch)
        got, out, _ = run(["verify", "--bound", "kl"] + self.GRID + flags,
                          capsys)
        assert got == code
        assert out.splitlines()[1].split(",")[12] == str(1 - code)

    @pytest.mark.parametrize("flags, cfg, code", [
        ([], None, 0), (["--slack", "1e-8"], None, 1),
        ([], "remainder_slack = 1e-8", 1)], ids=["default", "flag", "file"])
    def test_expand(self, capsys, tmp_path, monkeypatch, flags, cfg, code):
        def over_by_1e7(N, tau, x, tau0, X):
            bound = mpf(1)
            rem = -bound * (1 + mpf("1e-7"))
            return kernels.ExpansionReport(mpf(0), rem, bound, mpf(1))

        monkeypatch.setattr(kernels, "thm1_report", over_by_1e7)
        if cfg:
            self.use_cfg(cfg, tmp_path, monkeypatch)
        got, out, _ = run(["expand", "--kernel", "kl"] + self.GRID + flags,
                          capsys)
        assert got == code
        assert out.splitlines()[1].split(",")[7] == str(1 - code)
