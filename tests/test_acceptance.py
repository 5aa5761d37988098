"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion is a property of the package at desk scale: independent
route agreement, exact remainder identities, bound dominance on grids,
decay-order measurements, fit stability, and CLI determinism.
"""

import subprocess
import sys

import mpmath
from mpmath import mpf

from indexkernels import cli
from indexkernels.bessel import k_itau_quad, k_itau_series
from indexkernels.bounds import evaluate_bound, fit_lebedev_constants
from indexkernels.kernels import (olevskii_decay_slopes, thm1_main,
                                  thm1_remainder_explicit, thm1_report,
                                  thm2_main_and_bound, thm3_main_and_bound,
                                  thm4_main_and_bound, whittaker_direct)


def rel(a, b):
    return abs(a - b) / max(abs(b), mpf("1e-30"))


def report(num, label, ok):
    print("criterion %d [%s]: %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, label)


def frange(lo, hi, step):
    vals = []
    v = mpf(lo)
    while v <= mpf(hi) + mpf(step) / 2:
        vals.append(v)
        v += mpf(step)
    return vals


def test_criterion_1_kernel_route_agreement():
    worst = mpf(0)
    for tau in (mpf("0.5"), mpf(1), mpf(2), mpf(5), mpf(8)):
        for x in (mpf("0.1"), mpf("0.5"), mpf(1), mpf(2), mpf(5)):
            s = k_itau_series(tau, x).value
            q = k_itau_quad(tau, x).value
            worst = max(worst, rel(s, q))
    report(1, "series vs quadrature rel diff %s" % mpmath.nstr(worst, 3),
           worst < mpf("1e-10"))


def test_criterion_2_expansion_identity():
    worst = mpf(0)
    for N in (0, 1, 2):
        for tau in (mpf(5), mpf(8), mpf(12)):
            for x in (mpf("0.25"), mpf("0.5"), mpf(1), mpf(2)):
                scale, main = thm1_main(tau, x)
                r = thm1_remainder_explicit(N, tau, x)
                ref = k_itau_quad(tau, x).value
                worst = max(worst, rel(scale * (main + r), ref))
    report(2, "explicit-remainder identity rel err %s"
           % mpmath.nstr(worst, 3), worst < mpf("1e-7"))


def test_criterion_3_remainder_bound_dominance():
    slack = mpf("1e-6")
    taus = frange(5, 12, "0.5")
    ok = True
    for tau in taus:
        for x in (mpf("0.25"), mpf(1)):
            for rep in (thm1_report(2, tau, x, mpf(5), mpf(1)),
                        thm2_main_and_bound(tau, x, mpf(5), mpf(1)),
                        thm3_main_and_bound(tau, x, mpf(5), mpf(1))):
                ok = ok and abs(rep.empirical_remainder) <= \
                    (1 + slack) * rep.remainder_bound
        for x in (mpf("0.1"), mpf("0.5")):
            for rho in (mpf("-0.3"), mpf(0), mpf("0.3")):
                rep = thm4_main_and_bound(rho, tau, x, mpf(5), mpf("0.5"))
                ok = ok and abs(rep.empirical_remainder) <= \
                    (1 + slack) * rep.remainder_bound
    report(3, "remainder dominance on the expansion grids", ok)


def test_criterion_4_uniform_bound_sweeps():
    grids = ["--grid", "tau=0.5:10:0.5", "--grid", "x=0.1:2:0.1"]
    runs = []
    for n in ("1", "2", "3"):
        runs.append(["verify", "--bound", "kl", "--n", n] + grids)
    for mu in ("0.5", "1"):
        runs.append(["verify", "--bound", "mehler-fock", "--n", "1",
                     "--mu", mu] + grids)
    runs.append(["verify", "--bound", "product"] + grids)
    for mu in ("0.5", "1"):
        runs.append(["verify", "--bound", "whittaker", "--n", "1",
                     "--mu", mu] + grids)
    for mu, nu in (("0.5", "0.25"), ("0.75", "0")):
        runs.append(["verify", "--bound", "olevskii", "--mu", mu,
                     "--nu", nu] + grids)
    codes = [cli.main(argv) for argv in runs]
    report(4, "verify exit codes %s" % codes, all(c == 0 for c in codes))


def test_criterion_5_olevskii_decay_orders():
    s_main, s_rem = olevskii_decay_slopes(mpf("1.4"), mpf("0.2"), mpf(1))
    ok = abs(s_main + mpf("0.7")) < mpf("0.1") and \
        abs(s_rem + mpf("0.85")) < mpf("0.15")
    report(5, "slopes main %s remainder %s" % (mpmath.nstr(s_main, 4),
                                               mpmath.nstr(s_rem, 4)), ok)


def test_criterion_6_binet_bound():
    ok = True
    radii = frange("0.25", "47.75", "2.5") + [mpf(50)]
    for r in radii:
        for arg in (mpf(0), mpmath.pi / 4, mpmath.pi / 2):
            rep = evaluate_bound("binet", z=r * mpmath.exp(1j * arg))
            ok = ok and rep.lhs <= rep.rhs * (1 + mpf(1e-9))
    report(6, "stirling remainder envelope on three rays", ok)


def test_criterion_7_whittaker_route_equivalence():
    worst = mpf(0)
    for rho in (mpf("-0.3"), mpf(0), mpf("0.3")):
        for tau in (mpf(1), mpf(2), mpf(5)):
            for x in (mpf("0.1"), mpf("0.5"), mpf("0.9")):
                a = whittaker_direct(rho, tau, x, "f11")
                b = whittaker_direct(rho, tau, x, "series218")
                worst = max(worst, rel(a, b))
    report(7, "confluent route agreement rel diff %s"
           % mpmath.nstr(worst, 3), worst < mpf("1e-10"))


def test_criterion_8_fit_stability():
    # base fit, 2x refinement for stability, 3x-denser grid out-of-sample;
    # a denser grid approaches the true sup from below, so out-of-sample
    # maxima may exceed the fitted constants by at most the same 2%
    A1, _, B1, _ = fit_lebedev_constants(T=1, nx=30, ntau=30, x_cap=20)
    A2, _, B2, _ = fit_lebedev_constants(T=1, nx=60, ntau=60, x_cap=20)
    A3, _, B3, _ = fit_lebedev_constants(T=1, nx=90, ntau=90, x_cap=20)
    drift = max(abs(A2 - A1) / A1, abs(B2 - B1) / B1)
    oos = A3 <= A2 * mpf("1.02") and B3 <= B2 * mpf("1.02")
    report(8, "fit drift %s, out-of-sample %s" % (mpmath.nstr(drift, 3), oos),
           drift < mpf("0.02") and oos)


def test_criterion_9_sweep_determinism(tmp_path, src_env):
    outs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "indexkernels.cli", "sweep",
             "--kernel", "kl", "--grid", "tau=1:5:1",
             "--grid", "x=0.25:1:0.25", "--out", str(path)],
            capture_output=True, env=src_env)
        assert r.returncode == 0
        outs.append(path.read_bytes())
    report(9, "byte-identical sweep output", outs[0] == outs[1])
