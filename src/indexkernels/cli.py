"""Command-line harness.

Subcommands:

* eval          -- one kernel value by one route
* verify        -- a uniform-bound predicate over a grid, CSV report
* expand        -- asymptotic main term / remainder / bound over a grid
* crossover     -- smallest tau where the asymptotic route meets a tolerance
* sweep         -- raw kernel values over a grid
* fit-constants -- grid-max fit of the K envelope constants

Exit codes: 0 all pass, 1 mathematical violation, 2 usage error,
3 numerical failure (3 wins over 1: a failed point voids the verdict).
All commands are deterministic functions of their flags.
"""

import argparse
import csv
import dataclasses
import functools
import sys
import time
from fractions import Fraction

from mpmath import exp, isfinite, mpf, nstr, pi, workdps

from . import bounds, config, kernels
from .errors import (DomainError, NonconvergenceError, NumericalFailureError,
                     OverflowGuardError, PrecisionLossError)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (NonconvergenceError, NumericalFailureError,
                    OverflowGuardError, PrecisionLossError)

EXPANSIONS = ("kl", "lebedev-square", "lebedev-product", "whittaker")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, str)):
        return str(v)
    return nstr(mpf(v), 17)


def parse_grid(spec):
    """Parse axis=start:stop:step, read as exact fractions, into (axis,
    [values]), each the working-precision number nearest start + i step."""
    try:
        axis, _, rng = spec.partition("=")
        start, stop, step = (Fraction(t) for t in rng.split(":"))
    except (ValueError, ZeroDivisionError):
        raise DomainError("bad grid spec %r (want axis=start:stop:step)"
                          % (spec,))
    if not axis or step <= 0 or start > stop:
        raise DomainError("bad grid spec %r" % (spec,))
    vals = (start + i * step for i in range((stop - start) // step + 1))
    return axis, [mpf(v.numerator) / v.denominator for v in vals]


def _finite(text):
    """argparse type of the number flags: text that mpf reads as a finite
    number, kept as text so that each command converts it at the
    configured precision."""
    try:
        if isfinite(mpf(text)):
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("%r is not a finite number" % text)


def _positive(text):
    if mpf(_finite(text)) > 0:
        return text
    raise argparse.ArgumentTypeError("%r is not positive" % text)


def _grids(args, *defaults):
    # {axis: values} from the default specs, each --grid overriding its axis
    return dict(parse_grid(spec) for spec in defaults + tuple(args.grid or ()))


def _write_csv(path, header, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(c) for c in row])
    finally:
        if path:
            out.close()


def cmd_eval(args, cfg):
    point = kernels.KernelPoint(kernel=args.kernel, x=args.x, tau=args.tau,
                                mu=args.mu, nu=args.nu, rho=args.rho)
    res = kernels.eval(point, args.route)
    print("value_re =", nstr(mpf(res.value), 17))
    print("route =", res.route)
    print("rel_error_estimate =", nstr(mpf(res.rel_error_estimate), 3))
    print("cancellation =", res.cancellation_flag)
    return EXIT_OK


def _run_grid(out, header, points, evaluate, summary):
    # a CSV row per (key cells, point) of points: the key cells, then the
    # cells of evaluate(point) -> (cells, holds) and no error, or, on a
    # numerical failure, blanks and the message.  Writes the CSV and
    # summary.format(points, violations, failures) to stderr; returns the
    # exit code
    rows, n_viol, n_fail = [], 0, 0
    for key, pt in points:
        try:
            cells, holds = evaluate(pt)
            n_viol += not holds
            cells = cells + [""]
        except NUMERICAL_ERRORS as exc:
            n_fail += 1
            cells = [None] * (len(header) - len(key) - 1) + [str(exc)]
        rows.append(key + cells)
    _write_csv(out, header, rows)
    print(summary.format(len(rows), n_viol, n_fail), file=sys.stderr)
    if n_fail:
        return EXIT_NUMERICAL
    return EXIT_VIOLATION if n_viol else EXIT_OK


def cmd_verify(args, cfg):
    bid = args.bound
    header = ["bound", "n", "mu", "nu", "rho", "tau", "x", "z_abs", "z_arg",
              "lhs", "rhs", "margin", "holds", "error"]
    if bid == "binet":
        axes = _grids(args, "r=0.25:50:2.5")
        points = [dict(z_abs=r, z_arg=a) for r in axes["r"]
                  for a in (mpf(0), pi / 4, pi / 2)]
    else:
        # the kummer bound holds on 0 < x < 1 only
        axes = _grids(args, "tau=0.5:10:0.5",
                      "x=0.1:0.9:0.1" if bid == "kummer" else "x=0.1:2:0.1")
        kw = {}
        for name in bounds.BOUND_PARAMS[bid][:-2]:  # tau and x are axes
            value = getattr(args, name)
            if value is None:
                raise DomainError("bound %r requires --%s" % (bid, name))
            kw[name] = value if name == "n" else mpf(value)
        points = [dict(tau=tau, x=x, **kw) for tau in axes["tau"]
                  for x in axes["x"]]
    slack = mpf(cfg.bound_slack)
    worst = []

    def evaluate(pt):
        kw = (dict(z=pt["z_abs"] * exp(1j * pt["z_arg"])) if bid == "binet"
              else pt)
        rep = bounds.evaluate_bound(bid, **kw)
        if not worst or rep.margin < worst[0]:
            worst[:] = rep.margin, pt
        holds = rep.lhs <= rep.rhs * (1 + slack)
        return [rep.lhs, rep.rhs, rep.margin, holds], holds

    keys = [[bid] + [pt.get(c) for c in header[1:9]] for pt in points]
    code = _run_grid(args.out, header, zip(keys, points), evaluate,
                     "bound=%s points={0} violations={1} failures={2}" % bid)
    if worst:
        print("worst margin = %s at %s" % (nstr(mpf(worst[0]), 6), worst[1]),
              file=sys.stderr)
    return code


def _expansion_report(kernel, tau, x, args):
    tau0, X = mpf(args.tau0), mpf(args.X)
    if kernel == "kl":
        return kernels.thm1_report(args.N, tau, x, tau0, X)
    if kernel == "lebedev-square":
        return kernels.thm2_main_and_bound(tau, x, tau0, X)
    if kernel == "lebedev-product":
        return kernels.thm3_main_and_bound(tau, x, tau0, X)
    return kernels.thm4_main_and_bound(mpf(args.rho), tau, x, tau0,
                                       mpf(args.x0))


def cmd_expand(args, cfg):
    axes = _grids(args, "tau=5:12:0.5", "x=0.25:1:0.75")
    header = ["kernel", "tau", "x", "scale", "main", "remainder", "bound",
              "holds", "error"]
    slack = mpf(cfg.remainder_slack)

    def evaluate(pt):
        rep = _expansion_report(args.kernel, *pt, args)
        rem, bound = rep.empirical_remainder, rep.remainder_bound
        holds = abs(rem) <= bound * (1 + slack)
        return [rep.scale_factor, rep.main_term, rem, bound, holds], holds

    points = [([args.kernel, tau, x], (tau, x)) for tau in axes["tau"]
              for x in axes["x"]]
    return _run_grid(args.out, header, points, evaluate, "kernel=%s points="
                     "{0} violations={1} failures={2}" % args.kernel)


def cmd_crossover(args, cfg):
    point_kw = dict(mu=args.mu, nu=args.nu, rho=args.rho)
    x, tol = mpf(args.x), mpf(args.tol)
    taus = _grids(args, "tau=2:20:0.5")["tau"]

    def rel_diff(tau):
        p = kernels.KernelPoint(kernel=args.kernel, x=x, tau=tau, **point_kw)
        direct = kernels.eval(p, "series").value
        asym = kernels.eval(p, "asymptotic").value
        if direct == 0:
            return mpf("inf")
        return abs(asym - direct) / abs(direct)

    diffs = []
    for tau in taus:
        try:
            diffs.append(rel_diff(tau))
        except NUMERICAL_ERRORS as exc:
            print("numerical failure at tau=%s: %s" % (tau, exc),
                  file=sys.stderr)
            return EXIT_NUMERICAL
    star_idx = None
    for i in range(len(taus)):
        if all(d < tol for d in diffs[i:]):
            star_idx = i
            break
    if star_idx is None:
        print("no crossover: min tail rel diff %s vs tol %s"
              % (nstr(min(diffs), 3), nstr(tol, 3)), file=sys.stderr)
        return EXIT_VIOLATION
    tau_star = taus[star_idx]
    if star_idx > 0:
        lo, hi = taus[star_idx - 1], taus[star_idx]
        for _ in range(20):
            mid = (lo + hi) / 2
            if rel_diff(mid) < tol:
                hi = mid
            else:
                lo = mid
        tau_star = hi
    p = kernels.KernelPoint(kernel=args.kernel, x=x, tau=tau_star, **point_kw)
    t0 = time.perf_counter()
    kernels.eval(p, "series")
    t_direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    kernels.eval(p, "asymptotic")
    t_asym = time.perf_counter() - t0
    print("tau_star =", nstr(tau_star, 8))
    # wall times vary from run to run, so they stay off stdout
    print("direct_time_s = %.6f" % t_direct, file=sys.stderr)
    print("asymptotic_time_s = %.6f" % t_asym, file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args, cfg):
    route = args.route
    axes = _grids(args, "tau=0.5:5:0.5", "x=0.5:2:0.5")
    header = ["kernel", "route", "x", "tau", "mu", "nu", "rho",
              "value_re", "rel_err_est", "flags", "error"]

    def evaluate(pt):
        tau, x = pt
        p = kernels.KernelPoint(kernel=args.kernel, x=x, tau=tau,
                                mu=args.mu, nu=args.nu, rho=args.rho)
        r = kernels.eval(p, route)
        return [r.value, r.rel_error_estimate,
                "cancellation" if r.cancellation_flag else ""], True

    points = [([args.kernel, route, x, tau, args.mu, args.nu, args.rho],
               (tau, x)) for tau in axes["tau"] for x in axes["x"]]
    return _run_grid(args.out, header, points, evaluate,
                     "points={0} failures={2}")


def cmd_fit_constants(args, cfg):
    T, x_cap, nx, ntau = mpf(args.T), mpf(args.X), args.nx, args.ntau
    x_floor, taus = bounds.FIT_X_FLOOR, (bounds.FIT_TAU_LO, bounds.FIT_TAU_HI)
    if not (x_floor < T < x_cap):
        raise DomainError("need x floor < T < x cap (empty grid otherwise)")
    A, argA, B, argB = bounds.fit_lebedev_constants(T=T, nx=nx, ntau=ntau,
                                                    x_cap=x_cap)
    header = ["constant", "value", "arg_tau", "arg_x", "x_lo", "x_hi",
              "tau_lo", "tau_hi", "nx", "ntau"]
    rows = [["A", A, argA[0], argA[1], x_floor, T, *taus, nx, ntau],
            ["B", B, argB[0], argB[1], T, x_cap, *taus, nx, ntau]]
    _write_csv(args.out, header, rows)
    print("A = %s at (tau, x) = (%s, %s)" %
          (nstr(A, 10), nstr(argA[0], 6), nstr(argA[1], 6)), file=sys.stderr)
    print("B = %s at (tau, x) = (%s, %s)" %
          (nstr(B, 10), nstr(argB[0], 6), nstr(argB[1], 6)), file=sys.stderr)
    return EXIT_OK


@functools.cache  # argparse queries the terminal size per argument
def build_parser():
    p = argparse.ArgumentParser(
        prog="index-kernels",
        description="Evaluate index-transform kernels and verify their "
                    "uniform bounds and asymptotic expansions.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func):
        sp = sub.add_parser(name)
        sp.set_defaults(func=func)
        return sp

    def add(sp, *flags, **kw):
        for flag in flags:
            sp.add_argument(flag, **kw)

    kernel = dict(default="kl", choices=kernels.KERNEL_IDS)
    grid = dict(action="append", metavar="AXIS=START:STOP:STEP")

    sp = command("eval", cmd_eval)
    add(sp, "--kernel", **kernel)
    add(sp, "--route", default="series")
    add(sp, "--x", "--tau", required=True, type=_finite)
    add(sp, "--mu", "--nu", "--rho", type=_finite)

    sp = command("verify", cmd_verify)
    add(sp, "--bound", required=True, choices=bounds.BOUND_IDS)
    add(sp, "--n", type=int, default=1)
    add(sp, "--mu", "--nu", type=_finite)
    add(sp, "--rho", default="0", type=_finite)
    add(sp, "--grid", **grid)
    add(sp, "--out")
    add(sp, "--slack", type=float)

    sp = command("expand", cmd_expand)
    add(sp, "--kernel", default="kl", choices=EXPANSIONS)
    add(sp, "--N", type=int, default=2)
    add(sp, "--tau0", default="5", type=_finite)
    add(sp, "--X", default="2", type=_finite)
    add(sp, "--rho", default="0", type=_finite)
    add(sp, "--x0", default="0.5", type=_finite)
    add(sp, "--grid", **grid)
    add(sp, "--out")
    add(sp, "--slack", type=float)

    sp = command("crossover", cmd_crossover)
    add(sp, "--kernel", **kernel)
    add(sp, "--mu", "--nu", "--rho", type=_finite)
    add(sp, "--x", default="1", type=_finite)
    add(sp, "--tol", default="1e-2", type=_positive)
    add(sp, "--grid", **grid)

    sp = command("sweep", cmd_sweep)
    add(sp, "--kernel", **kernel)
    add(sp, "--route", default="series")
    add(sp, "--mu", "--nu", "--rho", type=_finite)
    add(sp, "--grid", **grid)
    add(sp, "--out")

    sp = command("fit-constants", cmd_fit_constants)
    add(sp, "--T", default="1", type=_finite)
    add(sp, "--nx", "--ntau", type=int, default=50)
    add(sp, "--X", default="20", type=_finite)
    add(sp, "--out")
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = config.get()
        if getattr(args, "slack", None) is not None:
            cfg = dataclasses.replace(cfg, bound_slack=args.slack,
                                      remainder_slack=args.slack)
        with workdps(cfg.dps):  # restores the caller's precision
            return args.func(args, cfg)
    except (DomainError, ValueError) as exc:
        print("usage error: %s" % (exc,), file=sys.stderr)
        return EXIT_USAGE
    except NUMERICAL_ERRORS as exc:
        print("numerical failure: %s" % (exc,), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
