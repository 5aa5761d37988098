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
import sys
import time

from mpmath import exp, mpc, mpf, nstr, pi, workdps

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
    """Parse axis=start:stop:step into (axis, [values])."""
    try:
        axis, _, rng = spec.partition("=")
        start, stop, step = (mpf(t) for t in rng.split(":"))
    except (ValueError, TypeError):
        raise DomainError("bad grid spec %r (want axis=start:stop:step)"
                          % (spec,))
    if not axis or step <= 0 or start > stop:
        raise DomainError("bad grid spec %r" % (spec,))
    vals = []
    v = start
    while v <= stop + step * mpf("1e-12"):
        vals.append(v)
        v += step
    return axis, vals


def _grids(args, defaults):
    axes = dict(defaults)
    for spec in args.grid or []:
        axis, vals = parse_grid(spec)
        axes[axis] = vals
    return axes


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


def _point_from_args(args):
    return kernels.KernelPoint(kernel=args.kernel, x=args.x, tau=args.tau,
                               mu=args.mu, nu=args.nu, rho=args.rho)


def cmd_eval(args):
    route = args.route or "series"
    point = _point_from_args(args)
    res = kernels.eval(point, route)
    val = mpc(res.value)
    print("value_re =", nstr(val.real, 17))
    if val.imag != 0:
        print("value_im =", nstr(val.imag, 17))
    print("route =", res.route)
    print("rel_error_estimate =", nstr(mpf(res.rel_error_estimate), 3))
    print("cancellation =", res.cancellation_flag)
    return EXIT_OK


def cmd_verify(args):
    bid = args.bound
    if bid not in bounds.BOUND_IDS:
        raise DomainError("unknown bound %r (choose from %s)"
                          % (bid, ", ".join(bounds.BOUND_IDS)))
    rows = []
    header = ["bound", "n", "mu", "nu", "rho", "tau", "x", "z_abs", "z_arg",
              "lhs", "rhs", "margin", "holds", "error"]
    n_viol = 0
    n_fail = 0
    worst = None

    def record(rep, err="", **pt):
        nonlocal n_viol, worst
        if rep is not None and not rep.holds:
            n_viol += 1
        if rep is not None and (worst is None or rep.margin < worst[0]):
            worst = (rep.margin, pt)
        rows.append([bid, pt.get("n"), pt.get("mu"), pt.get("nu"),
                     pt.get("rho"), pt.get("tau"), pt.get("x"),
                     pt.get("z_abs"), pt.get("z_arg"),
                     rep.lhs if rep else None, rep.rhs if rep else None,
                     rep.margin if rep else None,
                     rep.holds if rep else None, err])

    if bid == "binet":
        axes = _grids(args, {"r": parse_grid("r=0.25:50:2.5")[1]})
        for r in axes["r"]:
            for arg_frac in (mpf(0), pi / 4, pi / 2):
                z = r * exp(1j * arg_frac)
                try:
                    rep = bounds.evaluate_bound("binet", z=z)
                    record(rep, z_abs=r, z_arg=arg_frac)
                except NUMERICAL_ERRORS as exc:
                    n_fail += 1
                    record(None, err=str(exc), z_abs=r, z_arg=arg_frac)
    else:
        axes = _grids(args, {"tau": parse_grid("tau=0.5:10:0.5")[1],
                             "x": parse_grid("x=0.1:2:0.1")[1]})
        kw = {}
        if bid in ("kl", "mehler-fock", "whittaker"):
            kw["n"] = args.n if args.n is not None else 1
        if bid in ("mehler-fock", "whittaker"):
            if args.mu is None:
                raise DomainError("bound %r requires --mu" % (bid,))
            kw["mu"] = mpf(args.mu)
        if bid == "olevskii":
            if args.mu is None or args.nu is None:
                raise DomainError("bound olevskii requires --mu and --nu")
            kw["mu"] = mpf(args.mu)
            kw["nu"] = mpf(args.nu)
            if not (0 < kw["mu"] < 1):
                raise DomainError("bound olevskii requires 0 < mu < 1")
        if bid == "kummer":
            kw["rho"] = mpf(args.rho) if args.rho is not None else mpf(0)
        for tau in axes["tau"]:
            for x in axes["x"]:
                try:
                    rep = bounds.evaluate_bound(bid, tau=tau, x=x, **kw)
                    record(rep, tau=tau, x=x, **kw)
                except NUMERICAL_ERRORS as exc:
                    n_fail += 1
                    record(None, err=str(exc), tau=tau, x=x, **kw)

    _write_csv(args.out, header, rows)
    total = len(rows)
    print("bound=%s points=%d violations=%d failures=%d" %
          (bid, total, n_viol, n_fail), file=sys.stderr)
    if worst is not None:
        print("worst margin = %s at %s" % (nstr(mpf(worst[0]), 6), worst[1]),
              file=sys.stderr)
    if n_fail:
        return EXIT_NUMERICAL
    return EXIT_VIOLATION if n_viol else EXIT_OK


def _expansion_report(kernel, tau, x, args):
    tau0 = mpf(args.tau0) if args.tau0 is not None else mpf(5)
    if kernel == "kl":
        N = args.N if args.N is not None else 2
        X = mpf(args.X) if args.X is not None else mpf(2)
        return kernels.thm1_report(N, tau, x, tau0, X)
    if kernel == "lebedev-square":
        X = mpf(args.X) if args.X is not None else mpf(2)
        return kernels.thm2_main_and_bound(tau, x, tau0, X)
    if kernel == "lebedev-product":
        X = mpf(args.X) if args.X is not None else mpf(2)
        return kernels.thm3_main_and_bound(tau, x, tau0, X)
    if kernel == "whittaker":
        rho = mpf(args.rho) if args.rho is not None else mpf(0)
        x0 = mpf(args.x0) if args.x0 is not None else mpf("0.5")
        return kernels.thm4_main_and_bound(rho, tau, x, tau0, x0)
    raise DomainError("no asymptotic expansion for kernel %r" % (kernel,))


def cmd_expand(args):
    if args.kernel not in EXPANSIONS:
        raise DomainError("expand supports kernels: %s"
                          % ", ".join(EXPANSIONS))
    axes = _grids(args, {"tau": parse_grid("tau=5:12:0.5")[1],
                         "x": parse_grid("x=0.25:1:0.75")[1]})
    header = ["kernel", "tau", "x", "scale", "main", "remainder", "bound",
              "holds", "error"]
    rows = []
    n_viol = 0
    n_fail = 0
    for tau in axes["tau"]:
        for x in axes["x"]:
            try:
                rep = _expansion_report(args.kernel, tau, x, args)
                if not rep.bound_holds:
                    n_viol += 1
                rows.append([args.kernel, tau, x, rep.scale_factor,
                             rep.main_term, rep.empirical_remainder,
                             rep.remainder_bound, rep.bound_holds, ""])
            except NUMERICAL_ERRORS as exc:
                n_fail += 1
                rows.append([args.kernel, tau, x, None, None, None, None,
                             None, str(exc)])
    _write_csv(args.out, header, rows)
    print("kernel=%s points=%d violations=%d failures=%d" %
          (args.kernel, len(rows), n_viol, n_fail), file=sys.stderr)
    if n_fail:
        return EXIT_NUMERICAL
    return EXIT_VIOLATION if n_viol else EXIT_OK


def cmd_crossover(args):
    point_kw = dict(mu=args.mu, nu=args.nu, rho=args.rho)
    x = mpf(args.x) if args.x is not None else mpf(1)
    tol = mpf(args.tol) if args.tol is not None else mpf("1e-2")
    axes = _grids(args, {"tau": parse_grid("tau=2:20:0.5")[1]})
    taus = axes["tau"]

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


def cmd_sweep(args):
    route = args.route or "series"
    axes = _grids(args, {"tau": parse_grid("tau=0.5:5:0.5")[1],
                         "x": parse_grid("x=0.5:2:0.5")[1]})
    header = ["kernel", "route", "x", "tau", "mu", "nu", "rho",
              "value_re", "value_im", "rel_err_est", "flags", "error"]
    rows = []
    n_fail = 0
    for tau in axes["tau"]:
        for x in axes["x"]:
            try:
                p = kernels.KernelPoint(kernel=args.kernel, x=x, tau=tau,
                                        mu=args.mu, nu=args.nu, rho=args.rho)
                r = kernels.eval(p, route)
                v = mpc(r.value)
                rows.append([args.kernel, route, x, tau, args.mu, args.nu,
                             args.rho, v.real, v.imag, r.rel_error_estimate,
                             "cancellation" if r.cancellation_flag else "",
                             ""])
            except NUMERICAL_ERRORS as exc:
                n_fail += 1
                rows.append([args.kernel, route, x, tau, args.mu, args.nu,
                             args.rho, None, None, None, "", str(exc)])
    _write_csv(args.out, header, rows)
    print("points=%d failures=%d" % (len(rows), n_fail), file=sys.stderr)
    return EXIT_NUMERICAL if n_fail else EXIT_OK


def cmd_fit_constants(args):
    T = mpf(args.T) if args.T is not None else mpf(1)
    nx = args.nx or 50
    ntau = args.ntau or 50
    x_cap = mpf(args.X) if args.X is not None else mpf(20)
    if not (mpf("1e-3") < T < x_cap):
        raise DomainError("need 1e-3 < T < x cap (empty grid otherwise)")
    A, argA, B, argB = bounds.fit_lebedev_constants(T=T, nx=nx, ntau=ntau,
                                                    x_cap=x_cap)
    header = ["constant", "value", "arg_tau", "arg_x", "x_lo", "x_hi",
              "tau_lo", "tau_hi", "nx", "ntau"]
    rows = [["A", A, argA[0], argA[1], mpf("1e-3"), T, mpf("0.25"),
             mpf(12), nx, ntau],
            ["B", B, argB[0], argB[1], T, x_cap, mpf("0.25"), mpf(12),
             nx, ntau]]
    _write_csv(args.out, header, rows)
    print("A = %s at (tau, x) = (%s, %s)" %
          (nstr(A, 10), nstr(argA[0], 6), nstr(argA[1], 6)), file=sys.stderr)
    print("B = %s at (tau, x) = (%s, %s)" %
          (nstr(B, 10), nstr(argB[0], 6), nstr(argB[1], 6)), file=sys.stderr)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="index-kernels",
        description="Evaluate index-transform kernels and verify their "
                    "uniform bounds and asymptotic expansions.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--kernel", default="kl")
        sp.add_argument("--route")
        sp.add_argument("--x")
        sp.add_argument("--tau")
        sp.add_argument("--mu")
        sp.add_argument("--nu")
        sp.add_argument("--rho")
        sp.add_argument("--n", type=int)
        sp.add_argument("--N", type=int)
        sp.add_argument("--tau0")
        sp.add_argument("--x0")
        sp.add_argument("--X")
        sp.add_argument("--T")
        sp.add_argument("--nx", type=int)
        sp.add_argument("--ntau", type=int)
        sp.add_argument("--grid", action="append")
        sp.add_argument("--tol")
        sp.add_argument("--out")
        sp.add_argument("--slack")
        sp.add_argument("--bound")
        return sp

    common(sub.add_parser("eval")).set_defaults(func=cmd_eval)
    common(sub.add_parser("verify")).set_defaults(func=cmd_verify)
    common(sub.add_parser("expand")).set_defaults(func=cmd_expand)
    common(sub.add_parser("crossover")).set_defaults(func=cmd_crossover)
    common(sub.add_parser("sweep")).set_defaults(func=cmd_sweep)
    common(sub.add_parser("fit-constants")).set_defaults(
        func=cmd_fit_constants)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    cfg = config.load_from_env()
    if args.slack is not None:
        cfg.bound_slack = float(args.slack)
        cfg.remainder_slack = float(args.slack)
    prev = config.get()  # restored, with mp.dps, on the way out
    config.set_active(cfg)
    try:
        if args.command == "eval" and (args.x is None or args.tau is None):
            raise DomainError("eval requires --x and --tau")
        if args.command == "verify" and not args.bound:
            raise DomainError("verify requires --bound")
        with workdps(cfg.dps):
            return args.func(args)
    except (DomainError, ValueError) as exc:
        print("usage error: %s" % (exc,), file=sys.stderr)
        return EXIT_USAGE
    except NUMERICAL_ERRORS as exc:
        print("numerical failure: %s" % (exc,), file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        config.set_active(prev)


if __name__ == "__main__":
    sys.exit(main())
