"""Independent mpmath references for the CSV rows a pass writes.

The references use only mpmath's own special functions, at the package's
working precision plus 20 digits, and run after timing.  A value is wrong
when it is off its reference by more than TOL relative; TOL is the
package's default `precision_loss_threshold`, the error above which its
routes promise to raise instead of returning.

Known defect, counted as wrong but not as incorrect output: the
mehler-fock quadrature route returns |P|, so it has the wrong sign
wherever P < 0.  Such a row must still match |P|.
"""

import csv
import io

from mpmath import mpf, workdps
from mpmath import besseli, besselk, hyp2f1, legenp, log, exp, sinh, sqrt
from mpmath import pi, whitw

TOL = mpf("1e-6")
EXTRA_DPS = 20


def _k(tau, x):
    return besselk(1j * tau, x).real


def _kernel(kernel, tau, x, mu=None, nu=None, rho=None):
    """Reference value of one kernel at one point."""
    if kernel == "kl":
        return _k(tau, x)
    if kernel == "lebedev-square":
        return _k(tau, x) ** 2
    if kernel == "lebedev-product":
        return 2 * besseli(1j * tau, x).real * _k(tau, x)
    if kernel == "whittaker":
        return whitw(rho, 1j * tau, x).real
    if kernel == "mehler-fock":
        return legenp(-0.5 + 1j * tau, -mu, sqrt(1 + 4 * x ** 2),
                      type=3).real
    if kernel == "olevskii":
        a = (mu + nu) / 2 + 1j * tau
        return hyp2f1(a, a.conjugate(), nu + 1, -x ** 2).real
    raise ValueError("no reference for kernel %r" % (kernel,))


_BOUND_KERNEL = {"kl": "kl", "mehler-fock": "mehler-fock",
                 "product": "lebedev-product", "whittaker": "whittaker",
                 "olevskii": "olevskii"}


def _close(value, ref, scale=None):
    return abs(value - ref) <= TOL * (abs(ref) if scale is None else scale)


def _f(row, key):
    return mpf(row[key]) if row.get(key) else None


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_verify(row, argv):
    tau, x = _f(row, "tau"), _f(row, "x")
    mu = _f(row, "mu")
    bound = row["bound"]
    if bound == "whittaker":   # lhs is |W_{-mu, i tau}(2x)|
        ref = _kernel("whittaker", tau, 2 * x, rho=-mu)
    else:
        ref = _kernel(_BOUND_KERNEL[bound], tau, x, mu=mu, nu=_f(row, "nu"))
    return _close(_f(row, "lhs"), abs(ref)), False


def check_expand(row, argv):
    kernel = row["kernel"]
    tau, x = _f(row, "tau"), _f(row, "x")
    rho = mpf(_flag(argv, "--rho", "0"))
    scale, main, rem = _f(row, "scale"), _f(row, "main"), _f(row, "remainder")
    ref = _kernel(kernel, tau, x, rho=rho) / scale - main
    return _close(rem, ref, abs(main) + abs(ref)), False


def check_sweep(row, argv):
    kernel = row["kernel"]
    value = _f(row, "value_re")
    ref = _kernel(kernel, _f(row, "tau"), _f(row, "x"), mu=_f(row, "mu"),
                  nu=_f(row, "nu"), rho=_f(row, "rho"))
    ok = _close(value, ref)
    known = (not ok and kernel == "mehler-fock"
             and row["route"] == "quadrature" and _close(value, -ref))
    return ok, known


def _envelope(constant, tau, x):
    w = (tau * x) if constant == "A" else (tau / x)
    return abs(_k(tau, x)) * w ** mpf("0.25") * sqrt(sinh(pi * tau))


def _fit_grid(row):
    nx, ntau = int(row["nx"]), int(row["ntau"])
    lo, hi = log(mpf(row["x_lo"])), log(mpf(row["x_hi"]))
    xs = [exp(lo + k * (hi - lo) / (nx - 1)) for k in range(nx)]
    t0, t1 = mpf(row["tau_lo"]), mpf(row["tau_hi"])
    taus = [t0 + k * (t1 - t0) / (ntau - 1) for k in range(ntau)]
    return [(t, x) for x in xs for t in taus]


def check_fit(rows, rng, samples):
    """The fitted maxima match the envelope at their argmax, and no
    sampled grid point exceeds them.  Returns (checked, wrong)."""
    checked = wrong = 0
    for row in rows:
        value = _f(row, "value")
        c = row["constant"]
        checked += 1
        wrong += not _close(value, _envelope(c, _f(row, "arg_tau"),
                                             _f(row, "arg_x")))
        for tau, x in rng.sample(_fit_grid(row), samples):
            checked += 1
            wrong += _envelope(c, tau, x) > value * (1 + TOL)
    return checked, wrong


_ROW_CHECKS = {"verify": check_verify, "expand": check_expand,
               "sweep": check_sweep}


def check(outputs, dps, rng, per_command):
    """Check a seed-chosen sample of each command's CSV rows.

    `per_command` rows are drawn from each command (all rows when None).
    Returns (checked, wrong, known_defect)."""
    checked = wrong = known = 0
    with workdps(dps + EXTRA_DPS):
        for out in outputs:
            argv = out["argv"]
            rows = list(csv.DictReader(io.StringIO(out["csv"])))
            if argv[0] == "fit-constants":
                c, w = check_fit(rows, rng, per_command or 5)
                checked += c
                wrong += w
                continue
            rows = [r for r in rows if not r["error"]]
            if per_command is not None and len(rows) > per_command:
                rows = rng.sample(rows, per_command)
            for row in rows:
                ok, is_known = _ROW_CHECKS[argv[0]](row, argv)
                checked += 1
                wrong += not ok
                known += is_known
    return checked, wrong, known

