"""Direct kernel routes and large-index asymptotic main terms.

Covers six kernels: the imaginary-order K itself, its square, the
[I_{i tau} + I_{-i tau}] K_{i tau} product, the index Whittaker function
W_{rho, i tau}, the conical (Mehler-Fock) function, and the
conjugate-parameter Gauss 2F1.  For each asymptotic expansion the module
produces the scale factor, the oscillatory main term, the empirically
measured remainder and the closed-form remainder bound.

Phases of the form tau log(2 tau / (e x)) are reduced modulo 2 pi in
working precision before any trig call; prefactors with Gamma(a + 2 i tau)
over Gamma(1 + 2 i tau) and 1/sin(pi(b - i tau)) are assembled in log
space so the exp(pi tau) factors cancel before exponentiation.
"""

import math
from dataclasses import dataclass
from typing import Optional

from mpmath import isfinite, mp, mpf, mpc, workdps
from mpmath import (atan, cos, e, exp, factorial, log, pi, sin, sinh, sqrt,
                    tanh)

from . import bessel, special
from .bessel import bessel_i, k_index, k_itau_quad, k_itau_series
from .errors import DomainError, NonconvergenceError, NumericalFailureError
from .quadrature import (mehler_fock_quad, olevskii_quad, product_kernel_quad,
                         whittaker_quad)
from .special import (_eps, hyp1f1, hyp1f2, hyp2f1, hyp2f1_term2, ln_gamma,
                      pochhammer)

KERNEL_IDS = ("kl", "lebedev-square", "lebedev-product", "whittaker",
              "mehler-fock", "olevskii")


@dataclass
class KernelPoint:
    kernel: str
    x: object
    tau: object
    mu: Optional[object] = None
    nu: Optional[object] = None
    rho: Optional[object] = None

    def __post_init__(self):
        if self.kernel not in KERNEL_IDS:
            raise DomainError("unknown kernel %r" % (self.kernel,))
        self.x = mpf(self.x)
        self.tau = mpf(self.tau)
        for name in ("mu", "nu", "rho"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, mpf(v))
        if not all(isfinite(v) for v in (self.x, self.tau, self.mu, self.nu,
                                         self.rho) if v is not None):
            raise DomainError("kernel point values must be finite")
        if self.x <= 0 or self.tau <= 0:
            raise DomainError("kernel point requires x > 0, tau > 0")
        need = {"olevskii": ("mu", "nu"), "whittaker": ("rho",),
                "mehler-fock": ("mu",)}.get(self.kernel, ())
        for name in need:
            if getattr(self, name) is None:
                raise DomainError("%s kernel requires --%s" %
                                  (self.kernel, name))
        if self.kernel == "whittaker" and abs(self.rho) >= mpf(1) / 2:
            raise DomainError("whittaker kernel requires |rho| < 1/2")


@dataclass
class EvalResult:
    value: object
    route: str
    rel_error_estimate: object
    cancellation_flag: bool


@dataclass
class ExpansionReport:
    main_term: object
    empirical_remainder: object
    remainder_bound: object
    scale_factor: object


def _reduce_phase(theta):
    return theta - 2 * pi * mp.floor(theta / (2 * pi) + mpf(1) / 2)


def _lebedev_phase(tau, x):
    # 2 tau log(2 tau / (e x)), reduced: the phase of the K^2 and product
    # expansions
    return _reduce_phase(2 * tau * log(2 * tau / (e * x)))


# ---------------------------------------------------------------- K_{i tau}

def _thm1_phase(tau, x):
    return tau * log(2 * tau / (e * x)) - pi / 4


def thm1_main(tau, x):
    """Scale sqrt(2 pi / tau) e^{-pi tau / 2} and leading oscillation
    cos(tau log(2 tau / (e x)) - pi/4); the scale is log-assembled so it
    survives tau up to a few hundred."""
    tau = mpf(tau)
    x = mpf(x)
    if tau <= 0 or x <= 0:
        raise DomainError("thm1_main requires tau > 0, x > 0")
    scale = exp(mpf(1) / 2 * (log(2 * pi) - log(tau)) - pi * tau / 2)
    theta = _reduce_phase(_thm1_phase(tau, x))
    return scale, cos(theta)


def thm1_remainder_explicit(N, tau, x, with_tail=True):
    """Closed-form remainder of the K_{i tau} expansion at truncation
    order N: the Stirling correction r(i tau), the finite Pochhammer sum
    in (x/2)^2, and a 1F2 tail, all under one rotated real part.
    r(i tau) comes from the memoized ln_gamma (special.binet_r, its
    quadrature, stays the independent check in the tests).
    with_tail=False drops the 1F2 closure term, leaving the truncated
    asymptotic series (the cheap route used for crossover searches)."""
    if N < 0 or N != int(N):
        raise DomainError("N must be a nonnegative integer")
    N = int(N)
    tau = mpf(tau)
    x = mpf(x)
    z = mpc(0, tau)
    r = exp(ln_gamma(z) - ((z - mpf(1) / 2) * log(z) - z
                          + log(2 * pi) / 2)) - 1
    s = mpc(0)
    for m in range(1, N + 1):
        s += (x / 2) ** (2 * m) / (factorial(m) * pochhammer(1 - 1j * tau, m))
    if with_tail:
        tail = ((x / 2) ** (2 * (N + 1))
                / (factorial(N + 1) * pochhammer(1 - 1j * tau, N + 1))
                * hyp1f2(1, N - 1j * tau + 2, N + 2, x ** 2 / 4))
        s += tail
    theta = _reduce_phase(_thm1_phase(tau, x))
    return (exp(1j * theta) * (r + (1 + r) * s)).real


def thm1_remainder_bound(N, tau, tau0, X):
    """Uniform bound on the order-N remainder, valid for tau >= tau0 and
    x <= X; proportional to 1/tau with a tau-free bracket."""
    if N < 0 or N != int(N):
        raise DomainError("N must be a nonnegative integer")
    N = int(N)
    tau = mpf(tau)
    tau0 = mpf(tau0)
    X = mpf(X)
    if not (tau >= tau0 > 0) or X <= 0:
        raise DomainError("need tau >= tau0 > 0 and X > 0")
    a = exp(1 / (6 * tau0)) / 6
    iN = bessel_i(N, X).real
    bracket = exp(X ** 2 / (4 * tau0)) + (X ** 2 / (2 * tau0)) ** N * (
        iN / X ** N - 1 / (mpf(2) ** N * factorial(N)))
    return (a + (tau0 + a) * bracket) / tau


def thm1_report(N, tau, x, tau0, X):
    scale, main = thm1_main(tau, x)
    rem = thm1_remainder_explicit(N, tau, x)
    bound = thm1_remainder_bound(N, tau, tau0, X)
    return ExpansionReport(main, rem, bound, scale)


# ------------------------------------------------------------- K^2_{i tau}

def k_squared_direct(tau, x):
    """K_{i tau}(x)^2 by the pair of 1F2 series (no Bessel evaluation)."""
    tau = mpf(tau)
    x = mpf(x)
    if tau <= 0 or x <= 0:
        raise DomainError("k_squared_direct requires tau > 0, x > 0")
    t1 = pi / (2 * tau * sinh(pi * tau)) * hyp1f2(
        mpf(1) / 2, 1 + 1j * tau, 1 - 1j * tau, x ** 2).real
    g2 = exp(2 * ln_gamma(1j * tau))
    t2 = mpf(1) / 2 * ((x / 2) ** (-2j * tau) * g2 * hyp1f2(
        mpf(1) / 2 - 1j * tau, 1 - 1j * tau, 1 - 2j * tau, x ** 2)).real
    return t1 + t2


def _k_oracle(tau, x):
    # K oracle for remainder measurements: k_index's route, bumped precision
    with workdps(mp.dps + 15):
        return k_index(tau, x)


def thm2_main_and_bound(tau, x, tau0, X):
    """Expansion of K^2_{i tau}(x): scale pi/(2 tau sinh(pi tau)), main
    1 + sin(2 tau log(2 tau/(e x))), remainder measured against the K
    oracle and compared with the closed-form bound."""
    tau = mpf(tau)
    x = mpf(x)
    tau0 = mpf(tau0)
    X = mpf(X)
    if not (0 < x <= X and tau >= tau0 > 0):
        raise DomainError("need 0 < x <= X and tau >= tau0 > 0")
    scale = pi / (2 * tau * sinh(pi * tau))
    main = 1 + sin(_lebedev_phase(tau, x))
    K = _k_oracle(tau, x)
    rem = K ** 2 / scale - main
    i1 = bessel_i(1, 2 * X).real
    cth = 1 / tanh(pi * tau0)
    bound = (4 * X * sqrt(cth) / sqrt(pi * tau) * i1
             + (1 / tau) * (8 * X * sqrt(cth) / sqrt(pi * tau0) * i1
                            + exp(1 / (6 * tau0)) + 2 * X ** 2
                            + exp(1 / (3 * tau0)) / (12 * tau0)))
    return ExpansionReport(main, rem, bound, scale)


# --------------------------------------------- [I_{i tau}+I_{-i tau}] K

def product_kernel_direct(tau, x):
    """[I_{i tau}(x) + I_{-i tau}(x)] K_{i tau}(x) as the real part of a
    single 1F2 expression (gamma ratio in log space)."""
    tau = mpf(tau)
    x = mpf(x)
    if tau <= 0 or x <= 0:
        raise DomainError("product_kernel_direct requires tau > 0, x > 0")
    lg = ln_gamma(-1j * tau) - ln_gamma(1 + 1j * tau)
    f = hyp1f2(mpf(1) / 2 + 1j * tau, 1 + 1j * tau, 1 + 2j * tau, x ** 2)
    return ((x / 2) ** (2j * tau) * exp(lg) * f).real


def _product_oracle(tau, x):
    # 2 Re I and K from one I-series, with guard bits where k_itau_series
    # takes them
    with workdps(mp.dps + 15):
        res, m, n = bessel._k_point(mpf(x), tau, bessel._PLAIN_DIGITS)
        return 2 * (m * n) * bessel._checked(res, "k_itau_series", tau).value


def thm3_main_and_bound(tau, x, tau0, X):
    """Expansion of the product kernel: scale 1/tau, main
    cos(2 tau log(2 tau/(e x))) (same phase as the K^2 expansion shifted
    by pi/2), remainder measured against the Bessel-product oracle."""
    tau = mpf(tau)
    x = mpf(x)
    tau0 = mpf(tau0)
    X = mpf(X)
    if not (0 < x <= X and tau >= tau0 > 0):
        raise DomainError("need 0 < x <= X and tau >= tau0 > 0")
    scale = 1 / tau
    main = cos(_lebedev_phase(tau, x))
    rem = _product_oracle(tau, x) / scale - main
    i1 = bessel_i(1, 2 * X).real
    bound = (1 / sqrt(tau)) * (
        X * sqrt(pi) / sqrt(tanh(pi * tau0)) * i1
        + (1 - exp(-2 * pi * tau0)) / (6 * sqrt(tau)) * exp(1 / (3 * tau0))
        * (1 + X ** 2 / tau0 * (1 + 1 / tau0))
        + X ** 2 / sqrt(tau) * (1 + 1 / tau0)
        + sqrt(tau) * exp(-2 * pi * tau))
    return ExpansionReport(main, rem, bound, scale)


# ------------------------------------------------------- W_{rho, i tau}

def whittaker_direct(rho, tau, x, route):
    """W_{rho, i tau}(x) by either of two equivalent assemblies:

    * route "f11": 2 Re[Gamma(-2 i tau) x^{i tau + 1/2}
      / Gamma(1/2 - rho - i tau) * 1F1(1/2 + rho + i tau; 1 + 2 i tau; -x)]
      times e^{x/2},
    * route "series218": the 1F1 replaced by its terminating-2F1
      rearrangement e^{-x/2}[1 + sum (x/2)^k / k! * c_k(rho, tau)]
      (requires |rho| < 1/2 and x < 1); NonconvergenceError, with the
      partial 1F1 and its last term, if special.MAX_TERMS terms run out.
    """
    rho = mpf(rho)
    tau = mpf(tau)
    x = mpf(x)
    if tau <= 0 or x <= 0:
        raise DomainError("whittaker_direct requires tau > 0, x > 0")
    if route == "f11":
        f = hyp1f1(mpf(1) / 2 + rho + 1j * tau, 1 + 2j * tau, -x)
    elif route == "series218":
        if abs(rho) >= mpf(1) / 2 or x >= 1:
            raise DomainError("series218 route needs |rho| < 1/2 and x < 1")
        eps, max_terms = _eps(), special.MAX_TERMS
        s = mpc(1)
        streak = 0
        for k in range(1, max_terms + 1):
            t = (x / 2) ** k / factorial(k) * hyp2f1_term2(k, rho, tau)
            s += t
            # alternate terms vanish identically at rho = 0, so one small
            # term is not evidence of convergence; require two in a row
            if abs(t) < eps * abs(s) and k > 4:
                streak += 1
                if streak >= 2:
                    break
            else:
                streak = 0
        else:
            raise NonconvergenceError(
                "series218 did not converge in %d terms" % max_terms,
                partial=exp(-x / 2) * s, tail_estimate=exp(-x / 2) * abs(t))
        f = exp(-x / 2) * s
    else:
        raise DomainError("unknown whittaker route %r" % (route,))
    lg = ln_gamma(-2j * tau) - ln_gamma(mpf(1) / 2 - rho - 1j * tau)
    v = 2 * (exp(lg) * x ** (1j * tau + mpf(1) / 2) * f).real
    return exp(x / 2) * v


def thm4_scale(rho, tau):
    rho = mpf(rho)
    tau = mpf(tau)
    return (exp(-pi * tau / 2) * tau ** (rho - mpf(1) / 2)
            * exp(tau * atan((1 + 2 * rho) / (2 * tau)) - mpf(1) / 2 - rho
                  + rho / 2 * log(1 + (1 + 2 * rho) ** 2 / (4 * tau ** 2))))


def thm4_phase(rho, tau, x):
    """Oscillation phase of the W_{rho, i tau} expansion.  The source
    formula is ambiguous about the small correction under the interior
    square root ((1+2 rho) vs (1+2 rho)^2 over 4 tau^2); this takes the
    printed reading, the first power."""
    rho = mpf(rho)
    tau = mpf(tau)
    x = mpf(x)
    return (tau * log(e * x / (4 * tau)
                      * sqrt(1 + (1 + 2 * rho) / (4 * tau ** 2)))
            - rho * atan((1 + 2 * rho) / (2 * tau))
            - pi / 2 * (rho - mpf(1) / 2))


def thm4_main(rho, tau, x):
    """Scale sqrt(2 x) thm4_scale(rho, tau) and leading oscillation
    cos(thm4_phase(rho, tau, x))."""
    scale = sqrt(2 * x) * thm4_scale(rho, tau)
    return scale, cos(_reduce_phase(thm4_phase(rho, tau, x)))


def thm4_main_and_bound(rho, tau, x, tau0, x0):
    """Expansion of W_{rho, i tau}(x) on 0 < x <= x0 < 1, |rho| < 1/2;
    remainder measured against the confluent-hypergeometric route."""
    rho = mpf(rho)
    tau = mpf(tau)
    x = mpf(x)
    tau0 = mpf(tau0)
    x0 = mpf(x0)
    if abs(rho) >= mpf(1) / 2:
        raise DomainError("need |rho| < 1/2")
    if not (0 < x <= x0 < 1 and tau >= tau0 > 0):
        raise DomainError("need 0 < x <= x0 < 1 and tau >= tau0 > 0")
    scale, main = thm4_main(rho, tau, x)
    with workdps(mp.dps + 15):
        W = whittaker_direct(rho, tau, x, "f11")
    rem = W / scale - main
    a = exp(1 / tau0)
    blow = (1 - x0) ** (-2 * (1 + abs(rho))) - exp(x0)
    bound = (1 / tau) * (a * (2 + a) + (1 + a / tau) ** 2
                         * (blow + exp(-2 * pi * tau) * (tau + blow)))
    return ExpansionReport(main, rem, bound, scale)


# ------------------------------------------------- conical / Mehler-Fock

def conical_p(mu, tau, z):
    """P^{-mu}_{-1/2 + i tau}(z) for z > 1 via the Gauss series at
    (1 - z)/2; real for real mu, tau."""
    mu = mpf(mu)
    tau = mpf(tau)
    z = mpf(z)
    if z <= 1:
        raise DomainError("conical_p requires z > 1")
    f = hyp2f1(mpf(1) / 2 - 1j * tau, mpf(1) / 2 + 1j * tau, 1 + mu,
               (1 - z) / 2)
    pref = ((z - 1) / (z + 1)) ** (mu / 2) * exp(-ln_gamma(1 + mu))
    return (pref * f).real


# ---------------------------------------------------------- Olevskii 2F1

def olevskii_direct(mu, nu, tau, x):
    """2F1((mu+nu)/2 + i tau, (mu+nu)/2 - i tau; nu + 1; -x^2).  The
    conjugate parameter pair makes the value real; the imaginary residual
    is checked below 1e-15 relative."""
    mu = mpf(mu)
    nu = mpf(nu)
    tau = mpf(tau)
    x = mpf(x)
    if mu + nu <= 0 or nu <= -1:
        raise DomainError("olevskii_direct requires mu + nu > 0, nu > -1")
    if x <= 0:
        raise DomainError("olevskii_direct requires x > 0")
    a = (mu + nu) / 2 + 1j * tau
    v = hyp2f1(a, a.conjugate(), nu + 1, -x ** 2)
    if abs(v.imag) > mpf("1e-15") * abs(v):
        raise NumericalFailureError(
            "olevskii value lost realness (mu=%s nu=%s tau=%s x=%s)"
            % (mu, nu, tau, x))
    return v.real


def _ln_sin(w):
    # log sin(w) for Im w << 0: the e^{i w} exponential dominates
    return 1j * w - log(2j) + log(1 - exp(-2j * w))


def olevskii_main(mu, nu, tau, x):
    """Leading term of the large-tau expansion of the conjugate-parameter
    2F1: gamma/sine prefactor assembled in log space (the e^{pi tau}
    growth of Gamma(mu - 1/2 + 2 i tau)/sin(...) cancels symbolically),
    times the x-dependent bracket, times cos(2 tau log(x + sqrt(x^2+1)))."""
    mu = mpf(mu)
    nu = mpf(nu)
    tau = mpf(tau)
    x = mpf(x)
    if not (mpf(5) / 4 < mu < mpf(3) / 2):
        raise DomainError("olevskii_main requires 5/4 < mu < 3/2")
    if abs(nu) >= mpf(1) / 2:
        raise DomainError("olevskii_main requires |nu| < 1/2")
    if tau <= 0 or x <= 0:
        raise DomainError("olevskii_main requires tau > 0, x > 0")
    lg = (ln_gamma(mu - mpf(1) / 2 + 2j * tau)
          - 2 * ln_gamma((mu + nu) / 2 + 1j * tau).real
          - ln_gamma(1 + 2j * tau)
          - _ln_sin(pi * ((mu - mpf(1) / 2) / 2 - 1j * tau)))
    pref = (2 ** (2 - mu - mpf(1) / 2) * sqrt(pi) * x ** (-nu - mpf(1) / 2)
            * (x ** 2 + 1) ** ((mpf(1) / 2 - mu) / 2)
            * exp(ln_gamma(nu + 1).real + lg))
    br = (cos(pi / 2 * (nu + mpf(1) / 2))
          + (1 - nu ** 2) / (8 * x) * sin(pi / 2 * (nu + mpf(1) / 2)))
    osc = cos(_reduce_phase(2 * tau * log(x + sqrt(x ** 2 + 1))))
    return (pref * br * osc).real


def olevskii_decay_slopes(mu, nu, x):
    """Empirical log-log decay rates of the main term and of the measured
    remainder over tau in [10, 40].

    The main-term magnitude is sampled at the oscillation peaks
    tau_k = k pi / (2 L), L = log(x + sqrt(x^2+1)), so the cosine factor
    does not contaminate the envelope; the remainder slope uses a dense
    grid reduced to windowed maxima for the same reason."""
    mu = mpf(mu)
    nu = mpf(nu)
    x = mpf(x)
    L = log(x + sqrt(x ** 2 + 1))
    tau_lo, tau_hi = 10, 40

    def lsq_slope(pairs):
        lx = [math.log(float(a)) for a, _ in pairs]
        ly = [math.log(float(b)) for _, b in pairs]
        n = len(lx)
        mx = sum(lx) / n
        my = sum(ly) / n
        return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
                / sum((a - mx) ** 2 for a in lx))

    k_lo = int(float(tau_lo * 2 * L / pi)) + 1
    k_hi = int(float(tau_hi * 2 * L / pi))
    peaks = []
    for k in range(k_lo, k_hi + 1):
        t = mpf(k) * pi / (2 * L)
        peaks.append((t, abs(olevskii_main(mu, nu, t, x))))
    main_slope = lsq_slope(peaks)

    taus = []
    t = mpf(tau_lo)
    while t <= tau_hi:
        taus.append(t)
        t += mpf(1) / 2
    rows = [(t, abs(olevskii_direct(mu, nu, t, x)
                    - olevskii_main(mu, nu, t, x))) for t in taus]
    w = 8
    env = []
    for i in range(0, len(rows) - w + 1, w):
        blk = rows[i:i + w]
        env.append((blk[w // 2][0], max(b for _, b in blk)))
    rem_slope = lsq_slope(env)
    return main_slope, rem_slope


# -------------------------------------------------------------- dispatch

def _from_quad(r, route):
    rel = r.abs_error_estimate / abs(r.value) if r.value else mpf(1)
    return EvalResult(r.value, route, rel, False)


def eval(point, route):
    """Evaluate a kernel point by the named route, with an error estimate
    and a cancellation flag attached."""
    p = point
    k = p.kernel
    if k == "kl":
        if route == "series":
            r = k_itau_series(p.tau, p.x)
            return EvalResult(r.value, route, r.rel_error, r.cancellation)
        if route == "quadrature":
            r = k_itau_quad(p.tau, p.x)
            return EvalResult(r.value, route, r.rel_error, r.cancellation)
        if route == "asymptotic":
            scale, main = thm1_main(p.tau, p.x)
            rem = thm1_remainder_explicit(2, p.tau, p.x, with_tail=False)
            return EvalResult(scale * (main + rem), route, 1 / p.tau ** 3,
                              False)
    elif k == "lebedev-square":
        if route == "series":
            v = k_squared_direct(p.tau, p.x)
            return EvalResult(v, route, mpf("1e-25") * exp(2 * pi * p.tau),
                              p.tau > 8)
        if route == "quadrature":
            r = k_itau_quad(p.tau, p.x)
            return EvalResult(r.value ** 2, route, 2 * r.rel_error,
                              r.cancellation)
        if route == "asymptotic":
            scale = pi / (2 * p.tau * sinh(pi * p.tau))
            v = scale * (1 + sin(_lebedev_phase(p.tau, p.x)))
            return EvalResult(v, route, 1 / p.tau, False)
    elif k == "lebedev-product":
        if route == "series":
            v = product_kernel_direct(p.tau, p.x)
            return EvalResult(v, route, mpf("1e-25") * exp(pi * p.tau),
                              p.tau > 16)
        if route == "quadrature":
            return _from_quad(product_kernel_quad(p.tau, p.x), route)
        if route == "asymptotic":
            v = cos(_lebedev_phase(p.tau, p.x)) / p.tau
            return EvalResult(v, route, 1 / sqrt(p.tau), False)
    elif k == "whittaker":
        if route in ("f11", "series", "series218"):
            rt = "f11" if route == "series" else route
            v = whittaker_direct(p.rho, p.tau, p.x, rt)
            return EvalResult(v, route, mpf("1e-25") * exp(pi * p.tau),
                              p.tau > 16)
        if route == "quadrature":
            return _from_quad(whittaker_quad(-p.rho, p.tau, p.x / 2), route)
        if route == "asymptotic":
            scale, main = thm4_main(p.rho, p.tau, p.x)
            v = scale * main
            return EvalResult(v, route, 1 / p.tau, False)
    elif k == "mehler-fock":
        if route in ("series", "conical"):
            z = sqrt(1 + 4 * p.x ** 2)
            v = conical_p(p.mu, p.tau, z)
            return EvalResult(v, route, mpf("1e-25") * exp(pi * p.tau),
                              p.tau > 16)
        if route == "quadrature":
            return _from_quad(mehler_fock_quad(p.mu, p.tau, p.x), route)
    elif k == "olevskii":
        if route == "series":
            v = olevskii_direct(p.mu, p.nu, p.tau, p.x)
            return EvalResult(v, route, mpf("1e-25") * exp(2 * p.tau),
                              p.tau > 16)
        if route == "quadrature":
            return _from_quad(olevskii_quad(p.mu, p.nu, p.tau, p.x), route)
        if route == "asymptotic":
            v = olevskii_main(p.mu, p.nu, p.tau, p.x)
            return EvalResult(v, route, p.tau ** (mpf(3) / 4 - p.mu - p.nu),
                              False)
    raise DomainError("route %r not supported for kernel %r" % (route, k))