"""Closed-form right-hand sides of the uniform kernel inequalities, the
matching predicate evaluators, and the grid fit of the two Lebedev-type
envelope constants for K_{i tau}."""

from dataclasses import dataclass

from mpmath import mpc, mpf, workdps
from mpmath import exp, log, pi, sinh, sqrt, tan

from . import config
from .bessel import k_index
from .errors import DomainError
from .kernels import (conical_p, olevskii_direct, product_kernel_direct,
                      whittaker_direct)
from .special import binet_r, hyp1f1, ln_gamma

BOUND_IDS = ("kl", "mehler-fock", "product", "whittaker", "olevskii",
             "kummer", "binet")


@dataclass
class BoundReport:
    bound_id: str
    point: dict
    lhs: object
    rhs: object
    margin: object
    holds: bool


def _abs_gamma(z):
    return exp(ln_gamma(z).real)


def _log_sinh(a):
    # log sinh(a) = a + log((1 - e^{-2a})/2), no overflow at large a
    return a + log((1 - exp(-2 * a)) / 2)


def bound_kl_rhs(n, tau, x):
    """Envelope for |Re K_{i tau}(x)|: Gamma(2^{-n-1}) / 2^{1-2^{-n}}
    times [sqrt(x) sinh(2^n pi tau / 2)]^{-2^{-n}}, sinh in log space."""
    if n < 1 or n != int(n):
        raise DomainError("n must be a positive integer")
    tau = mpf(tau)
    x = mpf(x)
    if tau <= 0 or x <= 0:
        raise DomainError("bound_kl_rhs requires tau > 0, x > 0")
    p = mpf(2) ** (-n - 1)
    return _abs_gamma(p) / mpf(2) ** (1 - 2 * p) * exp(
        -2 * p * (log(x) / 2 + _log_sinh(mpf(2) ** n * pi * tau / 2)))


def bound_mehler_fock_rhs(n, mu, tau, x):
    """Envelope for the conical function |P^{-mu}_{-1/2+i tau}| at
    argument sqrt(1 + 4 x^2)."""
    if n < 1 or n != int(n):
        raise DomainError("n must be a positive integer")
    mu = mpf(mu)
    tau = mpf(tau)
    x = mpf(x)
    p = mpf(2) ** (-n - 1)
    if mu <= p - mpf(1) / 2:
        raise DomainError("need mu > 2^{-n-1} - 1/2")
    if tau <= 0 or x <= 0:
        raise DomainError("bound_mehler_fock_rhs requires tau > 0, x > 0")
    ratio = sqrt(_abs_gamma(mpf(1) / 2 + mu - p)
                 / (_abs_gamma(mpf(1) / 2 + p)
                    * _abs_gamma(mpf(1) / 2 + mu + p)))
    return (mpf(2) ** p / pi ** mpf("0.25") * _abs_gamma(p) * ratio
            * exp(-p * _log_sinh(mpf(2) ** n * pi * tau))
            * x ** (p - mpf(1) / 2)
            / _abs_gamma(mu + mpf(1) / 2 + 1j * tau))


def bound_product_rhs(x):
    """Envelope for |[I_{i tau} + I_{-i tau}] K_{i tau}|:
    Gamma(1/4)^2 / (pi sqrt(x))."""
    x = mpf(x)
    if x <= 0:
        raise DomainError("bound_product_rhs requires x > 0")
    return _abs_gamma(mpf(1) / 4) ** 2 / (pi * sqrt(x))


def bound_whittaker_rhs(n, mu, tau, x):
    """Envelope for |W_{-mu, i tau}(2x)| with real mu > 0."""
    if n < 1 or n != int(n):
        raise DomainError("n must be a positive integer")
    mu = mpf(mu)
    tau = mpf(tau)
    x = mpf(x)
    if mu <= 0:
        raise DomainError("need mu > 0")
    if tau <= 0 or x <= 0:
        raise DomainError("bound_whittaker_rhs requires tau > 0, x > 0")
    p = mpf(2) ** (-n)
    # Gamma(Re mu)/|Gamma(mu)| = 1 for real mu; kept explicit
    pref = _abs_gamma(p / 2) * _abs_gamma(mu) / (
        sqrt(pi) * _abs_gamma(mu) * mpf(2) ** ((1 - 2 * p) / 2))
    return (pref * exp(-p * _log_sinh(mpf(2) ** (n - 1) * pi * tau))
            * x ** ((1 - p) / 2 - mu))


def bound_olevskii_rhs(mu, nu, tau, x):
    """Envelope for the conjugate-parameter 2F1 at -x^2, valid for
    0 < mu < 1, nu > -mu/2."""
    mu = mpf(mu)
    nu = mpf(nu)
    tau = mpf(tau)
    x = mpf(x)
    if not (0 < mu < 1):
        raise DomainError("need 0 < mu < 1")
    if nu <= -mu / 2:
        raise DomainError("need nu > -mu/2")
    if tau <= 0 or x <= 0:
        raise DomainError("bound_olevskii_rhs requires tau > 0, x > 0")
    root = sqrt(tan(pi * mu / 2) * _abs_gamma(mu / 2 + nu)
                / _abs_gamma(1 - mu / 2 + nu))
    return (mpf(2) ** (mpf(1) / 2 - mu) * _abs_gamma(mu / 2)
            * _abs_gamma(nu + 1) / _abs_gamma((1 + mu) / 2) * root
            * _abs_gamma(mu / 2 + 2j * tau)
            / _abs_gamma((mu + nu) / 2 + 1j * tau) ** 2
            * x ** (-nu - mu / 2))


def bound_kummer_rhs(rho, tau, x):
    """Envelope for |1F1(1/2 + rho + i tau; 1 + 2 i tau; -x)| on
    0 < x < 1."""
    rho = mpf(rho)
    tau = mpf(tau)
    x = mpf(x)
    if not (0 < x < 1) or tau <= 0:
        raise DomainError("need 0 < x < 1 and tau > 0")
    return exp(-x / 2) * (
        1 + 1 / (2 * tau) * ((1 - x) ** (-2 * (1 + abs(rho))) - exp(x)))


def bound_binet_rhs(z):
    """Envelope for the Stirling correction |r(z)|: e^{1/(6|z|)} - 1.
    (The weaker e^{1/(6|z|)}/(6|z|) form also printed alongside is implied
    by this one.)"""
    az = abs(mpc(z))
    if az == 0:
        raise DomainError("z must be nonzero")
    return exp(1 / (6 * az)) - 1


def evaluate_bound(bound_id, n=None, mu=None, nu=None, rho=None,
                   tau=None, x=None, z=None):
    """Evaluate one inequality instance: compute the LHS by the cheapest
    trusted route, the RHS by its closed form, and report the margin."""
    point = {k: v for k, v in dict(n=n, mu=mu, nu=nu, rho=rho, tau=tau,
                                   x=x, z=z).items() if v is not None}
    if bound_id == "kl":
        lhs = abs(k_index(mpf(tau), mpf(x)))
        rhs = bound_kl_rhs(n, tau, x)
    elif bound_id == "mehler-fock":
        z_arg = sqrt(1 + 4 * mpf(x) ** 2)
        lhs = abs(conical_p(mu, tau, z_arg))
        rhs = bound_mehler_fock_rhs(n, mu, tau, x)
    elif bound_id == "product":
        lhs = abs(product_kernel_direct(mpf(tau), mpf(x)))
        rhs = bound_product_rhs(x)
    elif bound_id == "whittaker":
        # LHS is W_{-mu, i tau}(2x), i.e. rho = -mu at argument 2x
        lhs = abs(whittaker_direct(-mpf(mu), mpf(tau), 2 * mpf(x), "f11"))
        rhs = bound_whittaker_rhs(n, mu, tau, x)
    elif bound_id == "olevskii":
        lhs = abs(olevskii_direct(mu, nu, tau, x))
        rhs = bound_olevskii_rhs(mu, nu, tau, x)
    elif bound_id == "kummer":
        lhs = abs(hyp1f1(mpf(1) / 2 + mpf(rho) + 1j * mpf(tau),
                         1 + 2j * mpf(tau), -mpf(x)))
        rhs = bound_kummer_rhs(rho, tau, x)
    elif bound_id == "binet":
        lhs = abs(binet_r(z))
        rhs = bound_binet_rhs(z)
    else:
        raise DomainError("unknown bound id %r" % (bound_id,))
    margin = rhs - lhs
    holds = lhs <= rhs * (1 + mpf(config.get().bound_slack))
    return BoundReport(bound_id, point, lhs, rhs, margin, bool(holds))


def _geom_grid(lo, hi, count):
    lo = mpf(lo)
    hi = mpf(hi)
    step = (log(hi) - log(lo)) / (count - 1)
    # exact endpoints: grids that meet at a point evaluate the same x,
    # which the exactly keyed K caches then share
    inner = [exp(log(lo) + k * step) for k in range(1, count - 1)]
    return [lo] + inner + [hi]


def _lin_grid(lo, hi, count):
    lo = mpf(lo)
    hi = mpf(hi)
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def fit_lebedev_constants(T=1, nx=50, ntau=50, x_floor=mpf("1e-3"),
                          x_cap=20, tau_lo=mpf("0.25"), tau_hi=12,
                          fit_dps=25):
    """Grid maxima of the two K_{i tau} envelope functionals:

    A = max |K_{i tau}(x)| (tau x)^{1/4} sqrt(sinh(pi tau)) on (0, T],
    B = max |K_{i tau}(x)| (tau / x)^{1/4} sqrt(sinh(pi tau)) on [T, cap].

    x is sampled geometrically (the oscillation is uniform in log x),
    tau linearly.  Returns (A, argmax_A, B, argmax_B).
    """
    T = mpf(T)
    if T <= 0:
        raise DomainError("T must be positive")
    if nx < 2 or ntau < 2:
        raise DomainError("the fit grid needs nx >= 2 and ntau >= 2")
    with workdps(fit_dps):
        taus = _lin_grid(tau_lo, tau_hi, ntau)
        A = mpf(0)
        argA = None
        for x in _geom_grid(x_floor, T, nx):
            for tau in taus:
                v = abs(k_index(tau, x)) * (tau * x) ** mpf("0.25") * sqrt(
                    sinh(pi * tau))
                if v > A:
                    A, argA = v, (tau, x)
        B = mpf(0)
        argB = None
        for x in _geom_grid(T, x_cap, nx):
            for tau in taus:
                v = abs(k_index(tau, x)) * (tau / x) ** mpf("0.25") * sqrt(
                    sinh(pi * tau))
                if v > B:
                    B, argB = v, (tau, x)
    return A, argA, B, argB