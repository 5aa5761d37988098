"""Bessel-family evaluators.

Two independent routes to the Kontorovich-Lebedev kernel K_{i*tau}(x):

* k_itau_quad  -- the cosine integral int_0^inf exp(-x cosh t) cos(tau t) dt
  (oracle route; standard representation, external to the kernel algebra),
* k_itau_series -- -pi Im I_{i tau}(x) / sinh(pi tau), from one ascending
  I-series: for real x, I_{-i tau}(x) is the conjugate of I_{i tau}(x).

Plus real-order K_nu by exponential-cosh quadrature and J_nu by ascending
series / large-argument expansion.
"""

from dataclasses import dataclass

from mpmath import mp, mpf, mpc
from mpmath import acosh, cos, cosh, exp, log, pi, quad, sin, sinh, sqrt

from . import config
from .errors import (DomainError, NonconvergenceError, OverflowGuardError,
                     PrecisionLossError)
from .special import SeriesControl, default_ctl, ln_gamma


@dataclass
class KernelValue:
    """A real kernel value with its relative-error estimate."""
    value: object            # mpf
    rel_error: object        # mpf, >= 0
    cancellation: bool = False


def _eps():
    return mpf(10) ** (-mp.dps)


def bessel_i(nu, x, ctl=None):
    """Modified Bessel I_nu(x) for complex order, ascending series.

    The (x/2)^nu prefactor takes the principal branch; 1/Gamma poles make
    leading terms vanish exactly (the evaluator is total in nu).
    """
    ctl = ctl or default_ctl()
    nu = mpc(nu)
    x = mpf(x)
    if x < 0:
        raise DomainError("bessel_i requires x >= 0")
    if nu.imag == 0 and nu.real == int(nu.real) and nu.real < 0:
        nu = -nu  # I_{-n} = I_n for integer order
    if x == 0:
        if nu == 0:
            return mpc(1)
        if nu.real > 0:
            return mpc(0)
        raise DomainError("bessel_i at x=0 with Re nu < 0")

    if nu.imag == 0 and nu.real < 0:
        # reflection 1/Gamma(nu+1) = -Gamma(-nu) sin(pi nu)/pi keeps the
        # log-gamma argument off the negative real axis; sinpi stays fully
        # accurate near the removable zeros at integer order
        c0 = -exp(nu * log(x / 2) + ln_gamma(-nu)) * mp.sinpi(nu.real) / pi
    else:
        c0 = exp(nu * log(x / 2) - ln_gamma(nu + 1))
    term = c0
    s = c0
    q = (x / 2) ** 2
    tol = mpf(ctl.rel_tol)
    prev_mag = abs(term)
    streak = 0
    for k in range(1, ctl.max_terms + 1):
        term = term * q / (k * (k + nu))
        s += term
        mag = abs(term)
        if mag < tol * abs(s) and mag <= prev_mag:
            streak += 1
            if streak >= 3:
                return s
        else:
            streak = 0
        prev_mag = mag
    raise NonconvergenceError("bessel_i series stalled", partial=s,
                              tail_estimate=abs(term))


def asymptotic_coeff(nu, n_max):
    """Large-argument coefficients a_n(nu) of the J/H expansions.

    Computed by the pole-free recurrence a_n = a_{n-1} (4 nu^2 - (2n-1)^2)
    / (8 n), equivalent to the gamma-product form
    (-1)^n cos(pi nu) Gamma(n+1/2+nu) Gamma(n+1/2-nu) / (2^n n! pi).
    """
    nu = mpf(nu)
    coeffs = [mpf(1)]
    for n in range(1, n_max):
        coeffs.append(coeffs[-1] * (4 * nu ** 2 - (2 * n - 1) ** 2) / (8 * n))
    return coeffs


def bessel_j(nu, x, ctl=None, with_error=False):
    """J_nu(x) for real nu > -1, x >= 0.

    Ascending series for x <= 20 + nu^2/2; beyond that the two-sum
    asymptotic form truncated at its smallest term, whose magnitude is the
    returned error estimate.
    """
    ctl = ctl or default_ctl()
    nu = mpf(nu)
    x = mpf(x)
    if nu <= -1:
        raise DomainError("bessel_j requires nu > -1")
    if x < 0:
        raise DomainError("bessel_j requires x >= 0")

    if x <= 20 + nu ** 2 / 2:
        if x == 0:
            v = mpf(1) if nu == 0 else mpf(0)
            return (v, mpf(0)) if with_error else v
        c0 = exp(nu * log(x / 2) - ln_gamma(nu + 1)).real
        term = c0
        s = c0
        q = (x / 2) ** 2
        tol, eps = mpf(ctl.rel_tol), _eps()
        for k in range(1, ctl.max_terms + 1):
            term = -term * q / (k * (k + nu))
            s += term
            if abs(term) < tol * max(abs(s), eps):
                break
        return (s, abs(term)) if with_error else s

    # asymptotic branch
    coeffs = asymptotic_coeff(nu, 40)
    omega = x - pi * nu / 2 - pi / 4
    s_cos = mpf(0)
    s_sin = mpf(0)
    prev = None
    first_omitted = mpf(0)
    for n, a_n in enumerate(coeffs):
        t = a_n / x ** n
        if prev is not None and abs(t) >= prev:
            first_omitted = abs(t)
            break
        if n % 2 == 0:
            s_cos += (-1) ** (n // 2) * t
        else:
            s_sin += (-1) ** ((n - 1) // 2) * t
        prev = abs(t)
    amp = sqrt(2 / (pi * x))
    v = amp * (cos(omega) * s_cos - sin(omega) * s_sin)
    err = amp * first_omitted
    return (v, err) if with_error else v


def _cosh_cutoff(x):
    # x cosh T >= x + (digits ln 10 + 5) makes the truncated tail negligible
    d = mpf(mp.dps) * log(mpf(10)) + 5
    return acosh(1 + d / x)


def bessel_k_real(nu, x):
    """K_nu(x) for real nu >= 0, x > 0, by tanh-sinh quadrature of
    int_0^inf exp(-x cosh t) cosh(nu t) dt."""
    nu = mpf(nu)
    x = mpf(x)
    if x <= 0:
        raise DomainError("bessel_k_real requires x > 0")
    if x > 700:
        raise OverflowGuardError("x too large for the cosh-integral route")
    T = _cosh_cutoff(x)
    v, err = quad(lambda t: exp(-x * cosh(t)) * cosh(nu * t), [0, T],
                  error=True)
    if err > mpf("1e-24") * abs(v):
        v, err = quad(lambda t: exp(-x * cosh(t)) * cosh(nu * t), [0, T],
                      error=True, maxdegree=10)
        if err > mpf("1e-20") * abs(v):
            raise NonconvergenceError("bessel_k_real quadrature stalled",
                                      partial=v, tail_estimate=err)
    return v


def _checked(res, route, tau):
    # runs on cache hits too: a cached value obeys the threshold in force
    # at call time, not the one it was computed under
    if res.rel_error > config.get().precision_loss_threshold:
        raise PrecisionLossError("%s precision loss (tau=%s)" % (route, tau),
                                 value=res.value, rel_error=res.rel_error)
    return res


_kq_cache = {}


def k_itau_quad(tau, x):
    """Oracle route for K_{i tau}(x): the cosine integral in extended
    precision.  The relative error estimate carries the intrinsic
    exp(pi tau / 2) amplification of the absolute quadrature error."""
    tau = mpf(tau)
    x = mpf(x)
    if x <= 0:
        raise DomainError("k_itau_quad requires x > 0")
    if tau < 0:
        tau = -tau  # even in tau
    key = (tau, x, mp.prec)
    hit = _kq_cache.get(key)
    if hit is not None:
        return _checked(hit, "k_itau_quad", tau)
    T = _cosh_cutoff(x)
    v, qerr = quad(lambda t: exp(-x * cosh(t)) * cos(tau * t), [0, T],
                   error=True, maxdegree=9)
    # scale of the absolute roundoff floor: int |integrand| <= K_0(x)
    k0 = quad(lambda t: exp(-x * cosh(t)), [0, T])
    abs_err = qerr + _eps() * k0
    rel = abs_err / abs(v) if v != 0 else mpf(1)
    res = KernelValue(value=v, rel_error=rel,
                      cancellation=(v != 0 and k0 / abs(v) > mpf("1e6")))
    _kq_cache[key] = res
    return _checked(res, "k_itau_quad", tau)


_ks_cache = {}


def k_itau_series(tau, x, ctl=None):
    """K_{i tau}(x) = -pi Im I_{i tau}(x) / sinh(pi tau), from one
    ascending I-series.

    This is pi [I_{-i tau} - I_{i tau}] / (2 i sinh(pi tau)) with
    I_{-i tau}(x) = conj I_{i tau}(x) for real x, so the second series
    is never summed.  Im I is roughly e^{pi tau - 2x} of |I| (the
    subtraction's cancellation), so the route degrades at large
    argument; the error model tracks both the ratio |I| / |Im I| and the
    intrinsic exp(pi tau) index growth, and the call raises once the
    configured loss threshold is crossed."""
    tau = mpf(tau)
    x = mpf(x)
    if x <= 0 or tau <= 0:
        raise DomainError("k_itau_series requires x > 0, tau > 0")
    base = ctl or default_ctl()
    # sum the I-series to full working precision; the config tolerance is
    # meant for standalone series, not for this cancellation-prone pair
    ctl = SeriesControl(rel_tol=min(base.rel_tol, 10.0 ** (-mp.dps)),
                        max_terms=base.max_terms)
    key = (tau, x, mp.prec, ctl.rel_tol, ctl.max_terms)
    hit = _ks_cache.get(key)
    if hit is not None:
        return _checked(hit, "k_itau_series", tau)
    i_tau = bessel_i(1j * tau, x, ctl)
    v = -pi * i_tau.imag / sinh(pi * tau)
    canc_ratio = abs(i_tau) / abs(i_tau.imag) if i_tau.imag != 0 else mpf("1e30")
    rel = _eps() * (exp(pi * tau) + canc_ratio)
    res = KernelValue(value=v, rel_error=rel,
                      cancellation=canc_ratio > mpf("1e6"))
    _ks_cache[key] = res
    return _checked(res, "k_itau_series", tau)


def series_safe_x(index):
    """Largest argument at which the +-i*index series subtraction keeps
    the estimated loss ratio eps * e^{2x - pi index} under the threshold
    with headroom."""
    margin = (mp.dps - 10) * log(mpf(10))
    return (margin + pi * mpf(index)) / 2


def k_index(index, x):
    """K_{i*index}(x) by the route appropriate for the point: the series
    below config.series_index_cap and inside its safe-argument region,
    the cosine integral otherwise; used by the outer integral evaluators,
    with caching on their node sets."""
    if index == 0:
        return bessel_k_real(0, x)
    if index <= config.get().series_index_cap and x <= series_safe_x(index):
        return k_itau_series(index, x).value
    return k_itau_quad(index, x).value
