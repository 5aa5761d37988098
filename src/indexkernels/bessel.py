"""Bessel-family evaluators.

Two independent routes to the Kontorovich-Lebedev kernel K_{i*tau}(x):

* k_itau_quad  -- the cosine integral int_0^inf exp(-x cosh t) cos(tau t) dt
  (oracle route; standard representation, external to the kernel algebra),
* k_itau_series -- -pi Im I_{i tau}(x) / sinh(pi tau), from one ascending
  I-series: for real x, I_{-i tau}(x) is the conjugate of I_{i tau}(x).

Plus real-order K_nu by exponential-cosh quadrature and J_nu by ascending
series / large-argument expansion.

The I and J series are summed in fixed point like special._series_sum;
the guard bits also absorb the cancellation of the alternating J sum.
bessel_i sums at Im nu >= 0 and conjugates for Im nu < 0, so conjugate
orders give exactly conjugate values.  The memos (1/Gamma(nu+1), the
asymptotic coefficients, K_0) share mp's global precision, so, like
mpmath itself, they assume one thread.
"""

import functools
from dataclasses import dataclass

from mpmath import isfinite, mp, mpf, mpc, workprec
from mpmath import acosh, cos, cosh, exp, log, pi, quad, sin, sinh, sqrt
from mpmath.libmp import to_fixed

from . import config
from .errors import (DomainError, NonconvergenceError, OverflowGuardError,
                     PrecisionLossError)
from .special import (_GUARD, SeriesControl, _eps, _tol_fraction,
                      default_ctl, ln_gamma)

_CANC_FLAG = mpf(10 ** 6)
_NO_IMAG_RATIO = mpf(10 ** 30, prec=70)  # exact: 10^30 needs 70 bits
# eps = 10^-dps is 8-13 units in the last place; the prefactors (a power,
# exp(-ln_gamma), the reduced phase) round to tens of them
_ROUNDING = 10
# k_index: the I-series route up to this index, the cosine integral above
SERIES_INDEX_CAP = 16.0


@dataclass
class KernelValue:
    """A real kernel value with its relative-error estimate."""
    value: object            # mpf
    rel_error: object        # mpf, >= 0
    cancellation: bool = False


def bessel_i(nu, x, ctl=None):
    """Modified Bessel I_nu(x) for complex order, ascending series.

    The (x/2)^nu prefactor takes the principal branch; 1/Gamma poles make
    leading terms vanish exactly (the evaluator is total in nu).
    """
    ctl = ctl or default_ctl()
    nu = mpc(nu)
    x = mpf(x)
    if not (isfinite(nu) and isfinite(x)):
        raise DomainError("bessel_i requires finite nu and x")
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

    conj = nu.imag < 0  # I_{conj nu}(x) = conj I_nu(x) for real x
    if conj:
        nu = nu.conjugate()
    if nu.imag == 0 and nu.real < 0:
        # reflection 1/Gamma(nu+1) = -Gamma(-nu) sin(pi nu)/pi keeps the
        # log-gamma argument off the negative real axis; sinpi stays fully
        # accurate near the removable zeros at integer order
        c0 = -exp(nu * log(x / 2) + ln_gamma(-nu)) * mp.sinpi(nu.real) / pi
    else:
        c0 = exp(nu * log(x / 2) - ln_gamma(nu + 1))
    # I_nu = c0 sum_k t_k, t_k = t_{k-1} q (k + a - ib) / (k |k + nu|^2),
    # nu = a + ib, q = x^2/4, all scaled by 2^wp; |t|^2 for the stop rule.
    # k + nu can be as small as ib, so b keeps prec bits of its own
    wp = mp.prec + _GUARD + (max(0, -mp.mag(nu.imag)) if nu.imag else 0)
    a, b = to_fixed(nu.real._mpf_, wp), to_fixed(nu.imag._mpf_, wp)
    q = to_fixed(x._mpf_, wp) ** 2 >> (wp + 2)
    tol_n, tol_k = _tol_fraction(ctl.rel_tol)
    b2 = b * b
    tr = sr = 1 << wp
    ti = si = 0
    prev = tr * tr
    streak = 0
    for k in range(1, ctl.max_terms + 1):
        ka = (k << wp) + a
        d = k * (ka * ka + b2)
        tr, ti = (tr * ka + ti * b) * q // d, (ti * ka - tr * b) * q // d
        sr += tr
        si += ti
        mag = tr * tr + ti * ti
        if (mag <= prev and mag << 2 * tol_k
                < tol_n * tol_n * (sr * sr + si * si)):
            streak += 1
            if streak >= 3:
                break
        else:
            streak = 0
        prev = mag
    else:
        v = c0 * mpc(mpf((sr, -wp)), mpf((si, -wp)))
        raise NonconvergenceError(
            "bessel_i series stalled", partial=v.conjugate() if conj else v,
            tail_estimate=abs(c0) * sqrt(mpf((mag, -2 * wp))))
    v = c0 * mpc(mpf((sr, -wp)), mpf((si, -wp)))
    return v.conjugate() if conj else v


@functools.lru_cache(maxsize=128)
def _inv_gamma(nu, prec):
    # guard bits: exp makes ln_gamma's absolute error a relative one
    with workprec(prec + _GUARD):
        v = exp(-ln_gamma(nu + 1).real)
    return +v


def asymptotic_table(nu):
    """Signed large-argument coefficients (-1)^floor(n/2) a_n(nu) of the
    J/H expansions, n = 0..40, memoized per (nu, mp.prec).

    a_n comes from the pole-free recurrence a_n = a_{n-1} (4 nu^2 -
    (2n-1)^2) / (8 n), equivalent to the gamma-product form
    (-1)^n cos(pi nu) Gamma(n+1/2+nu) Gamma(n+1/2-nu) / (2^n n! pi).
    """
    return _asymptotic_memo(mpf(nu), mp.prec)


@functools.lru_cache(maxsize=128)
def _asymptotic_memo(nu, prec):
    a = [mpf(1)]
    for n in range(1, 41):
        a.append(a[-1] * (4 * nu ** 2 - (2 * n - 1) ** 2) / (8 * n))
    return tuple(c if n % 4 < 2 else -c for n, c in enumerate(a))


def bessel_j(nu, x, ctl=None, with_error=False):
    """J_nu(x) for real nu > -1, x >= 0.

    Ascending series for x <= 20 + nu^2/2; beyond that the two-sum
    asymptotic form truncated at its smallest term or after 40 terms,
    whichever comes first.  The returned error estimate is the first
    omitted term's magnitude plus a rounding floor: four units of 2^-wp
    per ascending term summed plus 10 eps |J| for the prefactor, or
    10 eps (1 + x) times the asymptotic terms' sum, which covers the
    reduction of the phase x - pi nu / 2 - pi / 4.
    """
    ctl = ctl or default_ctl()
    nu = mpf(nu)
    x = mpf(x)
    if not (isfinite(nu) and isfinite(x)):
        raise DomainError("bessel_j requires finite nu and x")
    if nu <= -1:
        raise DomainError("bessel_j requires nu > -1")
    if x < 0:
        raise DomainError("bessel_j requires x >= 0")

    wp = mp.prec + _GUARD
    if x <= 20 + nu ** 2 / 2:
        if x == 0:
            v = mpf(1) if nu == 0 else mpf(0)
            return (v, mpf(0)) if with_error else v
        # J_nu = c0 sum_k t_k, t_k = -t_{k-1} q / (k (k + nu)), scaled by
        # 2^wp; the absolute floor eps is scaled by 1/c0
        c0 = (x / 2) ** nu * _inv_gamma(nu, mp.prec)
        a = to_fixed(nu._mpf_, wp)
        q = to_fixed(x._mpf_, wp) ** 2 >> (wp + 2)
        tol_n, tol_k = _tol_fraction(ctl.rel_tol)
        floor = to_fixed((_eps() / c0)._mpf_, wp)
        t = s = 1 << wp
        for k in range(1, ctl.max_terms + 1):
            t = -t * q // (k * ((k << wp) + a))
            s += t
            if abs(t) << tol_k < tol_n * max(abs(s), floor):
                break
        v = c0 * mpf((s, -wp))
        if not with_error:
            return v
        # each floor division leaves a unit of 2^-wp, and the propagated
        # ones cancel along the alternating tail
        return v, (c0 * mpf((abs(t) + 4 * k, -wp))
                   + _ROUNDING * _eps() * abs(v))

    # asymptotic branch: sums[0] is the cosine sum, sums[1] the sine sum,
    # t_n = t_{n-1} (4 nu^2 - (2n-1)^2) / (8 n x) scaled by 2^wp
    xf = to_fixed(x._mpf_, wp)
    nu4 = to_fixed(nu._mpf_, wp) ** 2 >> (wp - 2)
    omega = x - pi * nu / 2 - pi / 4
    sums = [0, 0]
    t, total = 1 << wp, 0
    for n in range(40):
        mag = abs(t)
        if n and mag >= prev:
            break  # the expansion bottomed out; mag is the first omitted
        sums[n % 2] += t if n % 4 < 2 else -t
        total += mag
        prev = mag
        t = t * (nu4 - ((2 * n + 1) ** 2 << wp)) // (8 * (n + 1) * xf)
    else:
        mag = abs(t)  # the coefficients ran out first
    amp = sqrt(2 / (pi * x))
    v = amp * (cos(omega) * mpf((sums[0], -wp))
               - sin(omega) * mpf((sums[1], -wp)))
    if not with_error:
        return v
    # truncation plus rounding, dominated by the phase omega, whose
    # absolute error grows like eps * x
    return v, amp * (mpf((mag, -wp))
                     + _ROUNDING * _eps() * (1 + x) * mpf((total, -wp)))


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


# The K caches are plain dicts (insertion-ordered) holding at most
# _K_CACHE_MAX entries; past that the oldest entry is evicted.  The cap is
# above what any benchmark workload stores (2,604 on route-crosscheck).
_K_CACHE_MAX = 4096


def _cache_put(cache, key, res):
    if len(cache) >= _K_CACHE_MAX:
        del cache[next(iter(cache))]
    cache[key] = res


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
    v, qerr = quad(lambda t: exp(-x * cosh(t)) * cos(tau * t),
                   [0, _cosh_cutoff(x)], error=True, maxdegree=9)
    # scale of the absolute roundoff floor: int |integrand| <= K_0(x)
    k0 = _k0(x, mp.prec)
    abs_err = qerr + _eps() * k0
    rel = abs_err / abs(v) if v != 0 else mpf(1)
    res = KernelValue(value=v, rel_error=rel,
                      cancellation=(v != 0 and k0 / abs(v) > _CANC_FLAG))
    _cache_put(_kq_cache, key, res)
    return _checked(res, "k_itau_quad", tau)


@functools.lru_cache(maxsize=128)
def _k0(x, prec):
    # K_0(x) by the same quadrature, shared by every tau at this x
    return quad(lambda t: exp(-x * cosh(t)), [0, _cosh_cutoff(x)])


_ks_cache = {}


def full_precision_ctl(ctl=None):
    """ctl (default: the config's) summing to 10^-dps: the config
    tolerance is for standalone series, not the I-series of K_{i tau}."""
    base = ctl or default_ctl()
    return SeriesControl(rel_tol=min(base.rel_tol, 10.0 ** (-mp.dps)),
                         max_terms=base.max_terms)


def k_itau_series(tau, x, ctl=None, i_tau=None):
    """K_{i tau}(x) = -pi Im I_{i tau}(x) / sinh(pi tau), from one
    ascending I-series, or from i_tau when the caller has already summed
    bessel_i(1j * tau, x, full_precision_ctl(ctl)).

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
    ctl = full_precision_ctl(ctl)
    key = (tau, x, mp.prec, ctl.rel_tol, ctl.max_terms)
    hit = _ks_cache.get(key)
    if hit is not None:
        return _checked(hit, "k_itau_series", tau)
    if i_tau is None:
        i_tau = bessel_i(1j * tau, x, ctl)
    v = -pi * i_tau.imag / sinh(pi * tau)
    canc_ratio = (abs(i_tau) / abs(i_tau.imag) if i_tau.imag != 0
                  else _NO_IMAG_RATIO)
    rel = _eps() * (exp(pi * tau) + canc_ratio)
    res = KernelValue(value=v, rel_error=rel,
                      cancellation=canc_ratio > _CANC_FLAG)
    _cache_put(_ks_cache, key, res)
    return _checked(res, "k_itau_series", tau)


def series_safe_x(index):
    """Largest argument at which the +-i*index series subtraction keeps
    the estimated loss ratio eps * e^{2x - pi index} under the threshold
    with headroom."""
    margin = (mp.dps - 10) * log(mpf(10))
    return (margin + pi * mpf(index)) / 2


def k_index(index, x, i_tau=None):
    """K_{i*index}(x) by the route appropriate for the point: the series
    up to SERIES_INDEX_CAP and inside its safe-argument region,
    the cosine integral otherwise; used by the outer integral evaluators,
    with caching on their node sets.  i_tau is handed to k_itau_series."""
    if index == 0:
        return bessel_k_real(0, x)
    if index <= SERIES_INDEX_CAP and x <= series_safe_x(index):
        return k_itau_series(index, x, i_tau=i_tau).value
    return k_itau_quad(index, x).value
