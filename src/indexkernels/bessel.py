"""Bessel-family evaluators.

Two independent routes to the Kontorovich-Lebedev kernel K_{i*tau}(x):

* k_itau_quad  -- the cosine integral int_0^inf exp(-x cosh t) cos(tau t) dt
  by the trapezoidal rule, with K_0(x) from the same nodes (oracle route;
  standard representation, external to the kernel algebra),
* k_itau_series -- -pi Im I_{i tau}(x) / sinh(pi tau), from one ascending
  I-series: for real x, I_{-i tau}(x) is the conjugate of I_{i tau}(x),
  summed with guard bits where Im I or the sum itself cancels; k_index's
  route for tau != 0, up to x = 700.

Plus real-order K_nu by the same cosh-integral rule (_cosh_trap) and J_nu
by ascending series / large-argument expansion.

The I and J series are summed in fixed point, each term the last times
a ratio from a per-(order, precision) table grown to the terms used; the
guard bits also absorb the cancellation of the alternating J sum.
bessel_i sums at Im nu >= 0 and conjugates for Im nu < 0, so conjugate
orders give exactly conjugate values; it scales the sum by mpmath's
operators.  K_{i tau} (_k_sum) takes its phase in fixed point from one
log and one cosine and sine, and rounds once.  The series read mp.prec
alone: the plans carry the stop and eps.
The memos (I and J plans, K constants), which the quadrature nodes
(_k_node, _j_point) read too, share mp's global precision and, like
mpmath itself, assume one thread.
"""

import functools
import math
from dataclasses import dataclass

from mpmath import isfinite, mp, mpf, mpc, workprec
from mpmath import acosh, cos, cosh, exp, log, pi, sinh, sinpi, sqrt
from mpmath.calculus.quadrature import QuadratureRule
from mpmath.libmp import (from_float, from_int, from_man_exp, from_rational,
                          mpf_add, mpf_gt, mpf_log, mpf_mul_int, mpf_shift,
                          round_nearest, to_fixed)
from mpmath.libmp.libelefun import cos_sin_fixed

from . import special
from .errors import (DomainError, NonconvergenceError, OverflowGuardError,
                     PrecisionLossError)
from .special import _GUARD, _eps, ln_gamma

_CANC_FLAG = 10 ** 6
# the relative-error estimate above which the K_{i tau} routes raise
# PrecisionLossError, as a libmp value (the float 1e-6 exactly)
_LOSS = from_float(1e-6)
_NO_IMAG_RATIO = 10 ** 30
_RND = round_nearest  # the rounding of mp's operators
# eps = 10^-dps is 8-13 units in the last place; the prefactors (a power,
# exp(-ln_gamma), the reduced phase) round to tens of them
_ROUNDING = 10
_ROUNDING_MPF = from_int(_ROUNDING)
# bits the ratio tables carry beyond the sums' 2^wp: a rounded ratio
# moves its term by 2^-64 of itself, far inside the guard bits
_RATIO_BITS = 64
_LN2, _LOG2_10 = math.log(2), math.log2(10)
# k_index at every index refuses x > 700, where K is below 1e-304
K_X_MAX = 700
_K_X_MAX = from_int(K_X_MAX)
# digits a K_{i tau} value may lose a priori (10 are always kept) before
# the series takes guard bits, which cost 1.5-2 plain sums
_PLAIN_DIGITS = 6
# mpmath.quad's error extrapolation from the last three levels' sums
_estimate_error = QuadratureRule(mp).estimate_error


@dataclass
class KernelValue:
    """A real kernel value with its relative-error estimate."""
    value: object            # mpf
    rel_error: object        # mpf, >= 0
    cancellation: bool


def bessel_i(nu, x):
    """Modified Bessel I_nu(x) for complex order, ascending series summed
    to 10^-dps, as every series is: K_{i tau} takes a small imaginary part
    of this sum.  The sum also stops once its terms are within one unit of
    the fixed-point sum's last place.

    The (x/2)^nu prefactor takes the principal branch; 1/Gamma poles make
    leading terms vanish exactly (the evaluator is total in nu).
    """
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
        raise DomainError("bessel_i at x=0 with Re nu <= 0")

    conj = nu.imag < 0  # I_{conj nu}(x) = conj I_nu(x) for real x
    if conj:
        nu = nu.conjugate()
    if nu.imag == 0 and nu.real < 0:
        # reflection 1/Gamma(nu+1) = -Gamma(-nu) sin(pi nu)/pi keeps the
        # log-gamma argument off the negative real axis; sinpi stays fully
        # accurate near the removable zeros at integer order
        c0 = -exp(nu * log(x / 2) + ln_gamma(-nu)) * sinpi(nu.real) / pi
    else:
        c0 = exp(nu * log(x / 2) - ln_gamma(nu + 1))
    sr, si, wp, _, tail = _i_sum(_i_plan(nu, mp.prec), x)
    v = c0 * mpc(mpf((sr, -wp)), mpf((si, -wp)))
    if conj:
        v = v.conjugate()
    if tail is not None:
        raise NonconvergenceError(
            "bessel_i series stalled", partial=v,
            tail_estimate=abs(c0) * sqrt(mpf((tail, -2 * wp))))
    return v


@functools.lru_cache(maxsize=128)
def _i_plan(nu, prec):
    # nu = a + ib at 2^wp (k + nu can be as small as ib, so b keeps prec
    # bits of its own), at index k the ratio (k + a - ib) / (k |k + nu|^2)
    # at 2^(wp + _RATIO_BITS), appended by _i_sum as terms are used, and
    # _stop()'s (n, k) as the sum compares it, (n^2, 2k)
    wp = prec + _GUARD + (max(0, -mp.mag(nu.imag)) if nu.imag else 0)
    tol_n, tol_k = _stop()
    return (wp, to_fixed(nu.real._mpf_, wp), to_fixed(nu.imag._mpf_, wp),
            [0], (tol_n * tol_n, 2 * tol_k))


def _stop():
    # the series' stop 10^-dps at mp.prec, correctly rounded to 53 bits, as
    # the exact fraction (n, k) = n / 2^k
    _, n, e, _ = from_rational(1, 10 ** mp.dps, 53, _RND)  # e < 0
    return n, -e


def _i_sum(plan, x):
    # I_nu(x) / c0 = sum_k t_k, t_k = t_{k-1} (x/2)^2 rho_k, at 2^wp: (Re,
    # Im, wp, terms past t_0, None or, if they ran out, |t_k|^2 at 2^2wp)
    wp, a, b, rho, (tol_n2, tol_k2) = plan
    sh = 2 * wp + _RATIO_BITS
    q = to_fixed(x._mpf_, wp) ** 2 >> (wp + 2)
    tr = sr = 1 << wp
    ti = si = 0
    prev = tr * tr
    streak = 0
    for k in range(1, special.MAX_TERMS + 1):
        if k == len(rho):
            ka = (k << wp) + a
            d = k * (ka * ka + b * b)
            rho.append(((ka << sh) // d, (b << sh) // d))
        rr, ri = rho[k]
        tr, ti = (tr * rr + ti * ri) * q >> sh, (ti * rr - tr * ri) * q >> sh
        sr += tr
        si += ti
        mag = tr * tr + ti * ti
        # a term within one unit of 0 meets any tolerance: floored, a
        # negative part stays at -1 however far the terms fall
        if mag <= prev and (mag <= 2 or mag << tol_k2
                            < tol_n2 * (sr * sr + si * si)):
            streak += 1
            if streak >= 3:
                return sr, si, wp, k, None
        else:
            streak = 0
        prev = mag
    return sr, si, wp, k, mag


def bessel_j(nu, x, with_error=False):
    """J_nu(x) for real nu > -1, x >= 0.

    Ascending series for x <= 20 + nu^2/2; beyond that the two-sum
    asymptotic form truncated at its smallest term or after 40 terms,
    whichever comes first.  The returned error estimate is the first
    omitted term's magnitude plus a rounding floor: four units of 2^-wp
    per ascending term summed plus 10 eps |J| for the prefactor, or
    10 eps (1 + x) times the asymptotic terms' sum, which covers the
    reduction of the phase x - pi nu / 2 - pi / 4.
    """
    nu = mpf(nu)
    x = mpf(x)
    if not (isfinite(nu) and isfinite(x)):
        raise DomainError("bessel_j requires finite nu and x")
    if nu <= -1:
        raise DomainError("bessel_j requires nu > -1")
    if x < 0:
        raise DomainError("bessel_j requires x >= 0")

    return _j_point(nu, x, with_error)


def _j_point(nu, x, with_error):
    # bessel_j past its checks, from nu's plan at mp.prec: also the J node
    # of the quadrature integrands, whose orders their routes check
    plan = _j_plan(nu, mp.prec)
    if x <= plan[0]:
        if x == 0:
            v = mpf(1) if nu == 0 else mpf(0)
            return (v, mpf(0)) if with_error else v
        c0, s, t, k, wp = _j_sum(nu, x, plan)
        v = c0 * mpf((s, -wp))
        if not with_error:
            return v
        # each shift leaves a unit of 2^-wp, and the propagated ones
        # cancel along the alternating tail
        return v, (c0 * mpf((abs(t) + 4 * k, -wp))
                   + _ROUNDING * plan[7] * abs(v))

    # asymptotic branch: sums[0] is the cosine sum, sums[1] the sine sum,
    # t_n = t_{n-1} (4 nu^2 - (2n-1)^2) / (8 n x) scaled by 2^wp
    _, phase, wp, a = plan[:4]
    xf = to_fixed(x._mpf_, wp)
    nu4 = a ** 2 >> (wp - 2)
    omega = x - phase - pi / 4
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
    c, s = mp.cos_sin(omega)
    v = amp * (c * mpf((sums[0], -wp)) - s * mpf((sums[1], -wp)))
    if not with_error:
        return v
    # truncation plus rounding, dominated by the phase omega, whose
    # absolute error grows like eps * x
    return v, amp * (mpf((mag, -wp))
                     + _ROUNDING * plan[7] * (1 + x) * mpf((total, -wp)))


def _j_switch(nu):
    return 20 + nu ** 2 / 2  # x past which J_nu takes the Hankel expansion


@functools.lru_cache(maxsize=128)
def _j_plan(nu, prec):
    # the branch switch, pi nu / 2, nu at 2^wp, 1/Gamma(nu+1) (with guard
    # bits: exp makes ln_gamma's absolute error a relative one), at index
    # k the ratio 1/(k (k + nu)) at 2^(wp + _RATIO_BITS), the stop as in
    # _i_plan and eps = 10^-dps
    wp = prec + _GUARD
    with workprec(wp):
        inv_gamma = exp(-ln_gamma(nu + 1).real)
    return (_j_switch(nu), pi * nu / 2, wp, to_fixed(nu._mpf_, wp),
            +inv_gamma, [0], _stop(), _eps())


def _j_sum(nu, x, plan):
    # J_nu(x) = c0 sum_k t_k, t_k = -t_{k-1} (x/2)^2 / (k (k + nu)), at
    # 2^wp: (c0, sum, last term, terms past t_0, wp), or a raise if the
    # terms run out
    _, _, wp, a, inv_gamma, rho, (tol_n, tol_k), eps = plan
    sh = 2 * wp + _RATIO_BITS
    c0 = (x / 2) ** nu * inv_gamma
    q = to_fixed(x._mpf_, wp) ** 2 >> (wp + 2)
    floor = to_fixed((eps / c0)._mpf_, wp)
    t = s = 1 << wp
    for k in range(1, special.MAX_TERMS + 1):
        if k == len(rho):
            rho.append((1 << sh) // (k * ((k << wp) + a)))
        t = -t * rho[k] * q >> sh
        s += t
        if abs(t) << tol_k < tol_n * max(abs(s), floor):
            return c0, s, t, k, wp
    raise NonconvergenceError(
        "bessel_j series did not converge in %d terms" % special.MAX_TERMS,
        partial=c0 * mpf((s, -wp)), tail_estimate=c0 * mpf((abs(t), -wp)))


def _cosh_trap(x, gs, levels, growth=0):
    # ([values], [error estimates], nodes) of int_0^T e^{-x cosh t} g(t) dt
    # for each g in gs over one node set, for |g(t)| <= e^{growth t}: x
    # cosh T - growth T = x + digits ln 10 + 5 leaves a negligible tail.  T
    # is the fixed point of T = acosh(1 + (cut + growth T) / x), approached
    # from below until within one unit of the exponent.  The integrands are
    # even, entire and fall doubly exponentially, where the trapezoidal
    # rule converges exponentially in 1/h (Trefethen & Weideman, SIAM Rev.
    # 56(3), 2014): steps h = 2^-j, j = 1..levels, each adding the odd
    # nodes, at mpmath.quad's mp.prec + 20 and its stop, eps/8 on the
    # extrapolated error of each g's level sums.  The sums see e^{x - x
    # cosh t} g(t), which is g(0) at t = 0, and e^{-x} scales the results:
    # the stop is relative for any x
    cut = mpf(mp.dps) * log(mpf(10)) + 5
    T = acosh(1 + cut / x)
    while growth and x * cosh(T) - growth * T < x + cut - 1:
        T = acosh(1 + (cut + growth * T) / x)
    prec, eps = mp.prec, mp.eps / 8
    with workprec(prec + 20):
        sums, results = [mpf(g(0)) / 2 for g in gs], []
        n = int(T * 2 ** levels)  # the last node of the finest level
        for j in range(1, levels + 1):
            step = 2 ** (levels - j)  # h in units of the finest step
            for k in range(step, n + 1, 2 * step if j > 1 else step):
                t = mpf((k, -levels))
                w = exp(x - x * cosh(t))
                for i, g in enumerate(gs):
                    sums[i] += w * g(t)
            results.append([s / 2 ** j for s in sums])
            if j > 1:
                errs = [_estimate_error([r[i] for r in results], prec, eps)
                        for i in range(len(gs))]
                if max(errs) <= eps:
                    break
    scale = exp(-x)
    return ([v * scale for v in results[-1]], [e * scale for e in errs],
            n // step + 1)


def bessel_k_real(nu, x):
    """K_nu(x) for real nu >= 0, x > 0, by trapezoidal quadrature of
    int_0^inf exp(-x cosh t) cosh(nu t) dt."""
    nu = mpf(nu)
    x = mpf(x)
    if x <= 0:
        raise DomainError("bessel_k_real requires x > 0")
    if mpf_gt(x._mpf_, _K_X_MAX):
        raise OverflowGuardError("x too large for the cosh-integral route")
    (v,), (err,), _ = _cosh_trap(x, [lambda t: cosh(nu * t)], 10, growth=nu)
    if err > _ROUNDING * _eps() * abs(v):
        raise NonconvergenceError("bessel_k_real quadrature stalled",
                                  partial=v, tail_estimate=err)
    return v


def _checked(res, route, tau):
    # on cache hits too, so a cached failing value raises again
    if mpf_gt(res.rel_error._mpf_, _LOSS):
        raise PrecisionLossError("%s precision loss (tau=%s)" % (route, tau),
                                 value=res.value, rel_error=res.rel_error)
    return res


# The K caches are plain dicts (insertion-ordered), keyed on tau and x as
# libmp tuples (an mpf hashes ~9x slower), holding at most _K_CACHE_MAX
# entries, the oldest evicted first: above the 496 of fit-envelope.
_K_CACHE_MAX = 4096
_kq_cache, _ks_cache = {}, {}


def _cache_put(cache, key, res):
    if len(cache) >= _K_CACHE_MAX:
        del cache[next(iter(cache))]
    cache[key] = res


def k_itau_quad(tau, x):
    """Oracle route for K_{i tau}(x): the cosine integral by the
    trapezoidal rule in extended precision, which also sums K_0(x) over
    the same nodes.  The relative error estimate (quadrature error +
    eps K_0) / |K| carries the intrinsic exp(pi tau / 2) amplification
    of the absolute error."""
    tau, x = abs(mpf(tau)), mpf(x)  # even in tau
    if x <= 0:
        raise DomainError("k_itau_quad requires x > 0")
    key = (tau._mpf_, x._mpf_, mp.prec)
    res = _kq_cache.get(key)
    if res is None:
        # K_0(x), from the same nodes, scales the absolute roundoff floor:
        # int |integrand| <= K_0(x)
        (v, k0), (qerr, _), _ = _cosh_trap(
            x, [lambda t: cos(tau * t), lambda t: 1], 9)
        rel = (qerr + _eps() * k0) / abs(v) if v != 0 else mpf(1)
        res = KernelValue(value=v, rel_error=rel,
                          cancellation=(v != 0 and k0 / abs(v) > _CANC_FLAG))
        _cache_put(_kq_cache, key, res)
    return _checked(res, "k_itau_quad", tau)


def k_itau_series(tau, x):
    """K_{i tau}(x) = -pi Im I_{i tau}(x) / sinh(pi tau), from one
    ascending I-series: with I_{-i tau}(x) = conj I_{i tau}(x) for real
    x, pi [I_{-i tau} - I_{i tau}] / (2 i sinh(pi tau)) needs one sum S.
    I = M e^{i theta} S with M = e^{-Re lg}, theta = tau log(x/2) - Im lg
    and lg = ln Gamma(1 + i tau), so K = P Im(e^{i theta} S) with P = -pi
    M / sinh(pi tau).  Im I is a small part of |I| for x > tau, and the
    exponent e = i theta - Re lg carries lg's rounding, about eps |e|;
    the estimate is eps (c + |Re e| + |Im e|) (1 + |I| / |Im I|).  Where
    that loss is a priori above _PLAIN_DIGITS digits, the sum runs with
    guard bits, and a call raises if the estimate still crosses the loss
    threshold.  x > 700 raises OverflowGuardError."""
    tau, x = mpf(tau), mpf(x)
    key = (tau._mpf_, x._mpf_, mp.prec)
    res = _ks_cache.get(key)
    if res is None:
        res = _k_point(x, tau, _PLAIN_DIGITS)[0]
        _cache_put(_ks_cache, key, res)
    return _checked(res, "k_itau_series", tau)


def _k_point(x, tau, digits):
    # (K_{i tau}(x) as a KernelValue, M, n) with Re I_{i tau}(x) = M n for
    # k_itau_series, _k_node and the product oracle, from tau's _k_plan:
    # summed at mp.prec where _loss_bits keeps to min(digits, dps - 10)
    # digits and the estimate to _LOSS, else with guard bits and rounded
    # back (eps more on the estimate).  x, tau > 0 finite: sign 0, a
    # mantissa; x <= _K_X_MAX (guard ~2.9 x bits)
    if x._mpf_[0] or not x._mpf_[1] or tau._mpf_[0] or not tau._mpf_[1]:
        raise DomainError("k_itau_series requires finite x > 0, tau > 0")
    if mpf_gt(x._mpf_, _K_X_MAX):
        raise OverflowGuardError("x too large for the I-series route")
    kp = _k_plan(tau, mp.prec)
    bits = _loss_bits(kp, x)
    if bits <= min(digits, mp.dps - 10) * _LOG2_10:
        res = _k_sum(kp, x)
        if not mpf_gt(res[0].rel_error._mpf_, _LOSS):
            return res
    # 10 bits over the a-priori loss, in steps of 32 so that nearby x
    # share plans
    with workprec(mp.prec + 32 * (int(bits + 10) // 32 + 1)):
        res, m, n = _k_sum(_k_plan(tau, mp.prec), x)
    return (KernelValue(+res.value, res.rel_error + kp[-1], res.cancellation),
            m, n)


def _k_node(tau, y):
    # a quadrature node's K_{i tau}(y), y rounded to mp.prec: k_itau_series
    # uncached, guarded where it would keep under 10 digits, not where it
    # would lose _PLAIN_DIGITS: the tails run to series_safe_x, and a guard
    # costs 1.5-2 sums per node
    return _checked(_k_point(mpf(y), tau, math.inf)[0], "k_itau_series",
                    tau).value


def _loss_bits(kp, x):
    # log2 of the series' relative error at mp.prec in units of eps, a
    # priori: (c + |e|) |I| / |Im I|, with |e| <= tau |log(x/2)| + |lg|
    # and, for x > tau, the uniform (Debye) ratio e^r, r = 2 (sqrt(x^2 -
    # tau^2) - tau acos(tau / x)), not its limit e^{2x - pi tau} (2^95
    # short at tau = 100, x = 160) or the ratio measured at mp.prec, which
    # saturates near 2^prec; times the sum's own cancellation max |t_k| /
    # |sum| = e^{2k - tau atan(k / tau) - r/2} (k^2 (k^2 + tau^2) = (x/2)^4
    # at the largest term) past what the ratio bits absorb, 2^-(wp + 64)
    # of a ratio near 1 / q.  In floats, on logs where tau may pass them
    _, man, ex, _ = x._mpf_
    lx = abs(math.log(man) + (ex - 1) * _LN2)  # |log(x/2)|
    a, b = kp[8], kp[7] + math.log2(lx) if lx else -math.inf
    bits = max(a, b) + math.log2(1 + 2.0 ** -abs(a - b))
    t, xf = kp[9], float(x)
    r = 2 * (math.sqrt(xf * xf - t * t) - t * math.acos(t / xf)) if xf > t \
        else 0
    q = xf * xf / 4
    if q > t:  # else the terms fall from the first
        k = math.sqrt(2 * q * q / (math.sqrt(t ** 4 + 4 * q * q) + t * t))
        bits += max(0, (2 * k - t * math.atan(k / t) - r / 2) / _LN2
                    + math.log2(q) - _RATIO_BITS - _GUARD)
    return bits + r / _LN2


def _k_sum(kp, x):
    # (K, M, n) at mp.prec from tau's _k_plan, Re I = M n: the integers of
    # the I sum S at 2^wp, theta at 2^w (w - wp bits absorb tau's factor
    # on log(x/2) and the quarter turns that cos_sin_fixed takes off), Im
    # and Re of e^{i theta} S at 2^(w + wp), Im rounded once by its factor
    # P from the plan, which holds P and M at 2^-(w + wp)
    ip, w, t, img, p, m, re_lg = kp[:7]
    prec = mp.prec
    sr, si, _, _, tail = _i_sum(ip, x)
    lx = mpf_log(mpf_shift(x._mpf_, -1), w, _RND)
    th = (t * to_fixed(lx, w) >> w) - img
    c, s = cos_sin_fixed(th, w)
    z = s * sr + c * si
    v = mpf_mul_int(p, z, prec, _RND)
    if tail is not None:
        raise NonconvergenceError(
            "bessel_i series stalled", partial=mp.make_mpf(v),
            tail_estimate=abs(mp.make_mpf(p)) * sqrt(mpf((tail, 2 * w))))
    # |I| / |Im I| = |S| / |Im(e^{i theta} S)| at 2^prec
    n2 = (sr * sr + si * si) << 2 * (w + prec)
    ratio = math.isqrt(n2 // (z * z)) if z else _NO_IMAG_RATIO << prec
    _, c_man, c_exp, _ = mpf_add(from_man_exp(re_lg + abs(th), -w, 30, _RND),
                                 _ROUNDING_MPF, 30, _RND)  # >= c + |e|
    _, e_man, e_exp, _ = kp[-1]._mpf_
    rel_error = from_man_exp(e_man * c_man * (ratio + (1 << prec)),
                             e_exp + c_exp - prec, prec, _RND)
    return (KernelValue(mp.make_mpf(v), mp.make_mpf(rel_error),
                        ratio > _CANC_FLAG << prec), m, c * sr - s * si)


def series_safe_x(index):
    """Where eps * e^{2x - pi index}, the large-x limit of the series'
    loss, reaches 1e-10: the quadrature tails' cap on K's argument.  Past
    it, and often before it, K_{i index} sums with guard bits."""
    margin = (mp.dps - 10) * log(mpf(10))
    return (margin + pi * mpf(index)) / 2


@functools.lru_cache(maxsize=128)
def _k_plan(tau, prec):
    # K_{i tau}'s needs of tau alone: the I plan of i tau; w; tau and Im lg
    # at 2^w; P = -pi e^{-Re lg} / sinh(pi tau) and M = e^{-Re lg} (an
    # mpf) times 2^-(w + wp) at wp bits, floating, as P falls like
    # e^{-pi tau / 2};
    # |Re lg| at 2^w; for _loss_bits log2 tau, log2(c + |lg|) and tau as
    # floats; and eps = 10^-dps.  lg is ln_gamma's, at prec
    ip = _i_plan(mpc(0, tau), prec)
    wp, lg = ip[0], ln_gamma(mpc(1, tau))._mpc_
    w = wp + int(tau).bit_length() + 4
    with workprec(wp):
        m = exp(-mp.make_mpf(lg[0]))
        p = -pi * m / sinh(pi * tau)
    return (ip, w, to_fixed(tau._mpf_, w), to_fixed(lg[1], w),
            mpf_shift(p._mpf_, -w - wp), mp.ldexp(m, -w - wp),
            abs(to_fixed(lg[0], w)), float(log(tau, 2)),
            float(log(_ROUNDING + abs(mpc(*lg)), 2)), float(tau), _eps())


def k_index(index, x):
    """K_{i*index}(x): K_0 by bessel_k_real, every other index by
    k_itau_series.  K is even in the index, so both see |index|; both
    refuse x > 700 with OverflowGuardError."""
    index = abs(mpf(index))
    if index == 0:
        return bessel_k_real(0, x)
    return k_itau_series(index, x).value
