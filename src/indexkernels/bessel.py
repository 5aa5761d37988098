"""Bessel-family evaluators.

Two independent routes to the Kontorovich-Lebedev kernel K_{i*tau}(x):

* k_itau_quad  -- the cosine integral int_0^inf exp(-x cosh t) cos(tau t) dt
  (oracle route; standard representation, external to the kernel algebra),
* k_itau_series -- -pi Im I_{i tau}(x) / sinh(pi tau), from one ascending
  I-series: for real x, I_{-i tau}(x) is the conjugate of I_{i tau}(x),
  summed with guard bits where Im I or the sum itself cancels; k_index's
  route for tau != 0, up to x = 700.

Plus real-order K_nu by exponential-cosh quadrature (_cosh_quad) and J_nu
by ascending series / large-argument expansion.

The I and J series are summed in fixed point, each term the last times
a ratio from a per-(order, precision) table grown to the terms used; the
guard bits also absorb the cancellation of the alternating J sum.
bessel_i sums at Im nu >= 0 and conjugates for Im nu < 0, so conjugate
orders give exactly conjugate values.  The I prefactor and the K_{i tau}
assembly (_i_series, _k_series) make the libmp calls of the mpc/mpf
operators on raw tuples, so the values are the operators' bit for bit.
The memos (I and J plans, K constants, asymptotic coefficients, K_0,
tanh-sinh nodes) share mp's global precision and, like mpmath itself,
assume one thread.
"""

import functools
import math
from dataclasses import dataclass

from mpmath import isfinite, mp, mpf, mpc, workprec
from mpmath import acosh, cos, cosh, exp, log, pi, quad, sinh, sqrt
from mpmath.calculus.quadrature import TanhSinh
from mpmath.libmp import (fone, from_float, fzero, from_int, from_man_exp,
                          mpc_conjugate, mpc_div_mpf, mpc_exp, mpc_mul,
                          mpc_mul_mpf, mpc_neg, mpc_sub, mpf_abs, mpf_add,
                          mpf_cos_sin, mpf_div, mpf_exp, mpf_gt, mpf_hypot,
                          mpf_log, mpf_mul, mpf_neg, mpf_pi, mpf_sign,
                          mpf_sin_pi, mpf_sub, round_nearest, to_fixed)

from . import config
from .errors import (DomainError, NonconvergenceError, OverflowGuardError,
                     PrecisionLossError)
from .special import _GUARD, _eps, ln_gamma

_CANC_FLAG = mpf(10 ** 6)
_NO_IMAG_RATIO = mpf(10 ** 30, prec=70)  # exact: 10^30 needs 70 bits
_TWO = from_int(2)
_RND = round_nearest  # the rounding of mp's operators
# eps = 10^-dps is 8-13 units in the last place; the prefactors (a power,
# exp(-ln_gamma), the reduced phase) round to tens of them
_ROUNDING = 10
_ROUNDING_MPF = from_int(_ROUNDING)
# bits the ratio tables carry beyond the sums' 2^wp: a rounded ratio
# moves its term by 2^-64 of itself, far inside the guard bits
_RATIO_BITS = 64
_LN2, _LOG2_10 = math.log(2), math.log2(10)
# K at every index refuses x > 700, where it is below 1e-304
K_X_MAX = 700
_K_X_MAX = from_int(K_X_MAX)
# digits a K_{i tau} value may lose a priori (10 are always kept) before
# the series takes guard bits, which cost 1.5-2 plain sums
_PLAIN_DIGITS = 6


@dataclass
class KernelValue:
    """A real kernel value with its relative-error estimate."""
    value: object            # mpf
    rel_error: object        # mpf, >= 0
    cancellation: bool = False


def bessel_i(nu, x):
    """Modified Bessel I_nu(x) for complex order, ascending series summed
    to min(rel_tol, 10^-dps): the config tolerance is for standalone
    series, and K_{i tau} takes a small imaginary part of this sum.  The
    sum also stops once its terms are within one unit of the fixed-point
    sum's last place, which a tolerance under that resolution (1e-24 at
    dps 15) would never meet.

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
        raise DomainError("bessel_i at x=0 with Re nu < 0")

    conj = nu.imag < 0  # I_{conj nu}(x) = conj I_nu(x) for real x
    if conj:
        nu = nu.conjugate()
    cfg = config.get()
    return mp.make_mpc(_i_series(_i_plan(nu, mp.prec), x, _settings(cfg)[1],
                                 cfg.max_terms, conj)[0])


def _i_exponent(plan, x):
    # the prefactor's exponent e = nu log(x/2) - lg at mp.prec, as a libmp
    # pair, by the libmp calls of the mpc/mpf operators
    prec = mp.prec
    lx = mpf_log(mpf_div(x._mpf_, _TWO, prec, _RND), prec, _RND)
    return mpc_sub(mpc_mul_mpf(plan[4], lx, prec, _RND), plan[5], prec, _RND)


def _i_series(plan, x, tol, max_terms, conj=False):
    # (I_nu(x), conjugated if conj, e) at Im nu >= 0, x > 0 from nu's plan
    # at mp.prec, as libmp pairs, by the libmp calls of the mpc/mpf
    # operators that formed c0 = exp(e) and c0 times the sum
    nu, mag = plan[4], plan[6]
    prec = mp.prec
    e = _i_exponent(plan, x)
    if mag is None or e[1] == fzero:
        c0 = mpc_exp(e, prec, _RND)
    else:  # mpc_exp, with the e^{Re e} of the plan (at Re nu = 0 no x in it)
        c, s = mpf_cos_sin(e[1], prec + 4, _RND)
        c0 = mpf_mul(mag, c, prec, _RND), mpf_mul(mag, s, prec, _RND)
    if nu[1] == fzero and mpf_sign(nu[0]) < 0:
        # reflection 1/Gamma(nu+1) = -Gamma(-nu) sin(pi nu)/pi keeps the
        # log-gamma argument off the negative real axis; sinpi stays fully
        # accurate near the removable zeros at integer order
        c0 = mpc_div_mpf(mpc_mul_mpf(mpc_neg(c0, prec, _RND), mpf_sin_pi(
            nu[0], prec, _RND), prec, _RND), mpf_pi(prec, _RND), prec, _RND)
    sr, si, wp, _, tail = _i_sum(plan, x, tol, max_terms)
    v = mpc_mul(c0, (from_man_exp(sr, -wp, prec, _RND),
                     from_man_exp(si, -wp, prec, _RND)), prec, _RND)
    if conj:
        v = mpc_conjugate(v, prec, _RND)
    if tail is not None:
        raise NonconvergenceError(
            "bessel_i series stalled", partial=mp.make_mpc(v),
            tail_estimate=abs(mp.make_mpc(c0)) * sqrt(mpf((tail, -2 * wp))))
    return v, e


@functools.lru_cache(maxsize=128)
def _i_plan(nu, prec):
    # nu = a + ib at 2^wp (k + nu can be as small as ib, so b keeps prec
    # bits of its own) and at index k the ratio (k + a - ib) / (k |k +
    # nu|^2) at 2^(wp + _RATIO_BITS), appended by _i_sum as terms are used;
    # then as libmp pairs nu and lg = ln Gamma(nu + 1), or -ln Gamma(-nu)
    # on the reflection branch (subtracting it adds ln Gamma(-nu), bit for
    # bit), and at Re nu = 0 mpc_exp's e^{-Re lg} at prec + 4, else None
    wp = prec + _GUARD + (max(0, -mp.mag(nu.imag)) if nu.imag else 0)
    lg = (mpc_neg(ln_gamma(-nu)._mpc_) if nu.imag == 0 and nu.real < 0
          else ln_gamma(nu + 1)._mpc_)
    a = mpf_sub(fzero, lg[0], prec, _RND)
    mag = mpf_exp(a, prec + 4, _RND) if nu.real == 0 and a != fzero else None
    return (wp, to_fixed(nu.real._mpf_, wp), to_fixed(nu.imag._mpf_, wp),
            [0], nu._mpc_, lg, mag)


def _tol_fraction(tol):
    # the series tolerance as n / 2^k, exactly, with k >= 0
    _, n, e, _ = mpf(tol)._mpf_
    return (n << e, 0) if e >= 0 else (n, -e)


def _settings(cfg):
    # what the I and K_{i tau} series read of cfg at mp.prec, converted
    # once: bessel_i's tolerance (rel_tol, or 10^-dps if smaller) as a
    # float and by _tol_fraction, and the loss threshold as a libmp value
    # (exactly the float, as an mpf comparison converts it)
    return _settings_memo(cfg.rel_tol, cfg.precision_loss_threshold, mp.prec)


@functools.lru_cache(maxsize=16)
def _settings_memo(rel_tol, threshold, prec):
    tol = min(rel_tol, 10.0 ** (-mp.dps))
    return tol, _tol_fraction(tol), from_float(threshold)


def _i_sum(plan, x, tol, max_terms):
    # I_nu(x) / c0 = sum_k t_k, t_k = t_{k-1} (x/2)^2 rho_k, at 2^wp: (Re,
    # Im, wp, terms past t_0, None or, if they ran out, |t_k|^2 at 2^2wp)
    wp, a, b, rho = plan[:4]
    sh = 2 * wp + _RATIO_BITS
    q = to_fixed(x._mpf_, wp) ** 2 >> (wp + 2)
    tol_n, tol_k = tol
    tr = sr = 1 << wp
    ti = si = 0
    prev = tr * tr
    streak = 0
    for k in range(1, max_terms + 1):
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
        if mag <= prev and (mag <= 2 or mag << 2 * tol_k
                            < tol_n * tol_n * (sr * sr + si * si)):
            streak += 1
            if streak >= 3:
                return sr, si, wp, k, None
        else:
            streak = 0
        prev = mag
    return sr, si, wp, k, mag


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

    cfg = config.get()
    return _j_point(nu, x, _j_plan(nu, mp.prec), _tol_fraction(cfg.rel_tol),
                    cfg.max_terms, _eps(), with_error)


def _j_point(nu, x, plan, tol, max_terms, eps, with_error):
    # bessel_j past its checks, from nu's plan at mp.prec: the per-point
    # work of bessel_j and _j_evaluator
    if x <= plan[0]:
        if x == 0:
            v = mpf(1) if nu == 0 else mpf(0)
            return (v, mpf(0)) if with_error else v
        c0, s, t, k, wp = _j_sum(nu, x, plan, tol, max_terms, eps)
        v = c0 * mpf((s, -wp))
        if not with_error:
            return v
        # each shift leaves a unit of 2^-wp, and the propagated ones
        # cancel along the alternating tail
        return v, (c0 * mpf((abs(t) + 4 * k, -wp)) + _ROUNDING * eps * abs(v))

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
                     + _ROUNDING * eps * (1 + x) * mpf((total, -wp)))


@functools.lru_cache(maxsize=128)
def _j_plan(nu, prec):
    # the branch switch, pi nu / 2, nu at 2^wp, 1/Gamma(nu+1) (with guard
    # bits: exp makes ln_gamma's absolute error a relative one) and at
    # index k the ratio 1/(k (k + nu)) at 2^(wp + _RATIO_BITS)
    wp = prec + _GUARD
    with workprec(wp):
        inv_gamma = exp(-ln_gamma(nu + 1).real)
    return (20 + nu ** 2 / 2, pi * nu / 2, wp, to_fixed(nu._mpf_, wp),
            +inv_gamma, [0])


def _j_sum(nu, x, plan, tol, max_terms, eps):
    # J_nu(x) = c0 sum_k t_k, t_k = -t_{k-1} (x/2)^2 / (k (k + nu)), at
    # 2^wp: (c0, sum, last term, terms past t_0, wp), or a raise if the
    # terms run out
    _, _, wp, a, inv_gamma, rho = plan
    sh = 2 * wp + _RATIO_BITS
    c0 = (x / 2) ** nu * inv_gamma
    q = to_fixed(x._mpf_, wp) ** 2 >> (wp + 2)
    tol_n, tol_k = tol
    floor = to_fixed((eps / c0)._mpf_, wp)
    t = s = 1 << wp
    for k in range(1, max_terms + 1):
        if k == len(rho):
            rho.append((1 << sh) // (k * ((k << wp) + a)))
        t = -t * rho[k] * q >> sh
        s += t
        if abs(t) << tol_k < tol_n * max(abs(s), floor):
            return c0, s, t, k, wp
    raise NonconvergenceError(
        "bessel_j series did not converge in %d terms" % max_terms,
        partial=c0 * mpf((s, -wp)), tail_estimate=c0 * mpf((abs(t), -wp)))


# tanh-sinh nodes on [-1, 1] by (degree, quad precision), shared by every
# _TanhSinh (mpmath.quad makes a new rule object per call), and the nodes
# moved to [a, b], which mpmath stores on their key's second sighting, for
# the newest _TS_INTERVALS_MAX (a, b, degree, precision) keys: K_0 and
# later tau at the same x reuse them
_TS_NODES, _TS_TRANSFORMED, _TS_SEEN = {}, {}, {}
_TS_INTERVALS_MAX = 32


class _TanhSinh(TanhSinh):
    """mpmath's tanh-sinh rule, its nodes in the _TS_ dicts, not mpmath's."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.standard_cache = _TS_NODES
        self.transformed_cache = _TS_TRANSFORMED
        self.interval_count = _TS_SEEN

    def get_nodes(self, a, b, degree, prec, verbose=False):
        nodes = super().get_nodes(a, b, degree, prec, verbose)
        for cache in (_TS_TRANSFORMED, _TS_SEEN):
            while len(cache) > _TS_INTERVALS_MAX:
                del cache[next(iter(cache))]
        return nodes


def _cosh_quad(x, g, maxdegree=None, growth=0):
    # (value, error) of int_0^T e^{-x cosh t} g(t) dt by tanh-sinh, for
    # |g(t)| <= e^{growth t}: x cosh T - growth T = x + digits ln 10 + 5
    # leaves a negligible tail.  T is the fixed point of T = acosh(1 +
    # (cut + growth T) / x), approached from below until within one unit
    # of the exponent.  quad's stop is absolute, so it sees
    # e^{x - x cosh t} g(t), which is g(0) at t = 0, and e^{-x} scales
    # the result: the stop is relative for any x
    cut = mpf(mp.dps) * log(mpf(10)) + 5
    T = acosh(1 + cut / x)
    while growth and x * cosh(T) - growth * T < x + cut - 1:
        T = acosh(1 + (cut + growth * T) / x)
    v, err = quad(lambda t: exp(x - x * cosh(t)) * g(t), [0, T],
                  error=True, maxdegree=maxdegree, method=_TanhSinh)
    return v * exp(-x), err * exp(-x)


def bessel_k_real(nu, x):
    """K_nu(x) for real nu >= 0, x > 0, by tanh-sinh quadrature of
    int_0^inf exp(-x cosh t) cosh(nu t) dt."""
    nu = mpf(nu)
    x = mpf(x)
    if x <= 0:
        raise DomainError("bessel_k_real requires x > 0")
    if mpf_gt(x._mpf_, _K_X_MAX):
        raise OverflowGuardError("x too large for the cosh-integral route")
    v, err = _cosh_quad(x, lambda t: cosh(nu * t), 10, growth=nu)
    if err > _ROUNDING * _eps() * abs(v):
        raise NonconvergenceError("bessel_k_real quadrature stalled",
                                  partial=v, tail_estimate=err)
    return v


def _checked(res, route, tau, loss):
    # on cache hits too: the threshold in force at call time applies
    if mpf_gt(res.rel_error._mpf_, loss):
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
    """Oracle route for K_{i tau}(x): the cosine integral in extended
    precision.  The relative error estimate carries the intrinsic
    exp(pi tau / 2) amplification of the absolute quadrature error."""
    tau, x = abs(mpf(tau)), mpf(x)  # even in tau
    if x <= 0:
        raise DomainError("k_itau_quad requires x > 0")
    key = (tau._mpf_, x._mpf_, mp.prec)
    res = _kq_cache.get(key)
    if res is None:
        v, qerr = _cosh_quad(x, lambda t: cos(tau * t), 9)
        # scale of the absolute roundoff floor: int |integrand| <= K_0(x)
        k0 = _k0(x, mp.prec)
        rel = (qerr + _eps() * k0) / abs(v) if v != 0 else mpf(1)
        res = KernelValue(value=v, rel_error=rel,
                          cancellation=(v != 0 and k0 / abs(v) > _CANC_FLAG))
        _cache_put(_kq_cache, key, res)
    return _checked(res, "k_itau_quad", tau, _settings(config.get())[2])


@functools.lru_cache(maxsize=128)
def _k0(x, prec):
    # K_0(x) by the same quadrature, shared by every tau at this x
    return _cosh_quad(x, lambda t: 1)[0]


def k_itau_series(tau, x, i_tau=None):
    """K_{i tau}(x) = -pi Im I_{i tau}(x) / sinh(pi tau), from one
    ascending I-series, or from i_tau when the caller has already summed
    bessel_i(1j * tau, x).

    This is pi [I_{-i tau} - I_{i tau}] / (2 i sinh(pi tau)) with
    I_{-i tau}(x) = conj I_{i tau}(x) for real x, so the second series
    is never summed.  Im I is a small part of |I| for x > tau, and exp(e),
    e = i tau log(x/2) - ln Gamma(1 + i tau), rounds by about eps |e|;
    the estimate is eps (c + |Re e| + |Im e|) (1 + |I| / |Im I|).  Where
    that loss is a priori above _PLAIN_DIGITS digits, the sum runs with
    guard bits, and a call raises if the estimate still crosses the loss
    threshold.  x > 700 raises OverflowGuardError."""
    tau, x = mpf(tau), mpf(x)
    # the key holds what the sum and the choice of a guarded sum read
    cfg = config.get()
    tol, tol_frac, loss = _settings(cfg)
    key = (tau._mpf_, x._mpf_, mp.prec, tol, cfg.max_terms, loss)
    res = _ks_cache.get(key)
    if res is None:
        res = _k_point(x, None if i_tau is None else i_tau._mpc_, tau, None,
                       tol_frac, cfg, _eps(), loss, _PLAIN_DIGITS)
        _cache_put(_ks_cache, key, res)
    return _checked(res, "k_itau_series", tau, loss)


def _k_point(x, i_tau, tau, kp, tol, cfg, eps, loss, digits):
    # k_itau_series and _k_evaluator from tau's _k_plan (kp, or None): the
    # series (i_tau: a libmp pair, or None) where _loss_bits keeps to
    # min(digits, dps - 10) digits and the estimate to loss, else summed
    # with guard bits, rounded back (eps more on the estimate).  x, tau > 0
    # finite: sign 0, a mantissa; x <= _K_X_MAX, the guard grows like 2.9 x
    if x._mpf_[0] or not x._mpf_[1] or tau._mpf_[0] or not tau._mpf_[1]:
        raise DomainError("k_itau_series requires finite x > 0, tau > 0")
    if mpf_gt(x._mpf_, _K_X_MAX):
        raise OverflowGuardError("x too large for the I-series route")
    kp = kp or _k_plan(tau, mp.prec)
    bits = _loss_bits(kp, x)
    if bits <= min(digits, mp.dps - 10) * _LOG2_10:
        i_tau, e = (_i_series(kp[0], x, tol, cfg.max_terms) if i_tau is None
                    else (i_tau, _i_exponent(kp[0], x)))
        res = _k_series(i_tau, e, kp, eps)
        if not mpf_gt(res.rel_error._mpf_, loss):
            return res
    # 10 bits over the a-priori loss, in steps of 32 so that nearby x
    # share plans
    with workprec(mp.prec + 32 * (int(bits + 10) // 32 + 1)):
        kp = _k_plan(tau, mp.prec)
        res = _k_series(*_i_series(kp[0], x, _settings(cfg)[1],
                                   cfg.max_terms), kp, _eps())
    return KernelValue(+res.value, res.rel_error + eps, res.cancellation)


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
    a, b = kp[3], kp[2] + math.log2(lx) if lx else -math.inf
    bits = max(a, b) + math.log2(1 + 2.0 ** -abs(a - b))
    t, xf = kp[4], float(x)
    r = 2 * (math.sqrt(xf * xf - t * t) - t * math.acos(t / xf)) if xf > t \
        else 0
    q = xf * xf / 4
    if q > t:  # else the terms fall from the first
        k = math.sqrt(2 * q * q / (math.sqrt(t ** 4 + 4 * q * q) + t * t))
        bits += max(0, (2 * k - t * math.atan(k / t) - r / 2) / _LN2
                    + math.log2(q) - _RATIO_BITS - _GUARD)
    return bits + r / _LN2


def _k_series(i_tau, e, plan, eps):
    # K_{i tau}(x) = -pi Im I_{i tau}(x) / sinh(pi tau) with its error
    # model, from I and the prefactor's exponent e as libmp pairs and tau's
    # _k_plan, by the libmp calls of the mpf operators
    prec, (re, im) = mp.prec, i_tau
    v = mpf_div(mpf_mul(mpf_neg(mpf_pi(prec, _RND), prec, _RND), im, prec,
                        _RND), plan[1], prec, _RND)
    canc_ratio = (mpf_div(mpf_hypot(re, im, prec, _RND),
                          mpf_abs(im, prec, _RND), prec, _RND)
                  if im != fzero else _NO_IMAG_RATIO._mpf_)
    scale = mpf_add(mpf_add(mpf_abs(e[0]), mpf_abs(e[1]), 30, _RND),
                    _ROUNDING_MPF, 30, _RND)  # >= c + |e|, to 30 bits
    rel_error = mpf_mul(mpf_mul(eps._mpf_, scale, prec, _RND),
                        mpf_add(canc_ratio, fone, prec, _RND), prec, _RND)
    return KernelValue(value=mp.make_mpf(v),
                       rel_error=mp.make_mpf(rel_error),
                       cancellation=mpf_gt(canc_ratio, _CANC_FLAG._mpf_))


def series_safe_x(index):
    """Where eps * e^{2x - pi index}, the large-x limit of the series'
    loss, reaches 1e-10: the quadrature tails' cap on K's argument.  Past
    it, and often before it, K_{i index} sums with guard bits."""
    margin = (mp.dps - 10) * log(mpf(10))
    return (margin + pi * mpf(index)) / 2


@functools.lru_cache(maxsize=128)
def _k_plan(tau, prec):
    # K_{i tau}'s needs of tau alone: I plan, sinh(pi tau), and for
    # _loss_bits log2 tau, log2(c + |lg|) and tau as floats
    ip = _i_plan(mpc(0, tau), prec)
    return (ip, sinh(pi * tau)._mpf_, float(log(tau, 2)),
            float(log(_ROUNDING + abs(mpc(*ip[5])), 2)), float(tau))


def k_index(index, x, i_tau=None):
    """K_{i*index}(x): K_0 by bessel_k_real, every other index by
    k_itau_series, which is handed i_tau.  K is even in the index, so
    both see |index|; both refuse x > 700 with OverflowGuardError."""
    index = mpf(index)
    if index < 0:  # with I_{-i t}(x) = conj I_{i t}(x) for real x
        index, i_tau = -index, i_tau and i_tau.conjugate()
    if index == 0:
        return bessel_k_real(0, x)
    return k_itau_series(index, x, i_tau=i_tau).value


# The quadrature integrands' evaluators: y -> k_index(index, y) and y ->
# bessel_j(nu, y, with_error) for the nodes of one integral, bit for bit,
# except that a K node takes guard bits only where it would keep fewer
# than 10 digits, not where it would lose _PLAIN_DIGITS: the tails run to
# series_safe_x, and a guard costs 1.5-2 sums per node.
# The config is read when one is made, the order's plans, tolerance and
# 10^-dps once per precision, on the first node (quad runs 20 bits up).
# At index 0, and at an order the public function refuses, it is called.

def _k_evaluator(index):
    if not (index and isfinite(index)):
        return lambda y: k_index(index, y)
    cfg, plans, last = config.get(), {}, [None, None]

    def k(y):
        y, prec = mpf(y), mp.prec
        if last[0] == (y, prec):  # a repeated argument: the last value
            return last[1]
        if prec not in plans:
            tau = abs(mpf(index))
            _, tol, loss = _settings(cfg)
            plans[prec] = (tau, _k_plan(tau, prec), tol, cfg, _eps(), loss,
                           math.inf)
        st = plans[prec]
        v = _checked(_k_point(y, None, *st), "k_itau_series", st[0],
                     st[-2]).value
        last[:] = (y, prec), v
        return v
    return k


def _j_evaluator(nu, with_error):
    if not (isfinite(nu) and nu > -1):
        return lambda y: bessel_j(nu, y, with_error)
    cfg, plans = config.get(), {}

    def j(y):
        y, prec = mpf(y), mp.prec
        if prec not in plans:
            n = mpf(nu)
            plans[prec] = (n, _j_plan(n, prec), _tol_fraction(cfg.rel_tol),
                           _eps())
        n, plan, tol, eps = plans[prec]
        return _j_point(n, y, plan, tol, cfg.max_terms, eps, with_error)
    return j
