"""Complex gamma machinery and generalized hypergeometric series.

Everything here works in mpmath extended precision (>= 30 significant
digits, see config.Config.dps) so that later kernel assemblies can resolve
terms of size exp(-pi*tau/2) inside quantities of size 1.  The 1F1, 1F2
and 2F1 series are summed in fixed point, as mpmath's libhyper does: on
Python integers scaled by 2^(mp.prec + _GUARD), each term from the last
by its exact ratio, the sum rounded to mp.prec once.  ln_gamma runs with
the same guard bits and rounds once on return.
"""

import functools
import math
from dataclasses import dataclass

from mpmath import mp, mpf, mpc, workdps, workprec
from mpmath import bernoulli, exp, factorial, log, pi, quad, sqrt
from mpmath.libmp import to_fixed

from . import config
from .errors import DomainError, NonconvergenceError, PoleError

# binet_r refuses |z| below this floor
BINET_FLOOR = 1.0 / 16.0


@dataclass(frozen=True)
class SeriesControl:
    rel_tol: float = 1e-24
    max_terms: int = 10000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


def default_ctl():
    cfg = config.get()
    return SeriesControl(rel_tol=cfg.rel_tol, max_terms=cfg.max_terms)


def _eps():
    return mpf(10) ** (-mp.dps)


def _is_nonpositive_int(z):
    z = mpc(z)
    if z.imag != 0:
        return False
    r = z.real
    return r <= 0 and r == int(r)


# ---------------------------------------------------------------------------
# log-gamma: recurrence shift + Stirling series (production path)
# ---------------------------------------------------------------------------

def ln_gamma(z):
    """Principal-branch log-gamma for z off the nonpositive real axis.

    Argument recurrence pushes Re z up until the Stirling series converges
    below working precision; the Binet-integral route (gamma_via_binet)
    stays available as an independent cross-check.

    Values are memoized on (z rounded to working precision, mp.prec): the
    Gamma factors of a grid sweep depend on tau or on fixed parameters,
    not on x, so most calls repeat an earlier argument.  The cached body
    is the same arithmetic, so a hit is bit-identical to a fresh call.
    Errors are raised on every call and never cached.
    """
    return _ln_gamma_memo(mpc(z), mp.prec)


@functools.lru_cache(maxsize=1024)
def _ln_gamma_memo(z, prec):
    if not mp.isfinite(z):
        raise DomainError("log-gamma of the non-finite %s" % z)
    if z == 0 or _is_nonpositive_int(z):
        raise PoleError("log-gamma pole at nonpositive integer %s" % z)
    if z.imag == 0 and z.real < 0:
        raise DomainError("log-gamma not evaluated on the negative real axis")

    # Re w >= dps + 8 keeps |arg w| <= pi/4 and needs about dps / 2
    # Stirling terms; a shift step costs far less than a term
    m = max(0, int(mp.ceil(mp.dps + 8 - z.real)))
    x, y = float(z.real), float(z.imag)
    with workprec(prec + _GUARD):
        # one log of the product of the z + j, exact Gaussian integers
        # over 2^e cut to 2 prec bits per step, so z next to a pole keeps
        # its bits; the float sum of their arguments fixes the branch
        e = max(0, -z.real._mpf_[2], -z.imag._mpf_[2])
        zr, zi = to_fixed(z.real._mpf_, e), to_fixed(z.imag._mpf_, e)
        pr, pi_, args, sh = 1, 0, 0.0, -e * m
        for j in range(m):
            ar = zr + (j << e)
            pr, pi_ = pr * ar - pi_ * zi, pr * zi + pi_ * ar
            args += math.atan2(y, x + j)
            n = max(pr.bit_length(), pi_.bit_length()) - 2 * prec
            if n > 0:
                pr, pi_, sh = pr >> n, pi_ >> n, sh + n
        corr = log(mpc(mpf((pr, sh)), mpf((pi_, sh))))
        corr += 2j * pi * round((args - float(corr.imag)) / (2 * math.pi))
        w = z + m

        s = (w - mpf(1) / 2) * log(w) - w + log(2 * pi) / 2
        p = 1 / w
        r2 = p * p
        for c in _stirling_coeffs(mp.prec):
            s += c * p
            p *= r2
        v = s - corr
    return +v


@functools.lru_cache(maxsize=16)
def _stirling_coeffs(prec):
    # B_2n / (2n (2n - 1)); at Re w >= dps + 8 the first term left out,
    # n = prec // 9 + 3, is below 2^-(prec + 11) for dps 3 to 400
    return tuple(bernoulli(2 * n) / ((2 * n) * (2 * n - 1))
                 for n in range(1, prec // 9 + 3))


def gamma_c(z):
    """Gamma via exp(ln_gamma)."""
    return exp(ln_gamma(z))


# ---------------------------------------------------------------------------
# Binet remainder r(z): Gamma(z) = sqrt(2 pi) exp((z-1/2) log z - z) (1+r(z))
# ---------------------------------------------------------------------------

def _binet_h_series(t):
    # [1/2 - 1/t + 1/(e^t - 1)] / t = sum_{n>=1} B_{2n} t^{2n-2} / (2n)!
    s = mpf(0)
    t2 = t * t
    p = mpf(1) if t.imag == 0 else mpc(1)
    eps = _eps()
    for n in range(1, 80):
        term = bernoulli(2 * n) / factorial(2 * n) * p
        s += term
        if abs(term) < eps * abs(s):
            break
        p *= t2
    return s


def _binet_h(t):
    if t < mpf(1) / 2:
        return _binet_h_series(t)
    return (mpf(1) / 2 - 1 / t + 1 / (exp(t) - 1)) / t


def binet_r(z):
    """Stirling correction factor r(z), |arg z| <= pi/2, by quadrature.

    The defining integral converges slowly near the imaginary axis, so the
    recurrence r-form of the Binet function is used to shift to a point
    with Re w >= max(10, |Im z|) where the integrand decays exponentially;
    the shift itself is exact algebra, independent of the Stirling series.
    """
    z = mpc(z)
    if abs(z) < BINET_FLOOR:
        raise NonconvergenceError(
            "binet_r below modulus floor |z| >= %g" % BINET_FLOOR)
    if z.real < 0:
        raise DomainError("binet_r requires |arg z| <= pi/2")

    target = max(mpf(10), abs(z.imag))
    w = z
    corr = mpc(0)
    while w.real < target:
        # mu(w) = mu(w+1) + (w + 1/2) log(1 + 1/w) - 1
        corr += (w + mpf(1) / 2) * log(1 + 1 / w) - 1
        w += 1
    j = quad(lambda t: exp(-w * t) * _binet_h(t), [0, mp.inf])
    return exp(j + corr) - 1


def gamma_via_binet(z):
    """Gamma assembled from the Stirling prefactor and binet_r (cross-check
    route, not the production path)."""
    z = mpc(z)
    return sqrt(2 * pi) * exp((z - mpf(1) / 2) * log(z) - z) * (1 + binet_r(z))


# ---------------------------------------------------------------------------
# Pochhammer and hypergeometric series
# ---------------------------------------------------------------------------

def pochhammer(a, m):
    """Rising factorial (a)_m, m a nonnegative integer."""
    if m < 0 or m != int(m):
        raise DomainError("pochhammer order must be a nonnegative integer")
    a = mpc(a)
    p = mpc(1)
    for k in range(int(m)):
        p *= a + k
    return p


# bits that ln_gamma and the fixed-point sums carry beyond mp.prec
_GUARD = 24


def _tol_fraction(tol):
    # the series tolerance as n / 2^k, exactly, with k >= 0
    _, n, e, _ = mpf(tol)._mpf_
    return (n << e, 0) if e >= 0 else (n, -e)


def _series_sum(nums, dens, z, ctl):
    """Taylor sum of prod (a)_k z^k / (prod (b)_k k!) in fixed point:
    Gaussian integers scaled by 2^(mp.prec + _GUARD), each term the last
    times the exact ratio z prod (a + k) / ((k + 1) prod (b + k)), taken
    as one floor division per component by the denominator's squared
    modulus after a product with its conjugate.

    Returns (sum, max_term_magnitude, terms_used), rounded to mp.prec.
    Stops after three consecutive terms below rel_tol * |partial sum|
    with non-increasing magnitudes (complex-parameter series are not
    monotone termwise), compared exactly as squared integers.
    """
    wp = mp.prec + _GUARD

    def fixed(c):
        if not mp.isfinite(c):  # to_fixed would read it as 0
            raise NonconvergenceError("hypergeometric series at %s" % c)
        return to_fixed(c.real._mpf_, wp), to_fixed(c.imag._mpf_, wp)
    zr, zi = fixed(z)
    ups = [fixed(a) for a in nums]
    lows = [fixed(b) for b in dens]
    # the numerator carries 2^(wp (1 + len(nums))), the squared modulus
    # 2^(2 wp len(dens)); needs len(dens) <= len(nums) + 1
    shift = wp * (1 + len(nums) - len(dens))
    tol_n, tol_k = _tol_fraction(ctl.rel_tol)
    tr = sr = 1 << wp
    ti = si = 0
    prev = max_mag = tr * tr
    streak = 0
    for k in range(ctl.max_terms):
        nr, ni, dr, di = zr, zi, k + 1, 0
        for ar, ai in ups:
            ar += k << wp
            nr, ni = nr * ar - ni * ai, nr * ai + ni * ar
        for br, bi in lows:
            br += k << wp
            dr, di = dr * br - di * bi, dr * bi + di * br
        nr, ni = tr * nr - ti * ni, tr * ni + ti * nr
        d = (dr * dr + di * di) << shift
        tr, ti = (nr * dr + ni * di) // d, (ni * dr - nr * di) // d
        sr += tr
        si += ti
        mag = tr * tr + ti * ti
        max_mag = max(max_mag, mag)
        if (mag <= prev and mag << 2 * tol_k
                < tol_n * tol_n * (sr * sr + si * si)):
            streak += 1
            if streak >= 3:
                return (mpc(mpf((sr, -wp)), mpf((si, -wp))),
                        sqrt(mpf((max_mag, -2 * wp))), k + 1)
        else:
            streak = 0
        prev = mag
    raise NonconvergenceError(
        "hypergeometric series did not converge in %d terms" % ctl.max_terms,
        partial=mpc(mpf((sr, -wp)), mpf((si, -wp))),
        tail_estimate=sqrt(mpf((mag, -2 * wp))))


# the float dry run declines above this many digits of estimated loss
_DRY_RUN_MAX_LOSS = 12


def _dry_run_extra(nums, dens, z, ctl):
    # _series_sum's recurrence and stopping rule in complex floats; returns
    # the extra digits a first pass at mp.dps would choose, or 0 to decline
    try:
        zf = complex(z)
        nf = [complex(a) for a in nums]
        df = [complex(b) for b in dens]
        term = s = 1 + 0j
        max_mag = abs_sum = prev_mag = 1.0
        tol = ctl.rel_tol
        streak = 0
        for k in range(ctl.max_terms - 8):  # near the cap the mp pass decides
            num = zf
            for a in nf:
                num *= a + k
            den = complex(k + 1)
            for b in df:
                den *= b + k
            term = term * num / den
            s += term
            mag = abs(term)
            abs_sum += mag
            if mag > max_mag:
                max_mag = mag
            if mag < tol * abs(s) and mag <= prev_mag:
                streak += 1
                if streak >= 3:
                    break
            elif not mag < 1e300:
                return 0  # overflow or nan; below it, the sums stay finite
            else:
                streak = 0
            prev_mag = mag
        else:
            return 0
        mod = abs(s)
    except (OverflowError, ZeroDivisionError):
        return 0
    if mod == 0:
        return 0
    lg = math.log10(max_mag / mod)
    if lg >= _DRY_RUN_MAX_LOSS:
        return 0
    # relative error of max_mag / |s| (float rounding per term, the
    # working-precision pass's own rounding, a stop a few terms apart);
    # it bounds the error of lg since 1 / ln 10 < 1
    err = (32 * (k + 1) * abs_sum / mod * (2.0 ** -52 + 2.0 ** -mp.prec)
           + 8 * tol)
    near = round(lg)
    if near != 0 and abs(lg - near) <= err:
        return 0  # int() may jump at a nonzero integer; 0 is no jump
    loss = int(lg) + 1
    return loss + 10 if loss > 0 else 0


def _series_adaptive(nums, dens, z, ctl):
    """Sum with automatic precision escalation when interior terms dwarf
    the result (large imaginary parameters).

    The digits lost to cancellation are log10(max term / |sum|).  A dry
    run of the same series in complex floats (_dry_run_extra) estimates
    them, so the first mp pass already runs at mp.dps + loss + 10, the
    precision a pass at mp.dps would have escalated to; the loop then
    accepts it, or escalates further, as always.  The dry run declines
    (extra = 0, the first pass at mp.dps) when floats cannot be trusted
    to give the same integer: a non-finite term or sum, a zero sum, no
    convergence within max_terms - 8 terms, a loss above
    _DRY_RUN_MAX_LOSS digits, or a log10 within its error bound of a
    nonzero integer.  The passes, and so the value, are the ones the
    two-pass loop ran whenever the dry run's integer matches.
    """
    extra = _dry_run_extra(nums, dens, z, ctl)
    while True:
        with workdps(mp.dps + extra):
            s, max_mag, _ = _series_sum(nums, dens, z, ctl)
            if s == 0:
                loss = 0
            else:
                loss = int(mp.log10(max_mag / abs(s))) + 1
        if loss <= extra:
            return mpc(s)
        extra = loss + 10


def hyp1f2(a, b1, b2, z, ctl=None):
    """1F2(a; b1, b2; z), entire in z."""
    ctl = ctl or default_ctl()
    if _is_nonpositive_int(b1) or _is_nonpositive_int(b2):
        raise PoleError("1F2 lower parameter at a nonpositive integer")
    return _series_adaptive([mpc(a)], [mpc(b1), mpc(b2)], mpc(z), ctl)


def hyp1f1(a, b, z, ctl=None):
    """Kummer 1F1(a; b; z) with the cancellation-guarded Kummer transform.

    For Re z < 0 with |z| > |b - a| the transform
    1F1(a;b;z) = e^z 1F1(b-a; b; -z) is applied.
    """
    ctl = ctl or default_ctl()
    a, b, z = mpc(a), mpc(b), mpc(z)
    if _is_nonpositive_int(b):
        raise PoleError("1F1 lower parameter at a nonpositive integer")
    if z.real < 0 and abs(z) > abs(b - a):
        return exp(z) * _series_adaptive([b - a], [b], -z, ctl)
    return _series_adaptive([a], [b], z, ctl)


# half-width of the dual-evaluation window around the Gauss/Pfaff switch
_SWITCH_WINDOW = 0.01


def hyp2f1(a, b, c, z, ctl=None):
    """Gauss 2F1(a, b; c; z) for real z <= 0.

    Direct series for -1 < z <= 0; Pfaff transform to z/(z-1) in [1/2, 1)
    for z <= -1.  Near z = -1 the two Pfaff variants (pulling out
    (1-z)^(-a) vs (1-z)^(-b)) both run and must agree to 10*rel_tol,
    otherwise a NumericalFailureError is raised.
    """
    ctl = ctl or default_ctl()
    a, b, c = mpc(a), mpc(b), mpc(c)
    z = mpf(z)
    if _is_nonpositive_int(c):
        raise PoleError("2F1 lower parameter at a nonpositive integer")
    if z > 0:
        raise DomainError("2F1 route restricted to real z <= 0")

    def direct():
        return _series_adaptive([a, b], [c], mpc(z), ctl)

    def pfaff_a():
        zp = z / (z - 1)
        return (1 - z) ** (-a) * _series_adaptive([a, c - b], [c], mpc(zp), ctl)

    def pfaff_b():
        zp = z / (z - 1)
        return (1 - z) ** (-b) * _series_adaptive([c - a, b], [c], mpc(zp), ctl)

    if abs(z + 1) < _SWITCH_WINDOW:
        # the direct sum stalls here (term ratio -> 1), so cross-check the
        # two Pfaff variants, which stay geometric at z/(z-1) ~ 1/2
        v_a = pfaff_a()
        v_b = pfaff_b()
        ref = max(abs(v_a), abs(v_b))
        if ref > 0 and abs(v_a - v_b) > 10 * mpf(ctl.rel_tol) * ref:
            from .errors import NumericalFailureError
            raise NumericalFailureError(
                "2F1 Pfaff variant mismatch at z=%s" % z)
        return v_a
    if z <= -1:
        return pfaff_a()
    return direct()


def hyp2f1_term2(k, rho, tau):
    """Terminating 2F1(-k; i*tau + rho + 1/2; 1 + 2*i*tau; 2), exact sum."""
    if k < 0 or k != int(k):
        raise DomainError("k must be a nonnegative integer")
    rho, tau = mpf(rho), mpf(tau)
    s = mpc(0)
    term = mpc(1)
    for m in range(int(k) + 1):
        if m > 0:
            term *= (mpf(2) / m) * (-k + m - 1) * (1j * tau + rho + mpf(1) / 2
                                                   + m - 1) / (1 + 2j * tau + m - 1)
        s += term
    return s
