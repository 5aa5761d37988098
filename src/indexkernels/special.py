"""Complex gamma machinery and generalized hypergeometric series.

Everything here works in mpmath extended precision (>= 30 significant
digits, see config.Config.dps) so that later kernel assemblies can resolve
terms of size exp(-pi*tau/2) inside quantities of size 1.
"""

import functools
from dataclasses import dataclass

from mpmath import mp, mpf, mpc, workdps
from mpmath import bernoulli, cos, exp, factorial, log, pi, quad, sqrt

from . import config
from .errors import DomainError, NonconvergenceError, PoleError


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
    # prec is part of the key only: the body reads mp.dps, which is a
    # function of mp.prec
    if z == 0 or _is_nonpositive_int(z):
        raise PoleError("log-gamma pole at nonpositive integer %s" % z)
    if z.imag == 0 and z.real < 0:
        raise DomainError("log-gamma not evaluated on the negative real axis")

    # Re w >= target keeps |arg w| <= pi/4 after the shift, where the
    # Stirling tail bottoms out below ~10^(-2.7*|w|).
    target = max(mpf(12), mpf(mp.dps + 8) / mpf("2.5"))
    w = z
    corr = mpc(0)
    while w.real < target:
        corr += log(w)
        w += 1

    s = (w - mpf(1) / 2) * log(w) - w + log(2 * pi) / 2
    w2 = w * w
    p = w
    prev = None
    eps = _eps()
    for n in range(1, 200):
        term = bernoulli(2 * n) / ((2 * n) * (2 * n - 1) * p)
        mag = abs(term)
        if prev is not None and mag >= prev:
            break  # asymptotic series bottomed out
        s += term
        prev = mag
        if mag < eps * abs(s):
            break
        p *= w2
    return s - corr


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
    if abs(z) < config.get().binet_floor:
        raise NonconvergenceError(
            "binet_r below modulus floor |z| >= %g" % config.get().binet_floor)
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


def _series_sum(nums, dens, z, ctl):
    """Taylor sum of prod (a)_k z^k / (prod (b)_k k!).

    Returns (sum, max_term_magnitude, terms_used).  Stops after three
    consecutive terms that are below rel_tol * |partial sum| with
    decreasing magnitudes (complex-parameter series are not monotone
    termwise).
    """
    term = mpc(1)
    s = mpc(1)
    max_mag = mpf(1)
    prev_mag = mpf(1)
    tol = mpf(ctl.rel_tol, prec=53)  # the float exactly, at any mp.prec
    streak = 0
    for k in range(ctl.max_terms):
        num = mpc(z)
        for a in nums:
            num *= a + k
        den = mpc(k + 1)
        for b in dens:
            den *= b + k
        term = term * num / den
        s += term
        mag = abs(term)
        if mag > max_mag:
            max_mag = mag
        if mag < tol * abs(s) and mag <= prev_mag:
            streak += 1
            if streak >= 3:
                return s, max_mag, k + 1
        else:
            streak = 0
        prev_mag = mag
    raise NonconvergenceError(
        "hypergeometric series did not converge in %d terms" % ctl.max_terms,
        partial=s, tail_estimate=abs(term))


def _series_adaptive(nums, dens, z, ctl):
    """Sum with automatic precision escalation when interior terms dwarf
    the result (large imaginary parameters)."""
    extra = 0
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
