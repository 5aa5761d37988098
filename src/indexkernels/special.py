"""Complex gamma machinery and generalized hypergeometric series.

Everything here works in mpmath extended precision, at mp.prec alone, so
that later kernel assemblies can resolve terms of size exp(-pi*tau/2)
inside quantities of size 1.  The 1F1, 1F2 and 2F1 series are summed by
mpmath's hypsum, to working precision: in fixed point, with guard bits
that grow with the cancellation it measures (F. Johansson, "Computing
hypergeometric functions rigorously", ACM TOMS 45(3), 2019).  ln_gamma
is mpmath's libmp mpc_loggamma at working precision, memoized;
gamma_via_binet is an independent route to Gamma by the Binet integral,
on _TanhSinh: mpmath's tanh-sinh rule with its nodes kept here, not in
mpmath's global rule (quadrature's Whittaker panels use it too).
"""

import functools

from mpmath import mp, mpf, mpc
from mpmath import bernoulli, exp, factorial, log, pi, quad, sqrt
from mpmath.calculus.quadrature import TanhSinh
from mpmath.libmp import NoConvergence, mpc_loggamma, round_nearest

from .errors import DomainError, NonconvergenceError, PoleError

# binet_r refuses |z| below this floor
BINET_FLOOR = 1.0 / 16.0
# terms any series (here, in bessel and kernels.whittaker_direct's
# series218) may take before it raises NonconvergenceError
MAX_TERMS = 10000


def _eps():
    return _eps_memo(mp.prec)


@functools.lru_cache(maxsize=16)
def _eps_memo(prec):
    return mpf(10) ** (-mp.dps)  # mp.dps is a function of mp.prec


def _is_nonpositive_int(z):
    z = mpc(z)
    if z.imag != 0:
        return False
    r = z.real
    return r <= 0 and r == int(r)


# ---------------------------------------------------------------------------
# log-gamma: mpmath's libmp mpc_loggamma (production path)
# ---------------------------------------------------------------------------

def ln_gamma(z):
    """Principal-branch log-gamma for z off the nonpositive real axis.

    The value is mpmath's libmp mpc_loggamma at working precision, rounded
    to nearest: Stirling's series after an argument shift, with its own
    guard bits, the reflection for Re z < 0 and the expansions about the
    zeros at z = 1 and 2.  It fills mpmath's libmp.gammazeta tables, one
    entry per precision or per coefficient used: bernoulli_cache (which
    bernoulli() fills too) and gamma_stirling_cache, and for real z
    gamma_taylor_cache with the zeta_int_cache and borwein_cache behind
    it.  The Binet-integral route (gamma_via_binet) shares none of that
    code and stays available as an independent cross-check.

    Values are memoized on (z rounded to working precision, mp.prec): the
    Gamma factors of a grid sweep depend on tau or on fixed parameters,
    not on x, so most calls repeat an earlier argument.  The cached body
    is the same call, so a hit is bit-identical to a fresh call.  Errors
    are raised on every call and never cached.
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
    return mp.make_mpc(mpc_loggamma(z._mpc_, prec, round_nearest))


def gamma_c(z):
    """Gamma via exp(ln_gamma)."""
    return exp(ln_gamma(z))


# tanh-sinh nodes on [-1, 1] by (degree, quad precision), shared by every
# _TanhSinh (mpmath.quad makes a new rule object per call), and the nodes
# moved to [a, b], which mpmath stores on their key's second sighting, for
# the newest _TS_INTERVALS_MAX (a, b, degree, precision) keys
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
    j = quad(lambda t: exp(-w * t) * _binet_h(t), [0, mp.inf],
             method=_TanhSinh)
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


# bits that the fixed-point Bessel and Hankel sums (bessel, quadrature)
# carry beyond mp.prec
_GUARD = 24


def _series_adaptive(nums, dens, z):
    """Taylor sum of prod (a)_k z^k / (prod (b)_k k!) to working precision
    by mpmath's hypsum: fixed-point terms at 50 or more bits beyond
    mp.prec, rerun at more bits while cancellation leaves the sum short,
    in at most MAX_TERMS terms.
    """
    params = nums + dens
    for c in params + [z]:
        if not mp.isfinite(c):  # hypsum would read it as 0
            raise NonconvergenceError("hypergeometric series at %s" % c)
    try:
        return mpc(mp.hypsum(len(nums), len(dens), ("C",) * len(params),
                             params, z, maxterms=MAX_TERMS))
    except NoConvergence:
        raise NonconvergenceError(
            "hypergeometric series did not converge in %d terms"
            % MAX_TERMS) from None
    except ValueError:  # hypsum's precision cap
        raise NonconvergenceError(
            "hypergeometric series cancelled past mpmath's precision "
            "cap") from None


def hyp1f2(a, b1, b2, z):
    """1F2(a; b1, b2; z), entire in z."""
    if _is_nonpositive_int(b1) or _is_nonpositive_int(b2):
        raise PoleError("1F2 lower parameter at a nonpositive integer")
    return _series_adaptive([mpc(a)], [mpc(b1), mpc(b2)], mpc(z))


def hyp1f1(a, b, z):
    """Kummer 1F1(a; b; z) with the cancellation-guarded Kummer transform.

    For Re z < 0 with |z| > |b - a| the transform
    1F1(a;b;z) = e^z 1F1(b-a; b; -z) is applied.
    """
    a, b, z = mpc(a), mpc(b), mpc(z)
    if _is_nonpositive_int(b):
        raise PoleError("1F1 lower parameter at a nonpositive integer")
    if z.real < 0 and abs(z) > abs(b - a):
        return exp(z) * _series_adaptive([b - a], [b], -z)
    return _series_adaptive([a], [b], z)


def hyp2f1(a, b, c, z):
    """Gauss 2F1(a, b; c; z) for real z <= 0.

    Direct series for -1/2 <= z <= 0; for z < -1/2 the Pfaff transform
    (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)), whose argument lies in (1/3, 1).
    """
    a, b, c = mpc(a), mpc(b), mpc(c)
    z = mpf(z)
    if _is_nonpositive_int(c):
        raise PoleError("2F1 lower parameter at a nonpositive integer")
    if z > 0:
        raise DomainError("2F1 route restricted to real z <= 0")
    if 2 * z < -1:
        return (1 - z) ** (-a) * _series_adaptive([a, c - b], [c],
                                                  mpc(z / (z - 1)))
    return _series_adaptive([a, b], [c], mpc(z))


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
