"""The integral-representation routes.

The four kernel integrals implemented here give evaluation paths that are
independent of the series/hypergeometric routes in `kernels`:

* mehler_fock_sq     -- squared conical-function modulus as a J^2 K moment,
* product_kernel_quad -- oscillatory J_0 integral for [I+I]K,
* whittaker_quad     -- Laplace-type K moment for W_{-mu, i tau}(2x),
* olevskii_quad      -- J_nu K moment for the conjugate-parameter 2F1.

The K_{i index} and J_nu factors inside the integrands come from the
bessel module's per-integral evaluators, which return k_index's and
bessel_j's values with the order's work done once per integral.

Panels on which the integrand is analytic on and near the panel (the
product head and its tail ray, cut where it has decayed below quad's
stop, the olevskii and mehler-fock tails) run Gauss-Legendre; both
Whittaker panels run tanh-sinh (bessel._TanhSinh).  Every integral goes
through _quad, which caps the degree and counts the integrand calls;
_panels cuts the oscillatory ranges at a fixed step.  _GaussLegendre
builds the Gauss-Legendre nodes in fixed point and keeps them in this
module, not in mpmath's global rule: 0.012 s for degrees 1-6 at dps 40,
where mpmath's mpf builder takes 0.20 s.
"""

import functools
import math
from dataclasses import dataclass

from mpmath import mp, mpf, mpc, workprec
from mpmath import asinh, cos, exp, log, pi, quad, re, sinh, sqrt
from mpmath.calculus.quadrature import GaussLegendre
from mpmath.libmp import from_float, to_fixed

from .bessel import (K_X_MAX, _ROUNDING, _TanhSinh, _j_evaluator,
                     _k_evaluator, asymptotic_table, series_safe_x)
from .errors import (DomainError, NonconvergenceError, NumericalFailureError,
                     OverflowGuardError)
from .special import _GUARD, _eps, ln_gamma

# the oscillatory product-kernel quadrature is trusted for tau <= this
PRODUCT_QUAD_TAU_CAP = 2.0
# the olevskii quadrature's oscillatory tail is trusted for x <= this
OLEVSKII_QUAD_X_CAP = 10.0
# mpmath.quad's maxdegree on every panel of the four routes; Gauss-Legendre
# degree m is 3 * 2^(m-1) nodes, built by _GaussLegendre once per precision
MAXDEGREE = 6


@dataclass
class QuadResult:
    value: object
    abs_error_estimate: object
    nodes_used: int


# Gauss-Legendre nodes on [-1, 1] by (degree, quad precision), shared by
# every _GaussLegendre: mpmath.quad makes a new rule object per call
_GL_NODES = {}


class _GaussLegendre(GaussLegendre):
    """mpmath's Gauss-Legendre rule with its nodes built by Newton's method
    on fixed-point integers and kept in _GL_NODES, not in mpmath's rule."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.standard_cache = _GL_NODES

    def calc_nodes(self, degree, prec, verbose=False):
        # mpmath's nodes in mpmath's order, rounded to its 1.5 prec
        wp = int(prec * 1.5)
        if degree == 1:
            with workprec(wp):
                x, w = sqrt(mpf(3) / 5), mpf(5) / 9
                return [(-x, w), (mpf(0), mpf(8) / 9), (x, w)]
        n = 3 * 2 ** (degree - 1)
        W = wp + _GUARD
        one = 1 << W
        # a last Newton step a leaves the weight off by 2x/(1-x^2) a < n^2 a:
        # stop that far below mpmath's 2^-(prec+8)
        stop = 1 << (W - prec - 8 - 2 * n.bit_length())
        nodes = []
        for j in range(1, n // 2 + 1):
            # float Newton on P_n from mpmath's cosine guess, to about 50 bits
            x = math.cos(math.pi * (j - 0.25) / (n + 0.5))
            for _ in range(3):
                p, q = x, 1.0
                for k in range(2, n + 1):
                    p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
                x -= p * (x * x - 1) / (n * (x * p - q))
            # then on integers scaled by 2^W
            r = to_fixed(from_float(x), W)
            while True:
                p, q = r, one
                for k in range(2, n + 1):
                    p, q = ((2 * k - 1) * (r * p >> W) - (k - 1) * q) // k, p
                dp = (n * ((r * p >> W) - q) << W) // ((r * r >> W) - one)
                a = (p << W) // dp
                r -= a
                if abs(a) < stop:
                    break
            w = (2 << 4 * W) // ((one - (r * r >> W)) * dp * dp)
            w = mpf((w, -W), prec=wp)
            nodes += [(mpf((r, -W), prec=wp), w), (mpf((-r, -W), prec=wp), w)]
        return nodes


def _quad(f, pts, method):
    # mpmath.quad at MAXDEGREE: (value, error estimate, integrand calls)
    calls = [0]

    def g(t):
        calls[0] += 1
        return f(t)

    v, err = quad(g, pts, error=True, maxdegree=MAXDEGREE, method=method)
    return v, err, calls[0]


def _panels(a, b, step):
    # a, a + step, a + 2 step, ..., with the last point cut back to b
    pts = [a]
    while pts[-1] < b:
        pts.append(min(pts[-1] + step, b))
    return pts


def _k_cutoff():
    return mpf(mp.dps) * log(mpf(10)) + 15


def _j_coeffs(nu, x):
    """Ascending coefficients of J_nu(x y) = sum_j c_j y^{nu + 2j}, down
    to 10^-(dps+5)."""
    tol = mpf(10) ** (-mp.dps - 5)
    c0 = exp(nu * log(x / 2) - ln_gamma(nu + 1).real)
    coeffs = [c0]
    q = (x / 2) ** 2
    j = 0
    while abs(coeffs[-1]) > tol or j < 4:
        j += 1
        coeffs.append(-coeffs[-1] * q / (j * (j + nu)))
        if j > 400:
            raise NonconvergenceError("J coefficient series stalled",
                                      partial=None, tail_estimate=None)
    return coeffs


def _square_coeffs(coeffs):
    n = len(coeffs)
    return [sum(coeffs[i] * coeffs[j - i] for i in range(j + 1))
            for j in range(n)]


def _head_vs_k(mu, a, coeffs, order):
    """int_0^1 y^{mu-1} [sum_j c_j y^{a+2j}] K_{i*order}(y) dy, exactly,
    by termwise integration against the ascending I_{i*order} series.

    The K factor oscillates in log y near 0, which defeats direct
    quadrature on (0, 1]; the series form integrates each power in
    closed form instead.  As in k_itau_series, the I_{-i*order} sum is
    the conjugate of the I_{i*order} one S, so K contributes
    -pi Im S / sinh(pi order)."""
    order = mpf(order)
    sigma = 1j * order
    tol = mpf(10) ** (-mp.dps - 5)
    gk = exp(ln_gamma(sigma + 1))              # Gamma(sigma + k + 1) at k=0
    two_s = mpc(2) ** (-sigma)
    p = mpf(1)                                 # 4^-k / k!
    s = mpc(0)
    k = 0
    while True:
        w = p / gk * two_s
        inner = mpc(0)
        for j, c in enumerate(coeffs):
            inner += c / (mu + a + 2 * j + 2 * k + sigma)
        term = w * inner
        s += term
        if abs(term) < tol * (1 + abs(s)) and k > 3:
            break
        k += 1
        gk = gk * (sigma + k)
        p /= 4 * k
        if k > 300:
            raise NonconvergenceError("head series stalled",
                                      partial=s, tail_estimate=None)
    return -pi * s.imag / sinh(pi * order)


def mehler_fock_sq(mu, tau, x):
    """2 int_0^inf J_mu(x y)^2 K_{2 i tau}(y) dy, the squared modulus of
    the conical function times its gamma weight.  Nonnegative real.

    Split at y = 1: the head is integrated termwise (see _head_vs_k), the
    tail by panel quadrature with the exponentially decaying K factor."""
    mu = mpf(mu)
    tau = mpf(tau)
    x = mpf(x)
    if mu <= mpf(-1) / 2:
        raise DomainError("mehler_fock_sq requires mu > -1/2")
    if tau <= 0 or x <= 0:
        raise DomainError("mehler_fock_sq requires tau > 0, x > 0")
    cj = _square_coeffs(_j_coeffs(mu, x))
    head = _head_vs_k(mpf(1), 2 * mu, cj, 2 * tau)

    j, k = _j_evaluator(mu, False), _k_evaluator(2 * tau)

    def f(y):
        return j(x * y) ** 2 * k(y)

    # keep the K argument inside series_safe_x, past which every node
    # takes guard bits; beyond it the K_0 envelope bounds the dropped tail
    Y = min(_k_cutoff(), series_safe_x(2 * tau))
    pts = [p for p in (mpf(1), mpf(5), mpf(15)) if p < Y] + [Y]
    tail, err, _ = _quad(f, pts, _GaussLegendre)
    err += 2 * exp(-Y)
    v = 2 * (head + tail)
    if v < -2 * err:
        raise NumericalFailureError(
            "mehler_fock_sq negative beyond error estimate")
    return max(v, mpf(0))


def _hankel0_pq(z):
    # P + iQ at z = 1/w: the table's signs are those of i^n, so P + iQ =
    # sum_{n<12} a_n (iz)^n, summed by Horner on fixed-point integers
    wp, coeffs = _hankel0_coeffs(mp.prec)
    ur, ui = to_fixed((-z.imag)._mpf_, wp), to_fixed(z.real._mpf_, wp)
    pr = pi_ = 0
    for c in coeffs:
        pr, pi_ = (pr * ur - pi_ * ui) >> wp, (pr * ui + pi_ * ur) >> wp
        pr += c
    return mpc(mpf((pr, -wp)), mpf((pi_, -wp)))


@functools.lru_cache(maxsize=16)
def _hankel0_coeffs(prec):
    # _hankel0_pq's a_n at 2^(prec + _GUARD), from n = 11 down to 0
    wp = prec + _GUARD
    table = asymptotic_table(0)[:12]
    return wp, [to_fixed((c if n % 4 < 2 else -c)._mpf_, wp)
                for n, c in reversed(list(enumerate(table)))]


def product_kernel_quad(tau, x):
    """2 int_0^inf J_0(2 x sinh t) cos(2 tau t) dt via u = sinh t.

    Finite part on [0, U] split at the J_0 oscillation scale; the tail is
    rotated into the upper half-plane where the outgoing Hankel factor
    decays exponentially.  Trusted for tau <= PRODUCT_QUAD_TAU_CAP: the
    cos(2 tau asinh u) factor grows along the rotated ray."""
    tau = mpf(tau)
    x = mpf(x)
    if x <= 0 or tau < 0:
        raise DomainError("product_kernel_quad requires x > 0, tau >= 0")
    if tau > PRODUCT_QUAD_TAU_CAP:
        raise NonconvergenceError(
            "oscillatory cancellation beyond the trusted tau range",
            partial=None, tail_estimate=None)

    U = max(mpf(25), 25 / (2 * x))
    worst = [mpf(0)]  # largest |J_0 error| times its node's other factor
    j0 = _j_evaluator(0, True)

    def f(u):
        j, j_err = j0(2 * x * u)
        w = cos(2 * tau * asinh(u)) / sqrt(1 + u ** 2)
        worst[0] = max(worst[0], abs(j_err * w))
        return j * w

    pts = [mpf(0)] + _panels(mpf(1), U, max(pi / (2 * x), mpf(1)))
    head, err_h, n_h = _quad(f, pts, _GaussLegendre)
    err_h += U * worst[0]

    tail, err_t, n_t = _product_tail(tau, x, U)
    v = 2 * (head + re(1j * tail))
    # Hankel truncation floor: first omitted asymptotic term at the corner
    trunc = abs(asymptotic_table(0)[12]) / (2 * x * U) ** 12
    return QuadResult(v, 2 * (err_h + err_t) + trunc, n_h + n_t)


def _tail_ray(tau, x, U):
    # on w = U + is, H_0^(1)(2xw) is amp e^{-2xs} (P + iQ) / sqrt(w), and
    # asinh w = log(w + r) with r = sqrt(1 + w^2) since Re w > 0
    amp = sqrt(1 / (pi * x)) * exp(1j * (2 * x * U - pi / 4))

    def tail_ray(s):
        w = U + 1j * s
        r = sqrt(1 + w * w)
        return (amp * exp(-2 * x * s) * _hankel0_pq(1 / (2 * x * w))
                * cos(2 * tau * log(w + r)) / (sqrt(w) * r))
    return tail_ray


def _product_tail(tau, x, U):
    # (value, error estimate, nodes) of the tail ray on [0, S].  With 2xU >=
    # 25, |P + iQ| < 2, |cos(2 tau log(w + r))| <= e^{pi tau} (0 <= arg(w +
    # r) < pi/2) and |sqrt(w) r| >= U^{3/2}, so |tail_ray| <= 2x bound
    # e^{-2xs}: past S it adds under 2^-prec e^{-10} bound, and the rounding
    # of its prefactors, tens of eps, under eps bound.  Panels of length 3U
    # keep the singularities at w = 0, +-i, at height U over s = 0, far
    # enough for a degree-6 panel to converge
    bound = exp(pi * tau) / (x * sqrt(pi * x) * U ** 1.5)
    S = (mp.prec * log(2) + pi * tau + 10) / (2 * x)
    tail, err, nodes = _quad(_tail_ray(tau, x, U), _panels(mpf(0), S, 3 * U),
                             _GaussLegendre)
    return tail, err + bound * (exp(-2 * x * S) + _ROUNDING * _eps()), nodes


def whittaker_quad(mu, tau, x):
    """W_{-mu, i tau}(2x) as the Laplace-type K moment
    (1/Gamma(mu)) sqrt(2x/pi) int_0^inf y^{mu-1} h(y) dy, with
    h(y) = e^{-xy} (y+1)^{-mu-1/2} K_{i tau}(x(y+1)).  On [0, 1] the
    substitution s = y^mu turns the y^{mu-1} endpoint singularity into
    (1/mu) int_0^1 h(s^{1/mu}) ds."""
    mu = mpf(mu)
    tau = mpf(tau)
    x = mpf(x)
    if mu <= 0:
        raise DomainError("whittaker_quad requires mu > 0")
    if tau <= 0 or x <= 0:
        raise DomainError("whittaker_quad requires tau > 0, x > 0")
    if 2 * x + _k_cutoff() > K_X_MAX - 1:  # bounds x(Y + 1) below
        raise OverflowGuardError("whittaker_quad: K's argument passes %d"
                                 % K_X_MAX)

    k = _k_evaluator(tau)

    def h(y):
        return exp(-x * y) * (y + 1) ** (-mu - mpf(1) / 2) * k(x * (y + 1))

    # keep the K argument x(y+1) inside series_safe_x, past which every
    # node takes guard bits; Y > 1
    Y = min(_k_cutoff() / x + 1, max(series_safe_x(tau) / x - 1, mpf(2)))
    head, err_h, n_h = _quad(lambda s: h(s ** (1 / mu)), [0, 1], _TanhSinh)
    tail, err, n_t = _quad(lambda y: y ** (mu - 1) * h(y), [1, Y], _TanhSinh)
    err += err_h / mu + Y ** max(mu - 1, mpf(0)) * exp(-2 * x * Y) / x
    pref = sqrt(2 * x / pi) * exp(-ln_gamma(mu).real)
    return QuadResult(pref * (head / mu + tail), pref * err, n_h + n_t)


def olevskii_quad(mu, nu, tau, x):
    """Conjugate-parameter 2F1 at -x^2 as the J_nu K_{2 i tau} moment,
    normalized by 2^{2-mu} x^{-nu} Gamma(nu+1) / |Gamma((mu+nu)/2+i tau)|^2."""
    mu = mpf(mu)
    nu = mpf(nu)
    tau = mpf(tau)
    x = mpf(x)
    if mu + nu <= 0:
        raise DomainError("olevskii_quad requires mu + nu > 0")
    if not (0 < mu < mpf(3) / 2):
        raise DomainError("olevskii_quad requires 0 < mu < 3/2")
    if tau <= 0 or x <= 0:
        raise DomainError("olevskii_quad requires tau > 0, x > 0")
    if x > OLEVSKII_QUAD_X_CAP:
        raise NonconvergenceError(
            "oscillatory tail beyond the trusted x range",
            partial=None, tail_estimate=None)

    head = _head_vs_k(mu, nu, _j_coeffs(nu, x), 2 * tau)

    j, k = _j_evaluator(nu, False), _k_evaluator(2 * tau)

    def f(y):
        return y ** (mu - 1) * j(x * y) * k(y)

    Y = min(_k_cutoff(), series_safe_x(2 * tau))
    pts = _panels(mpf(1), Y, max(pi / x, mpf(4)))
    tail, err, nodes = _quad(f, pts, _GaussLegendre)
    err += 2 * Y ** max(mu - 1, mpf(0)) * exp(-Y)
    lg2 = 2 * ln_gamma((mu + nu) / 2 + 1j * tau).real
    pref = 2 ** (2 - mu) * x ** (-nu) * exp(ln_gamma(nu + 1).real - lg2)
    return QuadResult(pref * (head + tail), pref * err, nodes)