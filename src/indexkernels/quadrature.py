"""The integral-representation routes.

The four kernel integrals implemented here give evaluation paths that are
independent of the series/hypergeometric routes in `kernels`:

* mehler_fock_quad    -- signed Mehler-Dirichlet integral for the conical
                         function,
* product_kernel_quad -- oscillatory J_0 integral for [I+I]K,
* whittaker_quad      -- Laplace-type K moment for W_{-mu, i tau}(2x),
* olevskii_quad       -- J_nu K moment for the conjugate-parameter 2F1.

The K_{i index} and J_nu factors inside the integrands are the bessel
module's point functions, _k_node and _j_point, which take the order's
plan from bessel's LRU memos.

Panels on which the integrand is analytic on and near the panel (the
product head and its tail ray, cut where it has decayed below quad's
stop, the olevskii tail, the mehler-fock panels past the first) run
Gauss-Legendre; both Whittaker panels and the first mehler-fock panel,
its endpoint singularity substituted away, run tanh-sinh
(special._TanhSinh).  Every integral goes through _quad, which caps the
degree and counts the integrand calls.  The two J-weighted integrals,
the product head and the olevskii tail, go through _j_quad: _panels
sizes its panels by J's period and breaks them at J's branch switch,
and J's own error joins the estimate.  The olevskii head on (0, 1] is
termwise: with J as a power series (_j_coeffs), each term against K's
ascending I series is a 1F2 at 1/4 (_head_vs_k).
_GaussLegendre builds the Gauss-Legendre nodes in fixed point and keeps
them here, not in mpmath's global rule: 0.012 s for degrees 1-6 at dps
40, where mpmath's mpf builder takes 0.20 s.
"""

import functools
import math
from dataclasses import dataclass

from mpmath import mp, mpf, mpc, workprec
from mpmath import asinh, cos, exp, log, pi, quad, re, sinh, sqrt
from mpmath.calculus.quadrature import GaussLegendre
from mpmath.libmp import from_float, to_fixed

from .bessel import (K_X_MAX, _ROUNDING, _j_point, _j_switch, _k_node,
                     series_safe_x)
from .errors import DomainError, NonconvergenceError, OverflowGuardError
from . import special
from .special import _GUARD, _TanhSinh, _eps, hyp1f2, ln_gamma

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


def _panels(a, b, step, cut=None):
    # a, ..., b: each panel min(step, 2 * its left end) long (step from 0);
    # cut, J's branch switch, where J jumps by its error, is an end in (a, b)
    pts = [a]
    while pts[-1] < b:
        pts.append(min(pts[-1] + min(step, 2 * pts[-1] or step), b))
    return sorted(pts + [cut]) if cut is not None and a < cut < b else pts


def _k_cutoff():
    return mpf(mp.dps) * log(mpf(10)) + 15


def _j_coeffs(nu, x):
    """Ascending coefficients of J_nu(x y) = sum_j c_j y^{nu + 2j}, down to
    10^-(dps+5), by the term ratio of J's series."""
    tol = mpf(10) ** (-mp.dps - 5)
    coeffs = [exp(nu * log(x / 2) - ln_gamma(nu + 1).real)]
    q = (x / 2) ** 2
    for j in range(1, special.MAX_TERMS + 1):
        coeffs.append(-coeffs[-1] * q / (j * (j + nu)))
        if abs(coeffs[-1]) <= tol and j >= 4:
            return coeffs
    raise NonconvergenceError("J coefficient series did not converge in %d "
                              "terms" % special.MAX_TERMS)


def _head_vs_k(mu, a, coeffs, order):
    """int_0^1 y^{mu-1} [sum_j c_j y^{a+2j}] K_{i*order}(y) dy, exactly,
    by termwise integration against the ascending I_{i*order} series, and
    the rounding estimate of its sum over j.

    The K factor oscillates in log y near 0, which defeats direct
    quadrature on (0, 1]; the series form integrates each power in
    closed form instead.  As in k_itau_series, the I_{-i*order} sum is
    the conjugate of the I_{i*order} one S, so K contributes
    -pi Im S / sinh(pi order).  With sigma = i order and beta = mu + a +
    2j + sigma, c_j y^{mu+a+2j-1} against I_sigma's series integrates to
    2^-sigma / Gamma(sigma+1) c_j / beta 1F2(beta/2; beta/2+1, sigma+1;
    1/4), since 1/(beta + 2k) = (beta/2)_k / (beta (beta/2+1)_k)."""
    sigma = 1j * mpf(order)
    w = pi * mpc(2) ** -sigma * exp(-ln_gamma(sigma + 1)) / sinh(pi * order)
    betas = [mu + a + 2 * j + sigma for j in range(len(coeffs))]
    terms = [c / b * hyp1f2(b / 2, b / 2 + 1, sigma + 1, mpf(1) / 4)
             for c, b in zip(coeffs, betas)]
    return (-(w * sum(terms)).imag,
            _ROUNDING * _eps() * abs(w) * sum(map(abs, terms)))


def _j_quad(nu, c, w, pts, b):
    # (value, error estimate, integrand calls) of int J_nu(c y) w(y) over
    # pts + _panels(1, b, 8 pi / c, J's switch / c), J with its error: b
    # times the largest J_err w at a node joins quad's
    worst = [mpf(0)]

    def f(y):
        v, v_err = _j_point(nu, c * y, True)
        wy = w(y)
        worst[0] = max(worst[0], abs(v_err * wy))
        return v * wy

    pts = pts + _panels(mpf(1), b, 8 * pi / c, _j_switch(nu) / c)
    v, err, nodes = _quad(f, pts, _GaussLegendre)
    return v, err + b * worst[0], nodes


def mehler_fock_quad(mu, tau, x):
    """P^{-mu}_{-1/2+i tau}(cosh xi), xi = asinh 2x, as the Mehler-Dirichlet
    integral (DLMF 14.12) sqrt(2/pi) sinh(xi)^-mu / Gamma(mu+1/2)
    int_0^xi cos(tau t) (cosh xi - cosh t)^{mu-1/2} dt, a QuadResult.

    In s = xi - t the base is 2 sinh(xi - s/2) sinh(s/2), which does not
    cancel.  The first panel, s <= min(xi, pi/tau), runs tanh-sinh in
    u = s^{mu+1/2}, where the endpoint factor is bounded; the rest runs
    Gauss-Legendre on panels of at most pi/tau."""
    mu, tau, x = mpf(mu), mpf(tau), mpf(x)
    if mu <= mpf(-1) / 2:
        raise DomainError("mehler_fock_quad requires mu > -1/2")
    if tau <= 0 or x <= 0:
        raise DomainError("mehler_fock_quad requires tau > 0, x > 0")
    xi, a = asinh(2 * x), mu + mpf(1) / 2
    s1, worst = min(xi, pi / tau), [mpf(0)]

    def f(s, per=1):
        # the integrand in s, or with per = s, a times the integrand in u
        v = (cos(tau * (xi - s))
             * (2 * sinh(xi - s / 2) * sinh(s / 2) / per) ** (a - 1))
        worst[0] = max(worst[0], abs(v))
        return v

    def f_u(u):
        s = u ** (1 / a)
        return f(s, s)

    head, err_h, n_h = _quad(f_u, [mpf(0), s1 ** a], _TanhSinh)
    rest, err, n_r = _quad(f, _panels(s1, xi, pi / tau), _GaussLegendre)
    # the value falls far below the integral of |f| as tau grows: add
    # the rounding of a sum of nodes as large as the largest
    err += err_h / a + _ROUNDING * _eps() * (s1 ** a / a + xi - s1) * worst[0]
    pref = sqrt(2 / pi) * (2 * x) ** -mu * exp(-ln_gamma(a).real)
    return QuadResult(pref * (head / a + rest), pref * err, n_h + n_r)


def _hankel0_pq(z):
    # P + iQ at z = 1/w: sum_{n<12} a_n (iz)^n, summed by Horner on
    # fixed-point integers
    wp, coeffs, _ = _hankel0_coeffs(mp.prec)
    ur, ui = to_fixed((-z.imag)._mpf_, wp), to_fixed(z.real._mpf_, wp)
    pr = pi_ = 0
    for c in coeffs:
        pr, pi_ = (pr * ur - pi_ * ui) >> wp, (pr * ui + pi_ * ur) >> wp
        pr += c
    return mpc(mpf((pr, -wp)), mpf((pi_, -wp)))


@functools.lru_cache(maxsize=16)
def _hankel0_coeffs(prec):
    # (wp = prec + _GUARD, _hankel0_pq's a_11..a_0 at 2^wp, a_12) of the
    # large-argument H_0 coefficients a_0 = 1, a_n = -a_{n-1} (2n-1)^2 /
    # (8n), at prec: a_12 bounds the truncation
    a = [mpf(1)]
    for n in range(1, 13):
        a.append(a[-1] * -(2 * n - 1) ** 2 / (8 * n))
    wp = prec + _GUARD
    return wp, [to_fixed(c._mpf_, wp) for c in reversed(a[:12])], a[12]


def product_kernel_quad(tau, x):
    """2 int_0^inf J_0(2 x sinh t) cos(2 tau t) dt via u = sinh t.

    Finite part on [0, U] on panels of up to four J_0 periods (_j_quad);
    the tail is rotated into the upper half-plane where the outgoing
    Hankel factor decays exponentially.  Trusted for tau <=
    PRODUCT_QUAD_TAU_CAP: the cos(2 tau asinh u) factor grows along the
    rotated ray."""
    tau, x = mpf(tau), mpf(x)
    if x <= 0 or tau < 0:
        raise DomainError("product_kernel_quad requires x > 0, tau >= 0")
    if tau > PRODUCT_QUAD_TAU_CAP:
        raise NonconvergenceError(
            "oscillatory cancellation beyond the trusted tau range",
            partial=None, tail_estimate=None)

    U = max(mpf(25), 25 / (2 * x))
    head, err_h, n_h = _j_quad(
        mpf(0), 2 * x, lambda u: cos(2 * tau * asinh(u)) / sqrt(1 + u ** 2),
        [mpf(0)], U)
    tail, err_t, n_t = _product_tail(tau, x, U)
    v = 2 * (head + re(1j * tail))
    # Hankel truncation floor: first omitted asymptotic term at the corner
    trunc = abs(_hankel0_coeffs(mp.prec)[2]) / (2 * x * U) ** 12
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

    def h(y):
        return (exp(-x * y) * (y + 1) ** (-mu - mpf(1) / 2)
                * _k_node(tau, x * (y + 1)))

    # keep the K argument x(y+1) inside series_safe_x, past which every
    # node takes guard bits; Y > 1
    Y = min(_k_cutoff() / x + 1, max(series_safe_x(tau) / x - 1, mpf(2)))
    head, err_h, n_h = _quad(lambda s: h(s ** (1 / mu)), [0, 1], _TanhSinh)
    tail, err, n_t = _quad(lambda y: y ** (mu - 1) * h(y), [1, Y], _TanhSinh)
    err += err_h / mu + Y ** max(mu - 1, mpf(0)) * exp(-2 * x * Y) / x
    pref = sqrt(2 * x / pi) * exp(-ln_gamma(mu).real)
    return QuadResult(pref * (head / mu + tail), pref * err, n_h + n_t)


def olevskii_quad(mu, nu, tau, x):
    """Conjugate-parameter 2F1 at -x^2 as the moment int_0^inf y^{mu-1}
    J_nu(x y) K_{2 i tau}(y) dy, normalized by 2^{2-mu} x^{-nu}
    Gamma(nu+1) / |Gamma((mu+nu)/2+i tau)|^2."""
    mu, nu, tau, x = mpf(mu), mpf(nu), mpf(tau), mpf(x)
    if mu + nu <= 0:
        raise DomainError("olevskii_quad requires mu + nu > 0")
    if nu <= -1:
        raise DomainError("olevskii_quad requires nu > -1")
    if not (0 < mu < mpf(3) / 2):
        raise DomainError("olevskii_quad requires 0 < mu < 3/2")
    if tau <= 0 or x <= 0:
        raise DomainError("olevskii_quad requires tau > 0, x > 0")
    if x > OLEVSKII_QUAD_X_CAP:
        raise NonconvergenceError(
            "oscillatory tail beyond the trusted x range",
            partial=None, tail_estimate=None)

    # split at y = 1: the tail by _j_quad up to Y, where K has decayed,
    # then the head termwise (_head_vs_k), whose rounding joins the
    # estimate.  Y keeps K's argument inside series_safe_x, past which
    # every node takes guard bits; the K_0 envelope bounds the cut tail
    Y = min(_k_cutoff(), series_safe_x(2 * tau))
    tail, err, nodes = _j_quad(
        nu, x, lambda y: y ** (mu - 1) * _k_node(2 * tau, y), [], Y)
    head, head_err = _head_vs_k(mu, nu, _j_coeffs(nu, x), 2 * tau)
    err += head_err + 2 * Y ** max(mu - 1, mpf(0)) * exp(-Y)
    lg2 = 2 * ln_gamma((mu + nu) / 2 + 1j * tau).real
    pref = 2 ** (2 - mu) * x ** (-nu) * exp(ln_gamma(nu + 1).real - lg2)
    return QuadResult(pref * (head + tail), pref * err, nodes)
