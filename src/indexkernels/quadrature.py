"""The integral-representation routes.

The four kernel integrals implemented here give evaluation paths that are
independent of the series/hypergeometric routes in `kernels`:

* mehler_fock_sq     -- squared conical-function modulus as a J^2 K moment,
* product_kernel_quad -- oscillatory J_0 integral for [I+I]K,
* whittaker_quad     -- Laplace-type K moment for W_{-mu, i tau}(2x),
* olevskii_quad      -- J_nu K moment for the conjugate-parameter 2F1.

The imaginary-order K factor inside the integrands is supplied by the
bessel module (series route for small index, quadrature above), cached on
the node set.
"""

from dataclasses import dataclass

from mpmath import mp, mpf, mpc
from mpmath import (asinh, cos, exp, factorial, inf, log, pi, quad, re,
                    sinh, sqrt)

from .bessel import asymptotic_table, bessel_j, k_index, series_safe_x
from .errors import DomainError, NonconvergenceError, NumericalFailureError
from .special import ln_gamma

# the oscillatory product-kernel quadrature is trusted for tau <= this
PRODUCT_QUAD_TAU_CAP = 2.0
# the olevskii quadrature's oscillatory tail is trusted for x <= this
OLEVSKII_QUAD_X_CAP = 10.0


@dataclass
class QuadResult:
    value: object
    abs_error_estimate: object
    nodes_used: int


def _counted(f):
    box = [0]

    def g(t):
        box[0] += 1
        return f(t)

    return g, box


def _k_cutoff():
    return mpf(mp.dps) * log(mpf(10)) + 15


def _j_coeffs(nu, x, tol):
    """Ascending coefficients of J_nu(x y) = sum_j c_j y^{nu + 2j}."""
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
    by termwise integration against the ascending I_{+-i*order} series.

    The K factor oscillates in log y near 0, which defeats direct
    quadrature on (0, 1]; the series form integrates each power in
    closed form instead."""
    order = mpf(order)
    s = mpc(0)
    for sigma in (1j * order, -1j * order):
        gk = exp(ln_gamma(sigma + 1))          # Gamma(sigma + k + 1) at k=0
        ssum = mpc(0)
        k = 0
        while True:
            w = mpf(2) ** (-2 * k) / (factorial(k) * gk) * mpc(2) ** (-sigma)
            inner = mpc(0)
            for j, c in enumerate(coeffs):
                inner += c / (mu + a + 2 * j + 2 * k + sigma)
            term = w * inner
            ssum += term
            if abs(term) < mpf(10) ** (-mp.dps - 5) * (1 + abs(ssum)) and k > 3:
                break
            k += 1
            gk = gk * (sigma + k)
            if k > 300:
                raise NonconvergenceError("head series stalled",
                                          partial=ssum, tail_estimate=None)
        if sigma.imag > 0:
            s -= ssum
        else:
            s += ssum
    # pi [I_{-i order} - I_{i order}] / (2 i sinh(pi order)), termwise
    return (pi * s / (2j * sinh(pi * order))).real


def mehler_fock_sq(mu, tau, x, maxdegree=6):
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
    tol = mpf(10) ** (-mp.dps - 5)
    cj = _square_coeffs(_j_coeffs(mu, x, tol))
    head = _head_vs_k(mpf(1), 2 * mu, cj, 2 * tau)

    def f(y):
        return bessel_j(mu, x * y) ** 2 * k_index(2 * tau, y)

    # keep the K argument inside the series-safe region; beyond it the
    # K_0 envelope bounds the dropped tail
    Y = min(_k_cutoff(), series_safe_x(2 * tau))
    g, box = _counted(f)
    pts = [p for p in (mpf(1), mpf(5), mpf(15)) if p < Y] + [Y]
    tail, err = quad(g, pts, error=True, maxdegree=maxdegree)
    err += 2 * exp(-Y)
    v = 2 * (head + tail)
    if v < -2 * err:
        raise NumericalFailureError(
            "mehler_fock_sq negative beyond error estimate")
    return max(v, mpf(0))


def _hankel0_asym(w):
    # large-argument H_0^(1) = sqrt(2/(pi w)) e^{i(w - pi/4)} (P + i Q), P
    # and Q the even and odd parts of sum_{n<12} c_n w^{-n} over the signed
    # table; valid here with Im w > 0 heading to decay
    c = asymptotic_table(0)
    pq = [mpc(0), mpc(0)]
    r = mpc(1)
    inv_w = 1 / w
    for n in range(12):
        pq[n % 2] += c[n] * r
        r *= inv_w
    return sqrt(2 / (pi * w)) * exp(1j * (w - pi / 4)) * (pq[0] + 1j * pq[1])


def product_kernel_quad(tau, x, maxdegree=6):
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
    f = lambda u: (bessel_j(0, 2 * x * u) * cos(2 * tau * asinh(u))
                   / sqrt(1 + u ** 2))
    pts = [mpf(0), mpf(1)]
    step = max(pi / (2 * x), mpf(1))
    p = mpf(1)
    while p < U:
        p += step
        pts.append(min(p, U))
    g, box = _counted(f)
    head, err_h = quad(g, pts, error=True, maxdegree=maxdegree)

    def tail_ray(s):
        box[0] += 1
        w = U + 1j * s
        return (_hankel0_asym(2 * x * w) * cos(2 * tau * asinh(w))
                / sqrt(1 + w ** 2))

    tail, err_t = quad(tail_ray, [0, inf], error=True, maxdegree=maxdegree)
    v = 2 * (head + re(1j * tail))
    # Hankel truncation floor: first omitted asymptotic term at the corner
    trunc = abs(asymptotic_table(0)[12]) / (2 * x * U) ** 12
    return QuadResult(v, 2 * (err_h + abs(err_t)) + trunc, box[0])


def whittaker_quad(mu, tau, x, maxdegree=6):
    """W_{-mu, i tau}(2x) as the Laplace-type K moment
    (1/Gamma(mu)) sqrt(2x/pi) int_0^inf y^{mu-1} e^{-xy} (y+1)^{-mu-1/2}
    K_{i tau}(x(y+1)) dy; the endpoint singularity for mu < 1 is absorbed
    by tanh-sinh."""
    mu = mpf(mu)
    tau = mpf(tau)
    x = mpf(x)
    if mu <= 0:
        raise DomainError("whittaker_quad requires mu > 0")
    if tau <= 0 or x <= 0:
        raise DomainError("whittaker_quad requires tau > 0, x > 0")

    def f(y):
        if y <= 0:
            return mpf(0)
        return (y ** (mu - 1) * exp(-x * y) * (y + 1) ** (-mu - mpf(1) / 2)
                * k_index(tau, x * (y + 1)))

    # keep the K argument x(y+1) inside the series-safe region
    Y = min(_k_cutoff() / x + 1, max(series_safe_x(tau) / x - 1, mpf(2)))
    g, box = _counted(f)
    v, err = quad(g, [0, 1, Y] if Y > 1 else [0, Y], error=True,
                  maxdegree=maxdegree)
    err += Y ** max(mu - 1, mpf(0)) * exp(-2 * x * Y) / x
    pref = sqrt(2 * x / pi) * exp(-ln_gamma(mu).real)
    return QuadResult(pref * v, pref * err, box[0])


def olevskii_quad(mu, nu, tau, x, maxdegree=6):
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

    tol = mpf(10) ** (-mp.dps - 5)
    head = _head_vs_k(mu, nu, _j_coeffs(nu, x, tol), 2 * tau)

    def f(y):
        return y ** (mu - 1) * bessel_j(nu, x * y) * k_index(2 * tau, y)

    Y = min(_k_cutoff(), series_safe_x(2 * tau))
    pts = [mpf(1)]
    step = max(pi / x, mpf(4))
    p = mpf(1)
    while p < Y:
        p += step
        pts.append(min(p, Y))
    g, box = _counted(f)
    tail, err = quad(g, pts, error=True, maxdegree=maxdegree)
    err += 2 * Y ** max(mu - 1, mpf(0)) * exp(-Y)
    lg2 = 2 * ln_gamma((mu + nu) / 2 + 1j * tau).real
    pref = 2 ** (2 - mu) * x ** (-nu) * exp(ln_gamma(nu + 1).real - lg2)
    return QuadResult(pref * (head + tail), pref * err, box[0])