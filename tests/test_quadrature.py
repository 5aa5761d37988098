"""The four integral kernel routes.

Pinned values computed with mpmath at dps=60.
"""

import functools

import mpmath
import pytest
from mpmath import mp, mpc, mpf
from mpmath.calculus.quadrature import GaussLegendre

from indexkernels import bessel, quadrature
from indexkernels.bessel import bessel_k_real, k_itau_quad
from indexkernels.errors import NonconvergenceError, OverflowGuardError
from indexkernels.quadrature import (OLEVSKII_QUAD_X_CAP, PRODUCT_QUAD_TAU_CAP,
                                     _GaussLegendre, _head_vs_k, _j_coeffs,
                                     _product_tail, _square_coeffs, _tail_ray,
                                     mehler_fock_sq, olevskii_quad,
                                     product_kernel_quad, whittaker_quad)
from indexkernels.special import ln_gamma

PROD_15_08 = mpf("0.39963824944900481601009080283")
OLEV_PIN = mpf("0.735925581477794741204783046603")
CONICAL_PIN = mpf("0.404999183551956847454720383896")


def rel(a, b):
    return abs(a - b) / max(abs(b), mpf("1e-30"))


class TestProductKernelQuad:
    def test_pinned(self):
        r = product_kernel_quad(mpf("1.5"), mpf("0.8"))
        assert rel(r.value, PROD_15_08) < mpf("1e-16")

    def test_error_estimate_honest(self):
        r = product_kernel_quad(mpf("1.5"), mpf("0.8"))
        assert abs(r.value - PROD_15_08) <= r.abs_error_estimate * 10

    def test_large_index_refused(self):
        with pytest.raises(NonconvergenceError):
            product_kernel_quad(mpf(PRODUCT_QUAD_TAU_CAP) + 1, mpf(1))

    @pytest.mark.parametrize("tau", ["0.25", "1", "2"])
    @pytest.mark.parametrize("x", ["0.2", "1", "3"])
    def test_estimate_covers_error(self, tau, x):
        # the estimate carries J_0's own error, which jumps where J_0
        # switches to its asymptotic series and dominates at x = 3
        r = product_kernel_quad(mpf(tau), mpf(x))
        with mpmath.workdps(60):
            it = 1j * mpf(tau)
            ref = (2 * mpmath.besseli(it, mpf(x)).real
                   * mpmath.besselk(it, mpf(x)).real)
        assert abs(r.value - ref) <= r.abs_error_estimate

    def test_node_count(self):
        assert product_kernel_quad(mpf("0.5"), mpf(1)).nodes_used <= 1100


@functools.cache
def _tail_reference(tau, x):
    # U and the rotated tail ray on [0, inf) by mpmath's tanh-sinh at
    # maxdegree 10 and dps 90, 30 digits past the grid's largest dps
    with mpmath.workdps(90):
        U = max(mpf(25), 25 / (2 * x))
        return U, mpmath.quad(_tail_ray(tau, x, U), [0, mpmath.inf],
                              maxdegree=10)


class TestProductTail:
    # the Gauss-Legendre panels on [0, S] against the whole ray: the
    # estimate covers quad's error, the dropped ray past S and the
    # rounding of the integrand's prefactors, which dominates at dps 25
    # and 40 (tanh-sinh on [0, inf) erred 7e-41 at dps 60, x = 1/16, and
    # one Gauss-Legendre panel 5e-48 at dps 60, x = 1/2)
    @pytest.mark.parametrize("dps", [25, 40, 60])
    @pytest.mark.parametrize("x", [(1, 16), (3, 16), (1, 2), (1, 1), (20, 1)],
                             ids=["1/16", "3/16", "1/2", "1", "20"])
    def test_estimate_covers_error(self, dps, x):
        x = mpf(x[0]) / x[1]
        for tau in (mpf("0.25"), mpf(1), mpf(2)):
            U, ref = _tail_reference(tau, x)
            with mpmath.workdps(dps):
                tail, est, _ = _product_tail(tau, x, U)
            assert abs(tail - ref) <= est, (dps, x, tau, abs(tail - ref), est)


class TestMehlerFockSq:
    def test_matches_conical_square(self):
        # integral equals Gamma(mu + 1/2 + i tau)|^2 P^2; pinned P from
        # the associated Legendre oracle
        mu, tau, x = mpf("0.4"), mpf(2), mpf("0.5")
        sq = mehler_fock_sq(mu, tau, x)
        g = mpmath.exp(2 * ln_gamma(mu + mpf("0.5") + 1j * tau).real)
        assert rel(mpmath.sqrt(sq / g), CONICAL_PIN) < mpf("1e-12")

    def test_positive(self):
        assert mehler_fock_sq(mpf("0.3"), mpf(1), mpf(1)) > 0


class TestWhittakerQuad:
    def test_against_oracle(self):
        # whittaker_quad(mu, tau, x) computes W_{-mu, i tau}(2x); the
        # representation needs mu > 0
        r = whittaker_quad(mpf("0.3"), mpf(2), mpf("0.25"))
        ref = mpmath.whitw(mpf("-0.3"), 2j, mpf("0.5")).real
        assert rel(r.value, ref) < mpf("1e-12")

    def test_against_oracle_second_point(self):
        r = whittaker_quad(mpf("0.2"), mpf(1), mpf("0.4"))
        ref = mpmath.whitw(mpf("-0.2"), 1j, mpf("0.8")).real
        assert rel(r.value, ref) < mpf("1e-8")

    @pytest.mark.parametrize("rho", ["-0.2", "-0.3"])
    @pytest.mark.parametrize("tau", ["0.5", "2", "6", "14"])
    @pytest.mark.parametrize("x", ["0.3", "1", "3"])
    def test_estimate_tracks_error(self, rho, tau, x):
        # the y^(mu-1) endpoint singularity is substituted away, so the
        # estimate covers the error without exceeding it by more than 1e6;
        # an error below one unit of 10^-dps is rounding, and the upper
        # bound reads that unit in its place
        r = whittaker_quad(-mpf(rho), mpf(tau), mpf(x))
        with mpmath.workdps(60):
            ref = mpmath.whitw(mpf(rho), 1j * mpf(tau), 2 * mpf(x)).real
        err = abs(r.value - ref)
        assert err <= r.abs_error_estimate
        unit = mpf(10) ** -mpmath.mp.dps * abs(ref)
        assert r.abs_error_estimate <= 10 ** 6 * max(err, unit)

    def test_node_count(self):
        r = whittaker_quad(mpf("0.3"), mpf(3), mpf(1))
        assert r.nodes_used <= 600

    def test_refuses_where_k_would_pass_its_cap(self, monkeypatch):
        # the K argument reaches 2x + _k_cutoff() (760 at x = 330, dps 40),
        # past the x = 700 every K route refuses; no node is evaluated
        nodes = []
        monkeypatch.setattr(bessel, "_k_point", lambda *a: nodes.append(a))
        with pytest.raises(OverflowGuardError, match="passes 700"):
            whittaker_quad(mpf("0.3"), mpf(3), mpf(330))
        assert nodes == []


class TestOlevskiiQuad:
    def test_pinned(self):
        r = olevskii_quad(mpf("1.3"), mpf("0.2"), mpf(1), mpf("0.5"))
        assert rel(r.value, OLEV_PIN) < mpf("1e-14")
        assert abs(r.value - OLEV_PIN) <= r.abs_error_estimate * 10

    def test_node_count(self):
        r = olevskii_quad(mpf("0.5"), mpf("0.25"), mpf(3), mpf("0.3"))
        assert r.nodes_used <= 600

    def test_large_argument_refused(self):
        with pytest.raises(NonconvergenceError):
            olevskii_quad(mpf("1.3"), mpf("0.2"), mpf(1),
                          mpf(OLEVSKII_QUAD_X_CAP) + 5)


def _two_series_head(mu, a, coeffs, order):
    # the termwise head as it was before it used conjugate symmetry: the
    # I_{i order} and I_{-i order} series both summed and assembled in
    # complex arithmetic
    order = mpf(order)
    tol = mpf(10) ** (-mp.dps - 5)
    s = mpc(0)
    for sigma in (1j * order, -1j * order):
        gk = mpmath.exp(ln_gamma(sigma + 1))
        two_s = mpc(2) ** (-sigma)
        p = mpf(1)
        ssum = mpc(0)
        k = 0
        while True:
            w = p / gk * two_s
            inner = mpc(0)
            for j, c in enumerate(coeffs):
                inner += c / (mu + a + 2 * j + 2 * k + sigma)
            term = w * inner
            ssum += term
            if abs(term) < tol * (1 + abs(ssum)) and k > 3:
                break
            k += 1
            gk = gk * (sigma + k)
            p /= 4 * k
        if sigma.imag > 0:
            s -= ssum
        else:
            s += ssum
    return (mpmath.pi * s / (2j * mpmath.sinh(mpmath.pi * order))).real


class TestHeadVsK:
    # (mu, nu, x, order): the olevskii head (mu, nu), and the mehler-fock
    # head (1, 2 mu) with squared coefficients, marked by mu = None
    POINTS = [(mpf("0.5"), mpf("0.25"), mpf("0.3"), 6),
              (mpf("1.3"), mpf("0.2"), mpf("0.5"), 2),
              (mpf("0.7"), mpf(1), mpf(4), 1),
              (mpf("0.2"), mpf(0), mpf(2), mpf("0.5")),
              (None, mpf("0.7"), mpf("0.8"), 6),
              (None, mpf("0.4"), mpf("0.5"), 4),
              (None, mpf(0), mpf(3), 1)]

    @pytest.mark.parametrize("dps", [25, 40, 60])
    def test_matches_two_series_sum(self, dps):
        with mpmath.workdps(dps):
            for mu, nu, x, order in self.POINTS:
                if mu is None:
                    args = (mpf(1), 2 * nu,
                            _square_coeffs(_j_coeffs(nu, x)), order)
                else:
                    args = (mu, nu, _j_coeffs(nu, x), order)
                assert _head_vs_k(*args) == _two_series_head(*args), \
                    (mu, nu, x, order)


def _gauss_legendre_routes():
    # one call of each route with a Gauss-Legendre panel
    product_kernel_quad(mpf("0.5"), mpf(1))
    olevskii_quad(mpf("0.5"), mpf("0.25"), mpf(3), mpf("0.3"))
    mehler_fock_sq(mpf("0.7"), mpf(3), mpf("0.8"))


@functools.cache
def _reference_nodes(degree):
    # mpmath's own builder at 400 bits
    with mpmath.workprec(420):
        return GaussLegendre(mp).calc_nodes(degree, 400)


_RULE_CACHES = ("standard_cache", "transformed_cache", "interval_count")


def _emptied(monkeypatch, rule):
    # the rule with its three caches emptied for the test, and restored
    # after it
    for name in _RULE_CACHES:
        monkeypatch.setattr(rule, name, {})
    return rule


@pytest.fixture
def empty_mpmath_rule(monkeypatch):
    """mpmath's global Gauss-Legendre rule, its caches emptied."""
    return _emptied(monkeypatch, mp._gauss_legendre)


@pytest.fixture
def empty_tanh_sinh_rule(monkeypatch):
    """mpmath's global tanh-sinh rule, its caches emptied."""
    return _emptied(monkeypatch, mp._tanh_sinh)


class TestGaussLegendreNodes:
    @pytest.mark.parametrize("dps", [25, 40, 60])
    def test_match_reference(self, dps):
        # within 2^-(prec+8), the Newton stop of mpmath's own builder
        with mpmath.workdps(dps):
            prec = mp.prec
        for degree in range(1, 7):
            nodes = _GaussLegendre(mp).calc_nodes(degree, prec)
            ref = _reference_nodes(degree)
            assert len(nodes) == len(ref) == 3 * 2 ** (degree - 1)
            with mpmath.workprec(420):
                worst = max(max(abs(x - xr), abs(w - wr))
                            for (x, w), (xr, wr) in zip(nodes, ref))
            assert worst < mpf(2) ** -(prec + 8), (degree, worst)

    def test_cache_keys_on_precision(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(quadrature, "_GL_NODES", cache)
        precs = set()
        for dps in (40, 25):
            with mpmath.workdps(dps):
                olevskii_quad(mpf("0.5"), mpf("0.25"), mpf(3), mpf("0.3"))
                precs.add(mp.prec)
        assert {prec for _, prec in cache} == precs

    def test_routes_leave_mpmath_state_alone(self, empty_mpmath_rule):
        prec = mp.prec
        _gauss_legendre_routes()
        for name in _RULE_CACHES:
            assert getattr(empty_mpmath_rule, name) == {}, name
        assert mp.prec == prec

    def test_tanh_sinh_routes_leave_mpmath_state_alone(
            self, monkeypatch, empty_tanh_sinh_rule):
        # the Whittaker panels, the product tail and the K integrals of
        # bessel (k_itau_quad from an empty cache) use no global rule
        monkeypatch.setattr(bessel, "_kq_cache", {})
        bessel._k0.cache_clear()
        whittaker_quad(mpf("0.3"), mpf(3), mpf(1))
        k_itau_quad(mpf("2.5"), mpf("1.3"))
        bessel_k_real(mpf("0.7"), mpf(2))
        product_kernel_quad(mpf("0.5"), mpf(1))
        for name in _RULE_CACHES:
            assert getattr(empty_tanh_sinh_rule, name) == {}, name

    def test_no_mpmath_node_builder(self, monkeypatch, empty_mpmath_rule):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath's Gauss-Legendre builder ran")

        monkeypatch.setattr(GaussLegendre, "calc_nodes", refuse)
        monkeypatch.setattr(quadrature, "_GL_NODES", {})
        _gauss_legendre_routes()
