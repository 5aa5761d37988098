"""Semi-infinite quadrature and the four integral kernel routes.

Pinned values computed with mpmath at dps=60.
"""

import mpmath
import pytest
from mpmath import mpf

from indexkernels import config
from indexkernels.errors import NonconvergenceError
from indexkernels.quadrature import (integrate_semi_infinite, mehler_fock_sq,
                                     olevskii_quad, product_kernel_quad,
                                     whittaker_quad)
from indexkernels.special import ln_gamma

K0_1 = mpf("0.421024438240708333335627379213")
PROD_15_08 = mpf("0.39963824944900481601009080283")
OLEV_PIN = mpf("0.735925581477794741204783046603")
CONICAL_PIN = mpf("0.404999183551956847454720383896")


def rel(a, b):
    return abs(a - b) / max(abs(b), mpf("1e-30"))


class TestSemiInfinite:
    def test_exponential_decay(self):
        r = integrate_semi_infinite(lambda t: mpmath.exp(-t))
        assert rel(r.value, mpf(1)) < mpf("1e-25")
        assert abs(r.value - 1) <= r.abs_error_estimate

    def test_gaussian(self):
        r = integrate_semi_infinite(lambda t: mpmath.exp(-t ** 2))
        ref = mpmath.sqrt(mpmath.pi) / 2
        assert rel(r.value, ref) < mpf("1e-25")
        assert abs(r.value - ref) <= r.abs_error_estimate

    def test_doubly_exponential_integrand(self):
        # exp(-cosh t) decays fast enough to stall naive infinite-interval
        # transforms; the cutoff search must keep this cheap
        r = integrate_semi_infinite(lambda t: mpmath.exp(-mpmath.cosh(t)))
        assert rel(r.value, K0_1) < mpf("1e-25")
        assert r.nodes_used < 5000

    def test_algebraic_decay(self):
        r = integrate_semi_infinite(lambda t: 1 / (1 + t ** 2),
                                    decay=("algebraic", 2))
        assert rel(r.value, mpmath.pi / 2) < mpf("1e-25")

    def test_wrong_decay_hint_rejected(self):
        with pytest.raises(NonconvergenceError):
            integrate_semi_infinite(lambda t: 1 / (1 + t ** 2),
                                    tol=mpf("1e-30"))

    def test_nodes_counted(self):
        r = integrate_semi_infinite(lambda t: mpmath.exp(-t))
        assert r.nodes_used > 0


class TestProductKernelQuad:
    def test_pinned(self):
        r = product_kernel_quad(mpf("1.5"), mpf("0.8"))
        assert rel(r.value, PROD_15_08) < mpf("1e-16")

    def test_error_estimate_honest(self):
        r = product_kernel_quad(mpf("1.5"), mpf("0.8"))
        assert abs(r.value - PROD_15_08) <= r.abs_error_estimate * 10

    def test_large_index_refused(self):
        cap = config.get().product_quad_tau_cap
        with pytest.raises(NonconvergenceError):
            product_kernel_quad(mpf(cap) + 1, mpf(1))


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


class TestOlevskiiQuad:
    def test_pinned(self):
        r = olevskii_quad(mpf("1.3"), mpf("0.2"), mpf(1), mpf("0.5"))
        assert rel(r.value, OLEV_PIN) < mpf("1e-14")
        assert abs(r.value - OLEV_PIN) <= r.abs_error_estimate * 10

    def test_large_argument_refused(self):
        cap = config.get().olevskii_quad_x_cap
        with pytest.raises(NonconvergenceError):
            olevskii_quad(mpf("1.3"), mpf("0.2"), mpf(1), mpf(cap) + 5)
