"""Kernel routes, asymptotic main terms, and expansion reports.

Pinned values computed with mpmath at dps=60.
"""

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc, workdps

from indexkernels import bessel, kernels
from indexkernels.bessel import (bessel_i, k_index, k_itau_quad,
                                 k_itau_series, series_safe_x)
from indexkernels.errors import (DomainError, NonconvergenceError,
                                 PrecisionLossError)
from indexkernels.kernels import (KernelPoint, _k_oracle, _product_oracle,
                                  _thm1_phase, conical_p, eval,
                                  k_squared_direct, olevskii_decay_slopes,
                                  olevskii_direct, olevskii_main,
                                  product_kernel_direct, thm1_main,
                                  thm1_remainder_bound,
                                  thm1_remainder_explicit, thm1_report,
                                  thm2_main_and_bound, thm3_main_and_bound,
                                  thm4_main_and_bound, whittaker_direct)
from indexkernels.special import binet_r

K_I_1 = mpf("0.289428037025992127634567159242")
KSQ_I_1 = mpf("0.0837685886167190699581280431869")
PROD_15_08 = mpf("0.39963824944900481601009080283")
W_03_2I_05 = mpf("-0.0372985572537486948901996676241")
CONICAL_PIN = mpf("0.404999183551956847454720383896")
OLEV_PIN = mpf("0.735925581477794741204783046603")
THM1_SCALE_10 = mpf("1.19456054110345569211185750475e-7")
THM1_BOUND_PIN = mpf("0.698599876629271260918937893633")
THM2_BOUND_PIN = mpf("1.76139951178031923012249104744")
THM3_BOUND_PIN = mpf("1.03364196805756866867859946154")
THM4_BOUND_PIN = mpf("0.68953575650896037177052867328")


def rel(a, b):
    return abs(a - b) / max(abs(b), mpf("1e-30"))


class TestExpansionK:
    def test_scale_pinned(self):
        scale, main = thm1_main(mpf(10), mpf(1))
        assert rel(scale, THM1_SCALE_10) < mpf("1e-28")
        assert abs(main) <= 1

    def test_explicit_remainder_closes_identity(self):
        # scale * (main + R_N) must reproduce the kernel exactly, for
        # every truncation order
        for N in (0, 1, 2):
            for tau in (mpf(5), mpf(12)):
                for x in (mpf("0.25"), mpf(2)):
                    scale, main = thm1_main(tau, x)
                    r = thm1_remainder_explicit(N, tau, x)
                    ref = k_itau_quad(tau, x).value
                    assert rel(scale * (main + r), ref) < mpf("1e-20")

    def test_bound_pinned(self):
        b = thm1_remainder_bound(0, mpf(10), mpf(5), mpf(1))
        assert rel(b, THM1_BOUND_PIN) < mpf("1e-28")

    def test_bound_decreases_in_tau(self):
        assert thm1_remainder_bound(1, mpf(20), mpf(5), mpf(1)) < \
            thm1_remainder_bound(1, mpf(10), mpf(5), mpf(1))

    def test_report_holds(self):
        rep = thm1_report(2, mpf(10), mpf(1), mpf(5), mpf(1))
        assert rep.bound_holds
        assert abs(rep.empirical_remainder) <= rep.remainder_bound


class TestExpansionSquare:
    def test_direct_pinned(self):
        assert rel(k_squared_direct(mpf(1), mpf(1)), KSQ_I_1) < mpf("1e-22")

    def test_square_consistency(self):
        v = k_squared_direct(mpf(3), mpf("0.6"))
        w = k_itau_quad(mpf(3), mpf("0.6")).value ** 2
        assert rel(v, w) < mpf("1e-15")

    def test_report_holds(self):
        rep = thm2_main_and_bound(mpf(10), mpf(1), mpf(5), mpf(1))
        assert rep.bound_holds
        assert rel(rep.remainder_bound, THM2_BOUND_PIN) < mpf("1e-28")


class TestExpansionProduct:
    def test_direct_pinned(self):
        assert rel(product_kernel_direct(mpf("1.5"), mpf("0.8")),
                   PROD_15_08) < mpf("1e-20")

    def test_small_index_limit(self):
        # as tau -> 0 the product tends to 2 I_0(x) K_0(x)
        v = product_kernel_direct(mpf("1e-6"), mpf(1))
        ref = 2 * mpmath.besseli(0, 1) * mpmath.besselk(0, 1)
        assert rel(v, ref) < mpf("1e-10")

    def test_report_holds(self):
        rep = thm3_main_and_bound(mpf(10), mpf(1), mpf(5), mpf(1))
        assert rep.bound_holds
        assert rel(rep.remainder_bound, THM3_BOUND_PIN) < mpf("1e-28")


class TestExpansionOracles:
    """The expansion remainders take r(i tau) from ln_gamma and K_{i tau}
    from k_index at dps+15; these pin both against the independent
    quadratures (binet_r, k_itau_quad)."""

    POINTS = ((mpf(5), mpf("0.25")), (mpf(8), mpf(1)),
              (mpf("9.5"), mpf("0.528")), (mpf(12), mpf(2)))

    @staticmethod
    def quad_spy(monkeypatch):
        calls = []

        def spy(tau, x):
            calls.append((tau, x))
            return k_itau_quad(tau, x)
        monkeypatch.setattr(bessel, "k_itau_quad", spy)
        return calls

    def test_stirling_r_matches_binet_quadrature(self):
        # at N = 0 without the tail the remainder is Re(e^{i theta} r);
        # x and x e^{-pi/(2 tau)} put theta a quarter turn apart, so the
        # pair pins both parts of r
        for tau in (mpf(5), mpf(12), mpf(20)):
            r = binet_r(1j * tau)
            for x in (mpf(1), mpmath.exp(-mpmath.pi / (2 * tau))):
                v = thm1_remainder_explicit(0, tau, x, with_tail=False)
                ref = (mpmath.expj(_thm1_phase(tau, x)) * r).real
                assert abs(v - ref) < mpf("1e-35") * abs(r)

    def test_k_oracle_matches_quadrature(self, monkeypatch):
        calls = self.quad_spy(monkeypatch)
        for tau, x in self.POINTS:
            v = _k_oracle(tau, x)
            with workdps(mp.dps + 15):
                q = k_itau_quad(tau, x)
                est = max(q.rel_error, k_itau_series(tau, x).rel_error)
            assert abs(v - q.value) <= est * abs(q.value)
        assert calls == []  # the series route served every point

    def test_product_oracle_matches_quadrature(self):
        for tau, x in self.POINTS:
            v = _product_oracle(tau, x)
            with workdps(mp.dps + 15):
                q = k_itau_quad(tau, x)
                est = max(q.rel_error, k_itau_series(tau, x).rel_error)
                ref = 2 * mpmath.besseli(1j * tau, x).real * q.value
            assert abs(v - ref) <= est * abs(ref)

    def test_guarded_series_past_series_safe_x(self, monkeypatch):
        # past series_safe_x the oracle takes the series summed with guard
        # bits, within its estimate and to working precision
        calls = self.quad_spy(monkeypatch)
        tau = mpf(1)
        with workdps(mp.dps + 15):
            x = mpmath.ceil(series_safe_x(tau)) + 1
            est = k_itau_series(tau, x).rel_error
        v = _k_oracle(tau, x)
        assert calls == []
        with workdps(mp.dps + 30):
            ref = mpmath.besselk(1j * tau, x).real
        assert abs(v - ref) <= est * abs(ref)
        assert rel(v, ref) < mpf(10) ** (-mp.dps)

    def test_product_oracle_sums_one_i_series(self, monkeypatch):
        # 2 Re I and, on the series route, K come from one I-series: the
        # value is the old two-sum product's, bit for bit
        calls = []

        def spy(*args):
            calls.append(args)
            return bessel_i(*args)
        monkeypatch.setattr(kernels, "bessel_i", spy)
        monkeypatch.setattr(bessel, "bessel_i", spy)
        tau = mpf(1)
        with workdps(mp.dps + 15):
            safe = mpmath.floor(series_safe_x(tau))
        for x in (mpf("0.55"), mpf(2), safe, safe + 2):  # the last: guarded
            monkeypatch.setattr(bessel, "_ks_cache", {})
            del calls[:]
            v = _product_oracle(tau, x)
            assert len(calls) == 1, x
            monkeypatch.setattr(bessel, "_ks_cache", {})
            with workdps(mp.dps + 15):
                K = k_index(tau, x)
                ref = 2 * bessel_i(1j * tau, x).real * K
            assert v == ref, x

    def test_product_oracle_checks_precision_loss(self, monkeypatch,
                                                  config_override):
        monkeypatch.setattr(bessel, "_ks_cache", {})  # the summing path
        with config_override(precision_loss_threshold=1e-60), \
                pytest.raises(PrecisionLossError):
            _product_oracle(mpf(8), mpf(1))

    def test_product_oracle_sums_to_working_precision(self):
        # summed only to the config rel_tol of 1e-24, the I factor leaves
        # the remainder off by 1.9e-32 here
        tau, x = mpf(12), mpf(2)
        rem = thm3_main_and_bound(tau, x, mpf(5), mpf(2)).empirical_remainder
        with workdps(90):
            prod = (2 * mpmath.besseli(1j * tau, x).real
                    * mpmath.besselk(1j * tau, x).real)
            ref = prod * tau - mpmath.cos(
                2 * tau * mpmath.log(2 * tau / (mpmath.e * x)))
        assert rel(rem, ref) < mpf("1e-33")


class TestWhittaker:
    def test_pinned_both_routes(self):
        for route in ("f11", "series218"):
            v = whittaker_direct(mpf("0.3"), mpf(2), mpf("0.5"), route)
            assert rel(v, W_03_2I_05) < mpf("1e-20")

    def test_cross_checked(self):
        ref = mpmath.whitw(mpf("-0.2"), 1j, mpf("0.8")).real
        for route in ("f11", "series218"):
            v = whittaker_direct(mpf("-0.2"), mpf(1), mpf("0.8"), route)
            assert rel(v, ref) < mpf("1e-15")

    def test_report_holds(self):
        rep = thm4_main_and_bound(mpf(0), mpf(10), mpf("0.5"), mpf(5),
                                  mpf("0.5"))
        assert rep.bound_holds
        assert rel(rep.remainder_bound, THM4_BOUND_PIN) < mpf("1e-28")

    def test_report_finite_near_argument_cap(self):
        # the bound blows up like (1-x0)^{-2(1+|rho|)} but stays finite
        rep = thm4_main_and_bound(mpf("0.2"), mpf(8), mpf("0.9"), mpf(5),
                                  mpf("0.99"))
        assert mpmath.isfinite(rep.remainder_bound)

    def test_printed_phase_remainder_finite(self):
        # the phase takes the printed (1 + 2 rho) / (4 tau^2) correction
        rho, tau, x = mpf("0.3"), mpf(10), mpf("0.5")
        printed = (tau * mpmath.log(mpmath.e * x / (4 * tau) * mpmath.sqrt(
            1 + (1 + 2 * rho) / (4 * tau ** 2)))
            - rho * mpmath.atan((1 + 2 * rho) / (2 * tau))
            - mpmath.pi / 2 * (rho - mpf(1) / 2))
        assert kernels.thm4_phase(rho, tau, x) == printed
        rep = thm4_main_and_bound(rho, tau, x, mpf(5), mpf("0.5"))
        assert mpmath.isfinite(rep.empirical_remainder)

    def test_series218_raises_when_terms_run_out(self, config_override):
        # terms running out is an error, as in every other series, not a
        # truncated value
        rho, tau, x = mpf("0.3"), mpf(2), mpf("0.5")
        with config_override(max_terms=3), \
                pytest.raises(NonconvergenceError) as exc:
            whittaker_direct(rho, tau, x, "series218")
        # the partial is the 1F1 e^{-x/2} (1 + t_1 + t_2 + t_3), the tail
        # e^{-x/2} |t_3|, t_k = (x/2)^k / k! c_k
        t = [(x / 2) ** k / mpmath.factorial(k)
             * kernels.hyp2f1_term2(k, rho, tau) for k in (1, 2, 3)]
        ulp = mpf(2) ** -mp.prec
        partial = mpmath.exp(-x / 2) * (1 + sum(t))
        tail = mpmath.exp(-x / 2) * abs(t[-1])
        assert abs(exc.value.partial - partial) <= 8 * ulp * abs(partial)
        assert abs(exc.value.tail_estimate - tail) <= 8 * ulp * tail
        v = whittaker_direct(rho, tau, x, "series218")
        assert rel(v, W_03_2I_05) < mpf("1e-20")


class TestConical:
    def test_pinned(self):
        v = conical_p(mpf("0.4"), mpf(2), mpmath.sqrt(2))
        assert rel(v, CONICAL_PIN) < mpf("1e-20")

    def test_against_oracle(self):
        mu, tau = mpf("0.7"), mpf(3)
        z = mpmath.sqrt(1 + 4 * mpf("0.8") ** 2)
        v = conical_p(mu, tau, z)
        ref = mpmath.legenp(mpc(-0.5, tau), -mu, z, type=3).real
        assert rel(v, ref) < mpf("1e-18")


class TestOlevskii:
    def test_pinned(self):
        v = olevskii_direct(mpf("1.3"), mpf("0.2"), mpf(1), mpf("0.5"))
        assert rel(v, OLEV_PIN) < mpf("1e-22")

    def test_value_at_boundary_argument(self):
        # x = 1 hits the hypergeometric convergence boundary; the Pfaff
        # switch has to carry it
        v = olevskii_direct(mpf("0.7"), mpf("0.2"), mpf(2), mpf(1))
        ref = mpmath.hyp2f1(mpf("0.45") + 2j, mpf("0.45") - 2j,
                            mpf("1.2"), -1).real
        assert rel(v, ref) < mpf("1e-18")

    def test_small_argument_limit(self):
        v = olevskii_direct(mpf("1.3"), mpf("0.2"), mpf(1), mpf("1e-4"))
        assert abs(v - 1) < mpf("1e-6")

    def test_main_term_tracks_direct(self):
        # at a phase peak the main term carries most of the value
        mu, nu, x = mpf("1.4"), mpf("0.2"), mpf(1)
        L = mpmath.log(x + mpmath.sqrt(x * x + 1))
        tau = 20 * mpmath.pi / (2 * L)
        d = olevskii_direct(mu, nu, tau, x)
        m = olevskii_main(mu, nu, tau, x)
        # the remainder order is only tau^{3/4-mu-nu}, a factor
        # tau^{-0.05} below the main term here, so the match is loose
        assert rel(m, d) < mpf("0.35")

    def test_decay_slopes(self):
        s_main, s_rem = olevskii_decay_slopes(mpf("1.4"), mpf("0.2"), mpf(1))
        assert abs(s_main - (mpf("-0.7"))) < mpf("0.1")
        assert abs(s_rem - (mpf("-0.85"))) < mpf("0.15")


class TestSeriesKernelDigits:
    """The Gauss-series kernels hold working precision: at dps 40 they
    held 24 and 25 digits while the series stopped at rel_tol."""

    def test_olevskii_and_conical_at_working_precision(self):
        half = mpf(1) / 2
        for dps in (25, 40, 60):
            with workdps(dps):
                z = mpmath.sqrt(37)  # 1 + x^2 at x = 3, the olevskii point
                got = (olevskii_direct(half, mpf("0.25"), half, 3),
                       conical_p(half, half, z))
                with workdps(dps + 40):
                    a = mpf("0.375") + 0.5j
                    ref = (mpmath.hyp2f1(a, a.conjugate(), mpf("1.25"),
                                         -9).real,
                           mpmath.legenp(-half + 0.5j, -half, z,
                                         type=3).real)
                for v, r in zip(got, ref):
                    assert rel(v, r) <= 100 * mpf(10) ** -dps, (dps, v, r)


class TestDispatch:
    def test_point_validation(self):
        with pytest.raises(DomainError):
            KernelPoint(kernel="nope", x=1, tau=1)
        with pytest.raises(DomainError):
            KernelPoint(kernel="kl", x=-1, tau=1)
        with pytest.raises(DomainError):
            KernelPoint(kernel="whittaker", x=1, tau=1, rho="0.6")
        with pytest.raises(DomainError):
            KernelPoint(kernel="olevskii", x=1, tau=1, mu="1.3")

    @pytest.mark.parametrize("field", ["x", "tau", "mu", "nu", "rho"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_point_rejects_non_finite(self, field, value):
        kw = dict(x="0.5", tau=1, mu="1.3", nu="0.2", rho=None)
        kw[field] = value
        with pytest.raises(DomainError):
            KernelPoint(kernel="olevskii", **kw)

    def test_routes_agree_kl(self):
        p = KernelPoint(kernel="kl", x="0.7", tau=2)
        s = eval(p, "series")
        q = eval(p, "quadrature")
        assert rel(s.value, q.value) < mpf("1e-15")

    def test_routes_agree_square(self):
        p = KernelPoint(kernel="lebedev-square", x="0.7", tau=2)
        assert rel(eval(p, "series").value,
                   eval(p, "quadrature").value) < mpf("1e-12")

    def test_routes_agree_product(self):
        p = KernelPoint(kernel="lebedev-product", x="0.8", tau="1.5")
        assert rel(eval(p, "series").value,
                   eval(p, "quadrature").value) < mpf("1e-12")

    def test_routes_agree_whittaker(self):
        p = KernelPoint(kernel="whittaker", x="0.5", tau=2, rho="-0.3")
        assert rel(eval(p, "f11").value,
                   eval(p, "quadrature").value) < mpf("1e-10")

    def test_routes_agree_mehler_fock(self):
        # the second point has P = -0.0558158...: the quadrature route
        # must return the signed value, not |P|
        for mu, x, tau in (("0.4", "0.5", 2), ("0.7", "0.8", 3)):
            p = KernelPoint(kernel="mehler-fock", x=x, tau=tau, mu=mu)
            q = eval(p, "quadrature").value
            assert rel(eval(p, "series").value, q) < mpf("1e-8")
        assert abs(q - mpf("-0.0558158")) < mpf("1e-7")

    def test_routes_agree_olevskii(self):
        p = KernelPoint(kernel="olevskii", x="0.5", tau=1, mu="1.3", nu="0.2")
        assert rel(eval(p, "series").value,
                   eval(p, "quadrature").value) < mpf("1e-12")

    def test_unknown_route(self):
        p = KernelPoint(kernel="kl", x=1, tau=1)
        with pytest.raises(DomainError):
            eval(p, "telepathy")

    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=0.5, max_value=6),
           st.floats(min_value=0.2, max_value=3))
    def test_kl_route_agreement_property(self, tau, x):
        p = KernelPoint(kernel="kl", x=mpf(x), tau=mpf(tau))
        s = eval(p, "series")
        q = eval(p, "quadrature")
        assert abs(s.value - q.value) <= \
            (s.rel_error_estimate + q.rel_error_estimate + mpf("1e-30")) \
            * max(abs(s.value), abs(q.value)) * 100
