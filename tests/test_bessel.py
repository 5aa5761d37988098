"""Bessel layer: I/J series, real-order K, and the two K_{i tau} routes.

Pinned values computed with mpmath at dps=60.
"""

from dataclasses import replace

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from indexkernels import bessel, config
from indexkernels.bessel import (asymptotic_table, bessel_i, bessel_j,
                                 bessel_k_real, k_index, k_itau_quad,
                                 k_itau_series, series_safe_x)
from indexkernels.errors import (NonconvergenceError, OverflowGuardError,
                                 PrecisionLossError)
from indexkernels.quadrature import _hankel0_asym
from indexkernels.special import SeriesControl

mp.dps = config.get().dps

I0_1 = mpf("1.26606587775200833559824462521")
K0_1 = mpf("0.421024438240708333335627379213")
K_I_1 = mpf("0.289428037025992127634567159242")
K_2I_07 = mpf("0.0596909941649312967148078165259")
J_13_07 = mpf("0.20749331935256302375403402805")
J_05_30 = mpf("-0.143929653370399889135797100209")
I_COMPLEX = mpc("1.11266191222958989118698547262",
                "-0.236250851424705228319286699196")


def rel(a, b):
    return abs(a - b) / max(abs(b), mpf("1e-30"))


class TestBesselI:
    def test_pinned_real_order(self):
        assert rel(bessel_i(mpf(0), mpf(1)), I0_1) < mpf("1e-28")

    def test_pinned_complex_order(self):
        assert rel(bessel_i(mpc("0.5", "0.3"), mpf("1.2")),
                   I_COMPLEX) < mpf("1e-28")

    def test_conjugate_symmetry(self):
        # exact, not merely close: k_itau_series relies on it to sum one
        # series in place of two
        saved = mp.dps
        try:
            for dps in (25, 40, 60):
                mp.dps = dps
                ctl = SeriesControl(rel_tol=10 ** -dps)
                for tau in (mpf("0.3"), mpf(2), mpf(9)):
                    for x in (mpf("0.05"), mpf("0.7"), mpf(12), mpf(24)):
                        assert bessel_i(-1j * tau, x, ctl) == \
                            bessel_i(1j * tau, x, ctl).conjugate()
        finally:
            mp.dps = saved

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=-3, max_value=3))
    def test_against_oracle(self, x, nu):
        v = bessel_i(mpf(nu), mpf(x))
        ref = mpmath.besseli(mpf(nu), mpf(x))
        assert rel(v, ref) < mpf("1e-26")


class TestBesselJ:
    def test_pinned_series_region(self):
        assert rel(bessel_j(mpf("1.3"), mpf("0.7")), J_13_07) < mpf("1e-28")

    def test_pinned_asymptotic_region(self):
        assert rel(bessel_j(mpf("0.5"), mpf(30)), J_05_30) < mpf("1e-25")

    def test_error_estimate_honest(self):
        v, err = bessel_j(mpf("0.5"), mpf(30), with_error=True)
        ref = mpmath.besselj(mpf("0.5"), mpf(30))
        assert abs(v - ref) <= err + mpf("1e-35")

    def test_error_estimate_covers_rounding(self):
        # near the x = 20 + nu^2/2 switch the alternating ascending sum
        # loses digits, and far out the phase reduction does; the estimate
        # must cover both and stay within 1e6 of the actual error.  At
        # small x the prefactor's rounding dominates.
        for dps in (25, 40):
            with mpmath.workdps(dps):
                for nu in range(6):
                    for x in (1.6, 2.3, 3.4, 19, 19.9, 20.5, 25, 32.4, 40,
                              80, 120, 200):
                        v, err = bessel_j(mpf(nu), mpf(x), with_error=True)
                        with mpmath.workdps(dps + 20):
                            actual = abs(v - mpmath.besselj(nu, mpf(x)))
                        assert actual <= err, (dps, nu, x)
                        assert err <= 10 ** 6 * actual, (dps, nu, x)

    def test_error_estimate_when_coefficients_run_out(self):
        # beyond x ~ 20 the 40 asymptotic terms still decrease when they
        # run out; the estimate is then the 41st term, not 0
        for nu, x in ((0, 21), (0.7, 30), (1.3, 50), (0, 40), (1, 25),
                      (3, 35), (5, 60)):
            v, err = bessel_j(mpf(nu), mpf(x), with_error=True)
            with mpmath.workdps(mp.dps + 20):
                ref = mpmath.besselj(mpf(nu), mpf(x))
            assert abs(v - ref) <= err


class TestCoefficientTables:
    def test_call_order_independent(self):
        tau, nu = mpf("1.7"), mpf("1.3")
        xs = [mpf(k) / 4 for k in range(1, 120, 7)]

        def sweep(order):
            bessel._i_table.cache_clear()
            bessel._j_table.cache_clear()
            return [(bessel_i(1j * tau, x), bessel_j(nu, x)) for x in order]

        assert sweep(xs) == sweep(xs[::-1])[::-1]

    def test_keyed_on_precision(self):
        saved = mp.dps
        try:
            for dps in (40, 60):
                mp.dps = dps
                ctl = SeriesControl(rel_tol=10 ** -dps)
                vi = bessel_i(mpc("0.5", "2.5"), mpf(3), ctl)
                vj = bessel_j(mpf("0.7"), mpf(3), ctl)
            with mpmath.workdps(80):
                ri = mpmath.besseli(mpc("0.5", "2.5"), 3)
                rj = mpmath.besselj(mpf("0.7"), 3)
            assert rel(vi, ri) < mpf("1e-55")
            assert rel(vj, rj) < mpf("1e-55")
        finally:
            mp.dps = saved

    def test_memos_bounded(self):
        for memo in (bessel._i_table, bessel._j_table,
                     bessel._asymptotic_memo):
            assert memo.cache_info().maxsize is not None

    def test_j_and_h0_across_switch(self):
        saved = mp.dps
        try:
            # not below dps 40: the ascending estimate leaves out the
            # cancellation loss near x = 20 (at dps 25 it is ~1e6 short)
            for dps in (40, 60):
                mp.dps = dps
                for nu in (mpf(0), mpf("0.7"), mpf("1.3"), mpf(4)):
                    switch = 20 + nu ** 2 / 2
                    for x in (switch - mpf("0.1"), switch + mpf("0.1")):
                        v, err = bessel_j(nu, x, with_error=True)
                        with mpmath.workdps(dps + 20):
                            ref = mpmath.besselj(nu, x)
                        assert abs(v - ref) <= err
                # H_0 sums 12 terms; the 13th bounds the truncation
                c12 = abs(asymptotic_table(0)[12])
                for w in (mpc(19), mpc(21), mpc(25, 2), mpc(40, 10)):
                    h = _hankel0_asym(w)
                    with mpmath.workdps(dps + 20):
                        ref = mpmath.hankel1(0, w)
                    amp = abs(mpmath.sqrt(2 / (mpmath.pi * w))
                              * mpmath.exp(1j * w))
                    assert abs(h - ref) <= amp * c12 / abs(w) ** 12
        finally:
            mp.dps = saved


class TestBesselKReal:
    def test_pinned(self):
        assert rel(bessel_k_real(mpf(0), mpf(1)), K0_1) < mpf("1e-28")

    def test_against_oracle(self):
        for nu, x in ((mpf("0.3"), mpf("0.5")), (mpf(1), mpf(3)),
                      (mpf(2), mpf(10))):
            assert rel(bessel_k_real(nu, x), mpmath.besselk(nu, x)) < \
                mpf("1e-28")

    def test_overflow_guard(self):
        with pytest.raises(OverflowGuardError):
            bessel_k_real(mpf(0), mpf(800))


def _two_series_k(tau, x):
    # the series route as it was before it used conjugate symmetry: both
    # I-series summed and the difference assembled in complex arithmetic
    cfg = config.get()
    ctl = SeriesControl(rel_tol=min(cfg.rel_tol, 10.0 ** (-mp.dps)),
                        max_terms=cfg.max_terms)
    ip = bessel_i(1j * tau, x, ctl)
    im = bessel_i(-1j * tau, x, ctl)
    assembled = mpmath.pi * (im - ip) / (2j * mpmath.sinh(mpmath.pi * tau))
    v = assembled.real
    resid = abs(assembled.imag)
    mag = abs(assembled)
    canc_ratio = (abs(ip) + abs(im)) / abs(im - ip) if im != ip else mpf("1e30")
    cancellation = ((mag > 0 and resid > mpf("1e-15") * mag)
                    or canc_ratio > mpf("1e6"))
    rel_error = mpf(10) ** (-mp.dps) * (mpmath.exp(mpmath.pi * tau)
                                        + canc_ratio)
    return v, rel_error, cancellation


class TestImaginaryOrderK:
    def test_pinned_both_routes(self):
        assert rel(k_itau_series(mpf(1), mpf(1)).value, K_I_1) < mpf("1e-25")
        assert rel(k_itau_quad(mpf(1), mpf(1)).value, K_I_1) < mpf("1e-25")

    def test_pinned_second_point(self):
        assert rel(k_itau_series(mpf(2), mpf("0.7")).value,
                   K_2I_07) < mpf("1e-25")

    def test_routes_agree(self):
        for tau in (mpf("0.5"), mpf(2), mpf(6)):
            for x in (mpf("0.2"), mpf(1), mpf(4)):
                s = k_itau_series(tau, x).value
                q = k_itau_quad(tau, x).value
                assert rel(s, q) < mpf("1e-15")

    def test_error_estimates_honest(self):
        for tau, x in ((mpf(1), mpf(1)), (mpf(5), mpf("0.5"))):
            ref = mpmath.besselk(1j * tau, x).real
            for route in (k_itau_series, k_itau_quad):
                r = route(tau, x)
                assert abs(r.value - ref) <= \
                    (r.rel_error + mpf("1e-35")) * abs(ref) * 10

    def test_series_precision_loss(self):
        # at tau = 200 the e^{pi tau} cancellation model forces a refusal
        with pytest.raises(PrecisionLossError):
            k_itau_series(mpf(200), mpf(1))

    def test_cache_hit_obeys_current_threshold(self):
        tau, x = mpf(8), mpf(3)
        k_itau_series(tau, x)
        k_itau_quad(tau, x)
        saved = config.get()
        config.set_active(replace(saved, precision_loss_threshold=1e-40))
        try:
            with pytest.raises(PrecisionLossError):
                k_itau_series(tau, x)
            with pytest.raises(PrecisionLossError):
                k_itau_quad(tau, x)
        finally:
            config.set_active(saved)

    def test_series_cache_keys_on_control(self):
        tau, x = mpf(3), mpf("1.5")
        k_itau_series(tau, x)
        with pytest.raises(NonconvergenceError):
            k_itau_series(tau, x, SeriesControl(max_terms=3))

    def test_values_are_real_type(self):
        v = k_itau_series(mpf(3), mpf("0.4")).value
        assert isinstance(v, mpf)

    def test_matches_two_series_assembly(self):
        # the conjugate is exact, so only the assembly can differ: one
        # real division rounds once where the complex one rounded twice,
        # and at near-ties, e.g. (0.97, 0.3) at dps 40, the two values
        # differ in the last place; the error model must not differ
        points = [(tau, x)
                  for tau in (mpf("0.3"), mpf(1), mpf("2.5"), mpf(9))
                  for x in (mpf("0.05"), mpf("1.7"), mpf(12))]
        points += [(mpf("0.97"), mpf("0.3")), (mpf(1), mpf("7.5")),
                   (mpf(1), mpf("8.5"))]
        saved_dps, saved_cache = mp.dps, dict(bessel._ks_cache)
        bessel._ks_cache.clear()
        try:
            for dps in (25, 40, 60):
                mp.dps = dps
                for tau, x in points:
                    r = k_itau_series(tau, x)
                    v, rel_error, cancellation = _two_series_k(tau, x)
                    assert (r.rel_error, r.cancellation) == \
                        (rel_error, cancellation)
                    assert abs(r.value - v) <= abs(v) * mpf(2) ** (1 - mp.prec)
            # at tau = 1 the ratio |I| / |Im I| crosses the flag's 1e6
            # between x = 7.5 (3.4e5) and x = 8.5 (2.4e6)
            assert not k_itau_series(mpf(1), mpf("7.5")).cancellation
            assert k_itau_series(mpf(1), mpf("8.5")).cancellation
        finally:
            mp.dps = saved_dps
            bessel._ks_cache.clear()
            bessel._ks_cache.update(saved_cache)


class TestKCacheBound:
    @pytest.mark.parametrize("route,cache", [(k_itau_series, "_ks_cache"),
                                             (k_itau_quad, "_kq_cache")])
    def test_oldest_entry_evicted_at_cap(self, monkeypatch, route, cache):
        monkeypatch.setattr(bessel, "_K_CACHE_MAX", 4)
        store = getattr(bessel, cache)
        saved = dict(store)
        store.clear()
        try:
            tau = mpf(2)
            xs = [mpf(1) + mpf(k) / 4 for k in range(6)]
            first = route(tau, xs[0]).value
            for x in xs[1:]:
                route(tau, x)
                assert len(store) <= 4
            assert len(store) == 4
            assert all(key[1] != xs[0] for key in store)  # evicted
            assert route(tau, xs[0]).value == first  # recomputed
            assert len(store) == 4
        finally:
            store.clear()
            store.update(saved)


class TestKIndexRouting:
    def test_zero_index_is_real_order(self):
        assert rel(k_index(mpf(0), mpf(1)), K0_1) < mpf("1e-28")

    def test_large_index_uses_quadrature(self):
        # series route would raise PrecisionLossError here; the router
        # must fall through to quadrature and succeed
        v = k_index(mpf(40), mpf(1))
        ref = mpmath.besselk(40j, mpf(1)).real
        assert rel(v, ref) < mpf("1e-15")

    def test_safe_region_grows_with_index(self):
        assert series_safe_x(mpf(10)) > series_safe_x(mpf(1))

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.3, max_value=10),
           st.floats(min_value=0.1, max_value=5))
    def test_router_matches_oracle(self, tau, x):
        v = k_index(mpf(tau), mpf(x))
        ref = mpmath.besselk(1j * mpf(tau), mpf(x)).real
        assert rel(v, ref) < mpf("1e-18")
