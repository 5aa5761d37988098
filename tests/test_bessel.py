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
from indexkernels.errors import (DomainError, NonconvergenceError,
                                 OverflowGuardError, PrecisionLossError)
from indexkernels.quadrature import _hankel0_asym
from indexkernels.special import SeriesControl, ln_gamma

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

    def test_sums_at_conjugate_order(self, monkeypatch):
        # the == above holds because a sum at Im nu < 0 is never run:
        # floor division is not odd, so it could round apart from the
        # conjugate (rarely enough that the guard bits hide it above)
        seen = []
        monkeypatch.setattr(bessel, "ln_gamma",
                            lambda z: seen.append(z) or ln_gamma(z))
        v = bessel_i(mpc("0.5", "-2.5"), mpf(3))
        assert seen == [mpc("1.5", "2.5")]
        assert v == bessel_i(mpc("0.5", "2.5"), mpf(3)).conjugate()

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=-3, max_value=3))
    def test_against_oracle(self, x, nu):
        v = bessel_i(mpf(nu), mpf(x))
        ref = mpmath.besseli(mpf(nu), mpf(x))
        assert rel(v, ref) < mpf("1e-26")


class TestNonFiniteInput:
    # the fixed-point sums would read a non-finite input as 0
    @pytest.mark.parametrize("nu, x", [(1, "nan"), (1, "inf"),
                                       ("nan", 1), ("inf", 1)])
    def test_bessel_j_raises(self, nu, x):
        with pytest.raises(DomainError):
            bessel_j(mpf(nu), mpf(x))

    @pytest.mark.parametrize("nu, x", [
        (1, "inf"), (1, "nan"), (mpc(0, "inf"), 1), (mpc("nan", 1), 1)])
    def test_bessel_i_raises(self, nu, x):
        with pytest.raises(DomainError):
            bessel_i(nu, mpf(x))


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
            bessel._inv_gamma.cache_clear()
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
        for memo in (bessel._inv_gamma, bessel._asymptotic_memo,
                     bessel._k0):
            assert memo.cache_info().maxsize is not None

    def test_j_and_h0_across_switch(self):
        saved = mp.dps
        try:
            # the guard bits of the fixed-point sum absorb the seven digits
            # the alternating series cancels next to the switch
            for dps in (25, 40, 60):
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


def _mpc_i_loop(nu, x, ctl):
    # bessel_i as it was summed before fixed point: mpc terms under the
    # same stop rule.  Returns the value, the scale |c0| sum |t_k| of its
    # rounding error, and the number of terms past t_0.
    nu, x = mpc(nu), mpf(x)
    if nu.imag == 0 and nu.real == int(nu.real) and nu.real < 0:
        nu = -nu
    if nu.imag == 0 and nu.real < 0:
        c0 = (-mpmath.exp(nu * mpmath.log(x / 2) + ln_gamma(-nu))
              * mp.sinpi(nu.real) / mpmath.pi)
    else:
        c0 = mpmath.exp(nu * mpmath.log(x / 2) - ln_gamma(nu + 1))
    q, tol = (x / 2) ** 2, mpf(ctl.rel_tol)
    t = s = mpc(1)
    total = prev = mpf(1)
    streak = 0
    for k in range(1, ctl.max_terms + 1):
        t = t * q / (k * (k + nu))
        s += t
        mag = abs(t)
        total += mag
        if mag <= prev and mag < tol * abs(s):
            streak += 1
            if streak >= 3:
                return c0 * s, abs(c0) * total, k
        else:
            streak = 0
        prev = mag
    raise AssertionError("reference loop stalled")


def _mpf_j_loop(nu, x, ctl):
    # bessel_j's two branches as mpf loops, with the same prefactors and
    # stop rules; returns the value and the scale of its rounding error
    nu, x = mpf(nu), mpf(x)
    if x <= 20 + nu ** 2 / 2:
        c0 = (x / 2) ** nu * bessel._inv_gamma(nu, mp.prec)
        q, tol = (x / 2) ** 2, mpf(ctl.rel_tol)
        floor = mpf(10) ** -mp.dps / c0
        t = s = total = mpf(1)
        for k in range(1, ctl.max_terms + 1):
            t = -t * q / (k * (k + nu))
            s += t
            total += abs(t)
            if abs(t) < tol * max(abs(s), floor):
                break
        return c0 * s, c0 * total
    sums, t, total, prev = [mpf(0), mpf(0)], mpf(1), mpf(0), None
    for n in range(40):
        if prev is not None and abs(t) >= prev:
            break
        sums[n % 2] += t if n % 4 < 2 else -t
        total += abs(t)
        prev = abs(t)
        t = t * (4 * nu ** 2 - (2 * n + 1) ** 2) / (8 * (n + 1) * x)
    omega = x - mpmath.pi * nu / 2 - mpmath.pi / 4
    amp = mpmath.sqrt(2 / (mpmath.pi * x))
    return (amp * (mpmath.cos(omega) * sums[0] - mpmath.sin(omega) * sums[1]),
            amp * total)


def _i_points():
    # (order, argument): imaginary orders up to series_safe_x, the
    # reflection branch and a negative integer order
    pts = []
    for tau in (mpf("0.3"), mpf(3), mpf(6), mpf(12)):
        safe = series_safe_x(tau)
        pts += [(1j * tau, y) for y in (mpf("0.05"), mpf("0.7"), mpf(5),
                                        mpf(20), safe / 2, safe) if y <= safe]
    for nu in (mpf("-2.5"), mpf("-0.3"), mpf("-3.7"), mpf(-3)):
        pts += [(nu, y) for y in (mpf("0.3"), mpf(2), mpf(9))]
    return pts


def _j_points():
    # both sides of the x = 20 + nu^2/2 switch, and small arguments
    return [(nu, x) for nu in (mpf(0), mpf("0.7"), mpf(4))
            for x in (mpf("1.6"), 20 + nu ** 2 / 2 - mpf("0.1"),
                      20 + nu ** 2 / 2 + mpf("0.1"))]


class TestFixedPointSeries:
    """The fixed-point sums of bessel_i and bessel_j, at full precision
    (rel_tol = 10^-dps), against mpmath at dps+20 and against the mpf
    loops they replaced."""

    DPS = (25, 40, 60)

    def test_i_against_mpmath(self):
        # the prefactor exp(nu log(x/2) - ln_gamma(nu+1)), formed at
        # working precision, carries up to ~40 units in the last place
        # (measured at dps 25); the sum adds ~1
        for dps in self.DPS:
            with mpmath.workdps(dps):
                ctl = SeriesControl(rel_tol=10 ** -dps)
                ulp = mpf(2) ** -mp.prec
                for nu, y in _i_points():
                    v = bessel_i(nu, y, ctl)
                    with mpmath.workdps(dps + 20):
                        ref = mpmath.besseli(nu, y)
                    assert abs(v - ref) <= 64 * ulp * abs(ref), (dps, nu, y)

    def test_i_tiny_imaginary_order_next_to_a_pole(self):
        # k + nu = ib at k = 2, 3, 1: b is far below 2^-(prec + guard), so
        # the fixed-point scale widens to keep its bits.  The prefactor
        # near the 1/Gamma pole is the mpc loop's too.
        for dps in self.DPS:
            with mpmath.workdps(dps):
                ctl = SeriesControl(rel_tol=10 ** -dps)
                ulp = mpf(2) ** -mp.prec
                for nu in (mpc(-2, "1e-60"), mpc(-3, "-1e-200"),
                           mpc(-1, "-1e-300")):
                    ref, scale, k = _mpc_i_loop(nu, mpf("1.5"), ctl)
                    v = bessel_i(nu, mpf("1.5"), ctl)
                    assert abs(v - ref) <= k * ulp * scale, (dps, nu)

    def test_i_matches_mpc_loop(self):
        # the mpc loop rounds each of its k terms: a few units of its
        # scale per term, measured up to 0.3
        for dps in self.DPS:
            with mpmath.workdps(dps):
                ctl = SeriesControl(rel_tol=10 ** -dps)
                ulp = mpf(2) ** -mp.prec
                for nu, y in _i_points():
                    ref, scale, k = _mpc_i_loop(nu, y, ctl)
                    v = bessel_i(nu, y, ctl)
                    assert abs(v - ref) <= k * ulp * scale, (dps, nu, y)

    def test_i_stop_rule(self):
        # three consecutive non-increasing terms below rel_tol |sum|: the
        # series converges with the reference loop's term count and stalls
        # with one term fewer
        for dps in self.DPS:
            with mpmath.workdps(dps):
                for nu, y in ((3j, mpf("0.7")), (mpc("0.5", "2.5"), mpf(3)),
                              (mpf("-2.5"), mpf(9)), (12j, mpf(20))):
                    ctl = SeriesControl(rel_tol=10 ** -dps)
                    _, _, k = _mpc_i_loop(nu, y, ctl)
                    bessel_i(nu, y, replace(ctl, max_terms=k))
                    with pytest.raises(NonconvergenceError):
                        bessel_i(nu, y, replace(ctl, max_terms=k - 1))

    def test_stall_carries_partial_and_tail(self):
        ctl = SeriesControl(max_terms=3)
        ulp = mpf(2) ** -mp.prec
        x = mpf(5)
        with pytest.raises(NonconvergenceError) as up:
            bessel_i(3j, x, ctl)
        with pytest.raises(NonconvergenceError) as down:
            bessel_i(-3j, x, ctl)
        # the partial is c0 (t_0 + ... + t_3), the tail |c0| |t_3|
        c0 = mpmath.exp(3j * mpmath.log(x / 2) - ln_gamma(1 + 3j))
        t, s = mpc(1), mpc(1)
        for k in (1, 2, 3):
            t = t * (x / 2) ** 2 / (k * (k + 3j))
            s += t
        assert abs(up.value.partial - c0 * s) <= 64 * ulp * abs(c0 * s)
        assert down.value.partial == up.value.partial.conjugate()
        assert abs(up.value.tail_estimate - abs(c0 * t)) <= \
            64 * ulp * abs(c0 * t)
        assert down.value.tail_estimate == up.value.tail_estimate

    def test_j_against_mpmath(self):
        # ascending: within a few units in the last place, also next to
        # the switch, where the alternating sum cancels seven digits;
        # asymptotic: within the truncation the estimate reports
        for dps in self.DPS:
            with mpmath.workdps(dps):
                ctl = SeriesControl(rel_tol=10 ** -dps)
                ulp = mpf(2) ** -mp.prec
                for nu, x in _j_points():
                    v, err = bessel_j(nu, x, ctl, with_error=True)
                    with mpmath.workdps(dps + 20):
                        actual = abs(v - mpmath.besselj(nu, x))
                    assert actual <= err, (dps, nu, x)
                    assert err <= 10 ** 6 * actual, (dps, nu, x)
                    if x <= 20 + nu ** 2 / 2:
                        assert actual <= 8 * ulp * abs(v), (dps, nu, x)

    def test_j_matches_mpf_loop(self):
        # measured up to 4.2 units of the loop's scale
        for dps in self.DPS:
            with mpmath.workdps(dps):
                ctl = SeriesControl(rel_tol=10 ** -dps)
                ulp = mpf(2) ** -mp.prec
                for nu, x in _j_points():
                    ref, scale = _mpf_j_loop(nu, x, ctl)
                    assert abs(bessel_j(nu, x, ctl) - ref) <= \
                        16 * ulp * scale, (dps, nu, x)


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

    def test_k0_memo_bit_identical(self, monkeypatch):
        # k_itau_quad's K_0 normaliser, memoized per (x, mp.prec), is the
        # value the quadrature returns, and other tau at that x reuse it
        monkeypatch.setattr(bessel, "_kq_cache", {})
        x = mpf("1.3")
        for dps in (40, 60):
            with mpmath.workdps(dps):
                ref = mpmath.quad(lambda t: mpmath.exp(-x * mpmath.cosh(t)),
                                  [0, bessel._cosh_cutoff(x)])
                assert bessel._k0(x, mp.prec) == ref
                hits = bessel._k0.cache_info().hits
                k_itau_quad(mpf("2.1"), x)
                k_itau_quad(mpf("3.1"), x)
                assert bessel._k0.cache_info().hits >= hits + 2

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
