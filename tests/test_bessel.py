"""Bessel layer: I/J series, real-order K, and the two K_{i tau} routes.

Pinned values computed with mpmath at dps=60.
"""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from mpmath.libmp import to_fixed

from indexkernels import (bessel, bounds, config, kernels, quadrature,
                          special)
from indexkernels.bessel import (_tol_fraction, asymptotic_table, bessel_i,
                                 bessel_j, bessel_k_real, k_index,
                                 k_itau_quad, k_itau_series, series_safe_x)
from indexkernels.errors import (DomainError, NonconvergenceError,
                                 OverflowGuardError, PrecisionLossError)
from indexkernels.quadrature import (_hankel0_pq, mehler_fock_sq,
                                     olevskii_quad, whittaker_quad)
from indexkernels.special import _GUARD, ln_gamma

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


def _hankel0_asym(w):
    # large-argument H_0^(1) = sqrt(2/(pi w)) e^{i(w - pi/4)} (P + iQ),
    # valid here with Im w > 0 heading to decay
    return (mpmath.sqrt(2 / (mpmath.pi * w))
            * mpmath.exp(1j * (w - mpmath.pi / 4)) * _hankel0_pq(1 / w))


class TestBesselI:
    def test_pinned_real_order(self):
        assert rel(bessel_i(mpf(0), mpf(1)), I0_1) < mpf("1e-28")

    def test_pinned_complex_order(self):
        assert rel(bessel_i(mpc("0.5", "0.3"), mpf("1.2")),
                   I_COMPLEX) < mpf("1e-28")

    def test_conjugate_symmetry(self):
        # exact, not merely close: k_itau_series relies on it to sum one
        # series in place of two (bessel_i sums to 10^-dps)
        saved = mp.dps
        try:
            for dps in (25, 40, 60):
                mp.dps = dps
                for tau in (mpf("0.3"), mpf(2), mpf(9)):
                    for x in (mpf("0.05"), mpf("0.7"), mpf(12), mpf(24)):
                        assert bessel_i(-1j * tau, x) == \
                            bessel_i(1j * tau, x).conjugate()
        finally:
            mp.dps = saved

    def test_sums_at_conjugate_order(self, monkeypatch):
        # the == above holds because a sum at Im nu < 0 is never run:
        # floor division is not odd, so it could round apart from the
        # conjugate (rarely enough that the guard bits hide it above)
        seen = []
        bessel._i_plan.cache_clear()  # the plan holds the ln Gamma value
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

    @pytest.mark.parametrize("tau, x", [
        ("nan", 1), ("inf", 1), (0, 1), (-1, 1), (1, "nan"), (1, "inf"),
        (1, "-inf"), (1, 0), (1, -1)])
    def test_k_itau_series_raises(self, tau, x):
        # and the K evaluator of the quadrature integrands at such an x
        with pytest.raises(DomainError, match="k_itau_series"):
            k_itau_series(mpf(tau), mpf(x))
        if mpf(tau) == 1:
            with pytest.raises(DomainError, match="k_itau_series"):
                bessel._k_evaluator(mpf(1))(mpf(x))


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


# the per-(order, precision) memos: the I and J ratio tables and plans,
# the K constants of tau, and 10^-dps
MEMOS = (bessel._i_plan, bessel._j_plan, bessel._k_plan, special._eps_memo)


class TestCoefficientTables:
    def test_call_order_independent(self, monkeypatch):
        # a value does not depend on which call grew the ratio tables or
        # filled the memos: a sweep in either order, and a long series
        # (x = 20) before or after a short one (x = 0.3) at the same order,
        # each from fresh memos and an empty K cache
        tau, nu = mpf("1.7"), mpf("1.3")

        def values(xs):
            for memo in MEMOS:
                memo.cache_clear()
            monkeypatch.setattr(bessel, "_ks_cache", {})
            return [(bessel_i(1j * tau, x), bessel_j(nu, x), k_index(tau, x))
                    for x in xs]

        xs = [mpf(k) / 4 for k in range(1, 120, 7)]
        assert values(xs) == values(xs[::-1])[::-1]
        short, long_ = mpf("0.3"), mpf(20)
        assert values([short, long_]) == values([long_, short])[::-1]

    def test_keyed_on_precision(self, config_override):
        saved = mp.dps
        try:
            for dps in (40, 60):
                mp.dps = dps
                with config_override(rel_tol=10 ** -dps):
                    vi = bessel_i(mpc("0.5", "2.5"), mpf(3))
                    vj = bessel_j(mpf("0.7"), mpf(3))
            with mpmath.workdps(80):
                ri = mpmath.besseli(mpc("0.5", "2.5"), 3)
                rj = mpmath.besselj(mpf("0.7"), 3)
            assert rel(vi, ri) < mpf("1e-55")
            assert rel(vj, rj) < mpf("1e-55")
        finally:
            mp.dps = saved

    def test_memos_bounded(self):
        for memo in MEMOS + (bessel._asymptotic_memo, bessel._k0,
                             quadrature._hankel0_coeffs):
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


def _i_tol():
    # the tolerance bessel_i sums to: the config's, or 10^-dps if smaller
    return min(config.get().rel_tol, 10.0 ** -mp.dps)


def _mpc_i_loop(nu, x):
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
    q, tol = (x / 2) ** 2, mpf(_i_tol())
    t = s = mpc(1)
    total = prev = mpf(1)
    streak = 0
    for k in range(1, config.get().max_terms + 1):
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


def _inv_gamma(nu):
    # 1/Gamma(nu+1) as bessel_j forms it: with guard bits, rounded once
    with mpmath.workprec(mp.prec + _GUARD):
        v = mpmath.exp(-ln_gamma(nu + 1).real)
    return +v


def _mpf_j_loop(nu, x):
    # bessel_j's two branches as mpf loops, with the same prefactors and
    # stop rules; returns the value and the scale of its rounding error
    nu, x = mpf(nu), mpf(x)
    if x <= 20 + nu ** 2 / 2:
        c0 = (x / 2) ** nu * _inv_gamma(nu)
        cfg = config.get()
        q, tol = (x / 2) ** 2, mpf(cfg.rel_tol)
        floor = mpf(10) ** -mp.dps / c0
        t = s = total = mpf(1)
        for k in range(1, cfg.max_terms + 1):
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


def _exact_i_sum(nu, x):
    # bessel_i's fixed-point sum as it was before the ratio tables: each
    # term from the last by the exact ratio, one floor division per
    # component.  Returns the raw sum, wp, the terms past t_0 and the
    # largest |t_k| in units of t_0
    wp = mp.prec + _GUARD + (max(0, -mp.mag(nu.imag)) if nu.imag else 0)
    a, b = to_fixed(nu.real._mpf_, wp), to_fixed(nu.imag._mpf_, wp)
    q = to_fixed(x._mpf_, wp) ** 2 >> (wp + 2)
    tol_n, tol_k = _tol_fraction(_i_tol())
    tr = sr = 1 << wp
    ti = si = 0
    prev = top = tr * tr
    streak = 0
    for k in range(1, config.get().max_terms + 1):
        ka = (k << wp) + a
        d = k * (ka * ka + b * b)
        tr, ti = (tr * ka + ti * b) * q // d, (ti * ka - tr * b) * q // d
        sr += tr
        si += ti
        mag = tr * tr + ti * ti
        top = max(top, mag)
        if (mag <= prev and mag << 2 * tol_k
                < tol_n * tol_n * (sr * sr + si * si)):
            streak += 1
            if streak >= 3:
                return (sr, si), wp, k, mpmath.sqrt(mpf((top, -2 * wp)))
        else:
            streak = 0
        prev = mag
    raise AssertionError("reference loop stalled")


def _exact_j_sum(nu, x):
    # bessel_j's ascending fixed-point sum as it was before the ratio
    # tables, one floor division per term; returns the raw sum, wp and
    # the terms past t_0
    wp = mp.prec + _GUARD
    c0 = (x / 2) ** nu * _inv_gamma(nu)
    a = to_fixed(nu._mpf_, wp)
    q = to_fixed(x._mpf_, wp) ** 2 >> (wp + 2)
    cfg = config.get()
    tol_n, tol_k = _tol_fraction(cfg.rel_tol)
    floor = to_fixed((mpf(10) ** -mp.dps / c0)._mpf_, wp)
    t = s = 1 << wp
    for k in range(1, cfg.max_terms + 1):
        t = -t * q // (k * ((k << wp) + a))
        s += t
        if abs(t) << tol_k < tol_n * max(abs(s), floor):
            return s, wp, k
    raise AssertionError("reference loop stalled")


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
    (bessel_i sums to 10^-dps; bessel_j does under rel_tol = 10^-dps),
    against mpmath at dps+20 and against the mpf loops they replaced."""

    DPS = (25, 40, 60)

    def test_i_against_mpmath(self):
        # the prefactor exp(nu log(x/2) - ln_gamma(nu+1)), formed at
        # working precision, carries up to ~40 units in the last place
        # (measured at dps 25); the sum adds ~1
        for dps in self.DPS:
            with mpmath.workdps(dps):
                ulp = mpf(2) ** -mp.prec
                for nu, y in _i_points():
                    v = bessel_i(nu, y)
                    with mpmath.workdps(dps + 20):
                        ref = mpmath.besseli(nu, y)
                    assert abs(v - ref) <= 64 * ulp * abs(ref), (dps, nu, y)

    def test_i_tiny_imaginary_order_next_to_a_pole(self):
        # k + nu = ib at k = 2, 3, 1: b is far below 2^-(prec + guard), so
        # the fixed-point scale widens to keep its bits.  The prefactor
        # near the 1/Gamma pole is the mpc loop's too.
        for dps in self.DPS:
            with mpmath.workdps(dps):
                ulp = mpf(2) ** -mp.prec
                for nu in (mpc(-2, "1e-60"), mpc(-3, "-1e-200"),
                           mpc(-1, "-1e-300")):
                    ref, scale, k = _mpc_i_loop(nu, mpf("1.5"))
                    v = bessel_i(nu, mpf("1.5"))
                    assert abs(v - ref) <= k * ulp * scale, (dps, nu)

    def test_i_matches_mpc_loop(self):
        # the mpc loop rounds each of its k terms: a few units of its
        # scale per term, measured up to 0.3
        for dps in self.DPS:
            with mpmath.workdps(dps):
                ulp = mpf(2) ** -mp.prec
                for nu, y in _i_points():
                    ref, scale, k = _mpc_i_loop(nu, y)
                    v = bessel_i(nu, y)
                    assert abs(v - ref) <= k * ulp * scale, (dps, nu, y)

    def test_i_stop_rule(self, config_override):
        # three consecutive non-increasing terms below rel_tol |sum|: the
        # series converges with the reference loop's term count and stalls
        # with one term fewer
        for dps in self.DPS:
            with mpmath.workdps(dps):
                for nu, y in ((3j, mpf("0.7")), (mpc("0.5", "2.5"), mpf(3)),
                              (mpf("-2.5"), mpf(9)), (12j, mpf(20))):
                    _, _, k = _mpc_i_loop(nu, y)
                    with config_override(max_terms=k):
                        bessel_i(nu, y)
                    with config_override(max_terms=k - 1), \
                            pytest.raises(NonconvergenceError):
                        bessel_i(nu, y)

    def test_stall_carries_partial_and_tail(self, config_override):
        ulp = mpf(2) ** -mp.prec
        x = mpf(5)
        with config_override(max_terms=3):
            with pytest.raises(NonconvergenceError) as up:
                bessel_i(3j, x)
            with pytest.raises(NonconvergenceError) as down:
                bessel_i(-3j, x)
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

    def test_j_stall_carries_partial_and_tail(self, config_override):
        # J_0.7(3) = c0 (t_0 + ... + t_3), the tail |c0 t_3|
        nu, x = mpf("0.7"), mpf(3)
        with config_override(max_terms=3), \
                pytest.raises(NonconvergenceError) as exc:
            bessel_j(nu, x)
        c0 = (x / 2) ** nu * _inv_gamma(nu)
        t = s = mpf(1)
        for k in (1, 2, 3):
            t = -t * (x / 2) ** 2 / (k * (k + nu))
            s += t
        ulp = mpf(2) ** -mp.prec
        assert abs(exc.value.partial - c0 * s) <= 8 * ulp * abs(c0 * s)
        assert abs(exc.value.tail_estimate - abs(c0 * t)) <= \
            8 * ulp * abs(c0 * t)

    def test_j_against_mpmath(self, config_override):
        # ascending: within a few units in the last place, also next to
        # the switch, where the alternating sum cancels seven digits;
        # asymptotic: within the truncation the estimate reports
        for dps in self.DPS:
            with mpmath.workdps(dps), config_override(rel_tol=10 ** -dps):
                ulp = mpf(2) ** -mp.prec
                for nu, x in _j_points():
                    v, err = bessel_j(nu, x, with_error=True)
                    with mpmath.workdps(dps + 20):
                        actual = abs(v - mpmath.besselj(nu, x))
                    assert actual <= err, (dps, nu, x)
                    assert err <= 10 ** 6 * actual, (dps, nu, x)
                    if x <= 20 + nu ** 2 / 2:
                        assert actual <= 8 * ulp * abs(v), (dps, nu, x)

    def test_ratio_tables_match_exact_division(self, config_override):
        # the stored ratios carry 64 bits beyond wp, so the shift-only
        # loops take the exact-division loops' term counts, and their raw
        # sums differ by at most k units of 2^-wp of the largest term (at
        # large x the growing terms amplify either loop's early floor
        # errors: up to 2.4e12 units at dps 40, tau = 3, x = 39.3)
        for dps in self.DPS:
            with mpmath.workdps(dps), config_override(rel_tol=10 ** -dps):
                for nu, y in _i_points():
                    nu = mpc(nu)
                    if nu.imag == 0 and nu.real == int(nu.real) < 0:
                        nu = -nu  # as bessel_i folds it
                    (er, ei), wp, k, top = _exact_i_sum(nu, y)
                    sr, si, wp2, k2, tail = bessel._i_sum(
                        bessel._i_plan(nu, mp.prec), y,
                        _tol_fraction(_i_tol()), config.get().max_terms)
                    assert (wp2, k2, tail) == (wp, k, None), (dps, nu, y)
                    assert max(abs(sr - er), abs(si - ei)) <= \
                        k * max(1, top), (dps, nu, y)
                for nu, x in _j_points():
                    if x <= 20 + nu ** 2 / 2:
                        es, wp, k = _exact_j_sum(nu, x)
                        _, s, _, k2, wp2 = bessel._j_sum(
                            nu, x, bessel._j_plan(nu, mp.prec),
                            _tol_fraction(config.get().rel_tol),
                            config.get().max_terms, special._eps())
                        assert (wp2, k2) == (wp, k), (dps, nu, x)
                        assert abs(s - es) <= k, (dps, nu, x)

    def test_j_matches_mpf_loop(self, config_override):
        # measured up to 4.2 units of the loop's scale
        for dps in self.DPS:
            with mpmath.workdps(dps), config_override(rel_tol=10 ** -dps):
                ulp = mpf(2) ** -mp.prec
                for nu, x in _j_points():
                    ref, scale = _mpf_j_loop(nu, x)
                    assert abs(bessel_j(nu, x) - ref) <= \
                        16 * ulp * scale, (dps, nu, x)


def _tolerance_stop_i_sum(plan, x, tol, max_terms):
    # bessel._i_sum with the stop on the tolerance alone, as it was before
    # terms within one unit of 0 also met it; same ratios, same floors
    wp, a, b = plan[:3]
    sh = 2 * wp + bessel._RATIO_BITS
    q = to_fixed(x._mpf_, wp) ** 2 >> (wp + 2)
    tol_n, tol_k = tol
    tr = sr = 1 << wp
    ti = si = 0
    prev = tr * tr
    streak = 0
    for k in range(1, max_terms + 1):
        ka = (k << wp) + a
        d = k * (ka * ka + b * b)
        rr, ri = (ka << sh) // d, (b << sh) // d
        tr, ti = (tr * rr + ti * ri) * q >> sh, (ti * rr - tr * ri) * q >> sh
        sr += tr
        si += ti
        mag = tr * tr + ti * ti
        if (mag <= prev and mag << 2 * tol_k
                < tol_n * tol_n * (sr * sr + si * si)):
            streak += 1
            if streak >= 3:
                return sr, si, wp, k, None
        else:
            streak = 0
        prev = mag
    return sr, si, wp, k, mag


class TestISeriesLowDps:
    """At dps 15 and 16 the default tolerance, min(rel_tol, 10^-dps) =
    1e-24, is below the fixed-point sum's one unit 2^-(prec + 24) (6.6e-24
    at dps 15); the sum stops once its terms are within a unit of 0."""

    TAUS = (mpf("0.5"), mpf(2), mpf("5.123"), mpf("6.054"))
    XS = (mpf("0.001"), mpf("0.1"), mpf("0.5"), mpf("1.78"))

    def test_k_itau_series_returns_within_its_estimate(self, monkeypatch):
        # 22 of these 32 points stalled through all 10,000 terms
        monkeypatch.setattr(bessel, "_ks_cache", {})
        for dps in (15, 16):
            with mpmath.workdps(dps):
                for tau in self.TAUS:
                    plan = bessel._k_plan(tau, mp.prec)[0]
                    for x in self.XS:
                        r = k_itau_series(tau, x)
                        *_, k, tail = bessel._i_sum(
                            plan, x, _tol_fraction(_i_tol()), 10000)
                        assert tail is None and k < 60, (dps, tau, x)
                        with mpmath.workdps(40):
                            ref = mpmath.besselk(1j * tau, x).real
                        assert abs(r.value - ref) <= \
                            r.rel_error * abs(ref), (dps, tau, x)

    def test_bessel_i_returns(self):
        for dps in (15, 16):
            with mpmath.workdps(dps):
                for nu in (2j, mpc("0.5", "2.5"), mpf("1.5")):
                    v = bessel_i(nu, mpf("0.5"))
                    with mpmath.workdps(40):
                        ref = mpmath.besseli(nu, mpf("0.5"))
                    assert abs(v - ref) <= 64 * mpf(2) ** -mp.prec * abs(ref)

    def test_tolerance_stop_unchanged_from_dps_17(self):
        # where the tolerance is above a unit the new stop never fires
        # first: sums, term counts and stalls are the tolerance rule's
        for dps in (17, 20, 25, 40):
            with mpmath.workdps(dps):
                tol = _tol_fraction(_i_tol())
                for tau in self.TAUS + (mpf(12), mpf("15.9")):
                    nu = mpc(0, tau)
                    for x in self.XS + (mpf(5), series_safe_x(tau)):
                        plan = bessel._i_plan(nu, mp.prec)
                        for max_terms in (3, 10000):
                            assert bessel._i_sum(plan, x, tol, max_terms) \
                                == _tolerance_stop_i_sum(
                                    plan, x, tol, max_terms), (dps, tau, x)


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

    @pytest.mark.parametrize("dps", [15, 25, 40, 60])
    def test_working_precision_for_every_x(self, dps):
        # one call whose stop follows dps; the unscaled integrand lost
        # the stop at large x and raised at dps 15 from x = 1.  The cut
        # covers the e^{nu t} growth of cosh(nu t): one that assumed
        # |cosh(nu t)| <= 1 left 1.4e10 units of 10^-40 at (10, 0.1).  At
        # nu = 10, quad may also report an estimate past its stop and raise
        with mpmath.workdps(dps):
            for nu in (mpf(0), mpf("2.5"), mpf(5), mpf(10)):
                for x in ("0.1", "1", "10", "50", "90", "300"):
                    try:
                        v = bessel_k_real(nu, mpf(x))
                    except NonconvergenceError:
                        assert nu == 10, (nu, x)
                        continue
                    with mpmath.workdps(dps + 20):
                        ref = mpmath.besselk(nu, mpf(x))
                    assert abs(v - ref) <= \
                        10 * mpf(10) ** -dps * ref, (nu, x)


def _prefactor_scale(tau, x):
    # 10 + |Re e| + |Im e| to 30 bits, e = i tau log(x/2) - ln Gamma(1 + i
    # tau) the exponent of the I prefactor, whose rounding turns I
    e = 1j * tau * mpmath.log(x / 2) - ln_gamma(1 + 1j * tau)
    re, im = abs(e.real), abs(e.imag)
    with mpmath.workprec(30):
        return re + im + 10


def _plain(tau, x, digits):
    # whether k_itau_series (digits = bessel._PLAIN_DIGITS) or the K
    # evaluator (digits = inf) sums at mp.prec, without guard bits: the
    # a-priori loss keeps to the budget
    return bessel._loss_bits(bessel._k_plan(tau, mp.prec), x) <= \
        min(digits, mp.dps - 10) * math.log2(10)


def _within_estimate(r, tau, x):
    with mpmath.workdps(mp.dps + 20):
        ref = mpmath.besselk(1j * tau, x).real
    return abs(r.value - ref) <= r.rel_error * abs(ref)


def _two_series_k(tau, x):
    # the series route as it was before it used conjugate symmetry: both
    # I-series summed and the difference assembled in complex arithmetic
    ip = bessel_i(1j * tau, x)
    im = bessel_i(-1j * tau, x)
    assembled = mpmath.pi * (im - ip) / (2j * mpmath.sinh(mpmath.pi * tau))
    v = assembled.real
    resid = abs(assembled.imag)
    mag = abs(assembled)
    canc_ratio = (abs(ip) + abs(im)) / abs(im - ip) if im != ip else mpf("1e30")
    cancellation = ((mag > 0 and resid > mpf("1e-15") * mag)
                    or canc_ratio > mpf("1e6"))
    rel_error = mpf(10) ** (-mp.dps) * _prefactor_scale(tau, x) * (
        1 + canc_ratio)
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
                ref = bessel._cosh_quad(x, lambda t: 1)[0]
                assert bessel._k0(x, mp.prec) == ref
                hits = bessel._k0.cache_info().hits
                k_itau_quad(mpf("2.1"), x)
                k_itau_quad(mpf("3.1"), x)
                assert bessel._k0.cache_info().hits >= hits + 2

    def test_series_precision_loss(self, config_override):
        # a threshold below what even the guarded sum delivers, 10^-dps
        # for rounding to working precision, forces a refusal
        k_itau_series(mpf(200), mpf(1))
        with config_override(precision_loss_threshold=1e-60), \
                pytest.raises(PrecisionLossError):
            k_itau_series(mpf(200), mpf(1))

    def test_cache_hit_obeys_current_threshold(self, config_override):
        tau, x = mpf(8), mpf(3)
        k_itau_series(tau, x)
        k_itau_quad(tau, x)
        with config_override(precision_loss_threshold=1e-40):
            with pytest.raises(PrecisionLossError):
                k_itau_series(tau, x)
            with pytest.raises(PrecisionLossError):
                k_itau_quad(tau, x)

    def test_series_cache_keys_on_control(self, config_override):
        # the value cached under the default config is not served under
        # max_terms = 3, and none is cached by the raising call
        tau, x = mpf(3), mpf("1.5")
        v = k_itau_series(tau, x).value
        with config_override(max_terms=3), pytest.raises(NonconvergenceError):
            k_itau_series(tau, x)
        assert k_itau_series(tau, x).value == v

    def test_values_are_real_type(self):
        v = k_itau_series(mpf(3), mpf("0.4")).value
        assert isinstance(v, mpf)

    def test_matches_two_series_assembly(self):
        # the conjugate is exact, so only the assembly can differ: one
        # real division rounds once where the complex one rounded twice,
        # and at near-ties, e.g. (0.97, 0.3) at dps 40, the two values
        # differ in the last place; the error model must not differ.
        # Where the sum takes guard bits (x = 12 at dps 25) it returns
        # within its estimate of mpmath
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
                    if not _plain(tau, x, bessel._PLAIN_DIGITS):
                        assert _within_estimate(r, tau, x), (dps, tau, x)
                        continue
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


class TestConfigAtCallTime:
    # each series leaf reads max_terms from the config in force when it is
    # called: a value summed first does not shield a later call (for
    # k_itau_series, its cached value is not served), and the default
    # config applies again once restored
    CALLS = [
        (special.hyp1f1, (mpc(1, 3), 2, mpf("-0.5"))),
        (special.hyp2f1, (mpc("0.5", -4), mpc("0.5", 4), mpf("1.7"),
                          mpf("-0.3"))),
        (bessel_j, (mpf("0.7"), mpf(3))),
        (bessel_i, (3j, mpf(5))),
        (k_itau_series, (mpf(3), mpf("1.5"))),
    ]

    @pytest.mark.parametrize("f, args", CALLS,
                             ids=[f.__name__ for f, _ in CALLS])
    def test_max_terms_read_at_call_time(self, config_override, f, args):
        before = f(*args)
        with config_override(max_terms=3), pytest.raises(NonconvergenceError):
            f(*args)
        assert f(*args) == before


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
            assert all(key[1] != xs[0]._mpf_ for key in store)  # evicted
            assert route(tau, xs[0]).value == first  # recomputed
            assert len(store) == 4
        finally:
            store.clear()
            store.update(saved)


class TestKIndexRouting:
    def test_zero_index_is_real_order(self):
        assert rel(k_index(mpf(0), mpf(1)), K0_1) < mpf("1e-28")

    def test_large_index_on_the_series(self):
        # past the index 16 where k_index used to hand over to the cosine
        # integral, the series holds working precision within its estimate
        r = k_itau_series(mpf(40), mpf(1))
        assert k_index(mpf(40), mpf(1)) == r.value
        with mpmath.workdps(mp.dps + 20):
            ref = mpmath.besselk(40j, mpf(1)).real
        assert abs(r.value - ref) <= r.rel_error * abs(ref)
        assert r.rel_error < mpf(10) ** (4 - mp.dps)  # 3.5e-38 at dps 40

    def test_negative_index_is_even(self, monkeypatch):
        # K is even in the index: k_index folds |index| before the series,
        # as k_itau_quad does, and conjugates an I summed at -|index|
        x = mpf(1)
        v = k_index(mpf(-2), x)
        assert v == k_index(mpf(2), x)
        assert rel(v, k_itau_quad(mpf(-2), x).value) < mpf("1e-25")
        r = k_itau_series(mpf(40), x)
        assert k_index(mpf(-40), x) == r.value
        with mpmath.workdps(mp.dps + 20):
            ref = mpmath.besselk(40j, x).real
        assert abs(r.value - ref) <= r.rel_error * abs(ref)
        monkeypatch.setattr(bessel, "_ks_cache", {})
        i_neg = bessel_i(-2j, x)
        assert k_index(mpf(-2), x, i_neg) == v

    @pytest.mark.parametrize("tau", [3, 6, 12])
    @pytest.mark.parametrize("x", [90, 200])
    def test_large_argument(self, tau, x):
        # past series_safe_x k_index takes the series summed with guard
        # bits, to working precision.  The cosine integral's integrand is
        # scaled by e^x so that quad's absolute stop is a relative one;
        # unscaled, it raised PrecisionLossError here
        with mpmath.workdps(40):
            s = k_itau_series(mpf(tau), mpf(x))
            q = k_itau_quad(mpf(tau), mpf(x))
            assert k_index(mpf(tau), mpf(x)) == s.value
            with mpmath.workdps(80):
                ref = mpmath.besselk(1j * tau, x).real
            for r in (s, q):
                assert abs(r.value - ref) <= r.rel_error * abs(ref)
            assert s.rel_error < 100 * mpf(10) ** -40

    def test_safe_region_grows_with_index(self):
        assert series_safe_x(mpf(10)) > series_safe_x(mpf(1))

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.3, max_value=10),
           st.floats(min_value=0.1, max_value=5))
    def test_router_matches_oracle(self, tau, x):
        v = k_index(mpf(tau), mpf(x))
        ref = mpmath.besselk(1j * mpf(tau), mpf(x)).real
        assert rel(v, ref) < mpf("1e-18")


class TestOneRoute:
    """k_index takes the I-series for every index but 0.  It sums with
    guard bits where the a-priori loss passes bessel._PLAIN_DIGITS digits,
    always past series_safe_x, or where its estimate crosses the loss
    threshold.  It returns within its estimate of mpmath everywhere, loses
    no more digits than that budget, and holds working precision wherever
    it was guarded."""

    TAUS = ("0.25", "1.03", "6.054", "12", "24", "60", "100", "200")
    XS = ("0.001", "0.3", "3", "20", "35", "70", "130", "200")

    @pytest.mark.parametrize("dps", [15, 25, 40, 60])
    def test_within_estimate_of_mpmath(self, monkeypatch, dps):
        precs = []  # of the I-series summed: above mp.prec once guarded
        run = bessel._i_series
        monkeypatch.setattr(bessel, "_i_series", lambda *args: (
            precs.append(mp.prec) or run(*args)))
        monkeypatch.setattr(bessel, "_ks_cache", {})
        with mpmath.workdps(dps):
            eps = mpf(10) ** -dps
            budget = mpf(10) ** min(bessel._PLAIN_DIGITS, dps - 10) * eps
            for tau in map(mpf, self.TAUS):
                for x in map(mpf, self.XS):
                    del precs[:]
                    r = k_itau_series(tau, x)  # no raise at the default
                    guarded = max(precs) > mp.prec
                    assert guarded >= (x > series_safe_x(tau))
                    assert guarded != _plain(tau, x, bessel._PLAIN_DIGITS)
                    with mpmath.workdps(dps + 40):
                        ref = mpmath.besselk(1j * tau, x).real
                    err = abs(r.value - ref)
                    assert err <= r.rel_error * abs(ref), (dps, tau, x)
                    assert err <= budget * abs(ref), (dps, tau, x)
                    if guarded:
                        assert err <= 100 * eps * abs(ref), (dps, tau, x)

    @pytest.mark.parametrize("dps", [25, 40])
    def test_next_to_the_turning_point(self, dps):
        # x a little above tau, where |I| / |Im I| is far above its limit
        # e^{2x - pi tau}: 2^103 against 2^8 at (100, 160).  Summed at
        # mp.prec these lost 31 digits at dps 40
        with mpmath.workdps(dps):
            for tau, x in ((100, 160), (200, 260), (30, 60)):
                v = k_index(mpf(tau), mpf(x))
                with mpmath.workdps(dps + 30):
                    ref = mpmath.besselk(1j * tau, x).real
                assert abs(v - ref) <= 100 * mpf(10) ** -dps * abs(ref), \
                    (tau, x)

    def test_large_index_and_argument(self):
        # up to x = 700: the guard grows like 2.9 x bits at index 1, and
        # at x near tau > 300 the sum's own terms cancel to far below
        # their largest, 2^249 at (650, 700)
        with mpmath.workdps(15):
            for tau, x in ((1, 700), (650, 700), (300, 400), (500, 600)):
                r = k_itau_series(mpf(tau), mpf(x))
                assert _within_estimate(r, mpf(tau), mpf(x)), (tau, x)
                assert r.rel_error < 100 * mpf(10) ** -15, (tau, x)

    def test_refuses_past_x_700(self, monkeypatch):
        # where K at every index is below 1e-304, and before any sum
        sums = []
        monkeypatch.setattr(bessel, "_i_series", lambda *a: sums.append(a))
        routes = (lambda x: k_index(mpf(1), x), lambda x: k_index(0, x),
                  lambda x: k_itau_series(mpf(5), x),
                  bessel._k_evaluator(mpf(2)))
        for route in routes:
            for x in (mpf("700.001"), mpf(10) ** 6):
                with pytest.raises(OverflowGuardError):
                    route(x)
        assert sums == []

    def test_quadrature_routes_call_no_cosine_integral(self, monkeypatch):
        # the K nodes of olevskii_quad at index 24 and of mehler_fock_sq
        # at index 20, which the cosine integral served while the series
        # stopped at index 16
        calls = []
        monkeypatch.setattr(bessel, "k_itau_quad",
                            lambda *args: calls.append(args))
        olevskii_quad(mpf("0.5"), mpf("0.5"), mpf(12), mpf(1))
        mehler_fock_sq(mpf("0.7"), mpf(10), mpf("0.8"))
        assert calls == []


class TestBenchmarkHooks:
    """What the benchmark reads of the package: bench/tracer.py wraps the
    module attribute bessel.k_itau_series, infers k_index's route and the
    K-cache counters from its calls and the caches' len(), and the
    fit-constants points are timed at the k_index bound in bounds."""

    def test_bounds_binds_k_index(self):
        assert bounds.k_index is bessel.k_index

    def test_k_index_calls_the_module_k_itau_series(self, monkeypatch):
        calls = []
        series = bessel.k_itau_series
        monkeypatch.setattr(bessel, "k_itau_series", lambda *args, **kw: (
            calls.append(args[:2]) or series(*args, **kw)))
        points = [(mpf(2), mpf(1)), (mpf(-3), mpf("0.5")), (mpf(40), mpf(1)),
                  (mpf(1), mpf(90))]
        for index, x in points:
            k_index(index, x)
        k_index(mpf(0), mpf(1))  # K_0 is bessel_k_real's
        assert calls == [(abs(index), x) for index, x in points]

    def test_k_caches_are_dicts(self):
        assert type(bessel._ks_cache) is dict
        assert type(bessel._kq_cache) is dict


def _outcome(f, *args):
    # the value of a call, or the type and message of its raise
    try:
        return f(*args)
    except PrecisionLossError as exc:
        return type(exc), str(exc)


class TestIntegrandEvaluators:
    """The K and J evaluators of the quadrature integrands: made at the
    caller's precision and run at quad's, 20 bits above, they return
    k_index's and bessel_j's values bit for bit, and raise as they do."""

    @pytest.mark.parametrize("dps", [25, 40, 60])
    def test_k_matches_k_index(self, dps):
        # orders exact and inexact in binary, arguments on both sides of
        # series_safe_x, the first one twice in a row (the one-entry
        # memo), then the evaluator at the caller's precision
        with mpmath.workdps(dps):
            for tau in map(mpf, ("6", "6.054", "1.5", "0.5", "12", "15.9")):
                k = bessel._k_evaluator(tau)
                with mpmath.workprec(mp.prec + 20):
                    safe = series_safe_x(tau)
                    ys = [mpf("0.3"), mpf("0.3"), mpf("2.7"),
                          safe - mpf("0.2"), safe + mpf("0.2")]
                    for y in ys:
                        assert _outcome(k, y) == _outcome(k_index, tau, y), \
                            (dps, tau, y)
                for y in ys[1:3]:
                    assert _outcome(k, y) == _outcome(k_index, tau, y), \
                        (dps, tau, y)

    @pytest.mark.parametrize("dps", [25, 40, 60])
    def test_j_matches_bessel_j(self, dps):
        # the ascending sum, both sides of its switch, and the asymptotic
        # branch, with and without the error estimate
        with mpmath.workdps(dps):
            for nu in map(mpf, ("0", "0.25", "0.7")):
                switch = 20 + nu ** 2 / 2
                for with_error in (False, True):
                    j = bessel._j_evaluator(nu, with_error)
                    with mpmath.workprec(mp.prec + 20):
                        for y in (mpf(0), mpf("0.3"), mpf("5.1"),
                                  switch - mpf("0.1"), switch + mpf("0.1"),
                                  mpf(60)):
                            assert j(y) == bessel_j(nu, y, with_error), \
                                (dps, nu, y, with_error)

    def test_refusals_are_the_public_ones(self):
        with pytest.raises(DomainError, match="nu > -1"):
            bessel._j_evaluator(mpf(-1), False)(mpf(1))
        with pytest.raises(DomainError, match="k_itau_series"):
            bessel._k_evaluator(mpf(2))(mpf(0))

    def test_loss_threshold_in_force(self, config_override):
        # the K factor's rel_error, about 1e-32 here, and above 10^-46
        # once summed with guard bits at quad's precision, against a
        # tightened threshold, and the same value once the default is back
        args = (mpf("0.7"), mpf(3), mpf("0.8"))
        v = mehler_fock_sq(*args)
        with config_override(precision_loss_threshold=1e-60), \
                pytest.raises(PrecisionLossError, match="k_itau_series"):
            mehler_fock_sq(*args)
        assert mehler_fock_sq(*args) == v

    @pytest.mark.parametrize("route, args, message", [
        (mehler_fock_sq, (mpf("0.7"), mpf(3), mpf("0.8")),
         "bessel_j series did not converge in 3 terms"),
        (whittaker_quad, (mpf("0.3"), mpf(3), mpf(1)),
         "bessel_i series stalled")], ids=["mehler-fock", "whittaker"])
    def test_max_terms_in_force(self, config_override, route, args, message):
        with config_override(max_terms=3), \
                pytest.raises(NonconvergenceError, match=message):
            route(*args)


def _mpc_i(nu, x):
    # bessel_i as the mpc operators assembled it, on the same fixed-point
    # sum: c0 = exp(nu log(x/2) - ln Gamma(nu + 1)) times the sum
    nu, x = mpc(nu), mpf(x)
    if nu.imag == 0 and nu.real == int(nu.real) and nu.real < 0:
        nu = -nu
    conj = nu.imag < 0
    if conj:
        nu = nu.conjugate()
    if nu.imag == 0 and nu.real < 0:
        c0 = (-mpmath.exp(nu * mpmath.log(x / 2) + ln_gamma(-nu))
              * mp.sinpi(nu.real) / mpmath.pi)
    else:
        c0 = mpmath.exp(nu * mpmath.log(x / 2) - ln_gamma(nu + 1))
    sr, si, wp, _, tail = bessel._i_sum(
        bessel._i_plan(nu, mp.prec), x, _tol_fraction(_i_tol()),
        config.get().max_terms)
    v = c0 * mpc(mpf((sr, -wp)), mpf((si, -wp)))
    if conj:
        v = v.conjugate()
    if tail is not None:
        raise NonconvergenceError(
            "bessel_i series stalled", partial=v,
            tail_estimate=abs(c0) * mpmath.sqrt(mpf((tail, -2 * wp))))
    return v


def _mpc_k(tau, x):
    # k_itau_series's sum at working precision as the mpf/mpc operators
    # assembled it from _mpc_i, with its error model eps (10 + |Re e| +
    # |Im e|) (1 + |I| / |Im I|); no threshold applied
    tau, x = mpf(tau), mpf(x)
    i_tau = _mpc_i(1j * tau, x)
    v = -mpmath.pi * i_tau.imag / mpmath.sinh(mpmath.pi * tau)
    canc_ratio = (abs(i_tau) / abs(i_tau.imag) if i_tau.imag != 0
                  else mpf(10 ** 30, prec=70))
    rel_error = special._eps() * _prefactor_scale(tau, x) * (1 + canc_ratio)
    return bessel.KernelValue(v, rel_error, canc_ratio > 10 ** 6)


def _exact_outcome(f, *args):
    # a result's value and estimates, or the type and payload of its raise
    try:
        r = f(*args)
    except NonconvergenceError as exc:
        return type(exc), str(exc), exc.partial, exc.tail_estimate
    except PrecisionLossError as exc:
        return type(exc), str(exc), exc.value, exc.rel_error
    if isinstance(r, bessel.KernelValue):
        return r.value, r.rel_error, r.cancellation
    return r


class TestLibmpAssembly:
    """bessel_i's prefactor and k_itau_series's assembly run on libmp
    tuples; the values, estimates and raises are those of the mpc/mpf
    operator assembly they replace, bit for bit.  Where the a-priori loss
    passes the budget, or that estimate crosses the loss threshold,
    k_itau_series sums with guard bits and returns within its estimate of
    mpmath, or raises with it."""

    TAUS = ("0.13", "0.5", "1.5", "6", "6.054", "12", "15.9")

    def _k_points(self):
        # tau x geometric x from 1e-3 up to series_safe_x(tau)
        for tau in map(mpf, self.TAUS):
            top = series_safe_x(tau)
            for k in range(8):
                yield tau, mpf("1e-3") * (top / mpf("1e-3")) ** (mpf(k) / 8)
            yield tau, top

    def _check_k(self, monkeypatch):
        # k_itau_series and the K evaluator give the reference's outcome
        # where they sum at mp.prec and its estimate keeps to the loss
        # threshold; elsewhere both give the guarded sum's, which the
        # evaluator, with its wider budget, takes at fewer points
        monkeypatch.setattr(bessel, "_ks_cache", {})
        loss = config.get().precision_loss_threshold
        for tau, x in self._k_points():
            want = _exact_outcome(_mpc_k, tau, x)
            kept = isinstance(want[0], type) or want[1] <= loss
            got = _exact_outcome(k_itau_series, tau, x)
            node = _exact_outcome(bessel._k_evaluator(tau), x)
            if kept and _plain(tau, x, bessel._PLAIN_DIGITS):
                assert got == want, (tau, x)
            elif got[0] is PrecisionLossError:
                assert got[3] > loss, (tau, x)
            elif got[0] is NonconvergenceError:
                assert got[1] == "bessel_i series stalled", (tau, x)
            else:
                assert _within_estimate(bessel.KernelValue(*got), tau, x), \
                    (tau, x)
            ref = want if kept and _plain(tau, x, math.inf) else got
            assert node == (ref if isinstance(ref[0], type) else ref[0]), \
                (tau, x)

    @pytest.mark.parametrize("dps", [15, 25, 40, 60])
    def test_k_series(self, monkeypatch, dps):
        with mpmath.workdps(dps):
            self._check_k(monkeypatch)
            with mpmath.workprec(mp.prec + 20):
                self._check_k(monkeypatch)

    def test_k_series_raises(self, monkeypatch, config_override):
        # the stall at max_terms = 3 carries the same partial and tail,
        # and the loss threshold refuses the same points with the same
        # value and estimate
        with mpmath.workdps(25):
            for kw in ({"max_terms": 3}, {"precision_loss_threshold": 1e-22}):
                with config_override(**kw):
                    self._check_k(monkeypatch)

    @pytest.mark.parametrize("dps", [15, 25, 40, 60])
    def test_bessel_i_orders(self, dps):
        # real orders, complex ones with Re nu != 0, the reflection branch,
        # conjugate orders and the imaginary orders of K
        orders = [1, mpf("2.5"), mpc("0.5", "0.3"), mpc("-0.7", "1.1"),
                  mpc("0.5", "-2.5"), mpf("-1.3"), 1.5j, -6.054j]
        xs = [mpf("1e-3"), mpf("0.3"), mpf("1.7"), mpf("9.5"), mpf(33)]
        with mpmath.workdps(dps):
            for extra in (0, 20):
                with mpmath.workprec(mp.prec + extra):
                    for nu in orders:
                        for x in xs:
                            assert _exact_outcome(bessel_i, nu, x) == \
                                _exact_outcome(_mpc_i, nu, x), (nu, x)

    def test_bessel_i_stall(self, config_override):
        with config_override(max_terms=3):
            for nu in (1, mpc("0.5", "0.3"), -2.5j):
                for x in (mpf("1.7"), mpf(9)):
                    out = _exact_outcome(bessel_i, nu, x)
                    assert out[0] is NonconvergenceError
                    assert out == _exact_outcome(_mpc_i, nu, x), (nu, x)


class TestOneAssembly:
    """Every route to I_{i tau} and K_{i tau} on the series runs the same
    two routines: made to raise, each of them stops all of those routes."""

    def _routes(self):
        tau, x = mpf("2.5"), mpf("1.3")
        return [lambda: bessel_i(1j * tau, x),
                lambda: k_itau_series(tau, x),
                lambda: k_index(tau, x),
                lambda: kernels._product_oracle(tau, x),
                lambda: bessel._k_evaluator(tau)(x)]

    @pytest.mark.parametrize("name", ["_i_series", "_k_series"])
    def test_patched_routine_stops_every_route(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError(name)

        monkeypatch.setattr(bessel, "_ks_cache", {})
        monkeypatch.setattr(bessel, name, refuse)
        routes = self._routes()
        if name == "_k_series":
            routes = routes[1:]  # bessel_i assembles I alone
        for route in routes:
            with pytest.raises(AssertionError, match=name):
                route()


class TestTanhSinhNodeCache:
    def test_second_tau_reuses_nodes(self, monkeypatch):
        # K_0 is the interval's first sighting, the first tau its second,
        # which stores the moved nodes; later tau at that x move none, and
        # every value is the one computed from empty dicts
        for name in ("_TS_TRANSFORMED", "_TS_SEEN", "_kq_cache"):
            monkeypatch.setattr(bessel, name, {})
        bessel._k0.cache_clear()
        moves = []
        move = bessel._TanhSinh.transform_nodes
        monkeypatch.setattr(bessel._TanhSinh, "transform_nodes",
                            lambda self, *a: moves.append(1) or move(self, *a))
        x, taus = mpf("1.3"), (mpf("0.7"), mpf("2.5"), mpf("4.1"))
        first = [k_itau_quad(tau, x) for tau in taus]
        assert len(moves) > 0
        del moves[:]
        assert k_itau_quad(mpf("5.3"), x) is not None
        assert moves == []
        for name in ("_TS_TRANSFORMED", "_TS_SEEN", "_kq_cache"):
            monkeypatch.setattr(bessel, name, {})
        bessel._k0.cache_clear()
        assert [k_itau_quad(tau, x) for tau in taus] == first

    def test_dicts_bounded(self, monkeypatch):
        for name in ("_TS_TRANSFORMED", "_TS_SEEN", "_kq_cache"):
            monkeypatch.setattr(bessel, name, {})
        with mpmath.workdps(15):
            for k in range(20):
                x = mpf(1) + mpf(k) / 7
                for tau in (mpf("0.7"), mpf("2.5")):
                    k_itau_quad(tau, x)
                assert len(bessel._TS_TRANSFORMED) <= bessel._TS_INTERVALS_MAX
                assert len(bessel._TS_SEEN) <= bessel._TS_INTERVALS_MAX
        assert len(bessel._TS_SEEN) == bessel._TS_INTERVALS_MAX
