"""Special-function layer: log-gamma, Binet remainder, pFq series.

Pinned values were computed with mpmath at dps=60 and frozen here; the
package routes must reproduce them at the default working precision.
"""

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from indexkernels.errors import DomainError, NonconvergenceError, PoleError
from indexkernels.special import (_ln_gamma_memo, binet_r, gamma_c,
                                  gamma_via_binet, hyp1f1, hyp1f2, hyp2f1,
                                  hyp2f1_term2, ln_gamma, pochhammer)

LN_GAMMA_1PI = mpc("-0.650923199301856338885216831504",
                   "-0.301640320467533197887531657797")
HYP1F2_PIN = mpf("1.29079155385854713033739322491")
HYP1F1_PIN = mpc("0.784894671023256895202007435309",
                 "-0.00611295121459101348785741008374")
HYP2F1_PIN = mpf("0.34706000492289289154166556203")
BINET_R1 = mpf("0.0844375514192275466115773134229")


def rel(a, b):
    return abs(a - b) / max(abs(b), mpf("1e-30"))


class TestLnGamma:
    def test_pinned_complex_point(self):
        assert rel(ln_gamma(mpc(1, 1)), LN_GAMMA_1PI) < mpf("1e-28")

    def test_half_integer(self):
        assert rel(gamma_c(mpf("0.5")), mpmath.sqrt(mpmath.pi)) < mpf("1e-35")

    def test_integer_factorials(self):
        for n in range(1, 12):
            assert rel(gamma_c(n), mpmath.factorial(n - 1)) < mpf("1e-35")

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.3, max_value=20),
           st.floats(min_value=-15, max_value=15))
    def test_recurrence(self, re, im):
        z = mpc(re, im)
        lhs = ln_gamma(z + 1)
        rhs = ln_gamma(z) + mpmath.log(z)
        # recurrence may differ by 2*pi*i between branches; compare exp
        assert rel(mpmath.exp(lhs), mpmath.exp(rhs)) < mpf("1e-30")

    def test_conjugate_symmetry(self):
        z = mpc(2, 3)
        assert rel(ln_gamma(z.conjugate()),
                   ln_gamma(z).conjugate()) < mpf("1e-35")

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            gamma_c(0)
        with pytest.raises(PoleError):
            gamma_c(-3)

    def test_non_finite_rejected(self):
        for z in (mpf("inf"), mpf("nan"), mpc(1, "-inf"), mpc("inf", 1)):
            with pytest.raises(DomainError):
                ln_gamma(z)

    def test_against_mpmath_as_dps_grows(self):
        # mpc_loggamma rounds each part once at working precision: each is
        # within one unit of its own last place of the dps+30 reference
        # (0.49 measured), exactly 0 where the reference is (ln Gamma(1)),
        # and so also inside the absolute 10 eps = 10^(1-dps).  The points
        # straddle the negative axis (the reflection's branch) too
        points = ([1j * mpf(t) for t in (5, "6.5", 8, "9.5", 12)]
                  + [mpc("0.3", -20), mpc("-3.5", "0.01"),
                     mpc("-3.5", "-0.01"), mpf(1), mpf("1.7")])
        for dps in (15, 25, 40, 60):
            with mpmath.workdps(dps):
                prec = mp.prec
                for z in points:
                    z = mpc(z)  # rounded to working precision
                    v = ln_gamma(z)
                    with mpmath.workdps(dps + 30):
                        ref = mpmath.loggamma(z)
                        assert abs(v - ref) <= 10 * mpf(10) ** -dps, (dps, z)
                        for part, r in ((v.real, ref.real),
                                        (v.imag, ref.imag)):
                            unit = mpf(2) ** (mpmath.mag(r) - prec) if r else 0
                            assert abs(part - r) <= unit, (dps, z)

    def test_relative_accuracy_next_to_the_zeros(self):
        # ln Gamma vanishes at z = 1 and 2, so an absolute error of eps
        # there is a large relative one: next to them each value holds
        # 10 eps relative to mpmath at dps+40
        points = (1 + mpf("1e-12"), mpc(2 - mpf("1e-15"), "1e-20"),
                  mpc(2, "1e-9"))
        for dps in (15, 40):
            with mpmath.workdps(dps):
                for z in points:
                    z = mpc(z)  # rounded to working precision
                    v = ln_gamma(z)
                    with mpmath.workdps(dps + 40):
                        ref = mpmath.loggamma(z)
                        assert abs(v - ref) <= \
                            10 * mpf(10) ** -dps * abs(ref), (dps, z)

    def test_exp_matches_binet_route(self):
        # an oracle that shares no code with mpc_loggamma: Gamma from the
        # Stirling prefactor and the Binet integral, at the Gamma factors
        # of the expansions, Gamma(1 + i tau), Gamma(i tau), Gamma(-2 i
        # tau) and Gamma(1/2 - rho - i tau), on workload tau (rho = -0.3
        # as in the Whittaker sweeps); measured up to 0.21 of the bound
        rho = mpf("-0.3")
        for tau in (mpf("0.5"), mpf(3), mpf("8.5")):
            for z in (1 + 1j * tau, 1j * tau, -2j * tau,
                      mpf("0.5") - rho - 1j * tau):
                lg = ln_gamma(z)
                g = gamma_via_binet(z)
                assert abs(mpmath.exp(lg) - g) <= \
                    (1 + abs(lg)) * mpf(10) ** -mp.dps * abs(g), z


class TestLnGammaMemo:
    POINTS = (mpc(1, 3), mpc(1, -3), mpc("0.3", "7.5"), mpc("0.3", "-7.5"),
              mpf("0.5"), mpf("3.7"), mpf(12))

    def test_bit_identical_to_uncached_body(self):
        for dps in (25, 40, 60):
            with mpmath.workdps(dps):
                for z in self.POINTS:
                    z = mpc(z)
                    ref = _ln_gamma_memo.__wrapped__(z, mp.prec)
                    for _ in range(2):  # a miss or hit, then a hit
                        assert ln_gamma(z)._mpc_ == ref._mpc_

    def test_precision_is_part_of_the_key(self):
        z = mpc("1.25", "3.5")  # exact in binary at both precisions
        with mpmath.workdps(40):
            ln_gamma(z)
        with mpmath.workdps(60):
            # a hit on the dps-40 entry would be off by ~1e-40
            assert rel(ln_gamma(z), mpmath.loggamma(z)) < mpf("1e-55")

    def test_poles_raise_every_time(self):
        size = _ln_gamma_memo.cache_info().currsize
        for z in (0, -2, 0, -2):
            with pytest.raises(PoleError):
                ln_gamma(z)
        assert _ln_gamma_memo.cache_info().currsize == size


class TestBinet:
    def test_pinned_r_of_one(self):
        # Gamma(1) = 1 forces r(1) = e / sqrt(2 pi) - 1 exactly
        assert rel(binet_r(mpf(1)), BINET_R1) < mpf("1e-28")

    def test_gamma_roundtrip(self):
        for z in (mpf(3), mpc(2, 2), mpc("0.5", 5), mpf("0.25")):
            assert rel(gamma_via_binet(z), mpmath.gamma(z)) < mpf("1e-30")

    def test_envelope(self):
        # |r(z)| <= e^{1/(6|z|)} - 1 along three rays
        for r in (mpf("0.25"), mpf(1), mpf(4), mpf(20), mpf(50)):
            for arg in (0, mpmath.pi / 4, mpmath.pi / 2):
                z = r * mpmath.exp(1j * arg)
                assert abs(binet_r(z)) <= mpmath.exp(1 / (6 * r)) - 1

    def test_decay(self):
        assert abs(binet_r(mpf(100))) < abs(binet_r(mpf(1)))


class TestPochhammer:
    def test_zero_length(self):
        assert pochhammer(mpc(2, 3), 0) == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=12))
    def test_integer_case(self, m):
        assert rel(pochhammer(mpf(1), m), mpmath.factorial(m)) < mpf("1e-35")

    def test_recurrence(self):
        a = mpc("1.5", 2)
        assert rel(pochhammer(a, 5), pochhammer(a, 4) * (a + 4)) < mpf("1e-35")


class TestHypergeometric:
    def test_1f2_pinned(self):
        v = hyp1f2(mpf("0.5"), mpc(1, 1), mpc(1, -1), mpf(1))
        assert rel(v, HYP1F2_PIN) < mpf("1e-28")

    def test_1f1_pinned(self):
        v = hyp1f1(mpc("0.5", 1), mpc(1, 2), mpf("-0.5"))
        assert rel(v, HYP1F1_PIN) < mpf("1e-28")

    def test_1f1_kummer_consistency(self):
        # 1F1(a;b;z) = e^z 1F1(b-a;b;-z)
        a, b = mpc("0.7", 2), mpc(2, 1)
        z = mpf(3)
        lhs = hyp1f1(a, b, z)
        rhs = mpmath.exp(z) * hyp1f1(b - a, b, -z)
        assert rel(lhs, rhs) < mpf("1e-28")

    def test_2f1_pinned_at_minus_one(self):
        v = hyp2f1(mpc(1, 1), mpc(1, -1), mpf("1.5"), mpf(-1))
        assert rel(v, HYP2F1_PIN) < mpf("1e-24")

    def test_2f1_trivial_parameter(self):
        # 2F1(a, b; b; z) = (1-z)^{-a}
        v = hyp2f1(mpf(2), mpf("1.5"), mpf("1.5"), mpf("-0.5"))
        assert rel(v, mpf("1.5") ** -2) < mpf("1e-22")

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-4, max_value=-0.05))
    def test_2f1_against_oracle(self, z):
        a, b, c = mpc(1, 1), mpc(1, -1), mpf("1.5")
        v = hyp2f1(a, b, c, mpf(z))
        ref = mpmath.hyp2f1(a, b, c, mpf(z))
        assert rel(v, ref) < mpf("1e-22")

    def test_2f1_domain_guard(self):
        with pytest.raises(DomainError):
            hyp2f1(1, 1, 2, mpf("0.5"))

    def test_2f1_pole_guard(self):
        with pytest.raises(PoleError):
            hyp2f1(1, 1, -2, mpf("-0.5"))

    def test_terminating_2f1(self):
        assert hyp2f1_term2(0, mpf("0.3"), mpf(2)) == 1
        # k = 1: 1 + (-1)(i tau + rho + 1/2) * 2 / (1 + 2 i tau)
        rho, tau = mpf("0.3"), mpf(2)
        expect = 1 - 2 * (1j * tau + rho + mpf("0.5")) / (1 + 2j * tau)
        assert rel(hyp2f1_term2(1, rho, tau), expect) < mpf("1e-35")


def cases(tau):
    # the front ends' sums with cancellation growing in tau
    half, mu, x = mpf(1) / 2, mpf("0.7"), mpf("1.3")
    a = half + 1j * tau
    return [
        (hyp1f1, a + mpf("0.2"), 1 + 2j * tau, -x),
        (hyp1f1, mpc(1, tau), 2, -4 * x),  # the Kummer transform
        (hyp1f1, mpc(1, tau), 2, 2j * tau),
        (hyp1f2, a, 1 + 1j * tau, 1 + 2j * tau, x ** 2),
        (hyp1f2, 1, 3 - 1j * tau, 3, -4 * tau ** 2),
        (hyp2f1, a.conjugate(), a, 1 + mu, mpf("-0.3")),  # direct
        (hyp2f1, a.conjugate(), a, 1 + mu, mpf("-3.5")),  # Pfaff
        (hyp2f1, a.conjugate(), a, 1 + mu, mpf("-1.004")),  # Pfaff near -1
    ]


CASE_TAUS = (mpf("0.3"), mpf("2.5"), mpf(7), mpf(13), mpf(20))


class TestHypergeometricAccuracy:
    """hypsum sums to working precision.  mpmath's oracle runs the same
    summer for |z| <= 0.8, so the closed forms below, and the
    series-vs-quadrature tests of the kernels, check it independently."""

    ORACLE = {"hyp1f1": mpmath.hyp1f1, "hyp1f2": mpmath.hyp1f2,
              "hyp2f1": mpmath.hyp2f1}

    def test_cases_against_mpmath(self):
        # worst measured: 15.7 units of 10^-dps, at dps 25
        for dps in (25, 40, 60):
            with mpmath.workdps(dps):
                for tau in CASE_TAUS:
                    for f, *args in cases(tau):
                        v = f(*args)
                        with mpmath.workdps(dps + 20):
                            ref = self.ORACLE[f.__name__](*args)
                            err = abs(v - ref) / abs(ref)
                        assert err <= 100 * mpf(10) ** -dps, \
                            (dps, tau, f.__name__, args)

    def test_1f1_closed_form(self):
        # 1F1(1; 2; z) = expm1(z) / z: at z = 800 the terms overflow a
        # float, at z = -3 the Kummer transform runs
        for dps in (25, 40, 60):
            with mpmath.workdps(dps):
                for z in (mpf("0.5"), mpf(-3), mpf(800)):
                    assert rel(hyp1f1(1, 2, z), mpmath.expm1(z) / z) <= \
                        100 * mpf(10) ** -dps, (dps, z)

    def test_2f1_closed_form(self):
        # 2F1(1, 1; 2; z) = -log1p(-z) / z: the direct series and the
        # Pfaff transform, next to z = -1 and far from it
        for dps in (25, 40, 60):
            with mpmath.workdps(dps):
                for z in (mpf("-0.3"), mpf("-1.004"), mpf("-3.5")):
                    assert rel(hyp2f1(1, 1, 2, z), -mpmath.log1p(-z) / z) <= \
                        100 * mpf(10) ** -dps, (dps, z)


    def test_2f1_next_to_minus_one(self):
        # the direct sum ran out of its 10000 terms here, just outside
        # the window around z = -1 where Pfaff used to take over
        a, b, c, z = mpc(1, 1), mpc(1, -1), mpf("1.5"), mpf("-0.98931")
        with mpmath.workdps(40):
            v = hyp2f1(a, b, c, z)
            with mpmath.workdps(60):
                ref = mpmath.hyp2f1(a, b, c, z)
            assert rel(v, ref) <= 100 * mpf(10) ** -40

    def test_2f1_across_the_switch(self):
        # direct series down to z = -1/2, Pfaff past it
        a, b, c = mpc(1, 1), mpc(1, -1), mpf("1.5")
        for dps in (25, 40, 60):
            with mpmath.workdps(dps):
                for k in range(141):
                    z = mpf(-1200 + 5 * k) / 1000
                    v = hyp2f1(a, b, c, z)
                    with mpmath.workdps(dps + 20):
                        ref = mpmath.hyp2f1(a, b, c, z)
                    assert rel(v, ref) <= 100 * mpf(10) ** -dps, (dps, z)


class TestFixedPointSeriesSum:
    """What _series_adaptive adds to mpmath's hypsum: a check of its
    inputs."""

    def test_non_finite_input_does_not_converge(self):
        # hypsum's fixed-point form of inf or nan would be 0
        for args in ((mpf("inf"), 2, mpf("0.5")), (1, 2, mpf("nan")),
                     (mpc(1, 1), mpc(2, "inf"), mpf("0.5"))):
            with pytest.raises(NonconvergenceError):
                hyp1f1(*args)

    def test_precision_cap_does_not_converge(self, monkeypatch):
        # hypsum raises ValueError once the cancellation it measures needs
        # more than its precision cap; no test input reaches that cap
        # within MAX_TERMS, so the raise is stood in for
        def capped(*args, **kwargs):
            raise ValueError("hypsum() failed to converge")
        monkeypatch.setattr(mp, "hypsum", capped)
        with pytest.raises(NonconvergenceError):
            hyp1f1(mpc(1, 3), 2, mpf("-0.5"))
