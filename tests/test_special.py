"""Special-function layer: log-gamma, Binet remainder, pFq series.

Pinned values were computed with mpmath at dps=60 and frozen here; the
package routes must reproduce them at the default working precision.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from indexkernels import cli, config, special
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
        # guard bits and one log of the shift product hold the absolute
        # error under 10 eps = 10^(1-dps); at 15 and 30 eps it grew with
        # dps, from the ~25 working-precision logs of the shift.  The
        # points straddle the negative axis (the branch fix) too
        points = ([1j * mpf(t) for t in (5, "6.5", 8, "9.5", 12)]
                  + [mpc("0.3", -20), mpc("-3.5", "0.01"),
                     mpc("-3.5", "-0.01"), mpf(1), mpf("1.7")])
        for dps in (25, 40, 60):
            with mpmath.workdps(dps):
                for z in points:
                    v = ln_gamma(z)
                    with mpmath.workdps(dps + 30):
                        ref = mpmath.loggamma(z)
                    assert abs(v - ref) <= 10 * mpf(10) ** -dps, (dps, z)


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


def _two_pass_adaptive(nums, dens, z):
    # the loop _series_adaptive replaced: a first pass at mp.dps only
    # supplies the loss digits, then the escalation recomputes the sum
    extra = 0
    while True:
        with mpmath.workdps(mp.dps + extra):
            s, max_mag, _ = special._series_sum(nums, dens, z)
            if s == 0:
                loss = 0
            else:
                loss = int(mp.log10(max_mag / abs(s))) + 1
        if loss <= extra:
            return mpc(s)
        extra = loss + 10


def _two_pass(monkeypatch, f, *args):
    with monkeypatch.context() as m:
        m.setattr(special, "_series_adaptive", _two_pass_adaptive)
        return f(*args)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(special, name)

    def counted(*args):
        out = fn(*args)
        calls.append(out)
        return out
    monkeypatch.setattr(special, name, counted)
    return calls


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
        (hyp2f1, a.conjugate(), a, 1 + mu, mpf("-1.004")),  # window
    ]


CASE_TAUS = (mpf("0.3"), mpf("2.5"), mpf(7), mpf(13), mpf(20))


class TestSeriesPrecision:
    """_series_adaptive's first pass carries 48 extra bits and escalates
    past a larger loss; its values match the two-pass loop it replaced."""

    def test_matches_two_pass_loop(self, monkeypatch):
        for dps in (25, 40, 60):
            with mpmath.workdps(dps):
                for tau in CASE_TAUS:
                    for f, *args in cases(tau):
                        ref = _two_pass(monkeypatch, f, *args)
                        assert f(*args) == ref, (dps, tau, f.__name__, args)

    def test_one_pass_when_loss_is_small(self, monkeypatch):
        passes = _count_calls(monkeypatch, "_series_sum")
        # no cancellation: 1F1(1; 2; 1/2) = 2 (e^(1/2) - 1)
        v = hyp1f1(1, 2, mpf("0.5"))
        assert len(passes) == 1
        assert rel(v, 2 * mpmath.expm1(mpf("0.5"))) < mpf("1e-23")
        # 2F1 with conjugate parameters at tau = 5 loses ~5 digits
        half = mpf(1) / 2
        v = hyp2f1(half - 5j, half + 5j, mpf("1.7"), mpf("-0.3"))
        assert len(passes) == 2
        assert rel(v, mpmath.hyp2f1(half - 5j, half + 5j, mpf("1.7"),
                                    mpf("-0.3"))) < mpf("1e-23")
        # the loop it replaced summed each twice
        _two_pass(monkeypatch, hyp1f1, 1, 2, mpf("0.5"))
        _two_pass(monkeypatch, hyp2f1, half - 5j, half + 5j, mpf("1.7"),
                  mpf("-0.3"))
        assert len(passes) == 6

    def test_one_pass_per_sum_in_the_bound_sweeps(self, monkeypatch):
        # the criterion-4 verify sweeps at the corners of their grid
        grids = ["--grid", "tau=0.5:10:9.5", "--grid", "x=0.1:2:1.9"]
        runs = [["verify", "--bound", "kl", "--n", n] for n in "123"]
        runs += [["verify", "--bound", "mehler-fock", "--n", "1", "--mu", mu]
                 for mu in ("0.5", "1")]
        runs.append(["verify", "--bound", "product"])
        runs += [["verify", "--bound", "whittaker", "--n", "1", "--mu", mu]
                 for mu in ("0.5", "1")]
        runs += [["verify", "--bound", "olevskii", "--mu", mu, "--nu", nu]
                 for mu, nu in (("0.5", "0.25"), ("0.75", "0"))]
        sums = _count_calls(monkeypatch, "_series_adaptive")
        passes = _count_calls(monkeypatch, "_series_sum")
        assert [cli.main(argv + grids) for argv in runs] == [0] * 10
        assert len(sums) > 0
        assert len(passes) == len(sums)

    def test_declines_on_overflow(self, monkeypatch):
        # 1F1(1; 2; 800) = (e^800 - 1) / 800: its terms overflow a float
        ref = _two_pass(monkeypatch, hyp1f1, 1, 2, 800)
        assert hyp1f1(1, 2, 800) == ref
        assert rel(ref, mpmath.expm1(800) / 800) < mpf("1e-23")

    def test_declines_on_large_loss(self, monkeypatch):
        # 37 bits (11 digits) cancel, more than the first pass's 32 to spare
        half, tau = mpf(1) / 2, mpf(16)
        args = (half - 1j * tau, half + 1j * tau, mpf("1.5"), mpf("-0.6"))
        passes = _count_calls(monkeypatch, "_series_sum")
        v = hyp2f1(*args)
        assert len(passes) == 2  # the first pass, then the escalation
        assert v == _two_pass(monkeypatch, hyp2f1, *args)

    def test_declines_when_terms_run_out(self, monkeypatch, config_override):
        # five terms do not converge; the first pass raises the old error,
        # its partial sum carried at 48 more bits
        args = (mpc(1, 3), 2, mpf("-0.5"))
        with config_override(max_terms=5):
            with pytest.raises(NonconvergenceError) as new:
                hyp1f1(*args)
            with pytest.raises(NonconvergenceError) as old:
                _two_pass(monkeypatch, hyp1f1, *args)
        assert str(new.value) == str(old.value)
        assert abs(new.value.partial - old.value.partial) <= \
            mpf(10) ** -mp.dps * abs(old.value.partial)


def _mpc_series_loop(nums, dens, z):
    # the mpc loop the fixed-point sum replaced, rounding every term; it
    # also returns its scale, the sum of the term magnitudes
    cfg = config.get()
    term = s = mpc(1)
    max_mag = prev_mag = scale = mpf(1)
    tol = mpf(cfg.rel_tol, prec=53)
    streak = 0
    for k in range(cfg.max_terms):
        num = mpc(z)
        for a in nums:
            num *= a + k
        den = mpc(k + 1)
        for b in dens:
            den *= b + k
        term = term * num / den
        s += term
        mag = abs(term)
        scale += mag
        max_mag = max(max_mag, mag)
        if mag < tol * abs(s) and mag <= prev_mag:
            streak += 1
            if streak >= 3:
                return s, max_mag, k + 1, scale
        else:
            streak = 0
        prev_mag = mag
    raise NonconvergenceError("stalled", partial=s, tail_estimate=abs(term))


def _floored_sum(nums, dens, z, wp, terms):
    # exact rationals: each term the last times the exact ratio of the
    # 2^-wp-floored parameters, each component floored to 2^-wp
    unit = Fraction(1, 2 ** wp)

    def fixed(c):
        return tuple(int(mpmath.floor(mpmath.ldexp(v, wp))) * unit
                     for v in (mpc(c).real, mpc(c).imag))

    def mul(u, v):
        return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]
    ups, lows = [fixed(a) for a in nums], [fixed(b) for b in dens]
    t = s = (Fraction(1), Fraction(0))
    for k in range(terms):
        num, den = fixed(z), (Fraction(k + 1), Fraction(0))
        for a in ups:
            num = mul(num, (a[0] + k, a[1]))
        for b in lows:
            den = mul(den, (b[0] + k, b[1]))
        r = mul(mul(t, num), (den[0], -den[1]))
        m = den[0] ** 2 + den[1] ** 2
        t = tuple((c / m // unit) * unit for c in r)
        s = (s[0] + t[0], s[1] + t[1])
    return s


class TestFixedPointSeriesSum:
    """_series_sum on integers scaled by 2^(mp.prec + _GUARD), against
    the mpc loop it replaced, on the passes the front ends run."""

    @staticmethod
    def passes(monkeypatch, dps):
        # (nums, dens, z, mp.prec) of each pass of the cases and of a
        # real-parameter 1F1 with alternating terms
        seen = []
        fn = special._series_sum

        def spy(nums, dens, z):
            seen.append((nums, dens, z, mp.prec))
            return fn(nums, dens, z)
        runs = [(hyp1f1, mpf("0.7"), mpf("1.9"), mpf("-0.8"))]
        for tau in CASE_TAUS:
            runs += cases(tau)
        with monkeypatch.context() as m, mpmath.workdps(dps):
            m.setattr(special, "_series_sum", spy)
            for f, *args in runs:
                f(*args)
        return seen

    def test_matches_mpc_loop(self, monkeypatch):
        # the loop rounds each term: the sums agree within a few units of
        # its scale (measured up to 4.1), the largest terms within the
        # loop's k roundings of a term (measured up to 0.05 k)
        for dps in (25, 40, 60):
            for nums, dens, z, prec in self.passes(monkeypatch, dps):
                with mpmath.workprec(prec):
                    ref, ref_max, k, scale = _mpc_series_loop(nums, dens, z)
                    s, max_mag, terms = special._series_sum(nums, dens, z)
                    ulp = mpf(2) ** -prec
                if scale < 2 ** (prec - 20) * abs(ref):
                    # a pass that cancels all its digits stops on a noisy
                    # |sum|; the escalation then sums it again
                    assert terms == k, (dps, nums, dens, z)
                assert abs(s - ref) <= 8 * ulp * scale, (dps, nums, dens, z)
                assert abs(max_mag - ref_max) <= k * ulp * ref_max

    def test_stop_rule(self, monkeypatch, config_override):
        # three consecutive non-increasing terms below rel_tol |sum|: the
        # sum converges with the loop's term count and stalls one short
        for nums, dens, z, prec in self.passes(monkeypatch, 40):
            with mpmath.workprec(prec):
                k = special._series_sum(nums, dens, z)[2]
                with config_override(max_terms=k):
                    assert special._series_sum(nums, dens, z)[2] == k
                with config_override(max_terms=k - 1), \
                        pytest.raises(NonconvergenceError):
                    special._series_sum(nums, dens, z)

    def test_stall_carries_partial_and_tail(self, config_override):
        ulp = mpf(2) ** -mp.prec
        for nums, dens, z in (([mpc(1, 3)], [mpc(2)], mpc("-0.5")),
                              ([mpc("0.5", -4), mpc("0.5", 4)],
                               [mpc("1.7")], mpc("-0.3"))):
            with config_override(max_terms=3):
                with pytest.raises(NonconvergenceError) as new:
                    special._series_sum(nums, dens, z)
                with pytest.raises(NonconvergenceError) as old:
                    _mpc_series_loop(nums, dens, z)
            new, old = new.value, old.value
            assert abs(new.partial - old.partial) <= 8 * ulp * abs(old.partial)
            assert abs(new.tail_estimate - old.tail_estimate) <= \
                8 * ulp * old.tail_estimate

    def test_non_finite_input_does_not_converge(self):
        # as the mpc loop's inf and nan terms never did, but at once: the
        # fixed-point form of inf or nan would be 0
        for args in ((mpf("inf"), 2, mpf("0.5")), (1, 2, mpf("nan")),
                     (mpc(1, 1), mpc(2, "inf"), mpf("0.5"))):
            with pytest.raises(NonconvergenceError):
                hyp1f1(*args)

    def test_sum_is_the_floored_recurrence(self, monkeypatch):
        # without guard bits the rounding of each term shows in the sum:
        # it is the exact recurrence floored per component, bit for bit
        monkeypatch.setattr(special, "_GUARD", 0)
        for nums, dens, z in (([mpc("0.7")], [mpc("1.9")], mpc("-0.8")),
                              ([mpc("0.5", -2), mpc("0.5", 2)],
                               [mpc("1.7")], mpc("-0.45"))):
            s, _, k = special._series_sum(nums, dens, z)
            re, im = _floored_sum(nums, dens, z, mp.prec, k)
            assert s == mpc(mpf(re.numerator) / re.denominator,
                            mpf(im.numerator) / im.denominator)
