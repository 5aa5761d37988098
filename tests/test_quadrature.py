"""The four integral kernel routes.

Pinned values computed with mpmath at dps=60.
"""

import functools

import mpmath
import pytest
from mpmath import mp, mpc, mpf
from mpmath.calculus.quadrature import GaussLegendre

from indexkernels import bessel, quadrature, special
from indexkernels.bessel import bessel_k_real, k_itau_quad
from indexkernels.errors import (DomainError, NonconvergenceError,
                                 OverflowGuardError)
from indexkernels.quadrature import (QuadResult, _GaussLegendre, _head_vs_k,
                                     _j_coeffs, _product_tail, _quad,
                                     _tail_ray, mehler_fock_quad,
                                     olevskii_quad, product_kernel_quad,
                                     whittaker_quad)
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

    @pytest.mark.parametrize("tau", ["0.25", "1", "2"])
    @pytest.mark.parametrize("x", ["0.2", "1", "3"])
    def test_estimate_covers_error(self, tau, x):
        # the estimate carries J_0's own error, which jumps where J_0
        # switches to its asymptotic series and dominates at x = 3
        for dps in (25, 40):
            self.check_estimate(tau, x, dps)

    def test_large_index_within_estimate(self):
        # tau = 3 was refused while the route had a trusted tau range
        for dps in (25, 40):
            self.check_estimate("3", "1", dps)

    @pytest.mark.parametrize("tau", ["16", "45", "60"])
    @pytest.mark.parametrize("x", ["0.2", "1"])
    def test_estimate_covers_error_at_large_index(self, tau, x):
        # the tail ray's cos factor grows to 1e32 at tau = 60: its
        # rounding, from the largest node, joins the estimate, which the
        # e^(pi tau) envelope put at 1.5e2 for tau = 30
        r, ref = self.check_estimate(tau, x, 40)
        assert tau == "60" or r.abs_error_estimate <= mpf("1e-10") * abs(ref)

    def test_nonconvergence_refused(self):
        # at tau = 100, x = 1/2 the head's panels do not converge at
        # degree 6, and _quad reads that from quad's estimate
        with pytest.raises(NonconvergenceError, match="did not converge"):
            product_kernel_quad(mpf(100), mpf("0.5"))

    @staticmethod
    def check_estimate(tau, x, dps):
        with mpmath.workdps(dps):
            r = product_kernel_quad(mpf(tau), mpf(x))
        with mpmath.workdps(dps + 30):
            it = 1j * mpf(tau)
            ref = (2 * mpmath.besseli(it, mpf(x)).real
                   * mpmath.besselk(it, mpf(x)).real)
        assert abs(r.value - ref) <= r.abs_error_estimate, (tau, x, dps)
        return r, ref

    def test_node_count(self):
        assert product_kernel_quad(mpf("0.5"), mpf(1)).nodes_used <= 750


@functools.cache
def _tail_reference(tau, x):
    # U and the rotated tail ray on [0, inf) by mpmath's tanh-sinh at
    # maxdegree 10 and dps 90, 30 digits past the grid's largest dps
    with mpmath.workdps(90):
        U = max(mpf(25), 25 / (2 * x))
        return U, mpmath.quad(_tail_ray(tau, x, U), [0, mpmath.inf],
                              maxdegree=10)


class TestPanels:
    # (a, b, step, cut): the product head at x = 0.2 and 1, the olevskii
    # tail at x = 2, a cut outside (a, b) and none
    @pytest.mark.parametrize("a, b, step, cut", [
        (1, "62.5", 20 * mpmath.pi, 50), (1, 25, 4 * mpmath.pi, 10),
        (1, 107, 4 * mpmath.pi, "10.015625"), (1, 25, 4, 30),
        (1, 25, 4, None)])
    def test_plan(self, a, b, step, cut):
        a, b, step = mpf(a), mpf(b), mpf(step)
        cut = None if cut is None else mpf(cut)
        pts = quadrature._panels(a, b, step, cut)
        assert pts[0] == a and pts[-1] == b
        for left, right in zip(pts, pts[1:]):
            assert left < right <= left + min(step, 2 * left)
        assert cut is None or cut in pts or not a < cut < b

    def test_from_zero_at_a_fixed_step(self):
        # the product tail's plan on [0, S]: step 3U from 0
        assert quadrature._panels(mpf(0), mpf(100), mpf(30)) == [
            0, 30, 60, 90, 100]


def _recorded_quads(monkeypatch):
    # (points, error estimate) of every _quad call, in order
    calls = []
    quad = quadrature._quad

    def spy(f, pts, method):
        v, err, nodes, peak = quad(f, pts, method)
        calls.append((pts, err))
        return v, err, nodes, peak

    monkeypatch.setattr(quadrature, "_quad", spy)
    return calls


class TestPanelsBreakAtJSwitch:
    # J jumps by its error (6e-20 for J_0 at dps 40) where it switches
    # from its series to its asymptotic expansion, so a panel across the
    # switch does not converge at degree 6
    @pytest.mark.parametrize("tau", ["0.25", "1", "2"])
    @pytest.mark.parametrize("x", ["0.2", "1", "3"])
    def test_product_head(self, monkeypatch, tau, x):
        calls = _recorded_quads(monkeypatch)
        x = mpf(x)
        with mpmath.workdps(40):
            product_kernel_quad(mpf(tau), x)
            cut = bessel._j_plan(mpf(0), mp.prec)[0] / (2 * x)
            eps = +mp.eps
        pts, err = calls[0]
        assert pts[1] < cut < pts[-1] and cut in pts
        assert err <= (len(pts) - 1) * eps

    @pytest.mark.parametrize("x", [1, 2])
    def test_olevskii_tail(self, monkeypatch, x):
        calls = _recorded_quads(monkeypatch)
        nu, x = mpf("0.25"), mpf(x)
        with mpmath.workdps(40):
            olevskii_quad(mpf("0.5"), nu, mpf(3), x)
            cut = bessel._j_plan(nu, mp.prec)[0] / x
        pts, _ = calls[0]
        assert pts[0] < cut < pts[-1] and cut in pts


class TestQuad:
    def test_saturated_estimate_refused(self):
        # quad caps each panel's estimate at 1, which bounds nothing for
        # an integrand of size 1e6 that no degree-6 panel resolves
        with pytest.raises(NonconvergenceError,
                           match="did not converge at degree 6"):
            _quad(lambda t: 10 ** 6 * mpmath.sin(1000 * t), [0, 1],
                  _GaussLegendre)

    def test_peak_is_largest_node(self):
        v, err, nodes, peak = _quad(lambda t: -3 * t, [0, 1], _GaussLegendre)
        assert abs(v + mpf(3) / 2) <= err + mp.eps
        assert 0 < 3 - peak < 1 and nodes > 0


class TestRouteContract:
    # every integral route returns a QuadResult from the work it did
    @pytest.mark.parametrize("route, args", [
        (mehler_fock_quad, ("0.7", "3", "0.8")),
        (product_kernel_quad, ("0.5", "1")),
        (whittaker_quad, ("0.3", "3", "1")),
        (olevskii_quad, ("0.5", "0.25", "3", "0.3"))],
        ids=["mehler-fock", "product", "whittaker", "olevskii"])
    def test_quad_result(self, route, args):
        r = route(*map(mpf, args))
        assert isinstance(r, QuadResult)
        assert r.abs_error_estimate >= 0 and r.nodes_used > 0


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


class TestMehlerFockQuad:
    def test_matches_conical_pin(self):
        # the signed P, pinned to 30 digits from the associated Legendre
        # oracle, at dps 25
        with mpmath.workdps(25):
            r = mehler_fock_quad(mpf("0.4"), mpf(2), mpf("0.5"))
            assert rel(r.value, CONICAL_PIN) < mpf(10) ** -22

    @pytest.mark.parametrize("dps", [25, 40])
    @pytest.mark.parametrize("mu", ["0", "0.5", "2"])
    def test_estimate_covers_error(self, dps, mu):
        # the first panel's u = s^(mu+1/2) at the singular endpoint, a
        # range of pi/tau or of the whole xi = asinh 2x, and about 100
        # panels of pi/tau at (tau, x) = (12, 1000)
        mu = mpf(mu)
        for tau in (mpf("0.5"), mpf(12)):
            for x in (mpf("0.3"), mpf(8), mpf(1000)):
                with mpmath.workdps(dps):
                    r = mehler_fock_quad(mu, tau, x)
                with mpmath.workdps(dps + 30):
                    ref = mpmath.legenp(-mpf(1) / 2 + 1j * tau, -mu,
                                        mpmath.sqrt(1 + 4 * x ** 2),
                                        type=3).real
                err = abs(r.value - ref)
                assert err <= mpf(10) ** (4 - dps) * abs(ref), (tau, x, err)
                assert err <= r.abs_error_estimate, (tau, x, err, r)

    @pytest.mark.parametrize("mu", ["-0.5", "-1"])
    def test_refuses_mu_at_or_below_minus_half(self, mu):
        with pytest.raises(DomainError, match="mu > -1/2"):
            mehler_fock_quad(mpf(mu), mpf(1), mpf(1))


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

    @pytest.mark.parametrize("mu", ["0", "-0.3"])
    def test_refuses_rho_at_or_above_zero(self, mu):
        # the route computes W_{rho} with rho = -mu
        with pytest.raises(DomainError, match="rho = -mu < 0"):
            whittaker_quad(mpf(mu), mpf(1), mpf(1))

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
        assert r.nodes_used <= 400

    @pytest.mark.parametrize("dps", [25, 40, 60])
    @pytest.mark.parametrize("mu, nu", [("0.5", "0.25"), ("0.75", "0")])
    @pytest.mark.parametrize("tau", ["0.5", "8"])
    def test_estimate_covers_error(self, dps, mu, nu, tau):
        # past J's switch J's own error (about 1e-21) dominates at dps 60,
        # and the estimate carries it
        mu, nu, tau = mpf(mu), mpf(nu), mpf(tau)
        for x in (mpf("0.3"), mpf(2), mpf(5)):
            with mpmath.workdps(dps):
                r = olevskii_quad(mu, nu, tau, x)
            with mpmath.workdps(dps + 20):
                a = (mu + nu) / 2 + 1j * tau
                ref = mpmath.hyp2f1(a, mpmath.conj(a), nu + 1, -x ** 2).real
            assert abs(r.value - ref) <= r.abs_error_estimate, (x, r)

    def test_large_argument_within_estimate(self):
        # x = 15 was refused while the route had a trusted x range
        self.check_estimate("1.3", "0.2", "1", "15", mp.dps)

    @pytest.mark.parametrize("dps, tol", [(25, "1e-9"), (40, "1e-17")])
    @pytest.mark.parametrize("x", ["20", "80"])
    def test_head_guard_bits(self, dps, tol, x):
        # J's coefficients grow to about e^x and cancel in the head's
        # sum: at x = 80, dps 25 the head without guard bits erred 2.8e5
        r, ref = self.check_estimate("0.5", "0.5", "0.5", x, dps)
        assert abs(r.value - ref) <= mpf(tol) * abs(ref)

    @staticmethod
    def check_estimate(mu, nu, tau, x, dps):
        mu, nu, tau, x = map(mpf, (mu, nu, tau, x))
        with mpmath.workdps(dps):
            r = olevskii_quad(mu, nu, tau, x)
        with mpmath.workdps(dps + 30):
            a = (mu + nu) / 2 + 1j * tau
            ref = mpmath.hyp2f1(a, mpmath.conj(a), nu + 1, -x ** 2).real
        assert abs(r.value - ref) <= r.abs_error_estimate, (x, dps)
        return r, ref

    @pytest.mark.parametrize("mu, nu, tau, x, message", [
        ("0.2", "-0.3", "1", "0.5", r"mu \+ nu > 0"),
        ("1.5", "0.2", "1", "0.5", "0 < mu < 3/2"),
        ("0.5", "0.2", "0", "0.5", "tau > 0, x > 0"),
        ("0.5", "0.2", "1", "-1", "tau > 0, x > 0"),
        ("1.4", "-1.2", "1", "0.5", "nu > -1"),
        ("1.4", "-1", "1", "0.5", "nu > -1")])
    def test_domain_refused(self, mu, nu, tau, x, message):
        with pytest.raises(DomainError, match=message):
            olevskii_quad(*map(mpf, (mu, nu, tau, x)))


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


def _long_coeffs(nu, x):
    # J's coefficients at dps + 30, down to 10^-(dps+35)
    with mpmath.workdps(mp.dps + 30):
        return _j_coeffs(nu, x)


class TestHeadVsK:
    # (mu, nu, x, order): the olevskii head
    POINTS = [(mpf("0.5"), mpf("0.25"), mpf("0.3"), 6),
              (mpf("1.3"), mpf("0.2"), mpf("0.5"), 2),
              (mpf("0.7"), mpf(1), mpf(4), 1),
              (mpf("0.2"), mpf(0), mpf(2), mpf("0.5"))]

    @pytest.mark.parametrize("dps", [25, 40, 60])
    def test_matches_two_series_sum(self, dps):
        # the head at dps against the two-series head at dps + 30 on
        # _long_coeffs
        with mpmath.workdps(dps):
            for mu, nu, x, order in self.POINTS:
                head, _ = _head_vs_k(mu, nu, _j_coeffs(nu, x), order)
                with mpmath.workdps(dps + 30):
                    ref = _two_series_head(mu, nu, _long_coeffs(nu, x), order)
                assert abs(head - ref) <= mpf(10) ** (3 - dps) * abs(ref), \
                    (mu, nu, x, order)

    def test_max_terms_in_force(self, monkeypatch):
        monkeypatch.setattr(special, "MAX_TERMS", 3)
        with pytest.raises(NonconvergenceError,
                           match="J coefficient series did not converge in 3"):
            _j_coeffs(mpf("0.7"), mpf("0.8"))


def _gauss_legendre_routes():
    # one call of each route with a Gauss-Legendre panel
    product_kernel_quad(mpf("0.5"), mpf(1))
    olevskii_quad(mpf("0.5"), mpf("0.25"), mpf(3), mpf("0.3"))
    mehler_fock_quad(mpf("0.7"), mpf(3), mpf("0.8"))


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
            self, monkeypatch, empty_tanh_sinh_rule, empty_mpmath_rule):
        # the Whittaker panels, the Mehler-Fock first panel, the product
        # tail, the K integrals of bessel (k_itau_quad from an empty cache)
        # and the Binet integral use no global rule
        monkeypatch.setattr(bessel, "_kq_cache", {})
        whittaker_quad(mpf("0.3"), mpf(3), mpf(1))
        mehler_fock_quad(mpf("0.7"), mpf(3), mpf("0.8"))
        k_itau_quad(mpf("2.5"), mpf("1.3"))
        bessel_k_real(mpf("0.7"), mpf(2))
        product_kernel_quad(mpf("0.5"), mpf(1))
        special.binet_r(mpc("1.5", 2))
        special.gamma_via_binet(mpf("0.8"))
        for rule in (empty_tanh_sinh_rule, empty_mpmath_rule):
            for name in _RULE_CACHES:
                assert getattr(rule, name) == {}, name

    def test_no_mpmath_node_builder(self, monkeypatch, empty_mpmath_rule):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath's Gauss-Legendre builder ran")

        monkeypatch.setattr(GaussLegendre, "calc_nodes", refuse)
        monkeypatch.setattr(quadrature, "_GL_NODES", {})
        _gauss_legendre_routes()
