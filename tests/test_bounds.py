"""Uniform-bound right-hand sides, the bound evaluator, and envelope fits.

Pinned values computed with mpmath at dps=60.
"""

import mpmath
import pytest
from mpmath import mpf, mpc

from indexkernels import bounds
from indexkernels.bounds import (BOUND_IDS, _geom_grid, bound_binet_rhs,
                                 bound_kl_rhs, bound_product_rhs,
                                 evaluate_bound, fit_lebedev_constants)
from indexkernels.errors import DomainError

BOUND_KL_PIN = mpf("0.754394975602919419756456873793")
GAMMA_QUARTER_SQ_OVER_PI = mpf("4.18419848021240659580864851369")


def rel(a, b):
    return abs(a - b) / max(abs(b), mpf("1e-30"))


class TestRHS:
    def test_kl_pinned(self):
        assert rel(bound_kl_rhs(1, mpf(1), mpf(1)), BOUND_KL_PIN) < \
            mpf("1e-28")

    def test_product_pinned(self):
        assert rel(bound_product_rhs(mpf(1)),
                   GAMMA_QUARTER_SQ_OVER_PI) < mpf("1e-28")
        assert rel(bound_product_rhs(mpf(4)),
                   GAMMA_QUARTER_SQ_OVER_PI / 2) < mpf("1e-28")

    def test_binet_rhs(self):
        z = 2 * mpmath.exp(1j * mpmath.pi / 4)
        assert rel(bound_binet_rhs(z),
                   mpmath.exp(mpf(1) / 12) - 1) < mpf("1e-28")

    def test_kl_rhs_large_tau_no_overflow(self):
        # the sinh factor is assembled in log space; tau = 500 must not
        # overflow even though sinh(pi tau) does
        v = bound_kl_rhs(1, mpf(500), mpf(1))
        assert mpmath.isfinite(v) and v > 0


class TestEvaluate:
    def test_all_ids_hold_at_sample_points(self):
        reports = [
            evaluate_bound("kl", n=1, tau=mpf(1), x=mpf(1)),
            evaluate_bound("mehler-fock", n=1, mu=mpf("0.5"), tau=mpf(2),
                           x=mpf("0.5")),
            evaluate_bound("product", tau=mpf("1.5"), x=mpf("0.8")),
            evaluate_bound("whittaker", n=1, mu=mpf("0.5"), tau=mpf(2),
                           x=mpf("0.5")),
            evaluate_bound("olevskii", mu=mpf("0.5"), nu=mpf("0.25"),
                           tau=mpf(2), x=mpf(1)),
            evaluate_bound("kummer", rho=mpf("0.1"), tau=mpf(2),
                           x=mpf("0.4")),
            evaluate_bound("binet", z=mpc(2, 2)),
        ]
        for rep in reports:
            assert rep.lhs <= rep.rhs * (1 + mpf(1e-9)), rep
            assert rep.margin == rep.rhs - rep.lhs

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            evaluate_bound("not-a-bound", tau=mpf(1), x=mpf(1))

    def test_olevskii_domain(self):
        with pytest.raises(DomainError):
            evaluate_bound("olevskii", mu=mpf("1.2"), nu=mpf("0.2"),
                           tau=mpf(1), x=mpf(1))

    @pytest.mark.parametrize("bound_id, point", [
        ("mehler-fock", dict(n=1, tau=mpf(1), x=mpf(1))),  # no mu
        ("kl", dict(n=1, mu=mpf(1), tau=mpf(1), x=mpf(1))),
        ("product", dict(x=mpf(1))),
        ("binet", {})])
    def test_point_holds_exactly_the_bound_names(self, bound_id, point):
        # a missing name was read as None ("cannot create mpf from None")
        with pytest.raises(DomainError, match="takes"):
            evaluate_bound(bound_id, **point)

    @pytest.mark.parametrize("bound_id, point, msg", [
        ("kl", dict(n=0, tau=1, x=1), "n must be a positive integer"),
        ("kl", dict(n=1, tau=0, x=1), "requires tau > 0, x > 0"),
        ("mehler-fock", dict(n=mpf("1.5"), mu=mpf("0.5"), tau=1, x=1),
         "n must be a positive integer"),
        ("mehler-fock", dict(n=1, mu=mpf("-0.25"), tau=1, x=1),
         r"need mu > 2\^\{-n-1\} - 1/2"),
        ("mehler-fock", dict(n=1, mu=mpf("0.5"), tau=1, x=0),
         "requires tau > 0, x > 0"),
        ("product", dict(tau=1, x=-1), "requires x > 0"),
        ("whittaker", dict(n=0, mu=mpf("0.5"), tau=1, x=1),
         "n must be a positive integer"),
        ("whittaker", dict(n=1, mu=0, tau=1, x=1), "need mu > 0"),
        ("whittaker", dict(n=1, mu=mpf("0.5"), tau=-1, x=1),
         "requires tau > 0, x > 0"),
        ("olevskii", dict(mu=mpf("0.5"), nu=mpf("-0.25"), tau=1, x=1),
         "need nu > -mu/2"),
        ("olevskii", dict(mu=mpf("0.5"), nu=mpf("0.25"), tau=1, x=0),
         "requires tau > 0, x > 0"),
        ("binet", dict(z=0), "z must be nonzero")])
    def test_rhs_domain_guards(self, bound_id, point, msg):
        # each closed form refuses a point outside its bound's hypotheses
        with pytest.raises(DomainError, match=msg):
            evaluate_bound(bound_id, **point)

    def test_rhs_refuses_before_the_lhs_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bounds, "olevskii_direct",
                            lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="0 < mu < 1"):
            evaluate_bound("olevskii", mu=mpf("1.2"), nu=mpf("0.2"),
                           tau=mpf(1), x=mpf(1))
        assert calls == []

    def test_margin_sign_convention(self):
        rep = evaluate_bound("kl", n=1, tau=mpf(1), x=mpf(1))
        assert rep.lhs > 0 and rep.rhs > rep.lhs


class TestFit:
    def test_fit_finite_and_recorded(self):
        A, argA, B, argB = fit_lebedev_constants(T=1, nx=10, ntau=10, x_cap=20)
        assert mpmath.isfinite(A) and A > 0
        assert mpmath.isfinite(B) and B > 0
        assert argA is not None and argB is not None

    def test_fit_monotone_in_grid(self):
        # a finer grid can only find a larger (or equal) max if it nests;
        # doubling an even grid count nests the endpoints, so just check
        # the drift is small rather than signed
        A1, _, B1, _ = fit_lebedev_constants(T=1, nx=24, ntau=24, x_cap=20)
        A2, _, B2, _ = fit_lebedev_constants(T=1, nx=48, ntau=48, x_cap=20)
        assert abs(A2 - A1) / A1 < mpf("0.05")
        assert abs(B2 - B1) / B1 < mpf("0.05")

    def test_bad_domain(self):
        with pytest.raises(DomainError):
            fit_lebedev_constants(T=0, nx=50, ntau=50, x_cap=20)

    def test_sinh_once_per_tau(self, monkeypatch):
        # sqrt(sinh(pi tau)) is formed once per tau (it was once per grid
        # point, 32 calls here), and the fit is the one it gave then
        calls = []
        monkeypatch.setattr(bounds, "sinh",
                            lambda z: calls.append(z) or mpmath.sinh(z))
        fit = fit_lebedev_constants(T=1, nx=4, ntau=4, x_cap=20)
        assert len(calls) == 4
        with mpmath.workprec(90):
            pinned = [mpf(v) for v in (
                (71827215887246607959443455, -86), (12, 0), (1, 0),
                (5216631303642482354822977, -82),
                (20148763660243819578436267, -82),
                (52504472670694170843145937, -84))]
        assert fit == (pinned[0], tuple(pinned[1:3]), pinned[3],
                       tuple(pinned[4:]))

    def test_x_grids_meet_exactly_at_T(self):
        # the A and B grids share the x = T column, and the K caches are
        # keyed on exact values, so both must hold the same mpf there
        with mpmath.workdps(25):
            T = mpf("1.023")
            a = _geom_grid(mpf("1e-3"), T, 16)
            b = _geom_grid(T, 20, 16)
            assert a[0] == mpf("1e-3") and a[-1] == T == b[0]
            assert b[-1] == 20

    def test_ids_registry(self):
        assert set(BOUND_IDS) == {"kl", "mehler-fock", "product",
                                  "whittaker", "olevskii", "kummer", "binet"}
        assert BOUND_IDS == tuple(bounds.BOUND_PARAMS)
