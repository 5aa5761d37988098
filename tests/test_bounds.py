"""Uniform-bound right-hand sides, the bound evaluator, and envelope fits.

Pinned values computed with mpmath at dps=60.
"""

import mpmath
import pytest
from mpmath import mp, mpf, mpc

from indexkernels import config
from indexkernels.bounds import (BOUND_IDS, _geom_grid, bound_binet_rhs,
                                 bound_kl_rhs, bound_product_rhs,
                                 evaluate_bound, fit_lebedev_constants)
from indexkernels.errors import DomainError

mp.dps = config.get().dps

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
            assert rep.holds, rep
            assert rep.margin == rep.rhs - rep.lhs

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            evaluate_bound("not-a-bound", tau=mpf(1), x=mpf(1))

    def test_olevskii_domain(self):
        with pytest.raises(DomainError):
            evaluate_bound("olevskii", mu=mpf("1.2"), nu=mpf("0.2"),
                           tau=mpf(1), x=mpf(1))

    def test_margin_sign_convention(self):
        rep = evaluate_bound("kl", n=1, tau=mpf(1), x=mpf(1))
        assert rep.lhs > 0 and rep.rhs > rep.lhs


class TestFit:
    def test_fit_finite_and_recorded(self):
        A, argA, B, argB = fit_lebedev_constants(nx=10, ntau=10)
        assert mpmath.isfinite(A) and A > 0
        assert mpmath.isfinite(B) and B > 0
        assert argA is not None and argB is not None

    def test_fit_monotone_in_grid(self):
        # a finer grid can only find a larger (or equal) max if it nests;
        # doubling an even grid count nests the endpoints, so just check
        # the drift is small rather than signed
        A1, _, B1, _ = fit_lebedev_constants(nx=24, ntau=24)
        A2, _, B2, _ = fit_lebedev_constants(nx=48, ntau=48)
        assert abs(A2 - A1) / A1 < mpf("0.05")
        assert abs(B2 - B1) / B1 < mpf("0.05")

    def test_bad_domain(self):
        with pytest.raises(DomainError):
            fit_lebedev_constants(T=0)

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
