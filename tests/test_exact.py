"""Tests for the closed-form evaluators and the factorial tail bound."""

import cmath
import math

import pytest

from series_mirage.errors import EvaluationOverflowError, InvalidInputError
from series_mirage.exact import exact_linear, exact_reduced_nls, remainder_closed_form
from series_mirage.expsum import ExpSum
from series_mirage.methods import (
    Equation,
    EquationKind,
    adm_series,
    partial_sum_eval,
    taylor_series,
)

COSH_SUM = ExpSum(((1, 0), (1, 2), (1, -2)))

#: additive allowance for analytic bounds that fall below the double-precision
#: floor of the measured quantity
FLOAT_SLACK = 1e-13

X_SAMPLES = [-1.0 + 0.25 * i for i in range(9)]
T_SAMPLES = [0.125 * i for i in range(9)]


def fd_residual_linear(ev, x, t, h=1e-4):
    """Centered finite-difference residual of u_t + i u_xx."""
    u_t = (ev(x, t + h) - ev(x, t - h)) / (2 * h)
    u_xx = (ev(x + h, t) - 2 * ev(x, t) + ev(x - h, t)) / (h * h)
    return u_t + 1j * u_xx


def fd_residual_reduced(ev, gamma, x, t, h=1e-4):
    """Centered finite-difference residual of i u_t + u_xx + g u."""
    u_t = (ev(x, t + h) - ev(x, t - h)) / (2 * h)
    u_xx = (ev(x + h, t) - 2 * ev(x, t) + ev(x - h, t)) / (h * h)
    return 1j * u_t + u_xx + gamma * ev(x, t)


def fd_residual_cubic(ev, gamma, x, t, h=1e-4):
    """Centered finite-difference residual of i u_t + u_xx + g |u|^2 u."""
    u = ev(x, t)
    u_t = (ev(x, t + h) - ev(x, t - h)) / (2 * h)
    u_xx = (ev(x + h, t) - 2 * u + ev(x - h, t)) / (h * h)
    return 1j * u_t + u_xx + gamma * abs(u) ** 2 * u


class TestExactLinear:
    def test_cosh_example_closed_form(self):
        ev = exact_linear(COSH_SUM)
        for x in X_SAMPLES:
            for t in T_SAMPLES:
                expect = 1 + 2 * math.cosh(2 * x) * cmath.exp(-4j * t)
                assert abs(ev(x, t) - expect) < 1e-12

    def test_plane_wave_phase(self):
        ev = exact_linear(ExpSum.single(1, 3j))
        for x, t in ((0.0, 0.5), (0.3, 1.0), (-1.0, 0.25)):
            assert abs(ev(x, t) - cmath.exp(1j * (3 * x + 9 * t))) < 1e-13

    def test_constant_is_stationary(self):
        ev = exact_linear(ExpSum.single(1, 0))
        assert ev(0.7, 3.5) == pytest.approx(1.0)

    def test_initial_condition_match(self):
        for u0 in (COSH_SUM, ExpSum(((0.5j, 1 + 1j), (1, -2j)))):
            ev = exact_linear(u0)
            for x in X_SAMPLES:
                assert abs(ev(x, 0.0) - u0.eval(x)) <= 1e-13

    def test_satisfies_pde_by_finite_differences(self):
        for u0 in (COSH_SUM, ExpSum.single(1, 3j)):
            ev = exact_linear(u0)
            assert ev.equations[0].kind is EquationKind.LINEAR
            for x in X_SAMPLES:
                for t in T_SAMPLES:
                    res = fd_residual_linear(ev, x, t)
                    assert abs(res) <= 1e-6 * (1 + abs(ev(x, t)))


class TestExactReducedNls:
    def test_focusing_plane_wave(self):
        ev = exact_reduced_nls(1.0, 2.0)
        for x, t in ((0.0, 1.0), (0.5, 0.25)):
            assert abs(ev(x, t) - cmath.exp(1j * (x + t))) < 1e-13

    def test_defocusing_plane_wave(self):
        ev = exact_reduced_nls(1.0, -2.0)
        for x, t in ((0.0, 1.0), (0.5, 0.25)):
            assert abs(ev(x, t) - cmath.exp(1j * (x - 3 * t))) < 1e-13

    def test_trivial_parameters(self):
        ev = exact_reduced_nls(0.0, 0.0)
        assert ev(1.2, 3.4) == pytest.approx(1.0)

    def test_unit_modulus(self):
        ev = exact_reduced_nls(1.0, 2.0)
        for x in X_SAMPLES:
            for t in T_SAMPLES:
                assert abs(abs(ev(x, t)) - 1.0) <= 1e-12

    def test_tagged_for_both_equations(self):
        ev = exact_reduced_nls(1.0, 2.0)
        kinds = {eq.kind for eq in ev.equations}
        assert kinds == {EquationKind.REDUCED_NLS, EquationKind.FULL_NLS}

    def test_satisfies_both_pdes_by_finite_differences(self):
        for gamma in (2.0, -2.0):
            ev = exact_reduced_nls(1.0, gamma)
            for x in X_SAMPLES[::2]:
                for t in T_SAMPLES[::2]:
                    assert abs(fd_residual_reduced(ev, gamma, x, t)) <= 1e-6 * 2
                    assert abs(fd_residual_cubic(ev, gamma, x, t)) <= 1e-6 * 2

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            exact_reduced_nls(float("inf"), 1.0)


class TestRemainderBound:
    def test_zero_frequency(self):
        for n in (0, 3, 10):
            assert remainder_closed_form(0.0, 5.0, n, 2.0) == 0.0

    def test_known_value(self):
        # 2 * 0.4^3/3! * e^0.4
        expect = 2 * 0.4**3 / 6 * math.exp(0.4)
        got = remainder_closed_form(4, 2, 2, 0.1)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.03182559354968044, rel=1e-10)

    def test_large_order_no_overflow(self):
        assert remainder_closed_form(9, 1, 64, 0.5) < 1e-30
        assert math.isfinite(remainder_closed_form(9, 1, 64, 2.0))

    def test_overflow_raises(self):
        # e^{|bt|} overflows past |bt| ~ 709.8; the product can overflow later
        assert math.isfinite(remainder_closed_form(1.0, 1.0, 0, 700.0))
        with pytest.raises(EvaluationOverflowError):
            remainder_closed_form(4.0, 1.0, 20, 200.0)
        with pytest.raises(EvaluationOverflowError):
            remainder_closed_form(1.0, 1.0, 40, 700.0)
        with pytest.raises(EvaluationOverflowError):
            remainder_closed_form(1.0, 1e300, 0, 100.0)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            remainder_closed_form(1, 1, -1, 1.0)
        with pytest.raises(InvalidInputError):
            remainder_closed_form(1, 1, 2, -0.5)

    def test_bound_dominates_measured_error_single_frequency(self):
        # plane-wave cases with time factor e^{ibt}: |b| = 9 (linear, a=3i),
        # |b| = 1 and 3 (cubic, g = +2 / -2)
        cases = []
        sol2 = taylor_series(ExpSum.single(1, 3j), Equation.linear(), 20)
        cases.append((sol2, exact_linear(ExpSum.single(1, 3j)), 9.0))
        for gamma, b in ((2.0, 1.0), (-2.0, 3.0)):
            sol = adm_series(ExpSum.single(1, 1j), Equation.full_nls(gamma), 20)
            cases.append((sol, exact_reduced_nls(1.0, gamma), b))
        for sol, ev, b in cases:
            for order in range(0, 21, 4):
                for t in (0.5, 1.0, 2.0):
                    err = max(
                        abs(partial_sum_eval(sol, order, x, t) - ev(x, t))
                        for x in X_SAMPLES
                    )
                    bound = remainder_closed_form(b, 1.0, order, t)
                    assert err <= bound + FLOAT_SLACK

    def test_bound_dominates_cosh_example(self):
        sol = taylor_series(COSH_SUM, Equation.linear(), 16)
        ev = exact_linear(COSH_SUM)
        amplitude = 2 * math.cosh(2.0)  # largest |2cosh(2x)| on the x samples
        for order in (0, 2, 5, 10, 16):
            for t in (0.1, 0.5, 1.0):
                err = max(
                    abs(partial_sum_eval(sol, order, x, t) - ev(x, t))
                    for x in X_SAMPLES
                )
                bound = remainder_closed_form(4.0, amplitude, order, t)
                assert err <= bound + FLOAT_SLACK
