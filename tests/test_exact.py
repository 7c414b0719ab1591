"""Tests for the closed-form evaluators and the factorial tail bound."""

import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_mirage
from series_mirage.errors import (
    EvaluationOverflowError,
    InvalidInputError,
    UnsupportedEquationError,
)
from series_mirage.exact import (
    closed_form_terms,
    exact_linear,
    exact_reduced_nls,
    exact_solution,
    remainder_closed_form,
)
from series_mirage.expsum import ExpSum
from series_mirage.methods import (
    Equation,
    EquationKind,
    adm_series,
    hpm_series,
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

    def test_equals_the_cubic_closed_form(self):
        ev = exact_reduced_nls(1.0, 2.0)
        cubic = exact_solution(ExpSum.single(1, 1j), Equation.full_nls(2.0))
        for x in X_SAMPLES:
            for t in T_SAMPLES:
                assert ev(x, t) == cubic(x, t)

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


class TestExactSolution:
    def test_cubic_plane_wave_of_any_modulus(self):
        # 0.5e^{ix}, g = 2: u = 0.5 e^{i(x + (2 * 0.25 - 1) t)}
        ev = exact_solution(ExpSum.single(0.5, 1j), Equation.full_nls(2.0))
        for x in X_SAMPLES[::2]:
            for t in T_SAMPLES[::2]:
                assert abs(ev(x, t) - 0.5 * cmath.exp(1j * (x - 0.5 * t))) < 1e-13
                assert abs(fd_residual_cubic(ev, 2.0, x, t)) <= 1e-6 * 2

    def test_genuinely_cubic_data_unsupported(self):
        with pytest.raises(UnsupportedEquationError):
            exact_solution(ExpSum(((1, 1j), (0.5, -2j))), Equation.full_nls(2.0))


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


def generators_for(eq):
    if eq.kind is EquationKind.FULL_NLS:
        return (adm_series,)
    return (hpm_series, adm_series, taylor_series)


def assert_generators_equal_closed_form(u0, eq, order):
    oracle = closed_form_terms(u0, eq, order)
    assert len(oracle) == order + 1
    for gen in generators_for(eq):
        assert gen(u0, eq, order).terms == oracle, (gen.__name__, u0, eq)


def acceptance_corpus():
    """The seeded corpus of acceptance criterion 5, drawn the same way."""
    rng = random.Random(2024)
    lattice = [
        0, 0.5, -0.5, 1, -1, 1.5, -2, 3,
        0.5j, -1j, 2j, -3j, 1 + 1j, -1 + 0.5j, 0.5 - 2j, -1.5 - 1.5j,
    ]
    for trial in range(24):
        u0 = ExpSum(
            tuple(
                (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.choice(lattice))
                for _ in range(rng.randint(1, 4))
            )
        )
        eq = Equation.linear() if trial % 2 == 0 else Equation.reduced_nls(rng.choice([-2.0, 0.5, 2.0]))
        yield u0, eq


class TestClosedFormTerms:
    def test_plane_wave_terms(self):
        # e^{3ix} under the linear equation: term n is (9it)^n/n! e^{3ix}
        terms = closed_form_terms(ExpSum.single(1, 3j), Equation.linear(), 3)
        assert [t.coeff(n).terms for n, t in enumerate(terms)] == [
            ((1 + 0j, 3j),), ((9j, 3j),), ((-40.5 + 0j, 3j),), ((-121.5j, 3j),),
        ]

    def test_cubic_plane_wave_uses_its_modulus(self):
        # 2e^{ix}, g = 1: lam = i(-1 + 1 * 4) = 3i
        terms = closed_form_terms(ExpSum.single(2, 1j), Equation.full_nls(1.0), 2)
        assert terms[1].coeff(1).terms == ((6j, 1j),)
        assert terms[2].coeff(2).terms == ((-9 + 0j, 1j),)

    def test_zero_data(self):
        for eq in (Equation.linear(), Equation.reduced_nls(1.0), Equation.full_nls(1.0)):
            assert all(t.is_zero for t in closed_form_terms(ExpSum.zero(), eq, 4))
            assert exact_solution(ExpSum.zero(), eq)(0.3, 1.5) == 0

    @pytest.mark.parametrize(
        "u0",
        [ExpSum(((1, 1j), (0.5, 2j))), ExpSum.single(1, 1.0), ExpSum.single(1, 1 + 1j)],
    )
    def test_cubic_data_without_constant_modulus_unsupported(self, u0):
        with pytest.raises(UnsupportedEquationError):
            closed_form_terms(u0, Equation.full_nls(2.0), 3)

    @pytest.mark.parametrize("order", [-1, 65, 2.5, True])
    def test_order_checked(self, order):
        with pytest.raises(InvalidInputError):
            closed_form_terms(ExpSum.single(1, 1j), Equation.linear(), order)

    def test_overflow_names_the_term(self):
        with pytest.raises(EvaluationOverflowError, match="closed-form term 2"):
            closed_form_terms(ExpSum.single(1, 1j), Equation.reduced_nls(1e300), 2)

    def test_generators_equal_closed_form_on_acceptance_corpus(self):
        count = 0
        for u0, eq in acceptance_corpus():
            assert_generators_equal_closed_form(u0, eq, 24)
            count += 1
        assert count == 24

    def test_small_modes_are_kept(self):
        # e^{3x} + e^{x/8}: the e^{x/8} coefficient of term n is (1/576)^n
        # times the e^{3x} one, below 1e-15 of it from n = 6 on, and kept
        u0 = ExpSum(((1, 3), (1, 0.125)))
        oracle = closed_form_terms(u0, Equation.linear(), 12)
        assert hpm_series(u0, Equation.linear(), 12).terms == oracle
        for n, term in enumerate(oracle):
            assert [a for _, a in term.coeff(n).terms] == [0.125 + 0j, 3 + 0j]
            # (-i a^2)^n / n! with a = 1/8, one rounding; (-i)^n cycles
            small = Fraction(1, 64**n * math.factorial(n))
            assert term.coeff(n).terms[0][0] == (1, -1j, -1, 1j)[n % 4] * float(small)

    @pytest.mark.parametrize("gamma", [1.000001, 0.999999, 1.001])
    def test_near_cancelling_reduced_couplings(self, gamma):
        # i(a^2 + g) with a = i nearly cancels: the terms stay correctly rounded
        assert_generators_equal_closed_form(ExpSum.single(1, 1j), Equation.reduced_nls(gamma), 30)


dyadic = st.integers(-16, 16).map(lambda k: k / 8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    modes=st.lists(
        st.tuples(st.tuples(dyadic, dyadic), st.tuples(dyadic, dyadic)), min_size=1, max_size=4
    ),
    gamma=st.one_of(st.none(), dyadic),
    order=st.integers(0, 24),
)
def test_linear_kinds_equal_closed_form(modes, gamma, order):
    # gamma None is the linear equation, a number the reduced one
    u0 = ExpSum(tuple((complex(*c), complex(*a)) for c, a in modes))
    eq = Equation.linear() if gamma is None else Equation.reduced_nls(gamma)
    assert_generators_equal_closed_form(u0, eq, order)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    c=st.tuples(dyadic, dyadic).filter(lambda c: c[0] ** 2 + c[1] ** 2 not in (0.0, 1.0)),
    k=dyadic,
    gamma=dyadic,
    order=st.integers(0, 30),
)
def test_cubic_plane_waves_equal_closed_form(c, k, gamma, order):
    assert_generators_equal_closed_form(
        ExpSum.single(complex(*c), 1j * k), Equation.full_nls(gamma), order
    )


def test_import_leaves_fractions_and_decimal_unloaded():
    # the rates are rational only on demand: importing fractions (which loads
    # decimal) with the package would slow every fresh start
    code = "import sys, series_mirage; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    path = [str(Path(series_mirage.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
