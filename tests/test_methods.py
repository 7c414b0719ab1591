"""Tests for the series generators, Adomian polynomials and residuals."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from series_mirage.errors import InvalidInputError, UnsupportedEquationError
from series_mirage.expsum import ExpSum, TimePoly, expsum_diff, tpoly_diff
from series_mirage.grid import Grid, GridState, split_step_nls
from series_mirage.methods import (
    Equation,
    SeriesMethod,
    _mul_add,
    adm_series,
    adomian_cubic,
    hpm_series,
    partial_sum_eval,
    series_max_term_diff,
    series_residual,
    taylor_series,
)

COSH_SUM = ExpSum(((1, 0), (1, 2), (1, -2)))  # 1 + 2cosh(2x)
PLANE_3 = ExpSum.single(1, 3j)
PLANE_1 = ExpSum.single(1, 1j)
LINEAR = Equation.linear()


def monomial_coeff(sol, n):
    """The single ExpSum coefficient of t^n in term n."""
    term = sol.terms[n]
    assert len(term.coeffs) <= n + 1
    assert all(c.is_zero for c in term.coeffs[:n])
    return term.coeff(n)


class TestEquationTag:
    def test_linear_rejects_gamma(self):
        with pytest.raises(InvalidInputError):
            Equation(Equation.linear().kind, 1.0)

    def test_nls_requires_finite_gamma(self):
        with pytest.raises(InvalidInputError):
            Equation.reduced_nls(float("nan"))

    def test_describe(self):
        assert Equation.linear().describe() == "linear"
        assert "2.0" in Equation.full_nls(2.0).describe()


class TestHpm:
    def test_cosh_example_first_terms(self):
        sol = hpm_series(COSH_SUM, LINEAR, 2)
        assert sol.method is SeriesMethod.HPM
        assert sol.terms[0] == TimePoly.from_expsum(COSH_SUM)
        # (-4it) * 2cosh(2x) = -4it (e^{2x} + e^{-2x})
        assert monomial_coeff(sol, 1).terms == ((-4j, -2 + 0j), (-4j, 2 + 0j))
        # (4it)^2/2! * 2cosh(2x) = -8 t^2 (e^{2x} + e^{-2x})
        assert monomial_coeff(sol, 2).terms == ((-8 + 0j, -2 + 0j), (-8 + 0j, 2 + 0j))

    def test_plane_wave_first_term(self):
        sol = hpm_series(PLANE_3, LINEAR, 1)
        assert monomial_coeff(sol, 1).terms == ((9j, 3j),)

    def test_order_zero(self):
        sol = hpm_series(PLANE_3, LINEAR, 0)
        assert len(sol.terms) == 1
        assert sol.terms[0] == TimePoly.from_expsum(PLANE_3)

    def test_full_nls_unsupported(self):
        with pytest.raises(UnsupportedEquationError):
            hpm_series(PLANE_1, Equation.full_nls(2.0), 3)

    def test_order_out_of_range(self):
        with pytest.raises(InvalidInputError):
            hpm_series(PLANE_1, LINEAR, 65)
        with pytest.raises(InvalidInputError):
            hpm_series(PLANE_1, LINEAR, -1)


class TestAdm:
    def test_full_nls_focusing_first_term(self):
        sol = adm_series(PLANE_1, Equation.full_nls(2.0), 1)
        assert monomial_coeff(sol, 1).terms == ((1j, 1j),)

    def test_full_nls_defocusing_first_term(self):
        sol = adm_series(PLANE_1, Equation.full_nls(-2.0), 1)
        assert monomial_coeff(sol, 1).terms == ((-3j, 1j),)

    def test_reduced_terms_are_exponential(self):
        sol = adm_series(PLANE_1, Equation.reduced_nls(2.0), 3)
        for n in range(4):
            c = monomial_coeff(sol, n).terms[0][0]
            assert abs(c - (1j) ** n / math.factorial(n)) <= 1e-15

    def test_linear_recursion_matches_hpm(self):
        a = adm_series(COSH_SUM, LINEAR, 10)
        h = hpm_series(COSH_SUM, LINEAR, 10)
        assert a.method is SeriesMethod.ADM
        assert series_max_term_diff(a, h) == 0.0


def lattice_product(a, b):
    """Generic product of two lattice dicts, one Gaussian product per pair."""
    out = {}
    for (ar, ai), (xr, xi) in a.items():
        for (br, bi), (yr, yi) in b.items():
            key = (ar + br, ai + bi)
            re, im = out.get(key, (0, 0))
            out[key] = (re + xr * yr - xi * yi, im + xr * yi + xi * yr)
    return out


def lattice_conj(a):
    return {(kr, -ki): (re, -im) for (kr, ki), (re, im) in a.items()}


def lattice_add(acc, a, scale=1):
    """acc += scale * a, in place."""
    for key, (re, im) in a.items():
        r0, i0 = acc.get(key, (0, 0))
        acc[key] = (r0 + scale * re, i0 + scale * im)


def nonzero(a):
    return {k: v for k, v in a.items() if v != (0, 0)}


class TestAdomianPolynomials:
    # adomian_cubic takes the scaled coefficients V_k = k! q^k D w_k as dicts
    # from a Gaussian-integer mode to a Gaussian-integer coefficient

    def test_unit_modulus_fixed_point(self):
        assert adomian_cubic([{(0, 1): (1, 0)}]) == {(0, 1): (1, 0)}

    def test_first_polynomial_trilinear_sum(self):
        v1 = {(0, 1): (0, 1)}  # u_1 = i t e^{ix}
        # 2 u0 u1 conj(u0) + u0^2 conj(u1) = (2it - it) e^{ix} = it e^{ix}
        assert nonzero(adomian_cubic([{(0, 1): (1, 0)}, v1])) == {(0, 1): (0, 1)}

    def test_cubic_homogeneity_constant(self):
        assert adomian_cubic([{(0, 1): (2, 0)}]) == {(0, 1): (8, 0)}

    @staticmethod
    def random_terms(seed, count=5):
        rng = random.Random(seed)
        return [
            {mode: (rng.randint(-9, 9), rng.randint(-9, 9)) for mode in ((0, 1), (0, -2), (1, 1))}
            for _ in range(count)
        ]

    def test_against_lambda_expansion_oracle(self):
        # Independent oracle: expand N(sum_k lam^k u_k) = U^2 conj(U) as a
        # polynomial in lam by generic convolution and read off coefficient n.
        # With u_k = V_k / k! (the q^k D scaling is common to every term of
        # the sum), n! times lam-coefficient n is what adomian_cubic returns.
        vs = self.random_terms(42)
        w = [
            {k: (Fraction(re, math.factorial(j)), Fraction(im, math.factorial(j))) for k, (re, im) in v.items()}
            for j, v in enumerate(vs)
        ]

        def lam_convolve(a, b):
            out = [{} for _ in range(len(a) + len(b) - 1)]
            for i, p in enumerate(a):
                for j, q in enumerate(b):
                    lattice_add(out[i + j], lattice_product(p, q))
            return out

        expansion = lam_convolve(lam_convolve(w, w), [lattice_conj(p) for p in w])
        pairs = []
        for n in range(5):
            expect = nonzero({
                k: (re * math.factorial(n), im * math.factorial(n))
                for k, (re, im) in expansion[n].items()
            })
            assert nonzero(adomian_cubic(vs[: n + 1])) == expect
            # the pair cache carried across orders gives the same sum
            assert nonzero(adomian_cubic(vs[: n + 1], pairs)) == expect
            assert len(pairs) == n + 1

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            adomian_cubic([])

    def test_scaling_property(self):
        vs = self.random_terms(7)
        lam = 3
        a = adomian_cubic(vs)
        a_scaled = adomian_cubic([{k: (lam * re, lam * im) for k, (re, im) in v.items()} for v in vs])
        assert a_scaled == {k: (lam**3 * re, lam**3 * im) for k, (re, im) in a.items()}


lattice_dicts = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70)),
    max_size=4,
)


def mul_add_product(a, b, conj=False, weight=1):
    """weight * a * b (or a * conj(b)) through the library's _mul_add."""
    acc = {}
    _mul_add(acc, a, b, weight, conj)
    return nonzero(acc)


class TestLatticeAlgebra:
    # _mul_add is the one product the cubic recursion runs; the ring laws
    # hold exactly on Gaussian-integer lattice dicts

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=lattice_dicts, b=lattice_dicts, weight=st.integers(-5, 5))
    def test_matches_schoolbook_product(self, a, b, weight):
        expect = {}
        lattice_add(expect, lattice_product(a, b), weight)
        assert mul_add_product(a, b, weight=weight) == nonzero(expect)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=lattice_dicts, b=lattice_dicts)
    def test_commutative(self, a, b):
        assert mul_add_product(a, b) == mul_add_product(b, a)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=lattice_dicts, b=lattice_dicts, c=lattice_dicts)
    def test_associative(self, a, b, c):
        assert mul_add_product(mul_add_product(a, b), c) == mul_add_product(a, mul_add_product(b, c))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=lattice_dicts, b=lattice_dicts, c=lattice_dicts)
    def test_distributive_through_accumulation(self, a, b, c):
        # acc += a b then acc += a c is a (b + c)
        acc = {}
        _mul_add(acc, a, b, 1, False)
        _mul_add(acc, a, c, 1, False)
        b_plus_c = dict(b)
        lattice_add(b_plus_c, c)
        assert nonzero(acc) == mul_add_product(a, b_plus_c)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=lattice_dicts, b=lattice_dicts, weight=st.integers(-5, 5))
    def test_conj_flag_multiplies_by_conjugate(self, a, b, weight):
        assert mul_add_product(a, b, True, weight) == mul_add_product(a, lattice_conj(b), False, weight)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=lattice_dicts, b=lattice_dicts)
    def test_conj_twice_is_identity(self, a, b):
        assert mul_add_product(a, lattice_conj(b), True) == mul_add_product(a, b)


class TestTaylor:
    def test_plane_wave_terms(self):
        sol = taylor_series(PLANE_3, LINEAR, 2)
        assert sol.method is SeriesMethod.TAYLOR
        assert monomial_coeff(sol, 0).terms == ((1 + 0j, 3j),)
        assert monomial_coeff(sol, 1).terms == ((9j, 3j),)
        # (9it)^2/2! = -40.5 t^2
        assert monomial_coeff(sol, 2).terms == ((-40.5 + 0j, 3j),)

    def test_reduced_first_term(self):
        sol = taylor_series(PLANE_1, Equation.reduced_nls(2.0), 1)
        assert monomial_coeff(sol, 1).terms == ((1j, 1j),)

    def test_order_zero(self):
        sol = taylor_series(PLANE_1, LINEAR, 0)
        assert len(sol.terms) == 1

    def test_full_nls_unsupported(self):
        with pytest.raises(UnsupportedEquationError):
            taylor_series(PLANE_1, Equation.full_nls(1.0), 2)


class TestPartialSums:
    def test_cosh_example_order_one(self):
        sol = hpm_series(COSH_SUM, LINEAR, 5)
        assert partial_sum_eval(sol, 1, 0.0, 0.1) == pytest.approx(3 - 0.8j, abs=1e-14)

    def test_order_zero_at_t_zero(self):
        sol = hpm_series(COSH_SUM, LINEAR, 5)
        for x in (-1.0, 0.3):
            assert partial_sum_eval(sol, 0, x, 0.0) == pytest.approx(COSH_SUM.eval(x))

    def test_focusing_order_two(self):
        sol = adm_series(PLANE_1, Equation.full_nls(2.0), 5)
        assert partial_sum_eval(sol, 2, 0.0, 1.0) == pytest.approx(0.5 + 1j, abs=1e-14)

    def test_order_out_of_range(self):
        sol = hpm_series(COSH_SUM, LINEAR, 3)
        with pytest.raises(InvalidInputError):
            partial_sum_eval(sol, 4, 0.0, 0.0)

    def test_partial_sum_fn_closure(self):
        # a closure over partial_sum_eval is the (x, t) -> complex callable
        # that unit_modulus_deviation takes
        sol = adm_series(PLANE_1, Equation.full_nls(2.0), 5)
        f = lambda x, t: partial_sum_eval(sol, 2, x, t)
        assert f(0.0, 1.0) == pytest.approx(0.5 + 1j, abs=1e-14)
        g = lambda x, t: partial_sum_eval(sol, 9, x, t)
        with pytest.raises(InvalidInputError):
            g(0.0, 1.0)


class TestResidual:
    def test_linear_residual_telescopes(self):
        sol = hpm_series(COSH_SUM, LINEAR, 6)
        for order in (1, 3, 6):
            res = series_residual(sol, order)
            expect = TimePoly.from_expsum(monomial_coeff(sol, order).dx(2) * 1j, order)
            assert tpoly_diff(res, expect) <= 1e-13
            # the time derivatives telescope; powers below the truncation
            # order cancel to rounding
            for k in range(order):
                junk = max((abs(c) for c, _ in res.coeff(k).terms), default=0.0)
                assert junk <= 1e-13

    def test_reduced_residual_telescopes(self):
        sol = adm_series(PLANE_1, Equation.reduced_nls(2.0), 5)
        for order in (1, 4):
            res = series_residual(sol, order)
            w = monomial_coeff(sol, order)
            expect = TimePoly.from_expsum(w.dx(2) + 2.0 * w, order)
            assert tpoly_diff(res, expect) <= 1e-13

    def test_plane_wave_residual_magnitude(self):
        # terms are (9it)^N/N! e^{3ix}; the residual coefficient at t^N has
        # magnitude 9^(N+1)/N!
        for order in (2, 5, 8):
            sol = hpm_series(PLANE_3, LINEAR, order)
            res = series_residual(sol, order)
            mag = abs(res.coeff(order).terms[0][0])
            assert mag == pytest.approx(9.0 ** (order + 1) / math.factorial(order), rel=1e-12)

    def test_zero_initial_condition(self):
        sol = hpm_series(ExpSum.zero(), LINEAR, 3)
        assert series_residual(sol, 3).is_zero

    def test_order_zero_rejected(self):
        sol = hpm_series(COSH_SUM, LINEAR, 3)
        with pytest.raises(InvalidInputError):
            series_residual(sol, 0)

    def test_full_nls_unsupported(self):
        sol = adm_series(PLANE_1, Equation.full_nls(2.0), 3)
        with pytest.raises(UnsupportedEquationError):
            series_residual(sol, 2)


class TestMethodEquivalence:
    def test_three_methods_coincide(self):
        rng = random.Random(314)
        lattice = [0, 1, -1, 2, 1j, -2j, 1 + 1j, -1 + 2j, 0.5 - 0.5j]
        for trial in range(8):
            u0 = ExpSum(
                tuple(
                    (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.choice(lattice))
                    for _ in range(rng.randint(1, 4))
                )
            )
            eq = LINEAR if trial % 2 == 0 else Equation.reduced_nls(rng.choice([-2.0, 0.5, 2.0]))
            h = hpm_series(u0, eq, 24)
            a = adm_series(u0, eq, 24)
            t = taylor_series(u0, eq, 24)
            assert series_max_term_diff(h, t) <= 1e-12
            assert series_max_term_diff(a, t) <= 1e-12

    def test_single_exponential_closed_form(self):
        # LINEAR term n for u0 = e^{ax} is (-i a^2 t)^n/n! e^{ax}
        for alpha in (2, 3j, 1 + 1j, -1.5):
            sol = taylor_series(ExpSum.single(1, alpha), LINEAR, 16)
            for n in range(17):
                c = monomial_coeff(sol, n)
                expect = (-1j * complex(alpha) ** 2) ** n / math.factorial(n)
                assert expsum_diff(c, ExpSum.single(expect, alpha)) <= 1e-12

    def test_linearity(self):
        u = ExpSum(((1, 2), (1j, 1j)))
        v = ExpSum(((0.5, -1),))
        a, b = 0.7 - 0.2j, 1.1j
        su = hpm_series(u, LINEAR, 12)
        sv = hpm_series(v, LINEAR, 12)
        s_mix = hpm_series(a * u + b * v, LINEAR, 12)
        for n in range(13):
            mixed = a * monomial_coeff(su, n) + b * monomial_coeff(sv, n)
            assert tpoly_diff(s_mix.terms[n], TimePoly.from_expsum(mixed, n)) <= 1e-13

    def test_full_reduces_to_reduced_for_plane_waves(self):
        # pairs with |gamma - alpha^2| <= 2, where the terms stay O(1) and
        # the absolute tolerance is meaningful
        for alpha, gamma in ((1.0, 2.0), (1.0, -2.0), (1.0, 0.5), (2.0, 2.0)):
            u0 = ExpSum.single(1, 1j * alpha)
            full = adm_series(u0, Equation.full_nls(gamma), 12)
            red = adm_series(u0, Equation.reduced_nls(gamma), 12)
            assert series_max_term_diff(full, red) <= 1e-12

    def test_full_nls_multiterm_data_runs(self):
        # non-unit-modulus data is allowed by the types; terms stay exact
        u0 = ExpSum(((1, 1j), (0.5, 2j)))
        sol = adm_series(u0, Equation.full_nls(1.0), 4)
        assert len(sol.terms) == 5
        assert not sol.terms[4].is_zero


MIXED = ExpSum(((1, 1j), (0.5, -2j)))


@pytest.mark.parametrize(
    "gen, eq",
    [
        (hpm_series, LINEAR),
        (hpm_series, Equation.reduced_nls(2.0)),
        (adm_series, LINEAR),
        (adm_series, Equation.reduced_nls(2.0)),
        (adm_series, Equation.full_nls(1.0)),
        (taylor_series, LINEAR),
        (taylor_series, Equation.reduced_nls(2.0)),
    ],
)
def test_terms_are_t_monomials(gen, eq):
    # term n is w_n t^n: one nonzero coefficient, and n + 1 power lists
    sol = gen(MIXED, eq, 8)
    for n, term in enumerate(sol.terms):
        assert not term.coeff(n).is_zero
        assert all(term.coeff(k).is_zero for k in range(n))
        powers = term.to_json()
        assert len(powers) == n + 1
        assert all(p == [] for p in powers[:n])


def fourier_mode_cubic(modes, gamma, order):
    """Cubic-NLS Taylor coefficients in t as dense Fourier-mode arrays.

    For u = sum_n t^n sum_k c_{n,k} e^{ikx} the equation gives
    c_{n+1} = i (-k^2 c_n + g A_n) / (n + 1), with A_n the t^n coefficient of
    u^2 conj(u).  Products are NumPy convolutions over wavenumbers -K..K, and
    A_n uses the cached pair products B_m = sum_{i+j=m} c_i c_j, a different
    summation order from the library's triple sum.
    """
    kmax = max(abs(k) for k in modes) * (2 * order + 1)
    ks = np.arange(-kmax, kmax + 1)

    def conv(a, b):
        return np.convolve(a, b)[kmax : 3 * kmax + 1]

    c = [np.zeros(ks.size, dtype=complex)]
    for k, coeff in modes.items():
        c[0][k + kmax] += coeff
    pairs = []
    for n in range(order):
        pairs.append(sum(conv(c[i], c[n - i]) for i in range(n + 1)))
        # conj(u) has coefficient conj(c_k) at wavenumber -k
        cubic = sum(conv(pairs[m], np.conj(c[n - m][::-1])) for m in range(n + 1))
        c.append(1j * (-(ks**2) * c[n] + gamma * cubic) / (n + 1))
    return ks, c


@pytest.mark.parametrize(
    "modes, gamma, order",
    [
        ({1: 1.0, -2: 0.4 - 0.3j}, 1.5, 10),
        ({1: 0.8 + 0.6j, 3: -0.5j}, -2.0, 9),
        ({-1: 0.6 + 0.2j, 0: -0.3, 2: 0.5j}, 2.0, 8),
        ({1: 1.0, 2: 0.3 + 0.4j, 3: -0.25}, -1.0, 8),
    ],
)
def test_full_nls_multimode_matches_fourier_recursion(modes, gamma, order):
    u0 = ExpSum(tuple((c, 1j * k) for k, c in modes.items()))
    sol = adm_series(u0, Equation.full_nls(gamma), order)
    ks, ref = fourier_mode_cubic(modes, gamma, order)
    kmax = ks[-1]
    for n in range(order + 1):
        got = np.zeros(ks.size, dtype=complex)
        for c, a in monomial_coeff(sol, n).terms:
            assert a.real == 0.0 and a.imag == round(a.imag)
            got[int(round(a.imag)) + kmax] += c
        scale = np.sum(np.abs(ref[n]))
        assert np.max(np.abs(got - ref[n])) <= 1e-14 * scale, n


def test_full_nls_multimode_matches_split_step():
    # an independent route for genuinely cubic data: the ADM partial sum at a
    # small t against split-step, Richardson-extrapolated in dt
    # ((4 fine - coarse)/3 cancels the dt^2 splitting error; plain split-step
    # is 7.9e-9 off at 50 steps, 2.0e-9 at 100).  The modes the 64-point grid
    # cannot hold, |k| > 32, carry at most 1.1e-30 at this t.  Keep t small:
    # near the series' radius (t = 0.05) order 12 is 1.3e-6 off.
    u0 = ExpSum(((1.0, 1j), (0.5, -2j)))
    t = 0.01
    grid = Grid(2 * math.pi, 64)
    state = GridState(grid, [u0.eval(float(x)) for x in grid.points], 0.0)
    coarse = split_step_nls(state, 1.0, t / 50, 50).values
    fine = split_step_nls(state, 1.0, t / 100, 100).values
    ref = (4.0 * fine - coarse) / 3.0
    sol = adm_series(u0, Equation.full_nls(1.0), 16)
    for order in (12, 14, 16):
        got = np.array([partial_sum_eval(sol, order, float(x), t) for x in grid.points])
        # measured 2.5e-14 at every order
        assert np.max(np.abs(got - ref)) <= 2e-13, order


def test_full_nls_keeps_every_exact_mode():
    # term n of 0.1e^{ix} + 0.3e^{-2ix} has the 2(n+1) modes e^{ikx},
    # k = 1+3n-3j for j = 0..2n+1; coefficients span more than 15 decades,
    # and none is cut for being small beside the largest
    sol = adm_series(ExpSum(((0.1, 1j), (0.3, -2j))), Equation.full_nls(0.1), 15)
    for n in range(16):
        modes = [a for _, a in monomial_coeff(sol, n).terms]
        assert modes == [complex(0, 1 + 3 * n - 3 * j) for j in range(2 * n + 1, -1, -1)], n


@pytest.mark.parametrize("gamma", [2.0, -2.0, -3.0, -6.0])
def test_cubic_plane_wave_terms_are_correctly_rounded(gamma):
    # term n of the cubic plane wave is ((g-1)i)^n/n! e^{ix}: one rounding
    sol = adm_series(PLANE_1, Equation.full_nls(gamma), 40)
    for n in range(41):
        value = Fraction(int(gamma) - 1) ** n / math.factorial(n)
        re, im = [(value, 0), (0, value), (-value, 0), (0, -value)][n % 4]
        assert monomial_coeff(sol, n).terms == ((complex(float(re), float(im)), 1j),), n


def trinomial_cubic_oracle(u0, gamma, order):
    """Cubic-NLS terms in exact rationals, with the O(n^3) triple sum.

    Modes and coefficients are (re, im) pairs of Fractions; term n+1 is
    i (a^2 w_n + g sum_{i+j+k=n} w_i w_j conj(w_k)) / (n+1), summed triple
    by triple with no pair cache and no binomial grouping, then rounded.
    """
    g = Fraction(gamma)
    ws = [{(Fraction(a.real), Fraction(a.imag)): (Fraction(c.real), Fraction(c.imag)) for c, a in u0.terms}]
    for n in range(order):
        # a^2 c for a = ar + i ai
        rhs = {
            (ar, ai): ((ar * ar - ai * ai) * cr - 2 * ar * ai * ci, (ar * ar - ai * ai) * ci + 2 * ar * ai * cr)
            for (ar, ai), (cr, ci) in ws[n].items()
        }
        for i in range(n + 1):
            for j in range(n + 1 - i):
                triple = lattice_product(lattice_product(ws[i], ws[j]), lattice_conj(ws[n - i - j]))
                lattice_add(rhs, triple, g)
        ws.append({a: (-im / (n + 1), re / (n + 1)) for a, (re, im) in rhs.items()})
    return [
        ExpSum(tuple(
            (complex(float(re), float(im)), complex(float(ar), float(ai)))
            for (ar, ai), (re, im) in w.items()
        ))
        for w in ws
    ]


dyadic = st.integers(-8, 8).map(lambda k: k / 4)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    axis=st.sampled_from([1j, 1.0]),
    modes=st.dictionaries(st.integers(-3, 3), st.tuples(dyadic, dyadic), min_size=1, max_size=3),
    gamma=st.integers(-12, 12).map(lambda k: k / 2),
    order=st.integers(0, 8),
)
def test_cubic_terms_equal_rounded_exact_trinomial_sums(axis, modes, gamma, order):
    # modes k/2 on the imaginary (periodic) or the real axis
    u0 = ExpSum(tuple((complex(*c), axis * k / 2) for k, c in modes.items()))
    sol = adm_series(u0, Equation.full_nls(gamma), order)
    oracle = trinomial_cubic_oracle(u0, gamma, order)
    for n in range(order + 1):
        assert monomial_coeff(sol, n).terms == oracle[n].terms, n
