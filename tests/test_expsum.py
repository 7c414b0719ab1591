"""Tests for exponential sums, their canonical form and time polynomials."""

import json
import math

import pytest

from series_mirage.errors import EvaluationOverflowError, InvalidInputError
from series_mirage.expsum import ExpSum, TimePoly, expsum_diff, tpoly_diff


def single(c, a):
    return ExpSum.single(c, a)


COSH_SUM = ExpSum(((1, 0), (1, 2), (1, -2)))  # 1 + 2cosh(2x)


class TestCanonicalization:
    def test_merges_equal_exponents(self):
        s = ExpSum(((1, 2), (1, 2)))
        assert s.terms == ((2 + 0j, 2 + 0j),)

    def test_cosh_sum_canonical_form(self):
        # 1 + e^{2x} + e^{-2x}, sorted by real part of the exponent
        assert COSH_SUM.terms == (
            (1 + 0j, -2 + 0j),
            (1 + 0j, 0j),
            (1 + 0j, 2 + 0j),
        )

    def test_cancellation_gives_zero(self):
        assert ExpSum(((1, 3j), (-1, 3j))).is_zero

    def test_nearby_exponents_stay_distinct(self):
        # only equal exponents merge; a near-collision is two modes
        s = ExpSum(((1, 1 + 1e-13), (1, 1)))
        assert s.terms == ((1 + 0j, 1 + 0j), (1 + 0j, 1 + 1e-13 + 0j))

    def test_signed_zero_exponents_merge(self):
        # 0.0 and -0.0 are equal as complex numbers; the first one is kept
        s = ExpSum(((1, complex(0.0, -0.0)), (2, 0j)))
        assert s.terms == ((3 + 0j, complex(0.0, -0.0)),)

    def test_sorted_by_re_then_im(self):
        s = ExpSum(((1, 1j), (1, -1j), (1, -1)))
        alphas = [a for _, a in s.terms]
        assert alphas == [-1 + 0j, -1j, 1j]

    def test_idempotent(self):
        s = ExpSum(((0.3 + 0.1j, 2), (1, -2 + 1j), (2j, 0)))
        assert ExpSum(s.terms) == s

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            ExpSum(((float("nan"), 1),))
        with pytest.raises(InvalidInputError):
            ExpSum(((1, complex(0, float("inf"))),))

    def test_tiny_relative_coefficients_kept(self):
        # no magnitude cut: only exact zeros drop
        s = ExpSum(((1.0, 0), (1e-16, 1)))
        assert s.terms == ((1 + 0j, 0j), (1e-16 + 0j, 1 + 0j))
        s = ExpSum(((5e-324j, 2), (0j, 3), (-0.0, 4), (1e300, 5)))
        assert s.terms == ((5e-324j, 2 + 0j), (1e300 + 0j, 5 + 0j))


class TestArithmetic:
    def test_combine_cancels(self):
        e2 = single(1, 2)
        assert (e2 * 1 + e2 * -1).is_zero

    def test_combine_subtracts_constant(self):
        out = COSH_SUM * 1 + single(1, 0) * -1
        assert out.terms == ((1 + 0j, -2 + 0j), (1 + 0j, 2 + 0j))

    def test_combine_with_zero_operand(self):
        out = single(1, 3j) * 9j + ExpSum.zero() * 0
        assert out.terms == ((9j, 3j),)

    def test_combine_nonfinite_scalar(self):
        with pytest.raises(InvalidInputError):
            single(1, 0) * float("inf") + ExpSum.zero() * 0

    def test_sums_do_not_multiply(self):
        with pytest.raises(TypeError):
            single(1, 2) * single(1, -2)

    def test_diff_counts_nearby_modes_in_full(self):
        assert expsum_diff(single(1, 1), single(1 + 2**-40, 1)) == 2**-40
        assert expsum_diff(single(1, 1), single(1, 1 + 1e-13)) == 1.0


class TestDerivativeAndEval:
    def test_dxx_cosh_sum(self):
        out = COSH_SUM.dx(2)
        assert out.terms == ((4 + 0j, -2 + 0j), (4 + 0j, 2 + 0j))

    def test_dxx_plane_wave(self):
        out = single(1, 3j).dx(2)
        assert out.terms == ((-9 + 0j, 3j),)

    def test_dx_order_zero_is_identity(self):
        assert COSH_SUM.dx(0) == COSH_SUM

    def test_dx_negative_order_rejected(self):
        with pytest.raises(InvalidInputError):
            COSH_SUM.dx(-1)

    def test_eval_at_origin(self):
        assert COSH_SUM.eval(0.0) == pytest.approx(3.0)

    def test_eval_plane_wave_quarter_turn(self):
        assert abs(single(1, 3j).eval(math.pi / 6) - 1j) < 1e-14

    def test_eval_exp_constant(self):
        assert single(1, 2).eval(1.0) == pytest.approx(math.e**2, rel=1e-14)

    def test_eval_overflow_names_term(self):
        with pytest.raises(EvaluationOverflowError) as err:
            single(1, 800).eval(1.0)
        assert "800" in str(err.value)

    def test_eval_nonfinite_x(self):
        with pytest.raises(InvalidInputError):
            COSH_SUM.eval(float("nan"))


class TestProperties:
    def test_derivative_matches_finite_difference(self):
        s = ExpSum(((1, 2), (0.5, -1 + 3j), (2j, 4j)))  # |alpha| <= 4
        h = 1e-5
        for x in (-0.5, 0.0, 0.7):
            fd = (s.eval(x + h) - s.eval(x - h)) / (2 * h)
            exact = s.dx(1).eval(x)
            assert abs(fd - exact) <= 1e-8 * max(1.0, abs(exact))


class TestTimePoly:
    def test_eval_zero_poly(self):
        assert TimePoly(()).eval(1.3, 2.7) == 0j

    def test_eval_linear_monomial(self):
        p = TimePoly.from_expsum(single(9j, 3j), power=1)
        assert p.eval(0.0, 1.0) == pytest.approx(9j)

    def test_eval_first_order_partial_sum(self):
        # 1 + (-4it)*2cosh(2x) at x=0, t=0.1: 2cosh(0)=2, so 1 - 0.8i
        p = TimePoly((single(1, 0), ExpSum(((-4j, 2), (-4j, -2)))))
        assert p.eval(0.0, 0.1) == pytest.approx(1 - 0.8j, abs=1e-15)

    def test_degree_is_tight(self):
        p = TimePoly((COSH_SUM, ExpSum.zero(), ExpSum.zero()))
        assert p.coeffs == (COSH_SUM,)

    def test_degree_cap(self):
        assert len(TimePoly.from_expsum(single(1, 0), power=64).coeffs) == 65
        with pytest.raises(InvalidInputError):
            TimePoly.from_expsum(single(1, 0), power=65)

    def test_tpoly_diff(self):
        p = TimePoly.from_expsum(single(1, 1j), power=2)
        q = TimePoly.from_expsum(single(1 + 1e-13, 1j), power=2)
        assert tpoly_diff(p, q) == pytest.approx(1e-13, rel=1e-2)
        # powers present in only one polynomial count in full
        assert tpoly_diff(p, TimePoly.from_expsum(single(1, 1j), power=1)) == 1.0
        assert tpoly_diff(TimePoly(()), TimePoly(())) == 0.0


class TestSerialization:
    def test_expsum_to_json_values(self):
        s = ExpSum(((0.1 + 0.2j, -1.5 + 2j), (3, 0), (1e-7j, 4j)))
        assert s.to_json() == [
            {"re_c": 0.1, "im_c": 0.2, "re_a": -1.5, "im_a": 2.0},
            {"re_c": 3.0, "im_c": 0.0, "re_a": 0.0, "im_a": 0.0},
            {"re_c": 0.0, "im_c": 1e-7, "re_a": 0.0, "im_a": 4.0},
        ]
        assert ExpSum.zero().to_json() == []
        json.dumps(s.to_json())  # plain floats only

    def test_tpoly_to_json_values(self):
        # one array per power of t, empty for a zero coefficient
        p = TimePoly((single(2j, 1), ExpSum.zero(), single(-0.25, 1j)))
        assert p.to_json() == [
            [{"re_c": 0.0, "im_c": 2.0, "re_a": 1.0, "im_a": 0.0}],
            [],
            [{"re_c": -0.25, "im_c": 0.0, "re_a": 0.0, "im_a": 1.0}],
        ]
        assert TimePoly.from_expsum(single(1, 0), power=2).to_json() == [
            [], [], [{"re_c": 1.0, "im_c": 0.0, "re_a": 0.0, "im_a": 0.0}],
        ]
