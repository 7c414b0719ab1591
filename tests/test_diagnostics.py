"""Tests for normalizability classification, error tables and modulus checks."""

import cmath
import math
import random

import numpy as np
import pytest

from series_mirage import cli
from series_mirage.cli import main, parse_config
from series_mirage.diagnostics import (
    ErrorRow,
    ErrorTable,
    NormClass,
    classify_normalizability,
    truncation_error_table,
    unit_modulus_deviation,
)
from series_mirage.errors import EvaluationOverflowError, InvalidInputError
from series_mirage.exact import (
    exact_linear,
    exact_reduced_nls,
    exact_solution,
    remainder_closed_form,
)
from series_mirage.expsum import ExpSum, TimePoly
from series_mirage.methods import (
    Equation,
    SeriesMethod,
    SeriesSolution,
    adm_series,
    hpm_series,
    partial_sum_eval,
    taylor_series,
)

COSH_SUM = ExpSum(((1, 0), (1, 2), (1, -2)))
FLOAT_SLACK = 1e-13
X_SAMPLES = [-1.0 + 0.5 * i for i in range(5)]

TWO_MODE = ExpSum(((1, 1j), (0.5, -2j)))
# several nonzero t-powers per term, an empty slot and an empty term: the
# general Horner path, which the monomial series never take
HAND_BUILT = SeriesSolution(
    (
        TimePoly((COSH_SUM, ExpSum.single(0.5, 1j))),
        TimePoly(()),
        TimePoly((ExpSum.single(-1j, 2), ExpSum.zero(), ExpSum(((0.25, -1), (2j, 3j))))),
        TimePoly((ExpSum.zero(),) * 3 + (ExpSum.single(1e-3, -1j),)),
    ),
    Equation.linear(),
    SeriesMethod.TAYLOR,
)


def _two_mode_guess(x, t):
    # any smooth function serves as the reference: the table only compares
    return TWO_MODE.eval(x) * cmath.exp(-1j * t)


#: (series, exact, orders, times): one per route into the error table
TABLE_CASES = {
    "linear-cosh-hpm": (
        hpm_series(COSH_SUM, Equation.linear(), 12), exact_linear(COSH_SUM),
        range(13), [0.0, 0.3, 1.0],
    ),
    "linear-plane-taylor": (
        taylor_series(ExpSum.single(1, 3j), Equation.linear(), 25),
        exact_linear(ExpSum.single(1, 3j)), [0, 5, 25, 24], [1.0, 0.1, 0.5],
    ),
    "reduced-nls": (
        hpm_series(ExpSum.single(1, 1j), Equation.reduced_nls(2.0), 20),
        exact_reduced_nls(1.0, 2.0), range(21), [0.0, 0.5, 1.0],
    ),
    "two-mode-adm": (
        adm_series(TWO_MODE, Equation.full_nls(2.0), 8),
        _two_mode_guess, range(9), [0.05, 0.2],
    ),
    "hand-built": (HAND_BUILT, exact_linear(COSH_SUM), [3, 0, 1, 2], [0.0, 0.7, 1.5]),
}


class TestClassifier:
    def test_cosh_sum_unbounded(self):
        assert classify_normalizability(COSH_SUM) is NormClass.UNBOUNDED

    def test_plane_wave_bounded_not_l2(self):
        assert classify_normalizability(ExpSum.single(1, 3j)) is NormClass.BOUNDED_NOT_L2
        assert classify_normalizability(ExpSum.single(1, 1j)) is NormClass.BOUNDED_NOT_L2

    def test_zero(self):
        assert classify_normalizability(ExpSum.zero()) is NormClass.ZERO

    def test_scalar_invariance(self):
        for u0 in (COSH_SUM, ExpSum.single(1, 3j), ExpSum(((1, 1j), (2, -0.5)))):
            base = classify_normalizability(u0)
            for s in (2.0, -1j, 1e-6, 300 + 4j):
                assert classify_normalizability(s * u0) is base

    def test_tiny_real_part_counts_as_oscillatory(self):
        u0 = ExpSum.single(1, complex(1e-13, 1.0))
        assert classify_normalizability(u0) is NormClass.BOUNDED_NOT_L2

    def test_mixed_sum_unbounded(self):
        u0 = ExpSum(((1, 1j), (1e-3, 0.5)))
        assert classify_normalizability(u0) is NormClass.UNBOUNDED

    def test_gaussian_tagged_square_integrable(self, tmp_path):
        assert main(["classify", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "classification.csv").read_text().splitlines()
        assert (
            f"gaussian-packet,unit-norm gaussian (grid family),{NormClass.SQUARE_INTEGRABLE.value}"
            in rows
        )


class TestErrorTable:
    def test_rows_sorted_and_nonnegative(self):
        rows = (ErrorRow(2, 0.5, 1e-3, None), ErrorRow(0, 1.0, 0.0, 1.0), ErrorRow(0, 0.0, 0.0, 0.0))
        table = ErrorTable(rows)
        assert [(r.order, r.time) for r in table.rows] == [(0, 0.0), (0, 1.0), (2, 0.5)]
        with pytest.raises(InvalidInputError):
            ErrorTable((ErrorRow(0, 0.0, -1.0, None),))

    def test_csv_format(self):
        table = ErrorTable((ErrorRow(0, 0.0, 0.0, 0.0), ErrorRow(1, 0.5, 1e-3, None)))
        lines = table.to_csv().splitlines()
        assert lines[0] == "order,time,sup_error,bound"
        assert lines[1] == "0,0.0,0.0,0.0"
        assert lines[2] == "1,0.5,0.001,"  # empty bound column when undefined

    def test_converged_series_row(self):
        # focusing cubic example at order 20: the tail is ~1/21!, far below
        # double rounding, so the measured error is the evaluation noise
        sol = adm_series(ExpSum.single(1, 1j), Equation.full_nls(2.0), 20)
        table = truncation_error_table(
            sol, exact_reduced_nls(1.0, 2.0), [20], [1.0], X_SAMPLES
        )
        assert table.rows[0].sup_error < 1e-15

    def test_zero_error_at_time_zero(self):
        sol = taylor_series(COSH_SUM, Equation.linear(), 5)
        table = truncation_error_table(sol, exact_linear(COSH_SUM), [0], [0.0], X_SAMPLES)
        assert table.rows[0].sup_error == 0.0
        assert table.rows[0].bound == 0.0

    def test_defocusing_order_two_value(self):
        # order-2 partial sum of e^{-3it} at t=1 vs exact: frozen via cmath
        sol = adm_series(ExpSum.single(1, 1j), Equation.full_nls(-2.0), 5)
        table = truncation_error_table(
            sol, exact_reduced_nls(1.0, -2.0), [2], [1.0], [0.0]
        )
        expect = abs(cmath.exp(-3j) - (1 - 3j - 4.5))
        assert expect == pytest.approx(3.804383323935389, rel=1e-12)
        assert table.rows[0].sup_error == pytest.approx(expect, rel=1e-10)
        assert table.rows[0].bound == pytest.approx(27 / 6 * math.exp(3.0), rel=1e-12)
        assert table.rows[0].sup_error <= table.rows[0].bound

    def test_bound_validity_and_monotonicity(self):
        # defocusing case |b| = 3 at t = 1: orders past |bt| improve
        # monotonically and never beat the analytic bound
        sol = adm_series(ExpSum.single(1, 1j), Equation.full_nls(-2.0), 20)
        table = truncation_error_table(
            sol, exact_reduced_nls(1.0, -2.0), range(21), [1.0], X_SAMPLES
        )
        errors = [r.sup_error for r in table.rows]
        for r in table.rows:
            assert r.bound is not None
            assert r.sup_error <= r.bound + FLOAT_SLACK
        for n in range(4, 20):
            assert errors[n + 1] <= errors[n] + 1e-14

    def test_cosh_example_bound_column(self):
        sol = taylor_series(COSH_SUM, Equation.linear(), 8)
        table = truncation_error_table(
            sol, exact_linear(COSH_SUM), [0, 4, 8], [0.1, 1.0], X_SAMPLES
        )
        # single nonzero frequency |b| = 4 with amplitude max 2cosh(2)
        for r in table.rows:
            assert r.bound is not None
            assert r.sup_error <= r.bound + FLOAT_SLACK

    def test_no_bound_for_mixed_frequencies(self):
        u0 = ExpSum(((1, 1j), (1, 2j)))  # b = -1 and -4 under the linear flow
        sol = taylor_series(u0, Equation.linear(), 6)
        table = truncation_error_table(sol, exact_linear(u0), [3], [0.5], X_SAMPLES)
        assert table.rows[0].bound is None

    def test_no_bound_for_near_equal_frequencies(self):
        # b = 1 and (1 + 2^-45)^2, 6e-14 apart: rates must be equal exactly
        u0 = ExpSum(((1, 1j), (1, -1j)))
        near = ExpSum(((1, 1j), (1, -(1 + 2.0**-45) * 1j)))
        for data, shared in ((u0, True), (near, False)):
            sol = taylor_series(data, Equation.linear(), 6)
            table = truncation_error_table(sol, exact_linear(data), [3], [0.5], X_SAMPLES)
            assert (table.rows[0].bound is not None) == shared

    def test_cubic_plane_wave_of_any_modulus_has_a_bound(self):
        u0 = ExpSum.single(0.5, 1j)
        sol = adm_series(u0, Equation.full_nls(2.0), 16)
        exact = exact_solution(u0, Equation.full_nls(2.0))
        table = truncation_error_table(sol, exact, range(17), [0.0, 0.5, 1.0, 2.0], X_SAMPLES)
        assert len(table.rows) == 68
        for r in table.rows:
            assert r.bound is not None
            assert r.sup_error <= r.bound + FLOAT_SLACK

    def test_orders_out_of_range(self):
        sol = taylor_series(COSH_SUM, Equation.linear(), 4)
        with pytest.raises(InvalidInputError):
            truncation_error_table(sol, exact_linear(COSH_SUM), [5], [0.0], X_SAMPLES)

    @pytest.mark.parametrize("orders", [[2.7, True], [2.7], [True], [float("nan")]])
    def test_non_integer_orders_rejected(self, orders):
        # an order is never rounded: 2.7 and True are not orders 2 and 1
        sol = taylor_series(COSH_SUM, Equation.linear(), 4)
        with pytest.raises(InvalidInputError, match="error-table order must be an integer"):
            truncation_error_table(sol, exact_linear(COSH_SUM), orders, [0.0], X_SAMPLES)

    def test_empty_inputs_rejected(self):
        sol = taylor_series(COSH_SUM, Equation.linear(), 4)
        with pytest.raises(InvalidInputError):
            truncation_error_table(sol, exact_linear(COSH_SUM), [], [0.0], X_SAMPLES)

    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_table_equals_per_cell_maxima_bit_for_bit(self, case):
        sol, exact, orders, times = TABLE_CASES[case]
        table = truncation_error_table(sol, exact, orders, times, X_SAMPLES)
        cells = sorted((n, t) for n in set(orders) for t in times)
        assert [(r.order, r.time) for r in table.rows] == cells
        for r in table.rows:
            n, t = r.order, r.time
            for x in X_SAMPLES:
                # the per-point API against the term-by-term sum it replaced
                one_by_one = sum((p.eval(x, t) for p in sol.terms[: n + 1]), 0j)
                assert partial_sum_eval(sol, n, x, t) == one_by_one
            expect = max(abs(partial_sum_eval(sol, n, x, t) - exact(x, t)) for x in X_SAMPLES)
            assert r.sup_error == expect

    def test_exact_evaluated_once_per_time_and_point(self, monkeypatch):
        # and each nonzero series coefficient at most once per point
        sol = HAND_BUILT
        exact = exact_linear(COSH_SUM)
        calls = []
        evals = []
        plain_eval = ExpSum.eval

        def counted(x, t):
            calls.append((x, t))
            return exact(x, t)

        def counted_eval(self, x):
            evals.append(x)
            return plain_eval(self, x)

        args = ([0, 2, 3], [0.1, 0.5], X_SAMPLES)
        plain = truncation_error_table(sol, exact, *args)
        monkeypatch.setattr(ExpSum, "eval", counted_eval)
        table = truncation_error_table(sol, counted, *args)
        nonzero = sum(not c.is_zero for p in sol.terms for c in p.coeffs)
        assert nonzero == 5
        assert len(evals) <= nonzero * len(X_SAMPLES)
        assert sorted(calls) == sorted((x, t) for t in args[1] for x in X_SAMPLES)
        assert table == plain

    def test_exact_overflow_raises(self):
        sol = taylor_series(COSH_SUM, Equation.linear(), 4)
        exact = exact_linear(COSH_SUM)

        def overflowing(x, t):
            if t > 0.5:
                raise EvaluationOverflowError("exp overflow")
            return exact(x, t)

        with pytest.raises(EvaluationOverflowError, match="exact solution at t=1.0"):
            truncation_error_table(
                sol, overflowing, [0, 4], [0.1, 1.0], X_SAMPLES
            )

    def test_series_overflow_names_the_term_and_point(self):
        # e^x + e^{2x} at x = 800 overflows in u_0; the mixed frequencies
        # leave no tail bound, and the reference is a harmless 0j
        u0 = ExpSum(((1, 1), (1, 2)))
        sol = taylor_series(u0, Equation.linear(), 3)
        zero = lambda x, t: 0j
        term = r"\(1\+0j\)\*exp\(\(1\+0j\)\*x\) at x=800\.0"
        with pytest.raises(EvaluationOverflowError, match=term):
            truncation_error_table(sol, zero, [0, 3], [0.1], [0.0, 800.0])
        with pytest.raises(EvaluationOverflowError, match=term):
            partial_sum_eval(sol, 3, 800.0, 0.1)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        sol = taylor_series(COSH_SUM, Equation.linear(), 4)
        zero = lambda x, t: 0j
        with pytest.raises(InvalidInputError, match="evaluation time must be finite"):
            truncation_error_table(sol, zero, [0, 4], [t], X_SAMPLES)
        with pytest.raises(InvalidInputError, match="evaluation time must be finite"):
            partial_sum_eval(sol, 4, 0.5, t)

    def test_tail_bound_amplitude_overflow_raises(self):
        # e^{2x} at x = 400 overflows while the tail-bound amplitude is formed
        u0 = ExpSum.single(1, 2)
        sol = taylor_series(u0, Equation.linear(), 3)
        with pytest.raises(EvaluationOverflowError, match="amplitude"):
            truncation_error_table(sol, exact_linear(u0), [3], [0.1], [0.0, 400.0])

    def test_bound_column_equals_per_order_calls(self):
        # e^{ix}: b = 1 and amplitude 1; at t = 600 the running product
        # leaves the double range partway through the orders
        u0 = ExpSum.single(1, 1j)
        sol = taylor_series(u0, Equation.linear(), 40)
        orders = [0, 1, 5, 17, 26, 27, 33, 40]
        table = truncation_error_table(sol, exact_linear(u0), orders, [0.0, 0.5, 3.0], X_SAMPLES)
        for r in table.rows:
            assert r.bound == remainder_closed_form(1.0, 1.0, r.order, r.time)
        with pytest.raises(EvaluationOverflowError) as first:
            for n in orders:
                remainder_closed_form(1.0, 1.0, n, 600.0)
        assert "order=27" in str(first.value)
        with pytest.raises(EvaluationOverflowError) as table_exc:
            truncation_error_table(sol, exact_linear(u0), orders, [600.0], X_SAMPLES)
        assert str(table_exc.value) == str(first.value)

    def test_partial_sum_overflow_raises_instead_of_writing_nan(self):
        # two frequencies, so no tail bound stops the run first; the order-11
        # sum leaves the double range at t = 1e30, every row before it is finite
        u0 = ExpSum(((0.7 + 0.2j, 3j), (0.5 - 0.1j, -2j)))
        sol = hpm_series(u0, Equation.linear(), 16)
        exact = exact_linear(u0)
        with pytest.raises(EvaluationOverflowError, match=r"order-11 partial sum .* t=1e\+30"):
            truncation_error_table(sol, exact, range(17), [0.0, 1e18, 1e30, 1e300], X_SAMPLES)
        table = truncation_error_table(sol, exact, range(11), [0.0, 1e18, 1e30], X_SAMPLES)
        assert max(r.sup_error for r in table.rows) > 1e302
        for r in table.rows:
            terms = sol.terms[: r.order + 1]
            expect = max(
                abs(sum((p.eval(x, r.time) for p in terms), 0j) - exact(x, r.time))
                for x in X_SAMPLES
            )
            assert r.sup_error == expect

    def test_hypot_rounds_like_python_abs(self):
        # the table takes moduli with np.hypot because it must equal Python's
        # abs(complex) bit for bit; a platform where it does not fails here
        rng = random.Random(20261018)
        pairs = []
        for _ in range(5000):
            a = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300, 300)
            pairs.append((a, rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300, 300)))
            pairs.append((a, a * (1.0 + rng.randint(-8, 8) * 2.0**-52)))  # near-equal
            pairs.append((rng.randint(-2**52, 2**52) * 5e-324, rng.uniform(-1e-308, 1e-308)))
            pairs.append((rng.uniform(-1.0, 1.0) * 1e300, rng.uniform(-1.0, 1.0) * 1e300))
        re, im = (np.array(v) for v in zip(*pairs))
        assert np.hypot(re, im).tolist() == [abs(complex(a, b)) for a, b in pairs]

    @pytest.mark.parametrize("experiment", ["example1", "example2", "example3", "example4"])
    def test_default_errors_csv_equals_scalar_recomputation(self, tmp_path, experiment):
        assert main([experiment, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "errors.csv").read_text().splitlines()
        assert lines[0] == "order,time,sup_error,bound"
        cfg = parse_config(experiment)
        # the CLI tabulates the ADM series of the example's own equation
        if experiment in ("example1", "example2"):
            u0, eq = (cli._EX1_U0 if experiment == "example1" else cli._EX2_U0), Equation.linear()
        else:
            u0, eq = cli._EX34_U0, Equation.full_nls(cfg["gamma"])
        sol, exact = adm_series(u0, eq, cfg["order"]), exact_solution(u0, eq)
        xs = cli._linspace(cfg["x0"], cfg["x1"], cfg["x_steps"])
        got = {}
        for line in lines[1:]:
            order, t, err, _ = line.split(",")
            got[int(order), float(t)] = float(err)
        expect = {}
        for t in cli._linspace(cfg["t0"], cfg["t1"], cfg["t_steps"]):
            sums = []
            for x in xs:
                s, per_order = 0j, []
                for p in sol.terms:
                    s = s + p.eval(x, t)
                    per_order.append(abs(s - exact(x, t)))
                sums.append(per_order)
            for n in range(cfg["order"] + 1):
                expect[n, t] = max(per_order[n] for per_order in sums)
        assert got == expect


class TestUnitModulus:
    SAMPLES = [(x, t) for x in (-1.0, 0.0, 0.5) for t in (0.0, 0.5, 1.0)]

    def test_exact_plane_wave(self):
        ev = exact_reduced_nls(1.0, 2.0)
        assert unit_modulus_deviation(ev, self.SAMPLES) <= 1e-12

    def test_order_two_partial_sum(self):
        sol = adm_series(ExpSum.single(1, 1j), Equation.full_nls(2.0), 5)
        dev = unit_modulus_deviation(lambda x, t: partial_sum_eval(sol, 2, x, t), [(0.0, 1.0)])
        # |1 + i - 1/2| - 1 = sqrt(5)/2 - 1
        assert dev == pytest.approx(math.sqrt(1.25) - 1, abs=1e-12)

    def test_converged_partial_sum(self):
        sol = adm_series(ExpSum.single(1, 1j), Equation.full_nls(2.0), 30)
        dev = unit_modulus_deviation(
            lambda x, t: partial_sum_eval(sol, 30, x, t), [(0.0, 1.0), (0.5, 1.0)]
        )
        assert dev <= 1e-12

    def test_modulus_converges_with_order(self):
        sol = adm_series(ExpSum.single(1, 1j), Equation.full_nls(2.0), 25)
        samples = [(x, 1.0) for x in X_SAMPLES]
        dev25 = unit_modulus_deviation(lambda x, t: partial_sum_eval(sol, 25, x, t), samples)
        assert dev25 <= 1e-10

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidInputError):
            unit_modulus_deviation(exact_reduced_nls(1.0, 2.0), [])
