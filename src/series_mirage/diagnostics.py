"""Quantitative diagnostics: normalizability classes, truncation-error
tables, and modulus checks for the unit-modulus solution family."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .csvfmt import format_csv
from .errors import EvaluationOverflowError, InvalidInputError, UnsupportedEquationError
from .exact import ExactEvaluator, _modes, _rounded, _tail_bounds
from .expsum import ExpSum
from .methods import SeriesSolution, _check_order, _coefficient_array, _partial_sum_array
from .methods import partial_sum_eval  # noqa: F401  (the benchmark's tracer patches it here)

#: |Re a| below this counts as a purely oscillatory exponent
REAL_EXPONENT_TOL = 1e-12


class NormClass(enum.Enum):
    SQUARE_INTEGRABLE = "square-integrable"
    BOUNDED_NOT_L2 = "bounded-not-l2"
    UNBOUNDED = "unbounded"
    ZERO = "zero"


def classify_normalizability(u0: ExpSum) -> NormClass:
    """Classify an exponential sum by its behavior on the whole real line.

    The judgement is symbolic, on the exponents, and deliberately ignores any
    computational domain: on a periodic box every bounded function is square
    integrable, which would erase the distinction being measured.  Any term
    with Re a != 0 grows at one infinity, so the sum is UNBOUNDED; a nonzero
    sum of pure plane waves is bounded but its |u|^2 integral over the line
    diverges, hence BOUNDED_NOT_L2.  No nonzero finite exponential sum is in
    L2 of the line, so SQUARE_INTEGRABLE is never returned here; it is
    reserved for the sampled Gaussian family, which lies outside the
    exponential sums and is square integrable by construction.
    """
    if u0.is_zero:
        return NormClass.ZERO
    if any(abs(a.real) > REAL_EXPONENT_TOL for _, a in u0.terms):
        return NormClass.UNBOUNDED
    return NormClass.BOUNDED_NOT_L2


@dataclass(frozen=True)
class ErrorRow:
    order: int
    time: float
    sup_error: float
    bound: float | None = None


@dataclass(frozen=True)
class ErrorTable:
    """Rows of (order, time, sup error, optional analytic bound).

    Rows are kept sorted by (order, time); errors must be nonnegative.
    """

    rows: tuple[ErrorRow, ...]

    def __post_init__(self):
        rows = tuple(sorted(self.rows, key=lambda r: (r.order, r.time)))
        for r in rows:
            if r.sup_error < 0 or (r.bound is not None and r.bound < 0):
                raise InvalidInputError(f"error-table entries must be nonnegative: {r!r}")
        object.__setattr__(self, "rows", rows)

    def to_csv(self) -> str:
        """Columns order, time, sup_error, bound; an undefined bound is empty."""
        return format_csv(
            ("order", "time", "sup_error", "bound"),
            ((r.order, r.time, r.sup_error, r.bound) for r in self.rows),
        )


def _tail_bound_params(sol: SeriesSolution, x_samples) -> tuple[float, float] | None:
    """Frequency and amplitude for the factorial tail bound, if applicable.

    The bound applies when the closed form is (amplitude in x) * e^{ibt}:
    every nonzero rate of :func:`~series_mirage.exact._modes` must be the same
    purely imaginary ib, exactly.  Modes of rate 0 are reproduced exactly at
    every order, so they never contribute; data without a closed form
    (genuinely cubic) get no bound.
    """
    try:
        modes = [m for m in _modes(sol.terms[0].coeff(0), sol.equation) if m[1] != (0, 0)]
    except UnsupportedEquationError:
        return None
    rates = {lam for _, lam, _ in modes}
    if not rates:
        return (0.0, 0.0)
    (rate, *others) = rates
    if others or rate[0]:  # several frequencies, or growth/decay in t
        return None
    try:
        amplitude = max(sum(abs(c) * math.exp(a.real * x) for c, _, a in modes) for x in x_samples)
    except OverflowError as exc:
        raise EvaluationOverflowError(f"tail-bound amplitude overflows: {exc}") from exc
    return (abs(_rounded(rate).imag), amplitude)


def truncation_error_table(sol: SeriesSolution, exact: ExactEvaluator, orders, times,
                           x_samples) -> ErrorTable:
    """Sup over the x samples of |partial sum - exact| at each (order, time).

    Time by time, every order at every x is one array pass of the kernel of
    :func:`partial_sum_eval`, with moduli from ``np.hypot``, which rounds as
    Python's ``abs`` does, so each entry equals the per-cell maximum bit for
    bit.  A sum that leaves the double range raises EvaluationOverflowError.
    The bound column holds :func:`~series_mirage.exact.remainder_closed_form`
    when the time dependence is a single exponential e^{ibt}, else nothing.
    """
    orders = list(orders)
    times = sorted(float(t) for t in times)
    xs = [float(x) for x in x_samples]
    if not orders or not times or not xs:
        raise InvalidInputError("orders, times and x_samples must be nonempty")
    for n in orders:
        _check_order(n, sol.order, "error-table order")
    orders = sorted(set(orders))
    params = _tail_bound_params(sol, xs)
    values = _coefficient_array(sol, orders[-1], xs)
    rows = []
    for t in times:
        try:
            reference = [exact(x, t) for x in xs]
        except EvaluationOverflowError as exc:
            raise EvaluationOverflowError(
                f"overflow in the exact solution at t={t!r}: {exc}"
            ) from exc
        d = _partial_sum_array(values, t)[orders] - np.array(reference, complex)
        errs = np.max(np.hypot(d.real, d.imag), axis=1).tolist()
        bounds = [None] * len(orders) if params is None else _tail_bounds(*params, orders, t)
        for n, err, bound in zip(orders, errs, bounds):
            if not math.isfinite(err):
                raise EvaluationOverflowError(f"the order-{n} partial sum is not finite at t={t!r}")
            rows.append(ErrorRow(n, t, err, bound))
    return ErrorTable(tuple(rows))


def unit_modulus_deviation(evaluator, samples) -> float:
    """Largest deviation of |u(x, t)| from 1 over the given (x, t) samples.

    Accepts any callable (x, t) -> complex, in particular an
    :class:`~series_mirage.exact.ExactEvaluator` or a partial-sum closure.
    """
    samples = list(samples)
    if not samples:
        raise InvalidInputError("samples must be nonempty")
    return max(abs(abs(complex(evaluator(x, t))) - 1.0) for x, t in samples)
