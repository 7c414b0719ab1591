"""Closed forms of u_t = L u on exponential data, their exact series and the
factorial truncation bound.

Every equation of :mod:`~series_mirage.methods` evolves a mode c e^{ax} alone,
as c e^{ax + lam t}, with lam = -i a^2 (LINEAR), i (a^2 + g) (REDUCED_NLS) or,
for u0 one plane wave c e^{ikx}, i (a^2 + g |c|^2) (FULL_NLS); other cubic data
raise UnsupportedEquationError.  :func:`_modes` alone writes these rates, in
exact rationals; the evaluator (:func:`exact_solution`), the exact series
(:func:`closed_form_terms`) and the error table's tail bound all read them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import EvaluationOverflowError, InvalidInputError, UnsupportedEquationError
from .expsum import ExpSum, TimePoly
from .methods import Equation, EquationKind, _check_order


def _modes(u0: ExpSum, eq: Equation) -> list:
    """(c, lam, a) per mode of u0, the rate lam = (Re, Im) in exact rationals."""
    from fractions import Fraction  # imported here: nothing else at import time needs it

    kind = eq.kind
    if kind is EquationKind.FULL_NLS and (len(u0.terms) > 1 or any(a.real for _, a in u0.terms)):
        raise UnsupportedEquationError("the cubic closed form needs one plane wave c e^{ikx}")
    modes = []
    for c, a in u0.terms:
        ar, ai = Fraction(a.real), Fraction(a.imag)
        if kind is EquationKind.LINEAR:
            lam = (2 * ar * ai, ai * ai - ar * ar)  # -i a^2
        else:  # i (a^2 + g), with g |c|^2 for the cubic plane wave
            g = Fraction(eq.gamma)
            if kind is EquationKind.FULL_NLS:
                g *= Fraction(c.real) ** 2 + Fraction(c.imag) ** 2
            lam = (-2 * ar * ai, ar * ar - ai * ai + g)
        modes.append((c, lam, a))
    return modes


def _rounded(lam) -> complex:
    """An exact rate rounded once to a complex float."""
    try:
        return complex(float(lam[0]), float(lam[1]))
    except OverflowError as exc:
        raise EvaluationOverflowError(f"rate {lam[0]} + {lam[1]}i leaves the float range") from exc


@dataclass(frozen=True)
class ExactEvaluator:
    """The closed form u(x, t) = sum_j c_j exp(a_j x + lam_j t), one (c, lam, a) per mode."""

    modes: tuple[tuple[complex, complex, complex], ...]

    def __call__(self, x: float, t: float) -> complex:
        if not (math.isfinite(x) and math.isfinite(t)):
            raise InvalidInputError(f"evaluation point must be finite, got {(x, t)!r}")
        total = 0j
        for c, lam, a in self.modes:
            try:
                total += c * cmath.exp(a * x + lam * t)
            except OverflowError as exc:
                raise EvaluationOverflowError(
                    f"exp overflow in term {c!r}*exp({a!r}*x + {lam!r}*t) at x={x!r}, t={t!r}"
                ) from exc
        if not cmath.isfinite(total):
            raise EvaluationOverflowError(f"non-finite evaluation at x={x!r}, t={t!r}")
        return total


def exact_solution(u0: ExpSum, eq: Equation) -> ExactEvaluator:
    """The closed form of u0 under eq, each rate of :func:`_modes` rounded once.

    For u0 = exp(3ix) under the linear equation this is exp(i(3x + 9t)).
    """
    return ExactEvaluator(tuple((c, _rounded(lam), a) for c, lam, a in _modes(u0, eq)))


def exact_linear(u0: ExpSum) -> ExactEvaluator:
    """The closed form of u0 under u_t + i u_xx = 0."""
    return exact_solution(u0, Equation.linear())


def exact_reduced_nls(alpha: float, gamma: float) -> ExactEvaluator:
    """The plane wave e^{i(alpha x + (gamma - alpha^2) t)} of the reduced equation.

    Its modulus is 1, so it also solves the full cubic equation.
    """
    return exact_solution(ExpSum.single(1, complex(0.0, alpha)), Equation.reduced_nls(gamma))


def closed_form_terms(u0: ExpSum, eq: Equation, order: int) -> tuple[TimePoly, ...]:
    """Terms u_0..u_order of the closed form's Taylor series in t, exactly.

    Term n, sum_j c_j lam_j^n/n! e^{a_j x} t^n with the rates of
    :func:`_modes`, is computed in rationals and rounded once, sharing no
    code with the recursion of :mod:`~series_mirage.methods`, whose terms
    must equal these bit for bit.
    """
    from fractions import Fraction

    _check_order(order)
    modes = [((Fraction(c.real), Fraction(c.imag)), lam, a) for c, lam, a in _modes(u0, eq)]
    terms = []
    for n in range(order + 1):
        try:
            w = ExpSum(tuple((complex(float(zr), float(zi)), a) for (zr, zi), _, a in modes))
        except OverflowError as exc:
            raise EvaluationOverflowError(f"closed-form term {n} leaves the float range") from exc
        terms.append(TimePoly.from_expsum(w, n))
        modes = [(((zr * lr - zi * li) / (n + 1), (zr * li + zi * lr) / (n + 1)), (lr, li), a)
                 for (zr, zi), (lr, li), a in modes]
    return tuple(terms)


def remainder_closed_form(b: float, amplitude: float, order: int, t: float) -> float:
    """amplitude * |bt|^(order+1) / (order+1)! * e^{|bt|}, the standard
    remainder estimate bounding |amplitude * (e^{ibt} - sum_{n<=order} (ibt)^n/n!)|.

    Power and factorial are folded into a running product of |bt|/k factors
    so large orders cannot overflow; a bound that leaves the double range
    (e^{|bt|} alone does past |bt| ~ 709) raises EvaluationOverflowError.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise InvalidInputError(f"order must be a nonnegative integer, got {order!r}")
    return _tail_bounds(b, amplitude, [order], t)[0]


def _tail_bounds(b: float, amplitude: float, orders, t: float) -> list[float]:
    """:func:`remainder_closed_form` at each of the ascending ``orders``,
    bit for bit and with the same errors, from one running product."""
    if not (math.isfinite(b) and math.isfinite(amplitude)):
        raise InvalidInputError(f"b and amplitude must be finite, got {(b, amplitude)!r}")
    if not (math.isfinite(t) and t >= 0):
        raise InvalidInputError(f"t must be finite and nonnegative, got {t!r}")
    z = abs(b * t)
    try:
        tail = amplitude * math.exp(z)
    except OverflowError as exc:
        raise EvaluationOverflowError(f"tail bound overflows: e^{z!r}") from exc
    bounds, k = [], 1
    for order in orders:
        while k <= order + 1:
            tail *= z / k
            k += 1
        if not math.isfinite(tail):
            raise EvaluationOverflowError(
                f"tail bound is not finite for |bt|={z!r}, amplitude={amplitude!r}, order={order}"
            )
        bounds.append(tail)
    return bounds
