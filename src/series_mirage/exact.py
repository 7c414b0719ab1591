"""Closed-form reference solutions, their exact series and the factorial truncation bound."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import EvaluationOverflowError, InvalidInputError, UnsupportedEquationError
from .expsum import MAX_T_DEGREE, ExpSum, TimePoly
from .methods import Equation, EquationKind


@dataclass(frozen=True)
class ExactEvaluator:
    """A closed-form solution u(x, t), tagged with the PDEs it satisfies."""

    equations: tuple[Equation, ...]
    fn: Callable[[float, float], complex] = field(repr=False, compare=False)

    def __call__(self, x: float, t: float) -> complex:
        return self.fn(x, t)


def exact_linear(u0: ExpSum) -> ExactEvaluator:
    """Exact evolution of sum_j c_j e^{a_j x} under u_t + i u_xx = 0.

    Each exponential evolves independently:

        u(x, t) = sum_j c_j * exp(a_j x - i a_j^2 t).

    For u0 = exp(3ix) this gives exp(i(3x + 9t)); note the phase is
    i(3x + 9t), not 3(x + 3it).
    """
    terms = u0.terms

    def fn(x: float, t: float) -> complex:
        if not (math.isfinite(x) and math.isfinite(t)):
            raise InvalidInputError(f"evaluation point must be finite, got {(x, t)!r}")
        total = 0j
        for c, a in terms:
            try:
                total += c * cmath.exp(a * x - 1j * a * a * t)
            except OverflowError as exc:
                raise EvaluationOverflowError(
                    f"exp overflow in term {c!r}*exp({a!r}*x) at x={x!r}, t={t!r}"
                ) from exc
        if not cmath.isfinite(total):
            raise EvaluationOverflowError(f"non-finite evaluation at x={x!r}, t={t!r}")
        return total

    return ExactEvaluator(equations=(Equation.linear(),), fn=fn)


def exact_reduced_nls(alpha: float, gamma: float) -> ExactEvaluator:
    """Plane-wave solution e^{i a x} e^{i(g - a^2) t} of the reduced equation.

    Its modulus is identically 1, so the cubic term g|u|^2 u equals g u and
    the same function also solves the full cubic equation; the evaluator is
    tagged as valid for both.
    """
    if not (math.isfinite(alpha) and math.isfinite(gamma)):
        raise InvalidInputError(
            f"parameters must be finite, got alpha={alpha!r}, gamma={gamma!r}"
        )
    alpha = float(alpha)
    gamma = float(gamma)
    omega = gamma - alpha * alpha

    def fn(x: float, t: float) -> complex:
        if not (math.isfinite(x) and math.isfinite(t)):
            raise InvalidInputError(f"evaluation point must be finite, got {(x, t)!r}")
        return cmath.exp(1j * (alpha * x + omega * t))

    return ExactEvaluator(
        equations=(Equation.reduced_nls(gamma), Equation.full_nls(gamma)),
        fn=fn,
    )


def closed_form_terms(u0: ExpSum, eq: Equation, order: int) -> tuple[TimePoly, ...]:
    """Terms u_0..u_order of the closed form's Taylor series in t, exactly.

    Mode c e^{ax} of u0 evolves alone as c e^{lam t} e^{ax}, with lam = -i a^2
    (LINEAR), i (a^2 + g) (REDUCED_NLS) or, when u0 is one plane wave of
    constant modulus |c| (a purely imaginary), i (a^2 + g |c|^2) (FULL_NLS);
    other cubic data raise UnsupportedEquationError.  Term n,
    sum_j c_j lam_j^n/n! e^{a_j x} t^n, is computed in rationals and rounded
    once, sharing no code with the recursion of :mod:`~series_mirage.methods`,
    whose terms must equal these bit for bit.
    """
    from fractions import Fraction  # imported here: nothing else in the package loads it

    if not isinstance(order, int) or isinstance(order, bool) or not 0 <= order <= MAX_T_DEGREE:
        raise InvalidInputError(f"order must be an integer in [0, {MAX_T_DEGREE}], got {order!r}")
    kind = eq.kind
    if kind is EquationKind.FULL_NLS and (len(u0.terms) > 1 or any(a.real for _, a in u0.terms)):
        raise UnsupportedEquationError("the cubic closed form needs one plane wave c e^{ikx}")
    modes = []  # (c lam^n/n!, lam, a) per mode, complex rationals as (re, im)
    for c, a in u0.terms:
        cr, ci, ar, ai = map(Fraction, (c.real, c.imag, a.real, a.imag))
        if kind is EquationKind.LINEAR:
            lam = (2 * ar * ai, ai * ai - ar * ar)  # -i a^2
        else:  # i (a^2 + g), with g |c|^2 for the cubic plane wave
            g = Fraction(eq.gamma) * (1 if kind is EquationKind.REDUCED_NLS else cr * cr + ci * ci)
            lam = (-2 * ar * ai, ar * ar - ai * ai + g)
        modes.append(((cr, ci), lam, a))
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
    """Tail bound for a truncated exponential series.

    Bounds |amplitude * (e^{ibt} - sum_{n<=order} (ibt)^n/n!)| by

        amplitude * |bt|^(order+1) / (order+1)! * e^{|bt|},

    the standard remainder estimate for the exponential series.  The power
    and factorial are folded together as a running product of |bt|/k factors
    so large orders cannot overflow; a bound that leaves the double range
    (e^{|bt|} alone does past |bt| ~ 709) raises EvaluationOverflowError.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise InvalidInputError(f"order must be a nonnegative integer, got {order!r}")
    if not (math.isfinite(b) and math.isfinite(amplitude)):
        raise InvalidInputError(f"b and amplitude must be finite, got {(b, amplitude)!r}")
    if not (math.isfinite(t) and t >= 0):
        raise InvalidInputError(f"t must be finite and nonnegative, got {t!r}")
    z = abs(b * t)
    try:
        tail = amplitude * math.exp(z)
    except OverflowError as exc:
        raise EvaluationOverflowError(f"tail bound overflows: e^{z!r}") from exc
    for k in range(1, order + 2):
        tail *= z / k
    if not math.isfinite(tail):
        raise EvaluationOverflowError(
            f"tail bound is not finite for |bt|={z!r}, amplitude={amplitude!r}, order={order}"
        )
    return tail
