"""Finite complex-exponential sums: the rounded form of the exact series.

``ExpSum`` is a finite sum  sum_j c_j * exp(a_j * x)  with complex
coefficients c_j and exponents a_j.  Users give initial data in this form,
and the series generators of ``methods`` and ``exact`` build every term
exactly and round each coefficient once into one.  Beyond that it carries
only what the package evaluates and compares: scalar multiples, sums and
differences, x-derivatives, pointwise evaluation and a JSON-ready form.

``TimePoly`` is a polynomial in a real time variable t whose coefficients are
``ExpSum`` values: the form in which series terms are stored, evaluated and
serialized.

Canonical form, maintained by the constructor:

* exponents that are equal as complex numbers are merged by adding their
  coefficients in input order; distinct exponents stay distinct however
  close they are;
* exact zeros are dropped, and nothing else: a coefficient is kept however
  small it is beside the others, so a rounded exact series keeps every mode;
* terms are sorted by ``(Re a, Im a)``, which makes serialization and CSV
  output deterministic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import EvaluationOverflowError, InvalidInputError

#: hard cap on polynomial degree in t, and hence on series truncation order;
#: (b*t)^n/n! is far below double rounding well before n = 64 at desk scale
MAX_T_DEGREE = 64


def _require_finite(z, what: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidInputError(f"{what} must be finite, got {z!r}")
    return z


def _canonical(raw) -> tuple[tuple[complex, complex], ...]:
    merged: dict[complex, complex] = {}
    for coeff, alpha in raw:
        c = _require_finite(coeff, "coefficient")
        a = _require_finite(alpha, "exponent")
        merged[a] = merged[a] + c if a in merged else c
    pairs = sorted(merged.items(), key=lambda p: (p[0].real, p[0].imag))
    return tuple((c, a) for a, c in pairs if c)


@dataclass(frozen=True)
class ExpSum:
    """Canonical finite sum of terms ``coeff * exp(alpha * x)``.

    ``terms`` is a tuple of ``(coeff, alpha)`` pairs; any iterable of such
    pairs may be passed to the constructor, which canonicalizes it: equal
    exponents merge, exact zeros drop, and the terms are sorted.
    """

    terms: tuple[tuple[complex, complex], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical(self.terms))

    @classmethod
    def zero(cls) -> "ExpSum":
        return cls(())

    @classmethod
    def single(cls, coeff, alpha) -> "ExpSum":
        return cls(((coeff, alpha),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, ExpSum):
            return NotImplemented
        return ExpSum(self.terms + other.terms)

    def __neg__(self) -> "ExpSum":
        return ExpSum(tuple((-c, a) for c, a in self.terms))

    def __sub__(self, other):
        if not isinstance(other, ExpSum):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Multiple by a finite scalar; sums are not multiplied together."""
        s = _require_finite(other, "scalar factor")
        return ExpSum(tuple((c * s, a) for c, a in self.terms))

    __rmul__ = __mul__

    def dx(self, order: int = 1) -> "ExpSum":
        """Derivative in x of the given order (0 is the identity)."""
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise InvalidInputError(
                f"derivative order must be a nonnegative integer, got {order!r}"
            )
        if order == 0:
            return self
        return ExpSum(tuple((c * a**order, a) for c, a in self.terms))

    def eval(self, x: float) -> complex:
        """Direct summation of ``c*exp(a*x)`` at real x."""
        if not math.isfinite(x):
            raise InvalidInputError(f"evaluation point must be finite, got {x!r}")
        total = 0j
        for c, a in self.terms:
            try:
                e = cmath.exp(a * x)
            except OverflowError as exc:
                raise EvaluationOverflowError(
                    f"exp overflow in term {c!r}*exp({a!r}*x) at x={x!r}"
                ) from exc
            total += c * e
        if not cmath.isfinite(total):
            raise EvaluationOverflowError(f"non-finite evaluation at x={x!r}")
        return total

    def to_json(self) -> list[dict[str, float]]:
        """JSON-ready form: one ``{re_c, im_c, re_a, im_a}`` object per term."""
        return [
            {"re_c": c.real, "im_c": c.imag, "re_a": a.real, "im_a": a.imag}
            for c, a in self.terms
        ]


def expsum_diff(a: ExpSum, b: ExpSum) -> float:
    """Largest coefficient magnitude of ``a - b`` after exponent alignment."""
    if a == b:  # every coefficient of a - b cancels exactly
        return 0.0
    return max((abs(c) for c, _ in (a - b).terms), default=0.0)


@dataclass(frozen=True)
class TimePoly:
    """Polynomial in t with ExpSum coefficients; ``coeffs[k]`` multiplies t**k.

    The trailing coefficient is nonzero (degree is tight); the zero polynomial
    has an empty coefficient tuple.
    """

    coeffs: tuple[ExpSum, ...] = ()

    def __post_init__(self):
        cs = [c if isinstance(c, ExpSum) else ExpSum(tuple(c)) for c in self.coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        if len(cs) - 1 > MAX_T_DEGREE:
            raise InvalidInputError(
                f"polynomial degree {len(cs) - 1} exceeds the cap {MAX_T_DEGREE}"
            )
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_expsum(cls, s: ExpSum, power: int = 0) -> "TimePoly":
        """The monomial ``s * t**power``."""
        if power < 0:
            raise InvalidInputError(f"power must be nonnegative, got {power!r}")
        return cls((ExpSum.zero(),) * power + (s,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> ExpSum:
        """Coefficient of t**k (zero beyond the degree)."""
        if k < 0:
            raise InvalidInputError(f"power must be nonnegative, got {k!r}")
        return self.coeffs[k] if k < len(self.coeffs) else ExpSum.zero()

    def eval(self, x: float, t: float) -> complex:
        """Horner evaluation in t of the coefficient values at x."""
        if not math.isfinite(t):
            raise InvalidInputError(f"evaluation time must be finite, got {t!r}")
        total = 0j
        for c in reversed(self.coeffs):
            total = total * t + c.eval(x)
        return total

    def to_json(self) -> list[list[dict[str, float]]]:
        """JSON-ready form: one ExpSum array per power of t."""
        return [c.to_json() for c in self.coeffs]


def tpoly_diff(p: TimePoly, q: TimePoly) -> float:
    """Largest coefficient magnitude of ``p - q`` across all t-powers."""
    n = max(len(p.coeffs), len(q.coeffs))
    return max((expsum_diff(p.coeff(k), q.coeff(k)) for k in range(n)), default=0.0)
