"""Exact algebra over finite complex-exponential sums and their t-polynomials.

``ExpSum`` is a finite sum  sum_j c_j * exp(a_j * x)  with complex
coefficients c_j and exponents a_j.  The family is closed under linear
combination, products, x-differentiation and complex conjugation, so every
quantity the series recursions in this package produce stays inside it and is
represented exactly (up to float rounding of the coefficients).

``TimePoly`` is a polynomial in a real time variable t whose coefficients are
``ExpSum`` values: the form in which series terms are stored, evaluated and
serialized.  The recursions themselves run on ``ExpSum`` coefficients.

Canonical form, maintained by the constructors:

* exponents that agree componentwise to ``ALPHA_MATCH_TOL`` denote the same
  exponential and are merged by adding coefficients (exponents only arise
  from user input and exact closure operations, so near-collisions indicate
  intended equality);
* coefficients below ``COEFF_DROP_REL`` times the largest magnitude in the
  sum are rounding noise from repeated products and are dropped, as are exact
  zeros (the cubic series is built exactly in ``methods``; only its rounded
  terms pass through here);
* terms are sorted by ``(Re a, Im a)``, which makes serialization and CSV
  output deterministic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import EvaluationOverflowError, InvalidInputError

#: exponents closer than this, componentwise, denote the same exponential
ALPHA_MATCH_TOL = 1e-12

#: relative coefficient magnitude below which a term is rounding noise
COEFF_DROP_REL = 1e-15

#: hard cap on polynomial degree in t, and hence on series truncation order;
#: (b*t)^n/n! is far below double rounding well before n = 64 at desk scale
MAX_T_DEGREE = 64


def _require_finite(z, what: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidInputError(f"{what} must be finite, got {z!r}")
    return z


def _canonical(raw) -> tuple[tuple[complex, complex], ...]:
    pairs = []
    for coeff, alpha in raw:
        c = _require_finite(coeff, "coefficient")
        a = _require_finite(alpha, "exponent")
        pairs.append((a, c))
    pairs.sort(key=lambda p: (p[0].real, p[0].imag))
    merged: list[tuple[complex, complex]] = []
    for a, c in pairs:
        if merged:
            ra, rc = merged[-1]
            if (
                abs(a.real - ra.real) <= ALPHA_MATCH_TOL
                and abs(a.imag - ra.imag) <= ALPHA_MATCH_TOL
            ):
                merged[-1] = (ra, rc + c)
                continue
        merged.append((a, c))
    cmax = max((abs(c) for _, c in merged), default=0.0)
    if cmax == 0.0:
        return ()
    floor = COEFF_DROP_REL * cmax
    return tuple((c, a) for a, c in merged if abs(c) >= floor)


@dataclass(frozen=True)
class ExpSum:
    """Canonical finite sum of terms ``coeff * exp(alpha * x)``.

    ``terms`` is a tuple of ``(coeff, alpha)`` pairs; any iterable of such
    pairs may be passed to the constructor, which canonicalizes it (merges
    matching exponents, drops negligible coefficients, sorts).
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
        if isinstance(other, ExpSum):
            return ExpSum(
                tuple(
                    (ca * cb, aa + ab)
                    for ca, aa in self.terms
                    for cb, ab in other.terms
                )
            )
        s = _require_finite(other, "scalar factor")
        return ExpSum(tuple((c * s, a) for c, a in self.terms))

    __rmul__ = __mul__

    def conj(self) -> "ExpSum":
        """Complex conjugate; maps (c, a) to (conj(c), conj(a))."""
        return ExpSum(tuple((c.conjugate(), a.conjugate()) for c, a in self.terms))

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

    @classmethod
    def from_json(cls, obj) -> "ExpSum":
        try:
            terms = tuple(
                (complex(d["re_c"], d["im_c"]), complex(d["re_a"], d["im_a"]))
                for d in obj
            )
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed serialized exponential sum: {exc}") from exc
        return cls(terms)


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

    @classmethod
    def from_json(cls, obj) -> "TimePoly":
        return cls(tuple(ExpSum.from_json(entry) for entry in obj))


def tpoly_diff(p: TimePoly, q: TimePoly) -> float:
    """Largest coefficient magnitude of ``p - q`` across all t-powers."""
    n = max(len(p.coeffs), len(q.coeffs))
    return max((expsum_diff(p.coeff(k), q.coeff(k)) for k in range(n)), default=0.0)
