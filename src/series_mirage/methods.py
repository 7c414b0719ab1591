"""Decomposition-series generators for three evolution equations.

Equations (g is the cubic coupling):

    LINEAR        u_t + i u_xx = 0
    REDUCED_NLS   i u_t + u_xx + g u = 0           (constant-coefficient linear)
    FULL_NLS      i u_t + u_xx + g |u|^2 u = 0     (cubic)

Each generator expands u = sum_n u_n, u_0 the initial condition, and every
term is a t-monomial u_n = w_n(x) t^n.  Homotopy perturbation
(:func:`hpm_series`: u_{n+1} = I[F(u_n)] for u_t = F(u), I the time integral
from 0), Adomian decomposition (:func:`adm_series`: the same, with the cubic
term expanded in Adomian polynomials, whose t^n coefficient is
a_n = sum_{i+j+k=n} w_i w_j conj(w_k)) and the plain Taylor series
(:func:`taylor_series`: t^n/n! (d/dt)^n u|_0, the equation substituted for
every time derivative) all give

    w_{n+1} = -i w_n'' / (n+1)               (LINEAR)
    w_{n+1} =  i (w_n'' + g w_n) / (n+1)     (REDUCED_NLS)
    w_{n+1} =  i (w_n'' + g a_n) / (n+1)     (FULL_NLS, ADM only)

so the three are labels on one exact recursion, checked independently by
:func:`~series_mirage.exact.closed_form_terms`.  Every float is a dyadic
rational: with u0 = sum_K V_0[K]/D e^{K x / 2^E} (K a Gaussian integer, D
and 2^E powers of two), g = g_num/g_den (0/1 for LINEAR), lin = g_den D^2
(g_den for the linear kinds) and q = 4^E lin, the scaled coefficients
V_n = q^n n! D w_n are Gaussian integers on the lattice modes K with

    V_{n+1} = s i (lin K^2 V_n + 4^E g_num X_n)      (s = -1 for LINEAR, else 1)
    X_n     = V_n                                      (REDUCED_NLS)
    X_n     = sum_m C(n,m) B_m conj(V_{n-m}),  B_m = sum_i C(m,i) V_i V_{m-i}
                                                       (FULL_NLS)

(:func:`adomian_cubic` forms the FULL_NLS X_n, caching the B_m across orders).
Modes merge by key equality and nothing is dropped inside the recursion;
each coefficient of w_n is rounded to float once, correctly, into a canonical
:class:`~series_mirage.expsum.ExpSum`.  A coefficient that leaves the double
range raises :class:`~series_mirage.errors.EvaluationOverflowError` naming
the method and term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationOverflowError, InvalidInputError, UnsupportedEquationError
from .expsum import MAX_T_DEGREE, ExpSum, TimePoly, tpoly_diff


class EquationKind(enum.Enum):
    LINEAR = "linear"
    REDUCED_NLS = "reduced-nls"
    FULL_NLS = "full-nls"


@dataclass(frozen=True)
class Equation:
    """An equation tag: the kind plus the cubic coupling g for the NLS kinds."""

    kind: EquationKind
    gamma: float | None = None

    def __post_init__(self):
        if self.kind is EquationKind.LINEAR:
            if self.gamma is not None:
                raise InvalidInputError("the linear equation carries no coupling g")
        else:
            if self.gamma is None or not math.isfinite(self.gamma):
                raise InvalidInputError(
                    f"{self.kind.value} requires a finite coupling g, got {self.gamma!r}"
                )

    @classmethod
    def linear(cls) -> "Equation":
        return cls(EquationKind.LINEAR)

    @classmethod
    def reduced_nls(cls, gamma: float) -> "Equation":
        return cls(EquationKind.REDUCED_NLS, float(gamma))

    @classmethod
    def full_nls(cls, gamma: float) -> "Equation":
        return cls(EquationKind.FULL_NLS, float(gamma))

    def describe(self) -> str:
        if self.kind is EquationKind.LINEAR:
            return "linear"
        return f"{self.kind.value}(g={self.gamma!r})"


class SeriesMethod(enum.Enum):
    HPM = "hpm"
    ADM = "adm"
    TAYLOR = "taylor"


@dataclass(frozen=True)
class SeriesSolution:
    """A truncated decomposition series: terms u_0..u_N plus provenance tags."""

    terms: tuple[TimePoly, ...]
    equation: Equation
    method: SeriesMethod

    @property
    def order(self) -> int:
        return len(self.terms) - 1


def _check_order(n, hi: int = MAX_T_DEGREE, what: str = "series order", lo: int = 0) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or not lo <= n <= hi:
        raise InvalidInputError(f"{what} must be an integer in [{lo}, {hi}], got {n!r}")


def _recursion(u0: ExpSum, eq: Equation, order: int, method: SeriesMethod) -> SeriesSolution:
    # the exact Gaussian-integer recursion of the module docstring
    _check_order(order)
    cubic = eq.kind is EquationKind.FULL_NLS
    if cubic and method is not SeriesMethod.ADM:
        raise UnsupportedEquationError(
            f"{method.value}_series covers the linear and reduced equations only; "
            "use adm_series for the full cubic equation"
        )
    ratios = [
        (c.real.as_integer_ratio(), c.imag.as_integer_ratio(),
         a.real.as_integer_ratio(), a.imag.as_integer_ratio())
        for c, a in u0.terms
    ]
    # every denominator is a power of two, so the largest is a common one
    d = max((r[1] for rs in ratios for r in rs[:2]), default=1)
    scale = max((r[1] for rs in ratios for r in rs[2:]), default=1)  # 2^E
    v0 = {
        (kr * (scale // kd), ki * (scale // ke)): (cr * (d // cd), ci * (d // ce))
        for (cr, cd), (ci, ce), (kr, kd), (ki, ke) in ratios
    }
    if eq.kind is EquationKind.LINEAR:
        g_num, g_den, sign = 0, 1, -1
    else:
        (g_num, g_den), sign = eq.gamma.as_integer_ratio(), 1
    # the Adomian sum carries D^3 against the D of V_n, hence the D^2
    lin = g_den * d * d if cubic else g_den
    g4, q = scale * scale * g_num, scale * scale * lin
    vs, pairs, ws, den = [v0], [], [u0], d
    for n in range(order):
        v = {}
        for (kr, ki), (re, im) in vs[n].items():
            # lin K^2 V for K = kr + i ki
            sr, si = lin * (kr * kr - ki * ki), lin * 2 * kr * ki
            v[kr, ki] = (sr * re - si * im, sr * im + si * re)
        for key, (re, im) in (adomian_cubic(vs, pairs) if cubic else vs[n]).items():
            r0, i0 = v.get(key, (0, 0))
            v[key] = (r0 + g4 * re, i0 + g4 * im)
        # times s i, dropping the modes that cancelled exactly
        v = {key: (-sign * im, sign * re) for key, (re, im) in v.items() if re or im}
        vs.append(v)
        den *= q * (n + 1)
        try:
            ws.append(ExpSum(tuple(
                (complex(re / den, im / den), complex(kr / scale, ki / scale))
                for (kr, ki), (re, im) in v.items()
            )))
        except (InvalidInputError, OverflowError) as exc:  # u0 and g are finite
            raise EvaluationOverflowError(
                f"{method.value} series term {n + 1} leaves the float range: {exc}"
            ) from exc
    terms = tuple(TimePoly.from_expsum(w, n) for n, w in enumerate(ws))
    return SeriesSolution(terms, eq, method)


def hpm_series(u0: ExpSum, eq: Equation, order: int) -> SeriesSolution:
    """Homotopy-perturbation series u_0..u_order for LINEAR or REDUCED_NLS.

    The Adomian generator owns the genuinely cubic equation.
    """
    return _recursion(u0, eq, order, SeriesMethod.HPM)


def adm_series(u0: ExpSum, eq: Equation, order: int) -> SeriesSolution:
    """Adomian decomposition series u_0..u_order for any equation kind.

    For FULL_NLS the recursion calls :func:`adomian_cubic` once per order.
    """
    return _recursion(u0, eq, order, SeriesMethod.ADM)


def taylor_series(u0: ExpSum, eq: Equation, order: int) -> SeriesSolution:
    """Direct Taylor expansion u = sum_n t^n/n! (d/dt)^n u|_0, LINEAR or REDUCED_NLS.

    Substituting the equation, (d/dt)^n u|_0 = (-i d_xx)^n u0 for LINEAR and
    (i(d_xx+g))^n u0 for REDUCED_NLS: the same recursion, and the same
    terms, as :func:`hpm_series` and :func:`adm_series`.
    """
    return _recursion(u0, eq, order, SeriesMethod.TAYLOR)


_Lattice = dict[tuple[int, int], tuple[int, int]]


def _mul_add(acc: _Lattice, left: _Lattice, right: _Lattice, weight: int, conj: bool) -> None:
    """acc += weight * left * right, or weight * left * conj(right) if conj."""
    sign = -1 if conj else 1
    # Gauss's three-multiplication product: with y = yr + i yi and
    # k = yr (xr + xi), x y = (k - xi (yr + yi)) + i (k + xr (yi - yr))
    right = [
        (br, sign * bi, yr, yr + sign * yi, sign * yi - yr)
        for (br, bi), (yr, yi) in right.items()
    ]
    get = acc.get
    for (ar, ai), (xr, xi) in left.items():
        xr, xi = weight * xr, weight * xi
        xs = xr + xi
        for br, bi, yr, y_sum, y_diff in right:
            k = yr * xs
            key = (ar + br, ai + bi)
            re, im = get(key, (0, 0))
            acc[key] = (re + k - xi * y_sum, im + k + xr * y_diff)


def adomian_cubic(vs: list[_Lattice], pairs: list[_Lattice] | None = None) -> _Lattice:
    """Scaled Adomian polynomial of N(u) = u^2 conj(u), exactly.

    ``vs`` holds the scaled coefficients V_0..V_n of the terms
    u_k = V_k t^k / (q^k k! D) as lattice dicts mapping a Gaussian-integer
    mode K (the exponent times 2^E, as ``(re, im)``) to a Gaussian-integer
    coefficient ``(re, im)``.  Returns n! q^n D^3 times the t^n coefficient
    of A_n, the Cauchy sum sum_{i+j+k=n} w_i w_j conj(w_k), as

        sum_m C(n,m) B_m conj(V_{n-m}),   B_m = sum_i C(m,i) V_i V_{m-i}.

    ``pairs`` caches the pair sums across orders: if given it holds
    B_0..B_{k-1} of the same ``vs`` for some k <= n + 1 and is extended in
    place to B_n.  The grouping by pairs is exact only because the
    arithmetic is; for a polynomial nonlinearity this coincides with the
    classical derivative definition of the Adomian polynomials.
    """
    if not vs:
        raise InvalidInputError("adomian_cubic requires at least V_0")
    n = len(vs) - 1
    pairs = [] if pairs is None else pairs
    for m in range(len(pairs), n + 1):
        b: _Lattice = {}
        # C(m,i) V_i V_{m-i} is symmetric in i <-> m-i: form half of it twice
        for i in range((m + 1) // 2):
            _mul_add(b, vs[i], vs[m - i], 2 * math.comb(m, i), False)
        if m % 2 == 0:
            _mul_add(b, vs[m // 2], vs[m // 2], math.comb(m, m // 2), False)
        pairs.append(b)
    total: _Lattice = {}
    for m in range(n + 1):
        _mul_add(total, pairs[m], vs[n - m], math.comb(n, m), True)
    return total


def _coefficient_array(sol: SeriesSolution, order: int, xs) -> np.ndarray:
    """(power, term, x) values of the t-power coefficients of u_0..u_order,
    highest power first; each nonzero one is evaluated once per x, x by x."""
    terms = sol.terms[: order + 1]
    deg = max(len(p.coeffs) for p in terms)
    slots = [(row, j, c) for j, p in enumerate(terms)
             for row, c in enumerate(reversed(p.coeffs), deg - len(p.coeffs)) if not c.is_zero]
    values = np.zeros((deg, len(terms), len(xs)), complex)
    for i, x in enumerate(xs):
        for row, j, c in slots:
            values[row, j, i] = c.eval(x)
    return values


def _partial_sum_array(values: np.ndarray, t: float) -> np.ndarray:
    """(term, x) partial sums at t: Horner over the powers, then a sequential
    running sum over the terms, so each cell does the float operations of
    :meth:`TimePoly.eval` summed term by term.  Overflow gives inf or nan."""
    if not math.isfinite(t):
        raise InvalidInputError(f"evaluation time must be finite, got {t!r}")
    v = np.zeros(values.shape[1:], complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for row in values:
            v = v * t + row
        return np.add.accumulate(v, axis=0)


def partial_sum_eval(sol: SeriesSolution, order: int, x: float, t: float) -> complex:
    """Value of the partial sum u_0 + ... + u_order at (x, t)."""
    _check_order(order, sol.order, "partial-sum order")
    return complex(_partial_sum_array(_coefficient_array(sol, order, [x]), t)[-1, 0])


def series_residual(sol: SeriesSolution, order: int) -> TimePoly:
    """Apply the PDE operator to the order-N partial sum, exactly.

    Returns d_t S + i d_xx S for LINEAR and i d_t S + d_xx S + g S for
    REDUCED_NLS, with S the partial sum through ``order``.  The recursion
    telescopes the time derivatives, so the result equals the spatial part
    of the operator applied to the last kept term alone and its lowest
    t-power is ``order``.
    """
    if sol.equation.kind is EquationKind.FULL_NLS:
        raise UnsupportedEquationError(
            "series_residual covers the linear and reduced equations only"
        )
    _check_order(order, sol.order, "residual order", lo=1)
    # term k is w_k t^k; pad with w_{order+1} = 0 past the truncation
    ws = [sol.terms[k].coeff(k) for k in range(order + 1)] + [ExpSum.zero()]
    out = []
    for k in range(order + 1):
        d_t = ws[k + 1] * float(k + 1)  # t^k coefficient of d_t S
        if sol.equation.kind is EquationKind.LINEAR:
            out.append(d_t + ws[k].dx(2) * 1j)
        else:
            out.append(d_t * 1j + ws[k].dx(2) + sol.equation.gamma * ws[k])
    return TimePoly(tuple(out))


def series_max_term_diff(a: SeriesSolution, b: SeriesSolution) -> float:
    """Largest coefficient difference between two series over their common terms."""
    return max(tpoly_diff(p, q) for p, q in zip(a.terms, b.terms))
