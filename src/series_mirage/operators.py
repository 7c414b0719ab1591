"""Finite-dimensional Hermitian evolution u_t + i A u = 0.

The formal solution u = e^{-itA} u0 is computed two ways: a truncated
operator-Taylor series (iterated applications of A with incremental scalar
factors) and the exact eigenfunction expansion u = sum_k c_k e^{-it a_k} f_k.
Operators are restricted to ones whose eigenpairs are known analytically --
the Dirichlet second-difference matrix and diagonal operators -- which is
enough to exercise the series against the exact flow without embedding an
eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationOverflowError, InvalidInputError
from .expsum import MAX_T_DEGREE

_EIGEN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """A Hermitian operator with its full set of real orthonormal eigenpairs.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``;
    both are validated against ``apply`` at construction.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InvalidInputError(f"operator dimension must be >= 1, got {self.dim!r}")
        a = np.array(self.eigenvalues, dtype=np.float64)
        v = np.array(self.eigenvectors, dtype=np.float64)
        if a.shape != (self.dim,) or v.shape != (self.dim, self.dim):
            raise InvalidInputError(
                f"eigenpair shapes {a.shape}, {v.shape} do not match dim {self.dim}"
            )
        ortho = np.max(np.abs(v.T @ v - np.eye(self.dim)))
        if ortho > _EIGEN_TOL:
            raise InvalidInputError(
                f"eigenvectors are not orthonormal (max deviation {ortho:.3e})"
            )
        # rounding in apply(f) grows with the spectral radius rho
        tol = _EIGEN_TOL * max(1.0, float(np.max(np.abs(a))))
        for k in range(self.dim):
            res = np.max(np.abs(self.apply(v[:, k]) - a[k] * v[:, k]))
            if res > tol:
                raise InvalidInputError(
                    f"stored eigenpair k={k} fails apply(f)=a*f (residual {res:.3e})"
                )
        a.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", a)
        object.__setattr__(self, "eigenvectors", v)


def laplacian_dirichlet(n: int, h: float) -> OperatorSpec:
    """Second-difference matrix on n interior points with spacing h.

    The matrix has -2/h^2 on the diagonal and 1/h^2 off it; its eigenpairs
    are the discrete sine modes

        a_k = -(2 - 2 cos(k pi/(n+1))) / h^2,
        f_k(j) = sqrt(2/(n+1)) sin(j k pi/(n+1)),      j, k = 1..n,

    all eigenvalues negative, matching the continuum d_xx it discretizes.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidInputError(f"dimension must be an integer >= 2, got {n!r}")
    if not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0):
        raise InvalidInputError(f"spacing must be positive, got {h!r}")
    h2 = float(h) * float(h)
    inv_h2 = 1.0 / h2 if h2 else math.inf
    if not math.isfinite(inv_h2):
        raise EvaluationOverflowError(f"1/h^2 leaves the float range for spacing h={h!r}")
    k = np.arange(1, n + 1)
    eigenvalues = -(2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) * inv_h2
    j = np.arange(1, n + 1)
    eigenvectors = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, k) * (np.pi / (n + 1)))

    def apply(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        out = -2.0 * v.astype(np.complex128 if np.iscomplexobj(v) else np.float64)
        out[:-1] += v[1:]
        out[1:] += v[:-1]
        return out * inv_h2

    return OperatorSpec(n, apply, eigenvalues, eigenvectors)


def diagonal_operator(values) -> OperatorSpec:
    """Diagonal Hermitian operator with the given real diagonal entries."""
    d = np.array(values, dtype=np.float64)
    if d.ndim != 1 or d.size < 1 or not np.all(np.isfinite(d)):
        raise InvalidInputError("diagonal entries must be a finite 1-d real array")
    n = int(d.size)
    return OperatorSpec(n, lambda v: np.asarray(v) * d, d, np.eye(n))


def _as_state(op: OperatorSpec, u0) -> np.ndarray:
    v = np.asarray(u0, dtype=np.complex128)
    if v.shape != (op.dim,):
        raise InvalidInputError(
            f"state has shape {v.shape}, expected ({op.dim},)"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("state components must be finite")
    return v


def series_evolve(op: OperatorSpec, u0, t: float, order: int) -> np.ndarray:
    """Truncated series sum_{n<=order} (-it)^n/n! A^n u0.

    Built by iterated application of A with the scalar (-it)/n folded in at
    step n, so neither the powers nor the factorials are formed explicitly.
    """
    if not isinstance(order, int) or isinstance(order, bool) or not 0 <= order <= MAX_T_DEGREE:
        raise InvalidInputError(
            f"series order must be an integer in [0, {MAX_T_DEGREE}], got {order!r}"
        )
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise InvalidInputError(f"time must be finite, got {t!r}")
    term = _as_state(op, u0).copy()
    acc = term.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(1, order + 1):
            term = np.asarray(op.apply(term), dtype=np.complex128) * ((-1j * t) / n)
            if not np.all(np.isfinite(term)):
                raise EvaluationOverflowError(f"series accumulation overflowed at n={n}")
            acc += term
    return acc


def eigen_project(op: OperatorSpec, u0) -> np.ndarray:
    """Expansion coefficients c_k = <f_k, u0> (conjugate-linear in f_k)."""
    return op.eigenvectors.conj().T @ _as_state(op, u0)


def exact_evolve(op: OperatorSpec, u0, t: float) -> np.ndarray:
    """Exact unitary evolution via the eigenexpansion sum_k c_k e^{-it a_k} f_k."""
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise InvalidInputError(f"time must be finite, got {t!r}")
    c = eigen_project(op, u0)
    return op.eigenvectors @ (np.exp(-1j * t * op.eigenvalues) * c)
