"""Periodic-grid spectral machinery: exact free propagation, a split-step
reference solver for the cubic equation, and norm diagnostics.

The domain is [0, L) sampled at n equispaced points with n a power of two,
so every plane wave e^{ikx} with integer k*L/(2*pi) is represented exactly
and the discrete Fourier transform diagonalizes d_xx.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, EvaluationOverflowError, InvalidInputError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, length) with n points, n a power of two."""

    length: float
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 8 or self.n & (self.n - 1):
            raise InvalidInputError(
                f"grid size must be a power of two >= 8, got {self.n!r}"
            )
        if not (isinstance(self.length, (int, float)) and math.isfinite(self.length) and self.length > 0):
            raise InvalidInputError(f"grid length must be positive, got {self.length!r}")
        object.__setattr__(self, "length", float(self.length))

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Signed angular wavenumbers, integer multiples of 2*pi/length."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.length / self.n)


@dataclass(frozen=True, eq=False)
class GridState:
    """Complex samples of u on a grid at a fixed time."""

    grid: Grid
    values: np.ndarray
    time: float

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n,):
            raise InvalidInputError(
                f"state has {v.shape} values for a grid of {self.grid.n} points"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("state values must be finite")
        if not math.isfinite(self.time):
            raise InvalidInputError(f"state time must be finite, got {self.time!r}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "time", float(self.time))


def sample(grid: Grid, f: Callable[[float], complex]) -> GridState:
    """Pointwise samples of f on the grid, at time 0."""
    vals = np.empty(grid.n, dtype=np.complex128)
    for j, x in enumerate(grid.points):
        v = complex(f(float(x)))
        if not cmath.isfinite(v):
            raise InvalidInputError(f"non-finite sample {v!r} at grid point x={float(x)!r}")
        vals[j] = v
    return GridState(grid, vals, 0.0)


def spectral_dxx(state: GridState) -> GridState:
    """Second x-derivative: multiply Fourier mode k by -k^2."""
    k = state.grid.wavenumbers
    vhat = np.fft.fft(state.values)
    return GridState(state.grid, np.fft.ifft(vhat * (-(k * k))), state.time)


def free_propagate_spectral(state: GridState, t: float) -> GridState:
    """Exact semi-discrete evolution of u_t + i u_xx = 0 for a time t.

    Mode e^{ikx} evolves as e^{ikx - i(ik)^2 t} = e^{ikx + i k^2 t}, so each
    Fourier coefficient is multiplied by the unit factor e^{+i k^2 t}; the
    map is unitary and exact for anything the grid represents.  A time so
    large that k^2 t leaves the double range raises EvaluationOverflowError.
    """
    if not math.isfinite(t):
        raise InvalidInputError(f"propagation time must be finite, got {t!r}")
    k = state.grid.wavenumbers
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(1j * (k * k) * t)
    if not np.all(np.isfinite(phase)):
        raise EvaluationOverflowError(f"phase k^2 t overflows at t={t!r}")
    vhat = np.fft.fft(state.values)
    return GridState(state.grid, np.fft.ifft(vhat * phase), state.time + t)


def split_step_nls(state: GridState, gamma: float, dt: float, steps: int) -> GridState:
    """Strang split-step reference solver for i u_t + u_xx + g |u|^2 u = 0.

    Each step applies a half nonlinear phase u <- u * e^{i g |u|^2 dt/2}, a
    full linear step, and another half nonlinear phase; the scheme is
    second-order accurate in dt.  The linear substep advances the flow of
    i u_t + u_xx = 0, i.e. mode phase e^{-i k^2 dt} -- the time-reverse of
    the convention of :func:`free_propagate_spectral`, whose equation is
    u_t + i u_xx = 0.
    """
    if not (isinstance(gamma, (int, float)) and math.isfinite(gamma)):
        raise InvalidInputError(f"coupling must be finite, got {gamma!r}")
    if not dt > 0:
        raise InvalidInputError(f"time step must be positive, got {dt!r}")
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise InvalidInputError(f"step count must be a positive integer, got {steps!r}")
    k = state.grid.wavenumbers
    half = 0.5 * gamma * dt
    v = state.values.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        lin_phase = np.exp(-1j * (k * k) * dt)
        for i in range(steps):
            v = v * np.exp(1j * half * np.abs(v) ** 2)
            v = np.fft.ifft(np.fft.fft(v) * lin_phase)
            v = v * np.exp(1j * half * np.abs(v) ** 2)
            if not np.all(np.isfinite(v)):
                raise DivergenceError(f"non-finite field after step {i} of {steps}")
    return GridState(state.grid, v, state.time + steps * dt)


def l2_norm(state: GridState) -> float:
    """Periodic trapezoidal quadrature of the L2 norm over the domain."""
    w = state.grid.length / state.grid.n
    return float(np.sqrt(np.sum(np.abs(state.values) ** 2) * w))


def sup_error(a: GridState, b: GridState) -> float:
    """Maximum pointwise difference between two states on the same grid."""
    if a.grid != b.grid:
        raise InvalidInputError(
            f"states live on different grids: {a.grid!r} vs {b.grid!r}"
        )
    return float(np.max(np.abs(a.values - b.values)))


def gaussian_packet(center: float, sigma: float) -> Callable[[float], complex]:
    """A Gaussian with unit L2 norm on the line, for square-integrable runs.

    Returns x -> (2 pi sigma^2)^(-1/4) exp(-(x-center)^2 / (4 sigma^2)).
    """
    if not (math.isfinite(center) and math.isfinite(sigma) and sigma > 0):
        raise InvalidInputError(
            f"packet parameters must be finite with sigma > 0, got {(center, sigma)!r}"
        )
    if not sigma * sigma:
        raise EvaluationOverflowError(f"sigma^2 underflows to 0 for sigma={sigma!r}")
    norm = (2.0 * math.pi * sigma * sigma) ** -0.25
    denom = 4.0 * sigma * sigma

    def f(x: float) -> complex:
        return complex(norm * math.exp(-((x - center) ** 2) / denom))

    return f
