"""Experiment driver: reproduces each worked example and check from a config
file or flags and writes deterministic CSV/JSON artifacts.

Experiments:

* ``example1``      linear equation, u0 = 1 + 2cosh(2x)
* ``example2``      linear equation, u0 = exp(3ix)
* ``example3``      cubic equation, u0 = exp(ix), g = +2
* ``example4``      cubic equation, u0 = exp(ix), g = -2
* ``operator``      truncated operator series vs exact eigenexpansion
* ``gaussian-free`` spectral free propagation of a square-integrable packet
* ``nls-reference`` split-step cubic solver vs the exact plane wave
* ``classify``      normalizability table for the example initial data

Every parameter is described once, in :data:`PARAMS`; every experiment's
runner and defaults once, in :data:`EXPERIMENTS`.

Exit codes: 0 success, 1 config error, 2 internal cross-check failure,
3 numerical overflow or divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .csvfmt import format_csv
from .diagnostics import (
    ErrorRow,
    ErrorTable,
    NormClass,
    classify_normalizability,
    truncation_error_table,
)
from .errors import (
    DivergenceError,
    EvaluationOverflowError,
    InvalidInputError,
    SeriesMirageError,
    UnsupportedEquationError,
)
from .exact import closed_form_terms, exact_solution, remainder_closed_form
from .expsum import MAX_T_DEGREE, ExpSum, tpoly_diff
from .grid import (
    Grid,
    GridState,
    free_propagate_spectral,
    gaussian_packet,
    l2_norm,
    sample,
    split_step_nls,
    sup_error,
)
from .methods import Equation, adm_series, hpm_series, taylor_series
from .operators import exact_evolve, laplacian_dirichlet, series_evolve


class ConfigError(SeriesMirageError, ValueError):
    """A config file or flag set cannot be resolved into a valid run."""


class CrossCheckError(SeriesMirageError, AssertionError):
    """An internal consistency check between two computation routes failed."""


#: every method must match the closed form to this coefficientwise tolerance or the run aborts
CROSS_CHECK_TOL = 1e-12

#: largest ``operator`` size; laplacian_dirichlet builds dense n x n arrays (165 MiB at 2048)
MAX_OPERATOR_N = 2048

ENV_OUT = "SERIES_MIRAGE_OUT"
DEFAULT_OUT = "series-mirage-out"

_EX1_U0 = ExpSum(((1, 0), (1, 2), (1, -2)))  # 1 + 2cosh(2x)
_EX2_U0 = ExpSum.single(1, 3j)  # exp(3ix)
_EX34_U0 = ExpSum.single(1, 1j)  # exp(ix)


@dataclass(frozen=True)
class Param:
    """One run parameter: its type, allowed values and flag spellings.

    A number must be finite, not a boolean, and lie in [lo, hi], with lo
    excluded when ``lo_open``; a string must be one of ``choices``.  An empty
    ``flags`` means the key can only be set from a config file.
    """

    key: str
    type: type
    flags: tuple[str, ...] = ()
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    choices: tuple[str, ...] = ()

    @property
    def rule(self) -> str:
        if self.choices:
            return "one of " + ", ".join(self.choices)
        rule = "an integer" if self.type is int else "a finite number"
        if self.hi < math.inf:
            return f"{rule} in {'(' if self.lo_open else '['}{self.lo}, {self.hi}]"
        if self.lo > -math.inf:
            return f"{rule} {'>' if self.lo_open else '>='} {self.lo}"
        return rule

    def coerce(self, value):
        """Convert a flag string or config-file value, or raise ConfigError."""
        try:
            v = self.type(value)
            if self.choices:
                ok = v in self.choices
            else:
                # int() truncates 7.5 and int()/float() accept booleans: reject both
                exact = v == float(value) if self.type is int else math.isfinite(v)
                in_range = self.lo < v <= self.hi or (v == self.lo and not self.lo_open)
                ok = exact and in_range and not isinstance(value, bool)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"{self.key} must be {self.rule}, got {value!r}")
        return v


PARAMS: dict[str, Param] = {p.key: p for p in (
    Param("method", str, ("--method",), choices=("hpm", "adm", "taylor", "all")),
    Param("order", int, ("--order",), lo=0, hi=MAX_T_DEGREE),
    Param("gamma", float, ("--gamma",)),
    # grid experiments also need a power of two >= 8, which Grid enforces
    Param("grid_n", int, ("--grid-n", "--n"), lo=2),
    Param("grid_L", float, ("--grid-L", "--L"), lo=0, lo_open=True),
    Param("t0", float, ("--t0",)),
    Param("t1", float, ("--t1", "--t")),
    Param("t_steps", int, ("--t-steps",), lo=1),
    Param("dt", float, ("--dt",), lo=0, lo_open=True),
    Param("h", float, lo=0, lo_open=True),
    Param("sigma", float, lo=0, lo_open=True),
    Param("x0", float),
    Param("x1", float),
    Param("x_steps", int, lo=1),
)}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run: the experiment name, its parameters, output dir."""

    experiment: str
    out: Path
    params: tuple[tuple[str, object], ...]

    def __getitem__(self, key: str):
        return dict(self.params)[key]


def _check_cross_keys(experiment: str, params: dict) -> None:
    """The rules that tie keys together; single-key ranges live in PARAMS."""
    if "t0" in params and params["t1"] < params["t0"]:
        raise ConfigError("t1 must be >= t0")
    if "grid_L" in params:
        try:
            Grid(params["grid_L"], params["grid_n"])
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from exc
    if experiment == "operator" and params["grid_n"] > MAX_OPERATOR_N:
        raise ConfigError(f"grid_n must be <= {MAX_OPERATOR_N}, got {params['grid_n']}")
    if experiment == "nls-reference":
        # the sampled plane wave exp(ix) must fit the periodic box exactly
        ratio = params["grid_L"] / (2.0 * math.pi)
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(
                f"grid_L must be a positive integer multiple of 2*pi so the plane "
                f"wave is periodic on the box, got {params['grid_L']}"
            )
        if params["dt"] > params["t1"]:
            raise ConfigError("dt must not exceed t1")
        if params["t_steps"] < 2:
            raise ConfigError(
                f"t_steps must be >= 2 so the checkpoints reach t1, got {params['t_steps']}"
            )


def parse_config(
    experiment: str,
    config_file: str | os.PathLike | None = None,
    overrides: dict | None = None,
    out: str | os.PathLike | None = None,
) -> ExperimentConfig:
    """Resolve defaults, config-file values and flag overrides into a run.

    Flag overrides win over the file, which wins over the defaults.  Keys not
    used by the chosen experiment are rejected with a descriptive error.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    params = dict(EXPERIMENTS[experiment].defaults)
    settings = []  # (source, key, value); flags come last so they win
    if config_file is not None:
        try:
            raw = json.loads(Path(config_file).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_file}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_file} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        file_experiment = raw.pop("experiment", experiment)
        if file_experiment != experiment:
            raise ConfigError(
                f"config file is for experiment {file_experiment!r}, not {experiment!r}"
            )
        file_out = raw.pop("out", None)
        if out is None and file_out is not None:
            out = str(file_out)
        settings += [(f"config key '{key}'", key, value) for key, value in raw.items()]
    settings += [
        (f"flag --{key.replace('_', '-')}", key, value)
        for key, value in (overrides or {}).items()
        if value is not None
    ]
    for source, key, value in settings:
        if key not in params:
            raise ConfigError(f"{source} is unknown or not used by experiment {experiment}")
        params[key] = PARAMS[key].coerce(value)
    _check_cross_keys(experiment, params)
    out_dir = Path(out) if out is not None else Path(
        os.environ.get(ENV_OUT, DEFAULT_OUT)
    )
    return ExperimentConfig(experiment, out_dir, tuple(sorted(params.items())))


def _linspace(a: float, b: float, n: int) -> list[float]:
    if n == 1:
        return [a]
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _write(out: Path, name: str, text: str) -> None:
    path = out / name
    try:
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _terms_csv(solutions: dict) -> str:
    return format_csv(
        ("method", "term", "t_power", "re_coeff", "im_coeff", "re_alpha", "im_alpha"),
        (
            (name, n, p, c.real, c.imag, a.real, a.imag)
            for name, sol in solutions.items()
            for n, poly in enumerate(sol.terms)
            for p, coeff in enumerate(poly.coeffs)
            for c, a in coeff.terms
        ),
    )


def _grid_state_csv(state: GridState) -> str:
    # scalar abs: numpy's vectorised abs can differ in the last bit
    return format_csv(
        ("x", "re_u", "im_u", "abs_u"),
        ((x, z.real, z.imag, abs(z)) for x, z in zip(state.grid.points, state.values)),
        comment={"L": state.grid.length, "n": state.grid.n, "time": state.time},
    )


def _vector_csv(v: np.ndarray) -> str:
    return format_csv(("index", "re", "im"), ((i, z.real, z.imag) for i, z in enumerate(v)))


def _run_series(cfg: ExperimentConfig, out: Path) -> list[str]:
    if cfg.experiment in ("example1", "example2"):
        u0 = _EX1_U0 if cfg.experiment == "example1" else _EX2_U0
        eq_for = dict.fromkeys(("hpm", "adm", "taylor"), Equation.linear())
    else:
        gamma = cfg["gamma"]
        u0 = _EX34_U0
        # the Adomian route takes the genuinely cubic equation; the other two
        # take its unit-modulus linear reduction
        eq_for = {
            "hpm": Equation.reduced_nls(gamma),
            "taylor": Equation.reduced_nls(gamma),
            "adm": Equation.full_nls(gamma),
        }
    generators = {"hpm": hpm_series, "adm": adm_series, "taylor": taylor_series}
    methods = ["hpm", "adm", "taylor"] if cfg["method"] == "all" else [cfg["method"]]
    solutions = {m: generators[m](u0, eq_for[m], cfg["order"]) for m in methods}

    # every term of every method must match the exact closed form of its
    # equation to CROSS_CHECK_TOL, both absolutely and relative to the sum of
    # the closed-form term's coefficient magnitudes
    eqs = dict.fromkeys(eq_for[m] for m in solutions)  # one oracle per equation
    oracles = {eq: closed_form_terms(u0, eq, cfg["order"]) for eq in eqs}
    for name, sol in solutions.items():
        for n, (p, q) in enumerate(zip(sol.terms, oracles[eq_for[name]])):
            diff = tpoly_diff(p, q)
            size = sum(abs(c) for w in q.coeffs for c, _ in w.terms)
            if diff > CROSS_CHECK_TOL * min(1.0, size):
                raise CrossCheckError(
                    f"{name} series and the closed form disagree at term {n}: "
                    f"coefficient difference {diff:.3e} exceeds {CROSS_CHECK_TOL} or "
                    f"{CROSS_CHECK_TOL} x {size:.3e}, the term's size"
                )

    preferred = next(m for m in ("adm", "taylor", "hpm") if m in solutions)
    table = truncation_error_table(
        solutions[preferred],
        exact_solution(u0, eq_for[preferred]),
        range(cfg["order"] + 1),
        _linspace(cfg["t0"], cfg["t1"], cfg["t_steps"]),
        _linspace(cfg["x0"], cfg["x1"], cfg["x_steps"]),
    )
    _write(out, "terms.csv", _terms_csv(solutions))
    _write(out, "errors.csv", table.to_csv())
    return ["terms.csv", "errors.csv"]


def _run_operator(cfg: ExperimentConfig, out: Path) -> list[str]:
    n, h, t = cfg["grid_n"], cfg["h"], cfg["t1"]
    op = laplacian_dirichlet(n, h)
    u0 = np.ones(n) / math.sqrt(n)
    exact = exact_evolve(op, u0, t)
    rho = float(np.max(np.abs(op.eigenvalues)))
    rows = []
    for order in range(cfg["order"] + 1):
        approx = series_evolve(op, u0, t, order)
        err = float(np.linalg.norm(approx - exact))
        rows.append(ErrorRow(order, t, err, remainder_closed_form(rho, 1.0, order, t)))
    _write(out, "errors.csv", ErrorTable(tuple(rows)).to_csv())
    _write(out, "state.csv", _vector_csv(exact))
    return ["errors.csv", "state.csv"]


def _run_gaussian_free(cfg: ExperimentConfig, out: Path) -> list[str]:
    grid = Grid(cfg["grid_L"], cfg["grid_n"])
    state0 = sample(grid, gaussian_packet(grid.length / 2.0, cfg["sigma"]))
    if abs((norm := l2_norm(state0)) - 1.0) > 1e-10:  # unresolved, or wider than the box
        raise CrossCheckError(f"the packet with sigma={cfg['sigma']!r} sampled at spacing "
                              f"{grid.length / grid.n!r} has L2 norm {norm!r}, not 1")
    state = free_propagate_spectral(state0, cfg["t1"])
    drift = abs(l2_norm(state) - norm)
    if drift > 1e-10:
        raise CrossCheckError(f"free propagation changed the L2 norm by {drift:.3e}")
    _write(out, "state.csv", _grid_state_csv(state))
    return ["state.csv"]


def _run_nls_reference(cfg: ExperimentConfig, out: Path) -> list[str]:
    grid = Grid(cfg["grid_L"], cfg["grid_n"])
    gamma, dt = cfg["gamma"], cfg["dt"]
    state = sample(grid, lambda x: complex(math.cos(x), math.sin(x)))
    exact = exact_solution(_EX34_U0, Equation.full_nls(gamma))
    checkpoints = _linspace(0.0, cfg["t1"], cfg["t_steps"])
    rows = []
    total_steps = 0
    for prev, now in zip(checkpoints, checkpoints[1:]):
        steps = max(1, round((now - prev) / dt))
        state = split_step_nls(state, gamma, (now - prev) / steps, steps)
        total_steps += steps
        reference = sample(grid, lambda x: exact(x, now))
        rows.append(ErrorRow(total_steps, now, sup_error(state, reference), None))
    _write(out, "errors.csv", ErrorTable(tuple(rows)).to_csv())
    _write(out, "state.csv", _grid_state_csv(state))
    return ["errors.csv", "state.csv"]


def _run_classify(cfg: ExperimentConfig, out: Path) -> list[str]:
    rows = [
        ("example1", "1+2cosh(2x)", classify_normalizability(_EX1_U0)),
        ("example2", "exp(3ix)", classify_normalizability(_EX2_U0)),
        ("example3", "exp(ix)", classify_normalizability(_EX34_U0)),
        ("example4", "exp(ix)", classify_normalizability(_EX34_U0)),
        ("zero", "0", classify_normalizability(ExpSum.zero())),
        # outside the exponential sums: square integrable by construction
        ("gaussian-packet", "unit-norm gaussian (grid family)", NormClass.SQUARE_INTEGRABLE),
    ]
    _write(out, "classification.csv", format_csv(
        ("label", "input", "norm_class"),
        ((label, desc, cls.value) for label, desc, cls in rows),
    ))
    return ["classification.csv"]


@dataclass(frozen=True)
class Experiment:
    """An experiment's runner and the keys it takes, with their defaults."""

    run: Callable[[ExperimentConfig, Path], list[str]]
    defaults: dict


_SERIES_DEFAULTS = {
    "method": "all", "order": 20,
    "t0": 0.0, "t1": 1.0, "t_steps": 11,
    "x0": -1.0, "x1": 1.0, "x_steps": 9,
}

_CUBIC_DEFAULTS = {**_SERIES_DEFAULTS, "t1": 2.0, "t_steps": 21}

EXPERIMENTS: dict[str, Experiment] = {
    "example1": Experiment(_run_series, _SERIES_DEFAULTS),
    "example2": Experiment(_run_series, _SERIES_DEFAULTS),
    "example3": Experiment(_run_series, {**_CUBIC_DEFAULTS, "gamma": 2.0}),
    "example4": Experiment(_run_series, {**_CUBIC_DEFAULTS, "gamma": -2.0}),
    "operator": Experiment(_run_operator, {"order": 40, "grid_n": 16, "h": 1.0, "t1": 1.0}),
    "gaussian-free": Experiment(
        _run_gaussian_free, {"grid_n": 512, "grid_L": 40.0, "sigma": 0.5, "t1": 1.0}
    ),
    "nls-reference": Experiment(_run_nls_reference, {
        "gamma": 2.0, "grid_n": 64, "grid_L": 2.0 * math.pi,
        "dt": 1e-3, "t1": 1.0, "t_steps": 11,
    }),
    "classify": Experiment(_run_classify, {}),
}


def run(cfg: ExperimentConfig) -> list[Path]:
    """Execute one experiment, returning the paths of all files written."""
    out = cfg.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    outputs = EXPERIMENTS[cfg.experiment].run(cfg, out)
    manifest = {
        "experiment": cfg.experiment, "out": str(out), **dict(cfg.params),
        "outputs": sorted(outputs), "version": __version__,
    }
    _write(out, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return [out / "manifest.json"] + [out / name for name in outputs]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; config errors must exit 1
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="series-mirage",
        description="Reproduce the worked series examples and reference checks.",
    )
    p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    for param in PARAMS.values():
        if param.flags:
            p.add_argument(*param.flags, dest=param.key, help=param.rule)
    p.add_argument("--out")
    p.add_argument("--config")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {key: getattr(args, key) for key, p in PARAMS.items() if p.flags}
        cfg = parse_config(args.experiment, args.config, overrides, args.out)
        files = run(cfg)
    except (ConfigError, InvalidInputError, UnsupportedEquationError) as exc:
        print(f"series-mirage: config error: {exc}", file=sys.stderr)
        return 1
    except CrossCheckError as exc:
        print(f"series-mirage: cross-check failed: {exc}", file=sys.stderr)
        return 2
    except (EvaluationOverflowError, DivergenceError) as exc:
        print(f"series-mirage: numerical failure: {exc}", file=sys.stderr)
        return 3
    names = ", ".join(f.name for f in files)
    print(f"{cfg.experiment}: wrote {names} in {cfg.out}")
    return 0
