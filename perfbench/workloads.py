"""The benchmark's four workloads: seeded inputs, one case, and its check.

A workload turns a seed into a *deck*: a fixed sequence of slots whose shape
(series order, grid size, table size) is the same for every seed, while the
seed draws the data (modes, coefficients, couplings, times).  Every run plays
whole decks in slot order, so two seeds do the same amount of work and only
the values differ.

Each result is checked by a route that does not go through the code being
timed: series coefficients against a Fourier-mode Taylor recursion and a split-step
solve, error tables against a NumPy re-evaluation of the partial sums and the
closed forms, CLI outputs against the first pass, solver states against
analytic solutions and conserved norms.  Checks are untimed.  A result equal
to one already verified for the same slot passes without re-running the
independent route.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import series_mirage as sm
from series_mirage import cli

EPS = float(np.finfo(float).eps)

#: ADM coefficients of a plane wave must match reduced-NLS Taylor to the
#: CLI's own cross-check tolerance
PLANE_COEFF_TOL = cli.CROSS_CHECK_TOL
#: mode-space Taylor recursion vs ADM coefficients, relative to the term's size
MODE_COEFF_RTOL = 1e-8
#: ADM partial sum vs extrapolated split-step at small t, relative to |u0|
SMALL_T_RTOL = 1e-8
#: top-order table error at the first positive time, relative to the data
TABLE_SMALL_T_RTOL = 1e-9
#: rounding allowance per order, in units of eps times the sum of |terms|
ROUNDING_ULPS = 64
#: relative L2 drift allowed for the unitary solvers
NORM_RTOL = 1e-9
#: sup error of the spectrally propagated Gaussian against the closed form
GAUSS_TOL = 1e-8
#: operator series vs eigenexpansion, relative to |u0|
OPERATOR_RTOL = 1e-10


@dataclass
class Case:
    """One unit of user work: ``key`` names its slot in the deck."""

    key: int
    kind: str
    params: dict = field(default_factory=dict)


def _coef(rng: random.Random) -> complex:
    return cmath.rect(rng.uniform(0.5, 1.0), rng.uniform(0.0, 2.0 * math.pi))


def _unit(rng: random.Random) -> complex:
    return cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi))


def _coupling(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.0)


def _linspace(a: float, b: float, n: int) -> list[float]:
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def series_arrays(sol) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """(coefficients, exponents) per term and t-power, read via the JSON form."""
    out = []
    for poly in sol.terms:
        powers = []
        for terms in poly.to_json():
            c = np.array([complex(d["re_c"], d["im_c"]) for d in terms], dtype=complex)
            a = np.array([complex(d["re_a"], d["im_a"]) for d in terms], dtype=complex)
            powers.append((c, a))
        out.append(powers)
    return out


def _expsum_values(c: np.ndarray, a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    if c.size == 0:
        return np.zeros(xs.shape, dtype=complex)
    return np.exp(np.multiply.outer(xs, a)) @ c


def partial_sums(arrays, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Partial sums S_n(t, x) for every order n, shape (orders, times, xs)."""
    out = np.zeros((len(arrays), len(ts), len(xs)), dtype=complex)
    acc = np.zeros((len(ts), len(xs)), dtype=complex)
    for n, powers in enumerate(arrays):
        for p, (c, a) in enumerate(powers):
            acc = acc + np.multiply.outer(ts**p, _expsum_values(c, a, xs))
        out[n] = acc
    return out


class Workload:
    """Interface shared by the four workloads."""

    name = ""

    def __init__(self, work: Path):
        self.work = work
        self._verified: dict[int, object] = {}

    def cases(self, seed: int, tiny: bool = False) -> list[Case]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self, case: Case) -> None:
        """Untimed work before a case starts."""

    def run(self, case: Case):
        raise NotImplementedError

    def verify(self, case: Case, result) -> str | None:
        """Independent check of one result: None if it holds, else why not."""
        raise NotImplementedError

    def check(self, case: Case, result) -> str | None:
        verified = self._verified.get(case.key)
        if verified is not None and verified == result:
            return None
        reason = self.verify(case, result)
        if reason is None:
            self._verified[case.key] = result
        return reason

    def layer_extras(self, results: list) -> dict[str, float]:
        """Per-layer metrics measured by the workload itself, from untraced
        results: the CLI's, which are zero where no CLI runs."""
        return {"cli.bytes_written": 0.0} | {f"cli.{e}_ms": 0.0 for e in CliSuite.EXPERIMENTS}


# -- adm-cubic --------------------------------------------------------------


class AdmCubic(Workload):
    """Full cubic NLS Adomian series of seeded periodic data (the build path)."""

    name = "adm-cubic"
    SLOTS = (("plane", 28), ("two", 16), ("three", 12), ("plane", 24),
             ("two", 14), ("three", 11), ("two", 15))
    TINY = (("plane", 4), ("two", 8), ("three", 8))

    def cases(self, seed, tiny=False):
        rng = random.Random(seed)
        out = []
        for key, (kind, order) in enumerate(self.TINY if tiny else self.SLOTS):
            mirror = rng.choice((-1, 1))
            if kind == "plane":
                modes = [1]
            elif kind == "two":
                modes = [1, rng.choice([k for k in range(-4, 5) if k != 1])]
            else:
                d, pos = rng.choice((1, 2)), rng.choice((0, 1, 2))
                modes = [1 + (j - pos) * d for j in range(3)]
            coeffs = [_unit(rng)] + [_coef(rng) for _ in modes[1:]]
            u0 = tuple((c, 1j * mirror * k) for c, k in zip(coeffs, modes))
            out.append(Case(key, kind, {"u0": u0, "gamma": _coupling(rng), "order": order}))
        return out

    def warm_up(self):
        u0 = sm.ExpSum(((1.0, 1j), (0.5, 2j)))
        sm.adm_series(u0, sm.Equation.full_nls(1.0), 3)
        sm.taylor_series(u0, sm.Equation.reduced_nls(1.0), 3)

    def run(self, case):
        p = case.params
        return sm.adm_series(sm.ExpSum(p["u0"]), sm.Equation.full_nls(p["gamma"]), p["order"])

    def verify(self, case, sol):
        p = case.params
        if sol.order != p["order"]:
            return f"series has order {sol.order}, expected {p['order']}"
        arrays = series_arrays(sol)
        if case.kind == "plane":
            ref = sm.taylor_series(sm.ExpSum(p["u0"]), sm.Equation.reduced_nls(p["gamma"]), p["order"])
            diff = coeff_diff(arrays, series_arrays(ref))
            if not diff <= PLANE_COEFF_TOL:
                return f"plane wave: ADM vs reduced Taylor coefficients differ by {diff:.3e}"
            return None
        return self._verify_multi(case, arrays)

    def _verify_multi(self, case, arrays):
        p = case.params
        gamma, order = p["gamma"], p["order"]
        u0c = np.array([c for c, _ in p["u0"]])
        u0k = [int(round(a.imag)) for _, a in p["u0"]]
        # every exponent of u_m is i*k with |k| <= (2m+1) max|k0|
        kmax = (2 * order + 1) * max(abs(k) for k in u0k)
        modes = np.arange(-kmax, kmax + 1)
        # route 1: Taylor coefficients in t of the cubic flow, as dense
        # Fourier-coefficient arrays with Cauchy products by convolution
        coeffs = [np.zeros(modes.size, dtype=complex)]
        for c, k in zip(u0c, u0k):
            coeffs[0][k + kmax] += c

        def conv(f, g):
            return np.convolve(f, g)[kmax:3 * kmax + 1]

        pairs = []
        for m in range(order):
            pairs.append(sum(conv(coeffs[i], coeffs[m - i]) for i in range(m + 1)))
            cubic = sum(conv(pairs[q], np.conj(coeffs[m - q][::-1])) for q in range(m + 1))
            coeffs.append(1j * (-(modes**2) * coeffs[m] + gamma * cubic) / (m + 1))
        for m, powers in enumerate(arrays):
            if len(powers) != m + 1:
                return f"term {m} has degree {len(powers) - 1} in t, expected {m}"
            scale = sum(float(np.sum(np.abs(c))) for c, _ in powers) or 1.0
            for q, (c, a) in enumerate(powers):
                k = np.rint(a.imag).astype(int)
                if np.any(a.real != 0) or np.any(k != a.imag) or np.any(np.abs(k) > kmax):
                    return f"term {m}, t^{q}: exponent off the periodic lattice"
                got = np.zeros(modes.size, dtype=complex)
                np.add.at(got, k + kmax, c)
                diff = float(np.max(np.abs(got - (coeffs[m] if q == m else 0.0))))
                if not diff <= MODE_COEFF_RTOL * scale:
                    return (f"term {m}, t^{q}: coefficients differ from the mode-space "
                            f"recursion by {diff:.3e} (scale {scale:.3e})")
        # route 2: the partial sum at a small time against split-step on a
        # grid that resolves every generated mode, Richardson-extrapolated in
        # dt to cancel the O(dt^2) splitting error
        n = 16
        while n < 2 * kmax + 2:
            n *= 2
        grid = sm.Grid(2.0 * math.pi, n)
        xs = grid.points
        # well inside the series' radius of convergence, which shrinks with
        # the largest wavenumber, the spread of the modes and the cubic rate
        width = max(max(abs(k) for k in u0k), max(u0k) - min(u0k))
        t = 0.05 / (width * width + abs(gamma) * float(np.sum(np.abs(u0c))) ** 2)
        state = sm.GridState(grid, _expsum_values(u0c, 1j * np.array(u0k), xs), 0.0)
        coarse = sm.split_step_nls(state, gamma, t / 100, 100).values
        fine = sm.split_step_nls(state, gamma, t / 200, 200).values
        ref = (4.0 * fine - coarse) / 3.0
        series = partial_sums(arrays, xs, np.array([t]))[-1, 0]
        err = float(np.max(np.abs(series - ref)))
        if not err <= SMALL_T_RTOL * float(np.sum(np.abs(u0c))):
            return f"partial sum at t={t:.4g} differs from split-step by {err:.3e}"
        return None


def coeff_diff(a, b) -> float:
    """Largest coefficient difference of two series, exponents matched."""
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for pa, pb in zip(a, b):
        for q in range(max(len(pa), len(pb))):
            da = _by_exponent(pa[q]) if q < len(pa) else {}
            db = _by_exponent(pb[q]) if q < len(pb) else {}
            for key in da.keys() | db.keys():
                worst = max(worst, abs(da.get(key, 0.0) - db.get(key, 0.0)))
    return worst


def _by_exponent(pair) -> dict:
    c, a = pair
    return {(round(z.real, 9), round(z.imag, 9)): v for v, z in zip(c, a)}


# -- error-table ------------------------------------------------------------


class ErrorTable(Workload):
    """Dense truncation-error tables of linear and reduced-NLS series (evaluation path)."""

    name = "error-table"
    # (family, order, t points, x points); the cell counts are balanced so
    # every slot costs about the same
    SLOTS = (("cosh", 16, 21, 33), ("wave", 20, 21, 17), ("two-wave", 16, 21, 33),
             ("nls", 20, 21, 17), ("nls-taylor", 24, 21, 11))
    TINY = (("cosh", 10, 5, 3), ("nls", 10, 5, 3))

    def cases(self, seed, tiny=False):
        rng = random.Random(seed)
        out = []
        for key, (family, order, nt, nx) in enumerate(self.TINY if tiny else self.SLOTS):
            p = {"family": family, "order": order, "xs": _linspace(-1.0, 1.0, nx)}
            if family == "cosh":
                a, c0, c1 = rng.uniform(1.0, 2.0), _coef(rng), _coef(rng)
                p["u0"] = ((c0, 0.0), (c1, a), (c1, -a))
                rate = a * a
            elif family == "wave":
                k = rng.choice((-3, -2, -1, 1, 2, 3))
                p["u0"] = ((_coef(rng), 1j * k),)
                rate = k * k
            elif family == "two-wave":
                k1, k2 = rng.sample((1, 2, 3), 2)
                k1, k2 = k1 * rng.choice((-1, 1)), k2 * rng.choice((-1, 1))
                p["u0"] = ((_coef(rng), 1j * k1), (_coef(rng), 1j * k2))
                rate = max(k1 * k1, k2 * k2)
            else:
                alpha = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
                gamma = alpha * alpha + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
                p.update(alpha=alpha, gamma=gamma, u0=((1.0, 1j * alpha),))
                rate = abs(gamma - alpha * alpha)
            p["ts"] = _linspace(0.0, 2.0 / rate, nt)
            out.append(Case(key, family, p))
        return out

    def warm_up(self):
        u0 = sm.ExpSum(((1.0, 0.0), (1.0, 1.0)))
        sol = sm.taylor_series(u0, sm.Equation.linear(), 3)
        sm.truncation_error_table(sol, sm.exact_linear(u0), range(4), [0.0, 0.1], [0.0, 0.5])

    def _series_and_exact(self, p):
        u0 = sm.ExpSum(p["u0"])
        family, order = p["family"], p["order"]
        if family in ("cosh", "two-wave"):
            return sm.hpm_series(u0, sm.Equation.linear(), order), sm.exact_linear(u0)
        if family == "wave":
            return sm.taylor_series(u0, sm.Equation.linear(), order), sm.exact_linear(u0)
        gen = sm.taylor_series if family == "nls-taylor" else sm.hpm_series
        sol = gen(u0, sm.Equation.reduced_nls(p["gamma"]), order)
        return sol, sm.exact_reduced_nls(p["alpha"], p["gamma"])

    def run(self, case):
        p = case.params
        sol, exact = self._series_and_exact(p)
        table = sm.truncation_error_table(sol, exact, range(p["order"] + 1), p["ts"], p["xs"])
        return sol, table

    def verify(self, case, result):
        sol, table = result
        p = case.params
        xs, ts = np.array(p["xs"]), np.array(p["ts"])
        c0 = np.array([c for c, _ in p["u0"]], dtype=complex)
        a0 = np.array([a for _, a in p["u0"]], dtype=complex)
        if p["family"].startswith("nls"):
            rates = np.array([p["gamma"] - p["alpha"] ** 2])
            phase = 1j * (p["alpha"] * xs[None, :] + rates[0] * ts[:, None])
            exact = np.exp(phase)
        else:
            rates = -(a0 * a0).real
            exact = np.exp(np.multiply.outer(ts, -1j * a0 * a0)[:, None, :]
                           + np.multiply.outer(xs, a0)[None, :, :]) @ c0
        err = np.max(np.abs(partial_sums(series_arrays(sol), xs, ts) - exact[None]), axis=2)
        # sum of |Taylor terms| bounds the size of every partial sum
        size = np.exp(np.abs(rates)[None, :] * ts[:, None]) @ (np.abs(c0) * np.exp(np.abs(a0.real)))
        allow = ROUNDING_ULPS * (p["order"] + 1) * EPS * size
        expected = [(n, float(t)) for n in range(p["order"] + 1) for t in ts]
        got = [(r.order, r.time) for r in table.rows]
        if got != expected:
            return f"table rows {got[:3]}... do not match the requested orders x times"
        has_bound = p["family"] != "two-wave"
        for r in table.rows:
            i = int(np.searchsorted(ts, r.time))
            if not abs(r.sup_error - err[r.order, i]) <= allow[i]:
                return (f"order {r.order}, t={r.time:.4g}: table error {r.sup_error:.3e} but "
                        f"the independent evaluation gives {err[r.order, i]:.3e}")
            if has_bound and r.bound is None:
                return f"order {r.order}, t={r.time:.4g}: single-frequency data but no bound"
            if r.bound is not None and not r.sup_error <= r.bound + allow[i]:
                return (f"order {r.order}, t={r.time:.4g}: error {r.sup_error:.3e} exceeds "
                        f"the tail bound {r.bound:.3e}")
        top = err[p["order"], 1]
        if not top <= TABLE_SMALL_T_RTOL * size[1]:
            return f"top-order error {top:.3e} at t={ts[1]:.4g} is not small"
        return None


# -- cli-suite --------------------------------------------------------------


class CliSuite(Workload):
    """One pass of all eight CLI experiments at their defaults."""

    name = "cli-suite"
    EXPERIMENTS = ("example1", "example2", "example3", "example4",
                   "operator", "gaussian-free", "nls-reference", "classify")

    #: flags that shrink each experiment to a quick run
    SMALL = {"example1": ["--order", "2"], "example2": ["--order", "2"],
             "example3": ["--order", "2"], "example4": ["--order", "2"],
             "operator": ["--order", "2"], "nls-reference": ["--t1", "0.01"]}

    def __init__(self, work):
        super().__init__(work)
        self.first_pass: dict[str, bytes] | None = None
        self.bytes_written = 0

    def cases(self, seed, tiny=False):
        order = list(self.EXPERIMENTS)
        random.Random(seed).shuffle(order)
        return [Case(0, "pass", {"order": order, "flags": self.SMALL if tiny else {}})]

    def _main(self, argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def warm_up(self):
        target = self.work / "warm-up"
        for exp in self.EXPERIMENTS:
            self._main([exp, "--out", str(target / exp)] + self.SMALL.get(exp, []))
        shutil.rmtree(target, ignore_errors=True)

    def prepare(self, case):
        shutil.rmtree(self.work / "pass", ignore_errors=True)

    def run(self, case):
        codes, times = {}, {}
        for exp in case.params["order"]:
            argv = [exp, "--out", str(self.work / "pass" / exp)] + case.params["flags"].get(exp, [])
            t0 = time.perf_counter()
            codes[exp] = self._main(argv)
            times[exp] = time.perf_counter() - t0
        return codes, times

    def check(self, case, result):
        return self.verify(case, result)

    def verify(self, case, result):
        codes, _ = result
        for exp, (code, err) in codes.items():
            if code != 0:
                return f"{exp} exited {code}: {err.strip()}"
        root = self.work / "pass"
        files = {str(f.relative_to(root)): f.read_bytes()
                 for f in sorted(root.rglob("*")) if f.is_file()}
        self.bytes_written = sum(len(b) for b in files.values())
        if self.first_pass is None:
            self.first_pass = files
            return None
        if files.keys() != self.first_pass.keys():
            return f"pass wrote {sorted(files)} but the first pass wrote {sorted(self.first_pass)}"
        for name, data in files.items():
            if data != self.first_pass[name]:
                return f"{name} is not byte-identical to the first pass"
        return None

    def layer_extras(self, results):
        out = {"cli.bytes_written": float(self.bytes_written)}
        for exp in self.EXPERIMENTS:
            times = [r[1][exp] for r in results if r is not None]
            out[f"cli.{exp}_ms"] = float(np.median(times)) * 1000.0 if times else 0.0
        return out


# -- reference-solvers ------------------------------------------------------


class ReferenceSolvers(Workload):
    """Grid and operator reference solvers, with no series algebra."""

    name = "reference-solvers"
    SLOTS = (("plane", 256, 2000), ("plane", 1024, 1000), ("multi", 512, 1500),
             ("gauss", 4096, 4), ("operator", 256, 40), ("operator", 512, 40),
             ("multi", 256, 2000))
    TINY = (("plane", 16, 5), ("multi", 16, 5), ("gauss", 64, 2), ("operator", 8, 30))
    DT = 1e-3

    def cases(self, seed, tiny=False):
        rng = random.Random(seed)
        out = []
        for key, (kind, n, count) in enumerate(self.TINY if tiny else self.SLOTS):
            p = {"n": n}
            if kind in ("plane", "multi"):
                grid = sm.Grid(2.0 * math.pi, n)
                if kind == "plane":
                    k = rng.choice([k for k in range(-6, 7) if k != 0])
                    modes, coeffs = [k], [1.0]
                    p["k"] = k
                else:
                    modes = rng.sample(range(-6, 7), rng.choice((2, 3)))
                    coeffs = [_coef(rng) for _ in modes]
                values = sum(c * np.exp(1j * k * grid.points) for c, k in zip(coeffs, modes))
                p.update(state=sm.GridState(grid, values, 0.0), gamma=_coupling(rng), steps=count)
            elif kind == "gauss":
                # wide enough for the box and short enough in time that the
                # periodic images stay below the check's tolerance
                p.update(center=rng.uniform(18.0, 22.0), sigma=rng.uniform(1.0, 1.5),
                         times=[rng.uniform(0.2, 1.0) for _ in range(count)])
            else:
                v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)])
                p.update(u0=v / np.linalg.norm(v), t=rng.uniform(0.2, 0.5), order=count)
            out.append(Case(key, kind, p))
        return out

    def warm_up(self):
        for n in sorted({n for _, n, _ in self.SLOTS}):
            grid = sm.Grid(2.0 * math.pi, n)
            sm.split_step_nls(sm.GridState(grid, np.ones(n), 0.0), 1.0, self.DT, 1)
            sm.free_propagate_spectral(sm.GridState(grid, np.ones(n), 0.0), 0.1)
        op = sm.laplacian_dirichlet(8, 1.0)
        sm.series_evolve(op, np.ones(8), 0.1, 2)
        sm.exact_evolve(op, np.ones(8), 0.1)

    def run(self, case):
        p = case.params
        if case.kind in ("plane", "multi"):
            return sm.split_step_nls(p["state"], p["gamma"], self.DT, p["steps"])
        if case.kind == "gauss":
            grid = sm.Grid(40.0, p["n"])
            state = sm.sample(grid, sm.gaussian_packet(p["center"], p["sigma"]))
            return [sm.free_propagate_spectral(state, t) for t in p["times"]]
        op = sm.laplacian_dirichlet(p["n"], 1.0)
        return (sm.series_evolve(op, p["u0"], p["t"], p["order"]),
                sm.exact_evolve(op, p["u0"], p["t"]))

    def check(self, case, result):
        return self.verify(case, result)

    def verify(self, case, result):
        p = case.params
        if case.kind in ("plane", "multi"):
            v0, v = p["state"].values, result.values
            drift = abs(np.linalg.norm(v) - np.linalg.norm(v0)) / np.linalg.norm(v0)
            if not drift <= NORM_RTOL:
                return f"split-step changed the L2 norm by {drift:.3e} (relative)"
            if case.kind == "multi":
                return None
            t, k, gamma = result.time, p["k"], p["gamma"]
            exact = sm.exact_reduced_nls(float(k), gamma)
            ref = np.array([exact(float(x), t) for x in p["state"].grid.points])
            err = float(np.max(np.abs(v - ref)))
            tol = 1e-9 + t * self.DT**2 * (abs(gamma) + k * k) ** 2
            if not err <= tol:
                return f"plane wave k={k}: error {err:.3e} at t={t:.3g} exceeds O(dt^2) {tol:.3e}"
            return None
        if case.kind == "gauss":
            grid = sm.Grid(40.0, p["n"])
            x = grid.points - p["center"]
            s2 = p["sigma"] ** 2
            amp = (2.0 * math.pi * s2) ** -0.25
            for state, t in zip(result, p["times"]):
                # u_t = -i u_xx takes exp(-x^2/(4 s2)) to this closed form
                w = s2 - 1j * t
                ref = amp * np.sqrt(s2 / w) * np.exp(-x * x / (4.0 * w))
                err = float(np.max(np.abs(state.values - ref)))
                if not err <= GAUSS_TOL:
                    return f"Gaussian at t={t:.3g}: error {err:.3e} against the closed form"
                # the packet has unit L2 norm on the line, and the box holds it
                norm = math.sqrt(float(np.sum(np.abs(state.values) ** 2)) * grid.length / grid.n)
                if not abs(norm - 1.0) <= NORM_RTOL:
                    return f"Gaussian at t={t:.3g}: L2 norm {norm:.12g}, expected 1"
            return None
        series, exact = result
        err = float(np.linalg.norm(series - exact))
        if not err <= OPERATOR_RTOL:
            return f"operator dim {p['n']}: series vs eigenexpansion differ by {err:.3e}"
        drift = abs(float(np.linalg.norm(exact)) - 1.0)
        if not drift <= NORM_RTOL:
            return f"operator dim {p['n']}: eigenexpansion changed the norm by {drift:.3e}"
        return None


WORKLOADS = {w.name: w for w in (AdmCubic, ErrorTable, CliSuite, ReferenceSolvers)}
