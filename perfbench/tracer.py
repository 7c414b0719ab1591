"""Span tracing of the library's layers, installed from outside the library.

Every public callable of the layer modules is wrapped so that each call
records one span (name, start, end, parent).  Functions are replaced in every
``series_mirage`` module that holds a reference to them (``cli`` imports
``adm_series`` by name, ``diagnostics`` imports ``partial_sum_eval``, ...);
methods are replaced on the classes themselves.  Spans live in flat arrays in
memory until :meth:`Tracer.uninstall`, after which :func:`layer_metrics` turns
them into self times, call counts and the counters collected by hooks.

Nothing under ``src/`` knows about this module; the untraced benchmark run
never imports it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("expsum", "methods", "exact", "diagnostics", "grid", "operators", "cli")

#: dunder methods that are part of a layer's public surface
_DUNDERS = ("__init__", "__call__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__")

#: bytes one complex128 FFT or inverse FFT reads and writes per grid point
_FFT_BYTES_PER_POINT = 2 * 16


class Tracer:
    """Records spans and counters while installed; restores everything after."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        #: series solutions returned by the generators, inspected after the run
        self.solutions: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args, kwargs)`` may return replacement ``(args, kwargs)``;
        ``after(args, kwargs, result)`` runs once the span has ended.
        """
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public callable of the layer modules."""
        modules = {name: importlib.import_module(f"series_mirage.{name}") for name in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "series_mirage" or n.startswith("series_mirage."))]
        hooks = self._hooks()
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj, hooks)
                elif inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    before, after = hooks.get(name, (None, None))
                    wrapped = self.wrap(name, obj, before, after)
                    for m in package:
                        for key, value in list(vars(m).items()):
                            if value is obj:
                                self._undo.append((m, key, value))
                                setattr(m, key, wrapped)

    def _wrap_class(self, layer, cls, hooks) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            before, after = hooks.get(name, (None, None))
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(name, raw.__func__, before, after))
            elif inspect.isfunction(raw):
                new = self.wrap(name, raw, before, after)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- counters gathered at layer boundaries -----------------------------

    def _hooks(self) -> dict:
        c = self.counters
        # signatures of the originals, taken before anything is wrapped
        table_sig = inspect.signature(sys.modules["series_mirage.diagnostics"].truncation_error_table)
        split_sig = inspect.signature(sys.modules["series_mirage.grid"].split_step_nls)
        spec_sig = inspect.signature(sys.modules["series_mirage.operators"].OperatorSpec.__init__)

        def expsum_before(args, kwargs):
            # count the raw terms handed to the canonicalizing constructor
            if len(args) > 1:
                if not isinstance(args[1], (tuple, list)):
                    args = (args[0], tuple(args[1])) + args[2:]
                c["expsum.terms_in"] += len(args[1])
            elif "terms" in kwargs:
                kwargs = dict(kwargs, terms=tuple(kwargs["terms"]))
                c["expsum.terms_in"] += len(kwargs["terms"])
            return args, kwargs

        def expsum_after(args, kwargs, result):
            c["expsum.terms_out"] += len(args[0].terms)

        def keep_solution(args, kwargs, result):
            self.solutions.append(result)

        def table_before(args, kwargs):
            bound = _bind(table_sig, args, kwargs)
            bound.arguments["x_samples"] = list(bound.arguments["x_samples"])
            return bound.args, bound.kwargs

        def table_after(args, kwargs, result):
            xs = _bind(table_sig, args, kwargs).arguments["x_samples"]
            c["diagnostics.cells"] += len(result.rows) * len(xs)

        def sample_after(args, kwargs, result):
            c["grid.sample_points"] += result.grid.n

        def split_after(args, kwargs, result):
            bound = _bind(split_sig, args, kwargs).arguments
            n, steps = bound["state"].grid.n, bound["steps"]
            c["grid.split_step_point_steps"] += n * steps
            c["grid.fft_bytes_computed"] += 2 * _FFT_BYTES_PER_POINT * n * steps

        def fft_pair_after(args, kwargs, result):
            c["grid.fft_bytes_computed"] += 2 * _FFT_BYTES_PER_POINT * result.grid.n

        def spec_before(args, kwargs):
            # count every application of the operator, including the
            # eigenpair verification done at construction
            bound = _bind(spec_sig, args, kwargs)
            apply = bound.arguments["apply"]

            def counted(v):
                c["operators.apply_calls"] += 1
                return apply(v)

            bound.arguments["apply"] = counted
            return bound.args, bound.kwargs

        return {
            "expsum.ExpSum.__init__": (expsum_before, expsum_after),
            "methods.hpm_series": (None, keep_solution),
            "methods.adm_series": (None, keep_solution),
            "methods.taylor_series": (None, keep_solution),
            "diagnostics.truncation_error_table": (table_before, table_after),
            "grid.sample": (None, sample_after),
            "grid.split_step_nls": (None, split_after),
            "grid.free_propagate_spectral": (None, fft_pair_after),
            "grid.spectral_dxx": (None, fft_pair_after),
            "operators.OperatorSpec.__init__": (spec_before, None),
        }


def _bind(sig, args, kwargs) -> inspect.BoundArguments:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


def self_times(tracer: Tracer) -> tuple[np.ndarray, np.ndarray]:
    """Per-span (duration, self time).

    A span's self time is its duration minus the part covered by its direct
    children.  The wrappers' own cost stays in: it lands in the caller's self
    time, and ``trace.overhead_ratio`` reports how large it is.
    """
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur, dur - covered


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times from the recorded spans and counters."""
    dur, self_t = self_times(tracer)
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    n_names = len(tracer.names)
    counts = np.bincount(name_id, minlength=n_names)
    self_sums = np.bincount(name_id, weights=self_t, minlength=n_names)
    dur_sums = np.bincount(name_id, weights=dur, minlength=n_names)
    calls = defaultdict(int, zip(tracer.names, counts.tolist()))
    self_by_name = defaultdict(float, zip(tracer.names, self_sums.tolist()))
    dur_by_name = defaultdict(float, zip(tracer.names, dur_sums.tolist()))

    def ids(name):
        return name_id == tracer._name_ids.get(name, -1)

    # ExpSum.eval calls made inside an error table: spans nest in time on one
    # thread, so containment in a table span's interval means descent from it
    start = np.frombuffer(tracer.start, dtype=np.float64)
    table = ids("diagnostics.truncation_error_table")
    t_start, t_end = start[table], np.frombuffer(tracer.end, dtype=np.float64)[table]
    e_start = start[ids("expsum.ExpSum.eval")]
    slot = np.searchsorted(t_start, e_start, side="right") - 1
    inside = (slot >= 0) & (e_start < t_end[np.maximum(slot, 0)])
    table_evals = int(np.count_nonzero(inside))

    def total(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m: dict[str, float] = {}
    layer_self = {layer: total(layer + ".", self_by_name) for layer in LAYERS}
    all_self = float(np.sum(self_t))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.self_share"] = layer_self[layer] / all_self if all_self else 0.0
    c = tracer.counters

    m["expsum.ctor_calls"] = calls["expsum.ExpSum.__init__"]
    m["expsum.terms_in"] = c["expsum.terms_in"]
    m["expsum.terms_out"] = c["expsum.terms_out"]
    m["expsum.keep_ratio"] = c["expsum.terms_out"] / c["expsum.terms_in"] if c["expsum.terms_in"] else 0.0
    mul = ("expsum.ExpSum.__mul__", "expsum.ExpSum.__rmul__")
    tmul = ("expsum.TimePoly.__mul__", "expsum.TimePoly.__rmul__")
    evals = ("expsum.ExpSum.eval", "expsum.TimePoly.eval")
    m["expsum.mul_calls"] = sum(calls[k] for k in mul)
    m["expsum.mul_self_s"] = sum(self_by_name[k] for k in mul)
    m["expsum.tpoly_mul_self_s"] = sum(self_by_name[k] for k in tmul)
    m["expsum.eval_calls"] = sum(calls[k] for k in evals)
    m["expsum.eval_self_s"] = sum(self_by_name[k] for k in evals)

    m["methods.adomian_cubic_calls"] = calls["methods.adomian_cubic"]
    m["methods.adomian_cubic_self_s"] = self_by_name["methods.adomian_cubic"]
    m["methods.partial_sum_eval_calls"] = calls["methods.partial_sum_eval"]
    m["methods.terms_max"], m["methods.coeff_abs_max"] = _series_extent(tracer.solutions)

    m["exact.eval_calls"] = calls["exact.ExactEvaluator.__call__"]

    cells = c["diagnostics.cells"]
    m["diagnostics.cells"] = cells
    m["diagnostics.term_evals_per_cell"] = table_evals / cells if cells else 0.0

    m["grid.sample_points"] = c["grid.sample_points"]
    m["grid.sample_s"] = dur_by_name["grid.sample"]
    steps = c["grid.split_step_point_steps"]
    m["grid.split_step_point_steps"] = steps
    m["grid.split_step_ns_per_point_step"] = (
        dur_by_name["grid.split_step_nls"] / steps * 1e9 if steps else 0.0)
    m["grid.fft_bytes_computed"] = c["grid.fft_bytes_computed"]

    m["operators.spec_build_s"] = dur_by_name["operators.OperatorSpec.__init__"]
    m["operators.apply_calls"] = c["operators.apply_calls"]
    m["operators.series_evolve_s"] = dur_by_name["operators.series_evolve"]
    m["operators.exact_evolve_s"] = dur_by_name["operators.exact_evolve"]
    return m


def _series_extent(solutions) -> tuple[int, float]:
    """Largest term count of one series term, and largest |coefficient|."""
    terms_max, coeff_max = 0, 0.0
    for sol in solutions:
        for poly in sol.terms:
            powers = poly.to_json()
            terms_max = max(terms_max, sum(len(p) for p in powers))
            for p in powers:
                for d in p:
                    coeff_max = max(coeff_max, abs(complex(d["re_c"], d["im_c"])))
    return terms_max, coeff_max
