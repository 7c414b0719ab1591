"""Tests of the benchmark itself, on tiny decks and without timing assertions.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import series_mirage as sm  # noqa: E402
from series_mirage import cli, diagnostics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("expsum.terms_in", "expsum.terms_out", "methods.terms_max",
                "methods.coeff_abs_max", "diagnostics.term_evals_per_cell",
                "grid.split_step_point_steps", "operators.apply_calls")


def _deck(name, seed, work):
    wl = workloads.WORKLOADS[name](work)
    return wl, wl.cases(seed, tiny=True)


def _plain(obj):
    """Inputs in a comparable form: arrays and grid states as lists."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, sm.GridState):
        return [obj.grid, obj.values.tolist(), obj.time]
    return obj


def test_benchmark_json_names_every_workload_and_metric():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_reported_with_its_unit(name, tmp_path):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    wl, deck = _deck(name, 3, tmp_path)
    wl.warm_up()
    tally, metrics = run.run_untraced(wl, deck, run.HostRef(), 0.0, ([0.5, 0.6], [0.01, 0.02]), {})
    assert tally.failed == 0, tally.reasons
    assert {k: m["unit"] for k, m in metrics.items()} == units
    assert all(isinstance(m["value"], float) for m in metrics.values())

    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    wl, deck = _deck(name, 3, tmp_path)
    tally, metrics = run.run_traced(wl, deck, run.HostRef(), 0.0, {})
    assert tally.failed == 0, tally.reasons
    assert {k: m["unit"] for k, m in metrics.items()} == units


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_a_seed_fixes_the_inputs_and_the_exact_counts(name, tmp_path):
    _, deck = _deck(name, 7, tmp_path)
    _, again = _deck(name, 7, tmp_path)
    _, other = _deck(name, 8, tmp_path)
    assert _plain([dataclasses.asdict(c) for c in deck]) == _plain([dataclasses.asdict(c) for c in again])
    if name != "cli-suite":
        assert _plain([c.params for c in deck]) != _plain([c.params for c in other])

    counts = []
    for _ in range(2):
        wl, deck = _deck(name, 7, tmp_path)
        _, metrics = run.run_traced(wl, deck, run.HostRef(), 0.0, {})
        counts.append({k: metrics[k]["value"] for k in EXACT_COUNTS})
    assert counts[0] == counts[1]


def test_tracing_patches_every_binding_and_restores_it():
    originals = (cli.adm_series, diagnostics.partial_sum_eval, sm.ExpSum.__init__,
                 sm.ExpSum.__mul__, sm.TimePoly.eval)
    tr = tracing.Tracer()
    tr.install()
    try:
        patched = (cli.adm_series, diagnostics.partial_sum_eval, sm.ExpSum.__init__,
                   sm.ExpSum.__mul__, sm.TimePoly.eval)
        assert all(p is not o for p, o in zip(patched, originals))
        u0 = sm.ExpSum(((1.0, 1j),))
        sol = cli.adm_series(u0, sm.Equation.full_nls(2.0), 2)
        diagnostics.truncation_error_table(sol, sm.exact_reduced_nls(1.0, 2.0), [0, 2], [0.1], [0.0, 0.5])
    finally:
        tr.uninstall()
    assert (cli.adm_series, diagnostics.partial_sum_eval, sm.ExpSum.__init__,
            sm.ExpSum.__mul__, sm.TimePoly.eval) == originals
    m = tracing.layer_metrics(tr)
    assert m["methods.adomian_cubic_calls"] == 2
    assert m["diagnostics.cells"] == 2 * 1 * 2
    assert m["methods.partial_sum_eval_calls"] == 4
    assert m["expsum.terms_out"] <= m["expsum.terms_in"]


def _perturb_series(sol, term, power, factor=1.0 + 1e-6):
    """The series with the largest coefficient of one term and t-power scaled."""
    polys = list(sol.terms)
    coeffs = list(polys[term].coeffs)
    pairs = list(coeffs[power].terms)
    big = max(range(len(pairs)), key=lambda i: abs(pairs[i][0]))
    c, a = pairs[big]
    pairs[big] = (c * factor, a)
    coeffs[power] = sm.ExpSum(tuple(pairs))
    polys[term] = sm.TimePoly(tuple(coeffs))
    return dataclasses.replace(sol, terms=tuple(polys))


@pytest.mark.parametrize("kind", ["plane", "two", "three"])
def test_a_perturbed_series_coefficient_is_a_failure(kind, tmp_path):
    wl, deck = _deck("adm-cubic", 5, tmp_path)
    case = next(c for c in deck if c.kind == kind)
    sol = wl.run(case)
    bad = _perturb_series(sol, case.params["order"], case.params["order"])
    assert wl.check(case, bad) is not None
    assert wl.check(case, sol) is None
    assert wl.check(case, bad) is not None  # a verified result is no free pass
    tally = run.Tally()
    tally.add(wl, [case, case], [(0.1, sol, None, 0.01), (0.1, bad, None, 0.01)])
    assert tally.failed == 1


def test_a_corrupted_error_table_is_a_failure(tmp_path):
    wl, deck = _deck("error-table", 5, tmp_path)
    case = deck[0]
    sol, table = wl.run(case)
    assert wl.verify(case, (sol, table)) is None
    bad_sol = _perturb_series(sol, 1, 1, factor=1.001)
    p = case.params
    exact = sm.exact_linear(sm.ExpSum(p["u0"]))
    bad_table = sm.truncation_error_table(bad_sol, exact, range(p["order"] + 1), p["ts"], p["xs"])
    assert wl.check(case, (bad_sol, bad_table)) is not None
    rows = list(table.rows)
    rows[-1] = dataclasses.replace(rows[-1], sup_error=rows[-1].sup_error + 1e-6)
    assert wl.check(case, (sol, diagnostics.ErrorTable(tuple(rows)))) is not None


def test_a_changed_cli_output_is_a_failure(tmp_path):
    wl, deck = _deck("cli-suite", 5, tmp_path)
    case = deck[0]
    for _ in range(2):
        wl.prepare(case)
        assert wl.check(case, wl.run(case)) is None
    wl.prepare(case)
    result = wl.run(case)
    errors = tmp_path / "pass" / "example1" / "errors.csv"
    errors.write_bytes(errors.read_bytes() + b"\n")
    assert "byte-identical" in wl.check(case, result)


def test_a_corrupted_solver_state_is_a_failure(tmp_path):
    wl, deck = _deck("reference-solvers", 5, tmp_path)
    for case in deck:
        result = wl.run(case)
        assert wl.check(case, result) is None
        if case.kind in ("plane", "multi"):
            values = result.values.copy()
            values[3] *= 1.0 + 1e-6
            bad = sm.GridState(result.grid, values, result.time)
        elif case.kind == "gauss":
            bad = [sm.GridState(s.grid, s.values * (1.0 + 1e-6), s.time) for s in result]
        else:
            bad = (result[0] * (1.0 + 1e-6), result[1])
        assert wl.check(case, bad) is not None, case.kind


def test_normalised_times_cancel_the_host_speed_but_not_the_program_speed():
    base = run.normalised(0.1, 0.01)
    assert run.normalised(0.2, 0.02) == pytest.approx(base)  # host twice as slow
    assert run.normalised(0.2, 0.01) == pytest.approx(2.0 * base)  # program twice as slow
    assert run.HostRef()() > 0.0


def test_the_last_line_is_the_result(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "reference-solvers",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    meta = json.loads(out.stdout.strip().splitlines()[-2])["meta"]
    assert meta["tail_samples_beyond"] <= run.TAIL_BEYOND and meta["seed"] == 1
    assert meta["measured"]["case_p50_ms"] > 0.0 and meta["ref_nominal_s"] == run.REF_NOMINAL_S


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adm-cubic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
