#!/usr/bin/env python3
"""Benchmark for series-mirage: four workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload adm-cubic --seed 1 --seconds 20 --trace 0

Load model: batch jobs in one process, one thread, closed loop (each case
starts when the previous one ends).  BLAS/OpenMP thread counts are pinned to
1 before NumPy loads.  The seed draws the inputs; the library only sees them.

``--trace 0`` plays whole decks of cases until ``--seconds`` of case time has
passed and reports the end-to-end metrics.  Their times are host-normalised:
on a shared host the speed of a core can swing by up to 2x for tens of
seconds at a time, so a fixed reference kernel (``HostRef``) runs between
cases and around each set-up, and every time is reported as
``measured * REF_NOMINAL_S / reference time``, i.e. in seconds of a host on
which the kernel takes ``REF_NOMINAL_S``.  A slower program still reads
slower; a slower host does not.  The measured times are in the metadata line.
``--trace 1`` plays decks untraced for half that time, then one deck with
every layer wrapped in spans (``tracer.py``), and reports the per-layer
metrics.  Either way every result is checked (``workloads.py``) and the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it holds
the run's metadata.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("adm-cubic", "error-table", "cli-suite", "reference-solvers")

#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 7
#: the tail is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10
#: seconds of one ``HostRef`` run on an idle core of the machine the
#: benchmark was tuned on (2-core 2.0 GHz Xeon VM); normalised times read as
#: times on a host of that speed
REF_NOMINAL_S = 0.010


class HostRef:
    """A fixed reference kernel that gauges how fast the host runs right now.

    It mixes what the library spends its time on: interpreted complex
    arithmetic with dict updates, and NumPy FFTs.  The garbage collector is
    off while it runs, so objects the library keeps alive cannot slow it.
    Calling it returns its run time in seconds."""

    def __init__(self):
        import numpy as np

        self._np = np
        self.block = np.exp(0.37j * np.arange(64 * 512)).reshape(64, 512)

    def __call__(self) -> float:
        np = self._np
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc: dict[int, complex] = {}
            for i in range(20000):
                k = i % 97
                acc[k] = acc.get(k, 0) + complex(i, 1) * 0.5
            for _ in range(5):
                np.fft.ifft(np.fft.fft(self.block, axis=1) * 1.0001, axis=1)
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


def normalised(seconds: float, ref_seconds: float) -> float:
    """``seconds`` as it would read on a host where ``HostRef`` takes
    ``REF_NOMINAL_S``."""
    return seconds * REF_NOMINAL_S / ref_seconds


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up, print the seconds since this clock reading, and exit
    p.add_argument("--setup-since", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(name: str, seed: int, work: Path):
    """Imports, seeded inputs and warm-up: everything before the first case."""
    import workloads

    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](work)
    deck = wl.cases(seed)
    wl.warm_up()
    return wl, deck


def time_fresh_setups(args, host_ref) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, from spawn until the first case is
    ready, and the ``host_ref`` times taken before the first and after each.
    ``perf_counter`` is the system-wide monotonic clock on Linux, so the child
    can subtract the parent's reading taken just before the spawn."""
    samples, refs = [], [host_ref()]
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-since", repr(time.perf_counter())]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=60, check=True)
        samples.append(float(out.stdout))
        refs.append(host_ref())
    return samples, refs


def play_deck(wl, deck, host_ref, tracer=None) -> list[tuple[float, object, str | None, float]]:
    """Run every case once, in slot order: (seconds, result, error, reference
    seconds) each.  ``host_ref`` runs between cases and after the last one; a
    case's reference time is the mean of the runs just before and after it."""
    out = []
    run = wl.run if tracer is None else tracer.wrap("bench.case", wl.run)
    wl.prepare(deck[0])
    ref = host_ref()
    for i, case in enumerate(deck):
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = run(case)
        except Exception as exc:  # a failed case is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if i + 1 < len(deck):
            wl.prepare(deck[i + 1])
        after = host_ref()
        out.append((dt, result, error, (ref + after) / 2.0))
        ref = after
    return out


class Tally:
    """Case times, reference times and check outcomes of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []
        self.failed = 0
        self.reasons: list[str] = []

    def normalised_times(self) -> list[float]:
        return [normalised(dt, ref) for dt, ref in zip(self.times, self.refs)]

    def add(self, wl, deck, played) -> None:
        for case, (dt, result, error, ref) in zip(deck, played):
            self.times.append(dt)
            self.refs.append(ref)
            reason = error or wl.check(case, result)
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{wl.name}[{case.key}:{case.kind}]: {reason}")


def measure(wl, deck, host_ref, seconds: float, tally: Tally,
            keep: bool = False) -> tuple[list[float], list]:
    """Play whole decks until ``seconds`` of (measured) case time.

    Returns the normalised time of each deck and, with ``keep``, every case's
    result (kept only on request, so that memory use does not grow with
    speed)."""
    deck_times = []
    results = []
    spent = 0.0
    while not deck_times or spent < seconds:
        played = play_deck(wl, deck, host_ref)
        spent += sum(dt for dt, _, _, _ in played)
        deck_times.append(sum(normalised(dt, ref) for dt, _, _, ref in played))
        tally.add(wl, deck, played)
        if keep:
            results.extend(r for _, r, _, _ in played)
    return deck_times, results


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    still has ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(times, reverse=True)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 100.0, 0
    return ordered[TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metrics(values: dict, kind: str) -> dict:
    """Values named as in BENCHMARK.json's ``kind`` list, each with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in spec}
    if set(values) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json {kind}: "
                           f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def run_untraced(wl, deck, host_ref, seconds, setups, meta) -> tuple[Tally, dict]:
    """End-to-end metrics of whole decks played for ``seconds`` of case time.

    ``setups`` is what ``time_fresh_setups`` returns.  Every time reported is
    normalised; the measured ones go into ``meta``."""
    setup_samples, setup_refs = setups
    tally = Tally()
    deck_times, _ = measure(wl, deck, host_ref, seconds, tally)
    times = tally.normalised_times()
    value, pct, beyond = tail(times)
    n = len(times)
    meta.update(cases=n, decks=len(deck_times), tail_percentile=pct,
                tail_samples_beyond=beyond, fail_ratio=tally.failed / n,
                ref_nominal_s=REF_NOMINAL_S,
                measured={
                    "setup_samples_s": setup_samples,
                    "setup_ref_s": setup_refs,
                    "cases_per_s": n / sum(tally.times),
                    "case_p50_ms": statistics.median(tally.times) * 1e3,
                    "case_tail_ms": tail(tally.times)[0] * 1e3,
                    "ref_p50_ms": statistics.median(tally.refs) * 1e3,
                })
    values = {
        "setup_s": normalised(statistics.median(setup_samples), statistics.median(setup_refs)),
        "cases_per_s": n / sum(times),
        "case_p50_ms": statistics.median(times) * 1e3,
        "case_tail_ms": value * 1e3,
        "case_ok_ratio": (n - tally.failed) / n,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, _metrics(values, "end_to_end")


def run_traced(wl, deck, host_ref, seconds, meta) -> tuple[Tally, dict]:
    """Per-layer metrics of one traced deck, after ``seconds / 2`` untraced."""
    import tracer as tracing

    tally = Tally()
    deck_times, untraced_results = measure(wl, deck, host_ref, seconds / 2.0, tally, keep=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        played = play_deck(wl, deck, host_ref, tracer)
    finally:
        tracer.uninstall()
    tally.add(wl, deck, played)
    traced_time = sum(normalised(dt, ref) for dt, _, _, ref in played)
    values = tracing.layer_metrics(tracer)
    values.update(wl.layer_extras(untraced_results))
    values["trace.overhead_ratio"] = traced_time / statistics.median(deck_times)
    meta.update(cases=len(tally.times), decks=len(deck_times) + 1, spans=len(tracer.start),
                fail_ratio=tally.failed / len(tally.times))
    return tally, _metrics(values, "per_layer")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "series_mirage" / "__init__.py").is_file():
        print(f"perfbench: no series_mirage package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    work = WORK / f"run-{os.getpid()}"
    try:
        if args.setup_since is not None:
            set_up(args.workload, args.seed, work)
            print(time.perf_counter() - args.setup_since)
            return 0
        host_ref = HostRef()
        host_ref()
        setups = ([], []) if args.trace else time_fresh_setups(args, host_ref)
        wl, deck = set_up(args.workload, args.seed, work)
        import numpy

        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": _git_commit(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        }
        if args.trace:
            tally, metrics = run_traced(wl, deck, host_ref, args.seconds, meta)
        else:
            tally, metrics = run_untraced(wl, deck, host_ref, args.seconds, setups, meta)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
