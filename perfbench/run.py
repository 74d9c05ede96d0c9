#!/usr/bin/env python3
"""Benchmark for twostage: end-to-end and per-layer metrics of the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload elim --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout and called in
process through ``twostage.cli.main``, one input at a time, in one thread.
Set-up (import plus input generation) is repeated and timed on its own.
Then whole passes over the workload's inputs run until the next pass
would overrun ``--seconds``; every report is checked.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are normalized to a reference machine speed.  A fixed pure-Python
calibration loop runs before and after every call, and a call's time is
scaled by CALIBRATION_S over the mean of the two loops around it.  The
shared machines this runs on slow down by 20-40% for stretches of tens of
seconds; the calibration loop slows with them, so the scaled times hold
still while the raw ones do not.  Raw figures are printed alongside.  Each
input then counts with its median over the passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced passes and reports the per-layer metrics of the traced
passes (see tracing.py), plus the tracing overhead; it also writes a
per-input breakdown and the spans of the last traced pass to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

# Well above the slowest input that finishes (about 3 s in the timed
# workloads, about 23 s in "northstar").
INPUT_LIMIT_S = 60.0
SETUP_REPEATS = 7
# The calibration loop's typical time on the 2-core VM the baseline was
# measured on (it ranged from about 12 to 21 ms): normalized times are
# seconds at that speed.
CALIBRATION_S = 0.017

END_TO_END = {
    "total_s": "s",
    "max_input_s": "s",
    "geomean_input_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class InputTimeout(BaseException):
    """Raised by the alarm; not an Exception, so cli.main cannot turn it into exit 5."""


def _on_alarm(signum, frame):
    raise InputTimeout


def import_package():
    """Import twostage afresh from the checkout's src/ and return its cli module."""
    if not (SRC / "twostage" / "__init__.py").is_file():
        raise SystemExit(f"error: no twostage package under {SRC}")
    for name in [m for m in sys.modules if m.split(".")[0] == "twostage"]:
        del sys.modules[name]
    cli = importlib.import_module("twostage.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported twostage from {cli.__file__}, not from {SRC}")
    return cli


class Call(NamedTuple):
    input: workloads.Input
    seconds: float  # wall time; the time limit for a timeout
    scale: float  # speed_scale() around the call; 1 for a timeout
    status: str  # "ok", "timeout", "wrong report" or "exit <code>: <stderr>"
    report: str


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the kinds of work the package
    does: integer row operations on a 160 x 160 list-of-lists matrix, then
    small-list arithmetic and tuple-keyed dict updates.  The collector is
    off, so objects the package left alive cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        a = [[(i * 7 + j * 3) % 7 - 3 for j in range(160)] for i in range(160)]
        for k in range(8):
            for i in range(k + 1, 160):
                q = a[i][k] % 5 - 2
                a[i] = [x + q * y for x, y in zip(a[i], a[k])]
        row, seen = list(range(1, 49)), {}
        for i in range(1500):
            row = [(x * 31 + y) % 1000003 for x, y in zip(row, row[1:] + row[:1])]
            seen[(i % 97, row[i % 48])] = i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_scale(before: float, after: float) -> float:
    """CALIBRATION_S over the mean of the calibration loops around a measurement."""
    return 2 * CALIBRATION_S / (before + after)


def setup(workload: str, seed: int):
    """Import plus input generation, repeated; returns the median normalized time."""
    times, before = [], calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_package()
        inputs = workloads.generate(workload, seed, ROOT, WORK)
        elapsed = time.perf_counter() - start
        after = calibrate()
        times.append(elapsed * speed_scale(before, after))
        before = after
    return statistics.median(times), cli, inputs


def call(main, argv) -> tuple[float, str, str]:
    """One CLI call under the time limit: (seconds, status, report)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, INPUT_LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        status = "ok" if code == 0 and not err.getvalue() else f"exit {code}: {err.getvalue().strip()}"
    except InputTimeout:
        status = "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    return (INPUT_LIMIT_S if status == "timeout" else elapsed), status, out.getvalue()


def run_pass(main, inputs, expected, tracer=None) -> list[Call]:
    """Run every input once and check its report."""
    results, before = [], calibrate()
    for item in inputs:
        if tracer is not None:
            tracer.input_id = item.id
        seconds, status, report = call(main, item.argv)
        after = calibrate()
        if status == "ok":
            if item.golden is not None:
                ok = report == item.golden
            else:
                ok = expected.get(item.id) == workloads.answer(report)
            status = "ok" if ok else "wrong report"
        scale = 1.0 if status == "timeout" else speed_scale(before, after)  # a timeout counts at the limit
        results.append(Call(item, seconds, scale, status, report))
        before = after
    return results


def end_to_end(passes, normalized=True) -> dict:
    """Times of one run: each input counts with its median over the passes."""
    times = defaultdict(list)
    for results in passes:
        for c in results:
            times[c.input.id].append(c.seconds * (c.scale if normalized else 1.0))
    medians = [statistics.median(v) for v in times.values()]
    return {
        "total_s": sum(medians),
        "max_input_s": max(medians),
        "geomean_input_s": statistics.geometric_mean(medians),
    }


def measure(cli, inputs, expected, seconds: float, traced: bool):
    """Passes until the next would overrun ``seconds``; traced runs alternate plain and traced passes."""
    plain, traced_passes, tracers = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(run_pass(cli.main, inputs, expected))
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_passes.append(run_pass(tracer.wrap(tracing.MAIN, cli.main), inputs, expected, tracer))
            finally:
                tracer.remove()
            tracers.append(tracer)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return plain, traced_passes, tracers


def per_layer_metrics(plain, traced_passes, tracers) -> dict:
    totals = [t.totals() for t in tracers]
    metrics = {}
    for name, unit in tracing.PER_LAYER.items():
        if name == "trace.overhead_s":
            value = end_to_end(traced_passes)["total_s"] - end_to_end(plain)["total_s"]
        elif unit == "s":
            value = statistics.median(t[name] for t in totals)
        else:
            value = totals[-1][name]  # counts repeat exactly from pass to pass
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def breakdown(workload, seed, traced_passes, tracers) -> dict:
    """Per-input time, status, layer times and counts of the last traced pass.

    Shares are of the input's traced time, which leaves out the tracer's
    own bookkeeping; ``seconds`` is the wall time of the traced call."""
    tracer, results = tracers[-1], traced_passes[-1]
    inputs = {}
    for c in results:
        values = tracer.values[c.input.id]
        traced_s = values[f"{tracing.MAIN}.s"]
        inputs[c.input.id] = {
            "seconds": c.seconds,
            "traced_s": traced_s,
            "status": c.status,
            "share_of_input": {k: v / traced_s for k, v in sorted(values.items()) if k.endswith((".s", ".self_s"))},
            "counts": {k: v for k, v in sorted(values.items()) if not k.endswith((".s", ".self_s"))},
        }
    return {"workload": workload, "seed": seed, "inputs": inputs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_s, cli, inputs = setup(args.workload, args.seed)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    plain, traced_passes, tracers = measure(cli, inputs, expected, args.seconds, bool(args.trace))

    passes = plain + traced_passes
    failures = [(c.input.id, c.status) for p in passes for c in p if c.status != "ok"]
    for input_id, status in failures:
        print(f"FAILED {input_id}: {status}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        report = breakdown(args.workload, args.seed, traced_passes, tracers)
        (OUT / f"trace-{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        tracers[-1].write_spans(OUT / f"spans-{stem}.jsonl")
        metrics = per_layer_metrics(plain, traced_passes, tracers)
    else:
        values = {
            **end_to_end(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    raw = end_to_end(plain, normalized=False)
    scale = statistics.median(c.scale for p in plain for c in p)
    print(f"{args.workload}: {len(plain)} plain + {len(traced_passes)} traced passes, "
          f"{sum(len(p) for p in passes)} calls, {len(failures)} failed; raw total_s {raw['total_s']:.6g} s, "
          f"max_input_s {raw['max_input_s']:.6g} s, geomean_input_s {raw['geomean_input_s']:.6g} s; "
          f"median scale {scale:.4g}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(p) for p in passes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
