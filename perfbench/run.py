#!/usr/bin/env python3
"""Run one benchmark workload against the eulertwist sources beside it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Workloads: check-sweep, value-table, lseries-scan, padic-levels (see
README.md).  A run performs one fixed, seeded list of ops, in a fixed
order, whatever their time; each list is sized so that on the reference
machine the time inside the program's calls exceeds ``--seconds``, and a
note goes to stderr when it does not.  Op and set-up times are wall times
scaled to a reference CPU speed, measured by a calibration loop timed
between ops (see REFERENCE_CALIBRATION_S).  The outputs are checked with
the clock stopped; mpmath is imported only after the peak RSS has been
read.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``failed``
counts the ops that raised or that a check rejected; ``correct`` is false
when one of them is not an op marked as a known defect of the program.
``--out`` also writes the full result, with the run's details, to a JSON
file.

Exit codes: 0 when the run finished, 2 when the program or the benchmark
could not be set up.
"""
from __future__ import annotations

import argparse
import cmath
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROGRAM_MODULES = (
    "characters", "checks", "cyclotomic", "eulerian", "fermionic",
    "lfunction", "rationals", "series", "twisted",
)
SETUP_SAMPLES = 5  # set-ups per run, each in a fresh interpreter
SETUP_TIMEOUT_S = 120
# The CPU speed of a shared virtual machine drifts by about 20% between
# runs.  A fixed calibration loop, timed between ops, measures it: each op's
# wall time is scaled by REFERENCE_CALIBRATION_S / (the calibration time
# around it), i.e. to the speed at which the loop takes the reference time.
REFERENCE_CALIBRATION_S = 0.0016
CALIBRATE_EVERY_S = 0.025  # of op time between two calibrations

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    pass


def import_program() -> SimpleNamespace:
    """Import eulertwist from the checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("eulertwist")
        modules = {name: importlib.import_module(f"eulertwist.{name}") for name in PROGRAM_MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import eulertwist from {SRC}: {exc}") from exc
    if Path(package.__file__).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"eulertwist was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(package=package, **modules)


def calibration_loop() -> None:
    """Fixed interpreter work of the kinds the program does: rational and
    big-integer arithmetic, tuples and dicts, complex floats."""
    acc, w = Fraction(0), Fraction(1)
    for x in range(1, 100):
        w *= Fraction(-2, 7)
        acc += w * x * x
    table = {}
    for i in range(1250):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i * i
    z = 0j
    for m in range(1, 300):
        z += cmath.exp(complex(-0.5, 3.0) * cmath.log(m) - m * 0.3)


def calibration_s() -> float:
    """Time of one calibration loop, with the cyclic garbage collector off so
    that the size of the program's heap does not move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale_to_reference(raw, segments, calibrations) -> list[float]:
    """Scale each op's wall time by the reference calibration time over the
    mean of the two calibrations just before and after its segment
    (``calibrations[i]`` and ``calibrations[i + 1]`` bracket ``segments[i]``)."""
    out = []
    for i, segment in enumerate(segments):
        factor = 2 * REFERENCE_CALIBRATION_S / (calibrations[i] + calibrations[i + 1])
        out.extend(raw[j] * factor for j in segment)
    return out


def set_up(workload, spec, tracer=None):
    """Import the program and build the inputs; returns (seconds, et, inputs)."""
    start = time.perf_counter()
    et = import_program()
    if tracer is not None:
        tracer.install(et)
    inputs = workload.build(et, spec)
    return time.perf_counter() - start, et, inputs


def setup_samples(name: str, seed: int, seconds: float) -> list[float]:
    """Set-up times of SETUP_SAMPLES fresh interpreters, run one at a time."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def measure(workload, seed: int, seconds: float, tracer=None) -> dict:
    _, et, inputs = set_up(workload, workload.generate(seed), tracer)
    ops = workload.ops(et, inputs)
    raw, failed, records = [], set(), []  # wall seconds of every op; indices of failed ops
    segments = [[]]  # indices of the completed ops between two calibrations
    calibration_loop()  # warm-up
    calibrations = [calibration_s()]
    since = 0.0
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:
            raw.append(time.perf_counter() - start)
            failed.add(i)
            records.append(None)
            print(f"op {i} {op.point} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        segments[-1].append(i)
        ok, record = workload.inspect(op, result)
        del result
        records.append(record)
        if not ok:
            failed.add(i)
        since += elapsed
        if since >= CALIBRATE_EVERY_S:
            calibrations.append(calibration_s())
            segments.append([])
            since = 0.0
    calibrations.append(calibration_s())
    scaled = scale_to_reference(raw, segments, calibrations)
    if sum(raw) < seconds:
        print(f"note: the ops took {sum(raw):.2f} s, less than --seconds {seconds:g}", file=sys.stderr)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed |= workload.oracle_failures(et, inputs, ops, records)
    for index in sorted(failed):
        print(f"op {index} {ops[index].point} failed its check"
              + (" (a known defect of the program)" if ops[index].known_defect else ""), file=sys.stderr)

    seen, revisits = set(), 0
    for op in ops:
        revisits += op.point in seen
        seen.add(op.point)
    scaled_ms = [t * 1e3 for t in scaled]
    raw_ms = [t * 1e3 for i, t in enumerate(raw) if i not in failed]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "unexpected_failures": sum(not ops[i].known_defect for i in failed),
        "ops_per_s": len(scaled) / sum(scaled),
        "op_ms_p50": statistics.median(scaled_ms),
        "op_ms_p90": statistics.quantiles(scaled_ms, n=10)[-1],
        "peak_rss_mb": peak_rss_mb,
        "op_ms_range": [min(scaled_ms), max(scaled_ms)],
        "unscaled": {
            "op_s_total": sum(raw),
            "ops_per_s": len(scaled) / sum(raw),
            "op_ms_p50": statistics.median(raw_ms),
            "op_ms_p90": statistics.quantiles(raw_ms, n=10)[-1],
        },
        "calibration_s": statistics.median(calibrations),
        "revisit_share": revisits / len(ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True,
                        help="the op time one run is sized to exceed (BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result to this JSON file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    try:
        if args.setup_probe:
            spec = workload.generate(args.seed)
            calibration_loop()  # warm-up
            before = statistics.median(calibration_s() for _ in range(3))
            seconds, _, _ = set_up(workload, spec)
            after = statistics.median(calibration_s() for _ in range(3))
            print(json.dumps({"setup_s": seconds * REFERENCE_CALIBRATION_S / ((before + after) / 2)}))
            return 0
        tracer = tracing.Tracer() if args.trace else None
        run = measure(workload, args.seed, args.seconds, tracer)
        if tracer is None:
            run["setup_samples"] = setup_samples(args.workload, args.seed, args.seconds)
            run["setup_s"] = statistics.median(run["setup_samples"])
            metrics = {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END}
        else:
            metrics = tracer.metrics()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = {
        "correct": run["unexpected_failures"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    if args.out:
        details = dict(run, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"result": result, "run": details}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
