#!/usr/bin/env python3
"""Traced run of every workload: per-layer metrics and tracing overhead.

    python3 perfbench/trace.py

For each workload of BENCHMARK.json it runs the benchmark once untraced
and once traced (``--trace 1``) with seed 1, and writes one JSON file,
perfbench/results/trace.json, holding per workload every per-layer metric
and the tracing overhead: the drop in ``ops_per_s`` from the untraced run
to the traced run, as a share of the untraced value.
"""
from __future__ import annotations

import json
import subprocess
import sys

from steady import RESULTS, ROOT, RUN_TIMEOUT_S, load_benchmark

SEED = 1
OUT = RESULTS / "trace.json"


def run_detailed(bench: dict, workload: str, seed: int, trace: int) -> dict:
    out = RESULTS / f"trace_{workload}_{trace}.json"
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace), "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text())


def main() -> int:
    bench = load_benchmark()
    doc = {"seed": SEED, "workloads": {}}
    all_correct = True
    for name in (w["name"] for w in bench["workloads"]):
        plain = run_detailed(bench, name, SEED, 0)
        traced = run_detailed(bench, name, SEED, 1)
        untraced_rate, traced_rate = plain["run"]["ops_per_s"], traced["run"]["ops_per_s"]
        doc["workloads"][name] = {
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "attempted": traced["result"]["attempted"],
            "failed": traced["result"]["failed"],
            "ops_per_s": {
                "untraced": untraced_rate,
                "traced": traced_rate,
                "overhead": (untraced_rate - traced_rate) / untraced_rate,
            },
            "per_layer": traced["result"]["metrics"],
        }
        all_correct &= doc["workloads"][name]["correct"]
        print(f"{name}: ops_per_s untraced {untraced_rate:.4g}, traced {traced_rate:.4g}, "
              f"overhead {doc['workloads'][name]['ops_per_s']['overhead']:.1%}")
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"written {OUT.relative_to(ROOT)}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
