#!/usr/bin/env python3
"""Run one workload k times, with seeds 1..k, and report how steady each
end-to-end metric is.

    python3 perfbench/steady.py --workload NAME --runs K [--label L] [--against FILE]

For every end-to-end metric of BENCHMARK.json it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (q3 - q1) /
median, and whether the spread is within a third of the metric's bound and
within the bound.  ``--against`` compares the medians with an earlier set
written by this command: a median that is worse by more than the bound is
flagged.  Each set is written to perfbench/results/steady_<workload>_<label>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
RUN_TIMEOUT_S = 180


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(bench: dict, runs: list[dict]) -> dict:
    out = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        out[metric["name"]] = {
            "values": values, "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": metric["bound"], "better": metric["better"],
        }
    return out


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--label", default="set")
    parser.add_argument("--against", help="an earlier set's JSON file to compare medians with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    bench = load_benchmark()
    runs = []
    for seed in range(1, args.runs + 1):
        result = run_once(bench, args.workload, seed)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    summary = summarize(bench, runs)
    fail_shares = sorted({r["failed"] / r["attempted"] for r in runs})

    earlier = json.loads(Path(args.against).read_text())["summary"] if args.against else None
    steady = True
    print(f"{args.workload}: {args.runs} runs, seeds 1..{args.runs}, failed shares {fail_shares}")
    for name, s in summary.items():
        fits = s["spread"] <= s["bound"] / 3
        line = (f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                f"spread {s['spread']:.4f}  bound {s['bound']}  {'ok' if fits else 'WIDE'}")
        if name != "setup_s":
            steady &= fits
        if earlier is not None:
            drift = worse_by(s, earlier[name]["median"], s["median"])
            line += f"  worse-than-earlier {drift:+.4f} {'ok' if drift <= s['bound'] else 'REGRESSED'}"
            steady &= drift <= s["bound"]
        print(line)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"steady_{args.workload}_{args.label}.json"
    path.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n")
    print(f"written {path.relative_to(ROOT)}")
    return 0 if steady and len(fail_shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
