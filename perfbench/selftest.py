#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For every workload it runs a few of the workload's own ops, shows that the
check accepts the program's results, and that it rejects the same result
with one coefficient perturbed; the L-series op marked as a known defect
must be rejected as it stands.  It also compares the Lerch transcendent
summed by the oracle with mpmath.lerchphi, and BENCHMARK.json's metric
lists with the ones the benchmark reports.  Exit code 0 when every
expectation holds.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

import mpmath

import oracles
import run as bench
import tracer
import workloads as wl

FAILURES = []


def expect(label: str, accepted: bool, want: bool) -> None:
    verdict = "accepted" if accepted else "rejected"
    ok = accepted == want
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    if not ok:
        FAILURES.append(label)


def bump(vector: tuple, j: int, delta) -> tuple:
    return vector[:j] + (vector[j] + delta,) + vector[j + 1:]


def selftest_check_sweep(et) -> None:
    w = wl.WORKLOADS["check-sweep"]
    ops = w.ops(et, w.build(et, w.generate(1)))
    op = next(o for o in ops if o.meta["relation"] == "thm6" and o.meta["cell"] == {"d": 1, "z": 3, "q": 2})
    report = op.call()
    expect("check-sweep: thm6 cell with its documented skip", w.inspect(op, report)[0], True)
    flipped = [dataclasses.replace(p, verdict="fail") if p.verdict == "pass" and i == 3 else p
               for i, p in enumerate(report.points)]
    expect("check-sweep: one verdict turned to fail", w.inspect(op, dataclasses.replace(report, points=flipped))[0], False)
    skipped = [dataclasses.replace(p, verdict="skip") if p.verdict == "pass" and i == 3 else p
               for i, p in enumerate(report.points)]
    expect("check-sweep: one undocumented skip", w.inspect(op, dataclasses.replace(report, points=skipped))[0], False)

    char = next(c for _, c in et.checks.grid_characters(5) if c.value_order == 4)
    cfg = et.twisted.TwistedConfig.build(char, 9, 1, Fraction(5, 2))
    gf = et.twisted.twisted_gf(cfg, 6)
    vectors = [et.series.nth_taylor_coefficient(gf, n).coeffs for n in range(6)]
    record = wl.taylor_record("d=5", char, 9, 1, Fraction(5, 2), vectors, cfg.field.order)
    expect("check-sweep: A_0..A_5 against the Taylor oracle", not oracles.taylor_rejects(record), True)
    scale = record["embedded"][4][1]
    vectors[4] = bump(vectors[4], 2, Fraction(1 + round(scale), 10**6))
    record = wl.taylor_record("d=5", char, 9, 1, Fraction(5, 2), vectors, cfg.field.order)
    expect("check-sweep: A_4 with one coefficient perturbed", not oracles.taylor_rejects(record), False)


def selftest_value_table(et) -> None:
    w = wl.WORKLOADS["value-table"]
    ops = w.ops(et, w.build(et, w.generate(1)))
    for op in (ops[0], ops[len(ops) // 2], ops[-1]):
        result = op.call()
        ok, record = w.inspect(op, result)
        expect(f"value-table {op.point}", ok and not oracles.taylor_rejects(record), True)
        cfg, n_max = op.args
        vectors = [tv.value.coeffs for tv in result]
        scale = record["embedded"][n_max][1]
        vectors[n_max] = bump(vectors[n_max], 0, Fraction(1 + round(scale), 10**6))
        d, _, z, k, q = op.point
        perturbed = wl.taylor_record(op.point, cfg.char, z, k, q, vectors, cfg.field.order)
        expect(f"value-table {op.point}: A_{n_max} perturbed", not oracles.taylor_rejects(perturbed), False)


def selftest_lseries(et) -> None:
    with mpmath.mp.workdps(30):
        s, a, w = mpmath.mpc(0.5, 1), mpmath.mpf(1) / 3, mpmath.mpf("0.3")
        ours = oracles.lerch_phi(w, s, a, mpmath.mpf(10) ** -28)
        gap = abs(ours - mpmath.lerchphi(w, s, a))
    expect(f"lseries-scan: summed Lerch Phi against mpmath.lerchphi (gap {float(gap):.1e})", gap < 1e-25, True)
    wk = wl.WORKLOADS["lseries-scan"]
    checked = [o for o in wk.ops(et, wk.build(et, wk.generate(1))) if o.meta]
    for op in checked:
        ok, record = wk.inspect(op, op.call())
        oracle, allowed = oracles.lseries_check(record)
        value = record["value"]
        error = abs(value - oracle)
        label = f"lseries-scan q={op.args[0].cfg.q} s={op.args[0].s:.4g}"
        expect(f"{label} (error {error:.1e}, allowed {allowed:.1e})", ok and error <= allowed, not op.known_defect)
        if not op.known_defect:
            perturbed = value + 1e-9 * abs(value)
            expect(f"{label}: real part perturbed by 1e-9 of |L|", abs(perturbed - oracle) <= allowed, False)


def selftest_padic(et) -> None:
    w = wl.WORKLOADS["padic-levels"]
    ops = w.ops(et, w.build(et, w.generate(1)))
    for kind in wl.PADIC_CHARS:
        op = next(o for o in ops if o.point[1] == kind and o.point[0] == 7)
        report = op.call()
        expect(f"padic-levels {op.point}", w.inspect(op, report)[0], True)
        top = report.levels[-1]
        levels = report.levels[:-1] + (dataclasses.replace(top, partial=top.partial + 1),)
        expect(f"padic-levels {op.point}: S_{top.level} perturbed",
               w.inspect(op, dataclasses.replace(report, levels=levels))[0], False)
        if kind == "trivial":
            # Deep enough that every valuation still holds: only the
            # Eulerian-number formula can reject it.
            shifted = dataclasses.replace(report, exact=report.exact + Fraction(7) ** 40)
            expect(f"padic-levels {op.point}: exact moment perturbed by 7^40",
                   w.inspect(op, shifted)[0], False)


def selftest_metric_lists() -> None:
    doc = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    expect("BENCHMARK.json per_layer matches the traced run", per_layer == list(tracer.METRICS), True)
    end_to_end = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    expect("BENCHMARK.json end_to_end matches the untraced run",
           sorted(end_to_end) == sorted(bench.END_TO_END), True)
    expect("BENCHMARK.json workloads match the benchmark's",
           [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS), True)


def main() -> int:
    et = bench.import_program()
    selftest_metric_lists()
    selftest_check_sweep(et)
    selftest_value_table(et)
    selftest_lseries(et)
    selftest_padic(et)
    print(f"{len(FAILURES)} expectation(s) failed" if FAILURES else "all expectations hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
