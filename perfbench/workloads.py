"""The four benchmark workloads: seeded inputs, the op each one times, and
the output checks that need no oracle library.

Every workload has the same shape:

* ``generate(seed)`` makes the inputs as plain data, with no import of
  ``eulertwist``;
* ``build(et, spec)`` turns them into the program's objects (characters,
  configs, fields); this is the part of set-up that ``setup_s`` times;
* ``ops(et, inputs)`` lists the ops; each op is one call into a public
  function of ``eulertwist``;
* ``inspect(op, result)`` checks the result with the clock stopped and
  returns ``(ok, record)``; ``record`` is what the oracle check needs later;
* ``oracle_failures(et, inputs, ops, records)`` runs the mpmath checks
  after the peak RSS has been read and returns the indices of the ops
  they reject.

An op marked ``known_defect`` evaluates a point where the program is known
to return a wrong value; it fails on every run, whatever the seed.

``et`` is a namespace holding the imported ``eulertwist`` modules.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction


@dataclass(slots=True)
class Op:
    fn: object  # a public function of eulertwist
    args: tuple
    point: tuple  # the parameter point the op evaluates
    meta: object = None
    known_defect: bool = False

    def call(self):
        return self.fn(*self.args)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def _units(n: int) -> list[int]:
    return [a for a in range(n) if math.gcd(a, n) == 1] if n > 1 else [0]


def _stratified(name: str, seed: int, strata, choices) -> list:
    """One seeded choice for every stratum, as (stratum, choice).

    The strata fix what sets an op's cost, so every seed gives the same mix
    of costs; the seed picks the rest."""
    return [(stratum, random.Random(f"{name}:{seed}:{stratum}").choice(list(choices(stratum)))) for stratum in strata]


# ---------------------------------------------------------------------------
# Pure helpers shared by the inline checks (no oracle library).

def embed(coeffs, order: int) -> tuple[complex, float]:
    """Float embedding of sum_j c_j exp(2 pi i j / order) from exact
    coefficients, and the scale sum_j |c_j| that bounds its rounding."""
    re, im, scale = [], [], []
    for j, c in enumerate(coeffs):
        if c:
            x = float(c)
            angle = 2 * math.pi * j / order
            re.append(x * math.cos(angle))
            im.append(x * math.sin(angle))
            scale.append(abs(x))
    return complex(math.fsum(re), math.fsum(im)), math.fsum(scale)


def valuation(x: Fraction, p: int):
    """v_p(x), with math.inf for 0."""
    if x == 0:
        return math.inf
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def eulerian_polynomial(n: int) -> list[int]:
    """Coefficients of A_n(t) from the explicit Eulerian-number formula
    A(n, k) = sum_{j<=k} (-1)^j C(n+1, j) (k+1-j)^n; A_0 = 1."""
    if n == 0:
        return [1]
    return [
        sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))
        for k in range(n)
    ]


# ---------------------------------------------------------------------------
# check-sweep: one checks.run_relation call per parameter cell.

# The grid axes each relation ranges over; a cell fixes one value per axis.
RELATION_AXES = {
    "eq15": ("q",),
    "thm2": ("d", "z", "q"),
    "thm3": ("d", "z", "q"),
    "thm6": ("d", "z", "q"),
    "distribution": ("d", "z", "q"),
    "thm1-residual": ("d", "z", "q"),
    "thm5-residual": ("d", "z", "q"),
    "cor2-residual": ("p",),
    "cor3": ("d", "z"),
    "eq22": ("d", "z"),
    "eq28-residual": ("d", "q"),
}
CONFIG_RELATIONS = ("thm2", "thm3", "thm6", "distribution", "thm1-residual", "thm5-residual")
EQ15_POINTS = 9  # eq15 checks n = 0..8 at every q


class CheckSweep:
    name = "check-sweep"

    def generate(self, seed: int) -> dict:
        return {"grid_seed": seed}

    def build(self, et, spec):
        checks = et.checks
        grid = replace(checks.default_grid(), seed=spec["grid_seed"])
        chars = {d: checks.grid_characters(d) for d in grid.moduli}
        for d in grid.moduli:
            for _, char in chars[d]:
                for z in grid.zeta_orders:
                    et.cyclotomic.cyclotomic_field(math.lcm(z, char.value_order))
                    et.cyclotomic.cyclotomic_field(z)
        axes = {"d": grid.moduli, "z": grid.zeta_orders, "q": grid.q_values, "p": grid.primes}
        grid_field = {"d": "moduli", "z": "zeta_orders", "q": "q_values", "p": "primes"}
        cells = []
        for relation in checks.RELATIONS:
            names = RELATION_AXES[relation]
            for values in itertools.product(*(axes[a] for a in names)):
                cell = dict(zip(names, values))
                sub = replace(grid, **{grid_field[a]: (v,) for a, v in cell.items()})
                cells.append((relation, cell, sub, self._expected_points(relation, cell, grid, chars)))
        return {"grid": grid, "chars": chars, "cells": cells}

    @staticmethod
    def _expected_points(relation, cell, grid, chars) -> int:
        if relation == "eq15":
            return EQ15_POINTS
        if relation == "cor2-residual":
            return 2 * (grid.padic_n_max + 1)
        if relation == "eq22":
            return 1
        if relation == "eq28-residual":
            return grid.random_tables
        return len(chars[cell["d"]]) * (grid.n_max + 1)

    def ops(self, et, inputs) -> list[Op]:
        run = et.checks.run_relation
        out = []
        for relation, cell, sub, expected in inputs["cells"]:
            # cor3 evaluates its (modulus, twist order) cell at q = 1.
            point = tuple(sorted(cell.items())) if relation != "cor3" else (("q", 1),) + tuple(sorted(cell.items()))
            out.append(Op(run, (relation, sub), point, {"relation": relation, "cell": cell, "expected": expected}))
        return out

    def inspect(self, op, report):
        points = report.points
        keys = {p.key for p in points}
        ok = report.relation == op.meta["relation"] and len(points) == op.meta["expected"] == len(keys)
        for p in points:
            if p.verdict == "pass":
                continue
            allowed_skip = (
                p.verdict == "skip" and op.meta["relation"] == "thm6"
                and p.key.startswith("d=1 ") and p.key.endswith(" n=0")
            )
            ok = ok and allowed_skip
        return ok, None

    def oracle_records(self, et, inputs) -> list:
        """The embedded A_n of every default-grid configuration, from the
        generating-function path, for the mpmath Taylor oracle."""
        grid = inputs["grid"]
        records = []
        for d in grid.moduli:
            for _, char in inputs["chars"][d]:
                for z in grid.zeta_orders:
                    k = grid.zeta_exponent % z if z > 1 else 0
                    for q in grid.q_values:
                        cfg = et.twisted.TwistedConfig.build(char, z, k, q)
                        gf = et.twisted.twisted_gf(cfg, grid.n_max + 1)
                        vectors = [et.series.nth_taylor_coefficient(gf, n).coeffs for n in range(grid.n_max + 1)]
                        records.append(taylor_record((d, z, q), char, z, k, q, vectors, cfg.field.order))
        return records

    def oracle_failures(self, et, inputs, ops, records) -> set:
        from oracles import taylor_rejects

        bad_cells = {r["key"] for r in self.oracle_records(et, inputs) if taylor_rejects(r)}
        return {
            i for i, op in enumerate(ops)
            if op.meta["relation"] in CONFIG_RELATIONS
            and (op.meta["cell"]["d"], op.meta["cell"]["z"], op.meta["cell"]["q"]) in bad_cells
        }


def taylor_record(key, char, z, k, q, vectors, order) -> dict:
    """What the Taylor oracle needs: the point, with the character as its
    exponent table, and each A_n embedded."""
    return {
        "key": key, "modulus": char.modulus, "exponents": tuple(char.exponents), "value_order": char.value_order,
        "zeta_order": z, "zeta_exponent": k, "q": Fraction(q),
        "embedded": [embed(v, order) for v in vectors],
    }


# ---------------------------------------------------------------------------
# value-table: one twisted.twisted_values(cfg, n_max) call per point.

VALUE_MODULI = (5, 7, 9, 11, 13, 15)
VALUE_TWIST_ORDERS = (3, 9)
# Every (modulus, character, twist order) gets one q from each band, so
# every seed has the same mix of heights of q.
VALUE_Q_BANDS = (
    tuple(Fraction(x) for x in ("1/2", "2/3", "3/4", "4/3", "3/2", "2")),
    tuple(Fraction(x) for x in ("5/3", "5/2", "3", "7/2", "4", "5")),
)
# n_max by the size of the point's work (period lcm(2, d, z) times field
# degree), so that ops cost within about one order of magnitude.
VALUE_NMAX_STEPS = ((100, 8), (300, 6), (1000, 4), (2500, 3))
VALUE_NMAX_FLOOR = 2


def value_n_max(period: int, degree: int) -> int:
    size = period * degree
    for limit, n_max in VALUE_NMAX_STEPS:
        if size < limit:
            return n_max
    return VALUE_NMAX_FLOOR


class ValueTable:
    name = "value-table"

    def generate(self, seed: int) -> list:
        strata = [
            (d, idx, z, band) for d in VALUE_MODULI for idx in range(_phi(d))
            for z in VALUE_TWIST_ORDERS for band in range(len(VALUE_Q_BANDS))
        ]
        return _stratified(
            self.name, seed, strata,
            lambda stratum: [(k, q) for k in _units(stratum[2]) for q in VALUE_Q_BANDS[stratum[3]]],
        )

    def build(self, et, spec):
        chars = {}
        out = []
        for (d, idx, z, _), (k, q) in spec:
            if d not in chars:
                chars[d] = et.characters.enumerate_characters(d)
            cfg = et.twisted.TwistedConfig.build(chars[d][idx], z, k, q)
            n_max = value_n_max(math.lcm(2, d, z), cfg.field.degree)
            out.append(((d, idx, z, k, q), cfg, n_max))
        return out

    def ops(self, et, inputs) -> list[Op]:
        values = et.twisted.twisted_values
        return [Op(values, (cfg, n_max), point) for point, cfg, n_max in inputs]

    def inspect(self, op, result):
        cfg, n_max = op.args
        ok = len(result) == n_max + 1 and all(tv.n == n for n, tv in enumerate(result))
        vectors = [tv.value.coeffs for tv in result]
        d, _, z, k, q = op.point
        return ok, taylor_record(op.point, cfg.char, z, k, q, vectors, cfg.field.order)

    def oracle_failures(self, et, inputs, ops, records) -> set:
        from oracles import taylor_rejects

        return {i for i, r in enumerate(records) if r is not None and taylor_rejects(r)}


# ---------------------------------------------------------------------------
# lseries-scan: one lfunction.l_eval call per point of s.

LSERIES_MODULI = (3, 5, 7, 9, 11, 13, 15)
LSERIES_TWIST_ORDERS = (1, 3, 9)
LSERIES_Q = tuple(Fraction(x) for x in (
    "11/10", "6/5", "5/4", "4/3", "3/2", "5/3", "2", "5/2", "3", "7/2", "4", "9/2", "5"))
LSERIES_COPIES = 2  # points per (modulus, twist order)
LSERIES_LINES = 4  # vertical lines Re s = sigma per point
LSERIES_STEPS = 180  # points of s per line, Im s evenly over [-40, 40]
# Re s in [-2, 8].  Further left the double-precision sum loses more than
# the 1e-12 the check allows wherever q is near 1 (see LSERIES_DEFECT).
LSERIES_SIGMAS = tuple(x / 4 for x in range(-8, 33))
LSERIES_TOL = 1e-12  # the l_eval default
LSERIES_SAMPLE = 100  # ops checked against the Lerch oracle
# One point where l_series_sum's double-precision sum is wrong by far more
# than its tail bound: the terms reach 1e64 while |L| is about 1e47.  It is
# checked on every run and fails on every run.
LSERIES_DEFECT = (3, 3, 1, Fraction(11, 10), complex(-30, 10))  # d, z, k, q, s; principal chi


class LSeriesScan:
    name = "lseries-scan"

    def generate(self, seed: int) -> dict:
        """Every seed gets the same (modulus, twist order) pairs, each with
        the same q and one line from each quarter of Re s; the seed picks
        the character, the twist exponent, the lines and the checked sample."""
        strata = [(d, z, c) for d in LSERIES_MODULI for z in LSERIES_TWIST_ORDERS for c in range(LSERIES_COPIES)]
        size = len(LSERIES_SIGMAS) / LSERIES_LINES
        bins = [LSERIES_SIGMAS[round(i * size):round((i + 1) * size)] for i in range(LSERIES_LINES)]
        rng = _rng(self.name, seed)
        points = []
        for i, ((d, z, _), (idx, k)) in enumerate(_stratified(
            self.name, seed, strata,
            lambda stratum: [(idx, k) for idx in range(_phi(stratum[0])) for k in _units(stratum[1])],
        )):
            q = LSERIES_Q[i % len(LSERIES_Q)]
            points.append(((d, idx, z, k, q), [rng.choice(b) for b in bins]))
        total = len(points) * LSERIES_LINES * LSERIES_STEPS
        return {"points": points, "sample": sorted(rng.sample(range(total), LSERIES_SAMPLE))}

    def build(self, et, spec):
        chars = {}
        params = []
        for (d, idx, z, k, q), sigmas in spec["points"]:
            if d not in chars:
                chars[d] = et.characters.enumerate_characters(d)
            cfg = et.twisted.TwistedConfig.build(chars[d][idx], z, k, q)
            for sigma in sigmas:
                for j in range(LSERIES_STEPS):
                    s = complex(sigma, -40 + 80 * j / (LSERIES_STEPS - 1))
                    params.append(((d, idx, z, k, q, s), et.lfunction.LParams(s=s, cfg=cfg)))
        d, z, k, q, s = LSERIES_DEFECT
        cfg = et.twisted.TwistedConfig.build(et.characters.principal_character(d), z, k, q)
        return {"params": params, "sample": set(spec["sample"]), "defect": et.lfunction.LParams(s=s, cfg=cfg)}

    def ops(self, et, inputs) -> list[Op]:
        l_eval = et.lfunction.l_eval
        sample = inputs["sample"]
        out = [Op(l_eval, (prm,), point, i in sample) for i, (point, prm) in enumerate(inputs["params"])]
        out.append(Op(l_eval, (inputs["defect"],), ("defect",) + LSERIES_DEFECT, True, known_defect=True))
        return out

    def inspect(self, op, result):
        ok = (
            math.isfinite(result.value.real) and math.isfinite(result.value.imag)
            and result.terms_used >= 1 and 0 <= result.tail_bound < LSERIES_TOL
        )
        if not op.meta:  # not in the oracle's sample
            return ok, None
        return ok, lseries_record(op.args[0], result.value, result.terms_used, result.tail_bound)

    def oracle_failures(self, et, inputs, ops, records) -> set:
        from oracles import lseries_rejects

        return {i for i, r in enumerate(records) if r is not None and lseries_rejects(r)}


def lseries_record(params, value, terms_used, tail_bound) -> dict:
    cfg = params.cfg
    return {
        "modulus": cfg.char.modulus, "exponents": tuple(cfg.char.exponents), "value_order": cfg.char.value_order,
        "zeta_order": cfg.zeta_order, "zeta_exponent": cfg.zeta_exponent, "q": cfg.q,
        "s": complex(params.s), "value": complex(value), "terms": terms_used, "tail_bound": tail_bound,
    }


# ---------------------------------------------------------------------------
# padic-levels: one fermionic.padic_truncation call per point.

PADIC_LEVELS = {3: 7, 5: 5, 7: 4}  # each op costs tens of milliseconds
PADIC_K_BANDS = (range(1, 6), range(6, 11))  # q = 1 + k p, one k from each band
PADIC_N = range(0, 7)
PADIC_CHARS = ("trivial", "principal", "quadratic")

class PadicLevels:
    name = "padic-levels"

    def generate(self, seed: int) -> list:
        strata = [
            (p, char, n, band) for p in PADIC_LEVELS for char in PADIC_CHARS
            for n in PADIC_N for band in range(len(PADIC_K_BANDS))
        ]
        return _stratified(
            self.name, seed, strata,
            lambda stratum: [1 + k * stratum[0] for k in PADIC_K_BANDS[stratum[3]]],
        )

    def build(self, et, spec):
        chars = et.characters
        out = []
        for (p, char_name, n, _), q in spec:
            char = {
                "trivial": None,
                "principal": chars.principal_character(p),
                "quadratic": chars.quadratic_character(p),
            }[char_name]
            out.append(((p, char_name, q, n), char))
        return out

    def ops(self, et, inputs) -> list[Op]:
        truncate = et.fermionic.padic_truncation
        return [
            Op(truncate, (n, Fraction(q), p, PADIC_LEVELS[p], char), (p, char_name, q, n))
            for (p, char_name, q, n), char in inputs
        ]

    def inspect(self, op, report):
        n, q, p, level, char = op.args
        return padic_report_ok(report, p, q, n, level, char), None

    def oracle_failures(self, et, inputs, ops, records) -> set:
        return set()


def partial_sums(n: int, q: Fraction, p: int, max_level: int, char) -> list[Fraction]:
    """S_N for N = 0..max_level, recomputed in integers: the prefix sums of
    chi(x) x^n (-1/q)^x over x < p^N, over the alternating bracket of p^N."""
    u, v = q.numerator, q.denominator
    w = Fraction(-v, u)
    chi = [1] * p if char is None else [0 if e is None else (-1) ** e for e in char.exponents]
    checkpoints = {p**level - 1: level for level in range(max_level + 1)}
    out = [None] * (max_level + 1)
    acc = 0  # u^x times the prefix sum up to x
    neg_v_pow = 1  # (-v)^x
    for x in range(p**max_level):
        acc = acc * u + chi[x % p] * x**n * neg_v_pow
        neg_v_pow *= -v
        if x in checkpoints:
            count = x + 1
            out[checkpoints[x]] = Fraction(acc, u**x) / ((1 - w**count) / (1 - w))
    return out


def padic_report_ok(report, p: int, q: Fraction, n: int, max_level: int, char) -> bool:
    levels = report.levels
    if report.p != p or len(levels) != max_level + 1:
        return False
    expected = partial_sums(n, q, p, max_level, char)
    for level, lv in enumerate(levels):
        v = valuation(lv.partial - report.exact, p)
        if lv.level != level or lv.partial != expected[level] or v < level or lv.valuation != v:
            return False
    if char is None:
        a_n = sum(c * (-q) ** k for k, c in enumerate(eulerian_polynomial(n)))
        if report.exact != (-1) ** n * a_n / (1 + q) ** n:
            return False
    return True


WORKLOADS = {w.name: w for w in (CheckSweep(), ValueTable(), LSeriesScan(), PadicLevels())}
