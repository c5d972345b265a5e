"""Relation checks over parameter grids.

Each registered relation runs one identity over every applicable grid point
and reports a per-point verdict; a report passes iff no point fails.  The
registry names are the stable CLI tokens.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction

from . import fermionic, lfunction, twisted
from .characters import (
    DirichletCharacter,
    enumerate_characters,
    principal_character,
    quadratic_character,
)
from .cyclotomic import cyclotomic_field
from .errors import ResidualUndefined
from .eulerian import eulerian_recurrence
from .ntheory import is_squarefree
from .rationals import format_rational, parse_rational
from .series import nth_taylor_coefficient


@dataclass(frozen=True)
class Grid:
    n_max: int = 5
    moduli: tuple = (1, 3, 5)
    q_values: tuple = (Fraction(2), Fraction(3), Fraction(5, 2))
    zeta_orders: tuple = (1, 3, 9)
    zeta_exponent: int = 1
    primes: tuple = (3, 5)
    level_max: int = 4
    padic_n_max: int = 4
    random_tables: int = 5
    seed: int = 271828

    def describe(self) -> str:
        return (
            f"n<={self.n_max} d in {list(self.moduli)} q in "
            f"{[format_rational(q) for q in self.q_values]} zeta orders {list(self.zeta_orders)}"
        )


def default_grid() -> Grid:
    return Grid()


def grid_from_json(doc: dict) -> Grid:
    """A grid from a JSON document: keys are the Grid field names, except "q"
    for q_values (exact rationals); absent keys keep their defaults."""
    kwargs = {}
    for f in fields(Grid):
        key = "q" if f.name == "q_values" else f.name
        if key in doc:
            parse = (lambda x: parse_rational(str(x))) if key == "q" else int
            kwargs[f.name] = tuple(map(parse, doc[key])) if isinstance(f.default, tuple) else parse(doc[key])
    return Grid(**kwargs)


def grid_characters(d: int) -> list[tuple[str, DirichletCharacter]]:
    """The characters a grid exercises per modulus: the principal one, the
    quadratic one where it exists, and one order-4 character for d = 5."""
    out = [("principal", principal_character(d))]
    if d >= 3 and is_squarefree(d):
        out.append(("quadratic", quadratic_character(d)))
    if d == 5:
        order4 = next(c for c in enumerate_characters(5) if c.value_order == 4)
        out.append(("order4", order4))
    return out


@dataclass(frozen=True)
class PointResult:
    key: str
    verdict: str  # pass | fail | skip
    detail: str = ""


@dataclass
class CheckReport:
    relation: str
    grid_description: str
    points: list = field(default_factory=list)

    def add(self, key: str, ok: bool, detail: str = "") -> None:
        self.points.append(PointResult(key, "pass" if ok else "fail", detail))

    def skip(self, key: str, detail: str) -> None:
        self.points.append(PointResult(key, "skip", detail))

    def finalize(self) -> "CheckReport":
        self.points.sort(key=lambda p: p.key)
        return self

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for p in self.points:
            out[p.verdict] += 1
        return out

    @property
    def passed(self) -> bool:
        return self.counts["fail"] == 0

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "grid": self.grid_description,
            "points": [
                {"point": p.key, "verdict": p.verdict, "detail": p.detail} for p in self.points
            ],
            "summary": self.counts,
        }


def _configs(grid: Grid, fixed_q: Fraction | None = None):
    """Every grid configuration with its point key; a fixed q replaces the
    grid's q values and stays out of the key."""
    for d in grid.moduli:
        for char_name, char in grid_characters(d):
            for zeta_order in grid.zeta_orders:
                k = grid.zeta_exponent % zeta_order if zeta_order > 1 else 0
                key = f"d={d} char={char_name} zeta={zeta_order}^{k}"
                for q in grid.q_values if fixed_q is None else (fixed_q,):
                    cfg = twisted.TwistedConfig.build(char, zeta_order, k, q)
                    yield (key if fixed_q is not None else f"{key} q={format_rational(q)}"), cfg


def run_eq15(grid: Grid) -> CheckReport:
    """Moments of the alternating measure against classical polynomials."""
    report = CheckReport("eq15", grid.describe())
    for q in grid.q_values:
        for n in range(9):
            lhs = fermionic.poly_twist_integral(
                fermionic.IntegralSpec(n=n, shift=0, twist=1, ratio=1 / q)
            )
            rhs = Fraction(-1) ** n * eulerian_recurrence(n).evaluate(-q) / (1 + q) ** n
            report.add(f"n={n} q={format_rational(q)}", lhs == rhs)
    return report.finalize()


def run_thm2(grid: Grid) -> CheckReport:
    """Generating-function coefficients against the closed-form series path."""
    report = CheckReport("thm2", grid.describe())
    for key, cfg in _configs(grid):
        gf = twisted.twisted_gf(cfg, grid.n_max + 1)
        for n, b in enumerate(twisted.twisted_series_values(cfg, grid.n_max)):
            report.add(f"{key} n={n}", nth_taylor_coefficient(gf, n) == b)
    return report.finalize()


def run_thm3(grid: Grid) -> CheckReport:
    """Numeric partial sums of the alternating series against the exact value."""
    report = CheckReport("thm3", grid.describe())
    for key, cfg in _configs(grid):
        ns = range(grid.n_max + 1)
        for n, res in zip(ns, lfunction.series_partial_sum_checks(cfg, ns, tol=1e-10)):
            report.add(f"{key} n={n}", res.passed, f"gap={res.gap:.3e}")
    return report.finalize()


def run_thm6(grid: Grid) -> CheckReport:
    """Interpolation of the exact values by the L-series at negative integers."""
    report = CheckReport("thm6", grid.describe())
    for key, cfg in _configs(grid):
        ns = range(1 if cfg.char.modulus == 1 else 0, grid.n_max + 1)
        if ns.start:
            report.skip(f"{key} n=0", "series misses the index-0 term at modulus 1")
        for res in lfunction.interpolation_checks(cfg, ns, tol=1e-9):
            report.add(f"{key} n={res.n}", res.passed, f"gap={res.gap:.3e}")
    return report.finalize()


def run_distribution(grid: Grid) -> CheckReport:
    """Residue-class decomposition of the character moment, exact."""
    report = CheckReport("distribution", grid.describe())
    for key, cfg in _configs(grid):
        for n, res in enumerate(fermionic.distribution_identity_checks(grid.n_max, cfg.char, cfg.zeta, cfg.q)):
            report.add(f"{key} n={n}", res.equal)
    return report.finalize()


def _residual_report(grid: Grid, name: str, residuals) -> CheckReport:
    report = CheckReport(name, grid.describe())
    for key, cfg in _configs(grid):
        for n, sides in enumerate(residuals(cfg, grid.n_max)):
            point = f"{key} n={n}"
            if isinstance(sides, ResidualUndefined):
                report.skip(point, str(sides))
            else:
                lhs, rhs = sides
                report.add(point, lhs == cfg.q**2 * rhs, "expected q^2")
    return report.finalize()


def run_thm1_residual(grid: Grid) -> CheckReport:
    return _residual_report(grid, "thm1-residual", twisted.witt_residuals)


def run_thm5_residual(grid: Grid) -> CheckReport:
    return _residual_report(grid, "thm5-residual", twisted.multiplication_residuals)


def run_cor2_residual(grid: Grid) -> CheckReport:
    """Unnormalized alternating sums: valuation growth toward twice the
    series value, and the constant normalization ratio q^2."""
    report = CheckReport("cor2-residual", grid.describe())
    for p in grid.primes:
        q = Fraction(1 + p)
        for char_name, char in (("principal", principal_character(p)),
                                ("quadratic", quadratic_character(p))):
            reports = fermionic.series_limit_checks(grid.padic_n_max, char, q, p, grid.level_max)
            for n, res in enumerate(reports):
                key = f"p={p} char={char_name} n={n}"
                vals = [lv.valuation for lv in res.levels]
                growth = all(v >= lv.level for lv, v in zip(res.levels, vals)) and all(
                    vals[i] <= vals[i + 1] for i in range(len(vals) - 1)
                )
                ratio_ok = res.ratio is None or res.ratio == q**2
                detail = f"valuations={['inf' if v == math.inf else v for v in vals]} ratio={res.ratio}"
                report.add(key, growth and ratio_ok, detail)
    return report.finalize()


def run_cor3(grid: Grid) -> CheckReport:
    """Exact reduction at q = 1 to twisted Euler polynomial combinations."""
    report = CheckReport("cor3", grid.describe())
    for key, cfg in _configs(grid, fixed_q=Fraction(1)):
        for n, res in enumerate(twisted.euler_reduction_checks(cfg, grid.n_max)):
            report.add(f"{key} n={n}", res.equal)
    return report.finalize()


def run_eq22(grid: Grid) -> CheckReport:
    """Telescoping of the folded twisted Euler generating function."""
    report = CheckReport("eq22", grid.describe())
    for d in grid.moduli:
        for zeta_order in grid.zeta_orders:
            k = grid.zeta_exponent % zeta_order if zeta_order > 1 else 0
            zeta_eff = cyclotomic_field(zeta_order).zeta_power(k)
            res = twisted.euler_gf_consistency(d, zeta_eff, 12)
            report.add(
                f"d_fold={d} zeta={zeta_order}^{k}",
                res.passed,
                f"series_equal={res.series_equal} moments_equal={res.moments_equal}",
            )
    return report.finalize()


def run_eq28_residual(grid: Grid) -> CheckReport:
    """The two alternating kernels differ by exactly q^2 on random tables."""
    report = CheckReport("eq28-residual", grid.describe())
    rng = random.Random(grid.seed)
    for d in grid.moduli:
        for q in grid.q_values:
            for trial in range(grid.random_tables):
                values = [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)
                ]
                res = fermionic.alternating_kernel_ratio_check(d, values, q)
                report.add(
                    f"d={d} q={format_rational(q)} trial={trial}", res.equal
                )
    return report.finalize()


RELATIONS = {
    "eq15": run_eq15,
    "thm2": run_thm2,
    "thm3": run_thm3,
    "thm6": run_thm6,
    "distribution": run_distribution,
    "thm1-residual": run_thm1_residual,
    "thm5-residual": run_thm5_residual,
    "cor2-residual": run_cor2_residual,
    "cor3": run_cor3,
    "eq22": run_eq22,
    "eq28-residual": run_eq28_residual,
}

ALIASES = {"witt": "eq15", "cor2": "cor2-residual"}


def run_relation(name: str, grid: Grid) -> CheckReport:
    canonical = ALIASES.get(name, name)
    if canonical not in RELATIONS:
        raise KeyError(name)
    return RELATIONS[canonical](grid)
