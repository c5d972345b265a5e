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
from .eulerian import eulerian_at
from .ntheory import is_squarefree
from .rationals import format_rational, padic_valuation, parse_rational


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


def _json_int(key: str, value) -> int:
    if type(value) is not int:  # bool is an int subclass, and a float would be truncated
        raise ValueError(f"{key} takes integers, got {value!r}")
    return value


def _json_rational(key: str, value) -> Fraction:
    if type(value) not in (int, str):
        raise ValueError(f"{key} takes integers or rational strings, got {value!r}")
    return parse_rational(str(value))


def grid_from_json(doc: dict) -> Grid:
    """A grid from a JSON document: keys are the Grid field names, except "q"
    for q_values (integers or rational strings); absent keys keep their
    defaults.  A ValueError names the key of an unknown key, a list where a
    number belongs or the reverse, and a non-integer number."""
    keys = {"q" if f.name == "q_values" else f.name: f for f in fields(Grid)}
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; the keys are {', '.join(keys)}")
    kwargs = {}
    for key, value in doc.items():
        f = keys[key]
        parse = _json_rational if key == "q" else _json_int
        if not isinstance(f.default, tuple):
            kwargs[f.name] = parse(key, value)
        elif isinstance(value, list):
            kwargs[f.name] = tuple(parse(key, x) for x in value)
        else:
            raise ValueError(f"{key} takes a list, got {value!r}")
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
    """Moments of the alternating measure against classical polynomials: one
    moment sequence I(x^n), n <= 8, per q."""
    report = CheckReport("eq15", grid.describe())
    for q in grid.q_values:
        moments = fermionic._moment_sequence(8, 1 / q)
        for n, lhs in enumerate(moments):
            rhs = Fraction(-1) ** n * eulerian_at(n, -q) / (1 + q) ** n
            report.add(f"n={n} q={format_rational(q)}", lhs == rhs)
    return report.finalize()


# Tolerances of the two float relations: thm3 bounds the absolute gap, thm6
# the gap relative to 1 + |exact value|.
PARTIAL_SUM_TOL = 1e-10
INTERPOLATION_TOL = 1e-9


def _config_report(grid: Grid, name: str, sides, decide, fixed_q: Fraction | None = None) -> CheckReport:
    """One verdict per configuration and n: sides(cfg, n_max) gives an
    (lhs, rhs) pair per n, or a ResidualUndefined that skips the point, and
    decide(cfg, lhs, rhs) gives (ok, detail)."""
    report = CheckReport(name, grid.describe())
    for key, cfg in _configs(grid, fixed_q):
        for n, pair in enumerate(sides(cfg, grid.n_max)):
            point = f"{key} n={n}"
            if isinstance(pair, ResidualUndefined):
                report.skip(point, str(pair))
            else:
                report.add(point, *decide(cfg, *pair))
    return report.finalize()


def _equal(cfg, lhs, rhs) -> tuple:
    return lhs == rhs, ""


def _equal_up_to_q_squared(cfg, lhs, rhs) -> tuple:
    return lhs == cfg.q**2 * rhs, "expected q^2"


def _absolute_gap(cfg, lhs, rhs) -> tuple:
    gap = abs(lhs - rhs)
    return gap <= PARTIAL_SUM_TOL, f"gap={gap:.3e}"


def _relative_gap(cfg, lhs, rhs) -> tuple:
    gap = abs(lhs - rhs)
    return gap <= INTERPOLATION_TOL * (1 + abs(rhs)), f"gap={gap:.3e}"


def _path_sides(cfg, n_max: int) -> list:
    """Theorem 2: generating-function coefficients beside the closed-form series path."""
    values = twisted.twisted_values(cfg, n_max)
    return [(tv.value, b) for tv, b in zip(values, twisted.twisted_series_values(cfg, n_max))]


def run_thm2(grid: Grid) -> CheckReport:
    """Generating-function coefficients against the closed-form series path."""
    return _config_report(grid, "thm2", _path_sides, _equal)


def run_thm3(grid: Grid) -> CheckReport:
    """Numeric partial sums of the alternating series against the exact value."""
    return _config_report(grid, "thm3", lfunction.series_partial_sum_checks, _absolute_gap)


def run_thm6(grid: Grid) -> CheckReport:
    """Interpolation of the exact values by the L-series at negative integers."""
    return _config_report(grid, "thm6", lfunction.interpolation_checks, _relative_gap)


def run_distribution(grid: Grid) -> CheckReport:
    """Residue-class decomposition of the character moment, exact."""
    return _config_report(grid, "distribution", fermionic.distribution_identity_checks, _equal)


def run_thm1_residual(grid: Grid) -> CheckReport:
    return _config_report(grid, "thm1-residual", twisted.witt_residuals, _equal_up_to_q_squared)


def run_thm5_residual(grid: Grid) -> CheckReport:
    return _config_report(grid, "thm5-residual", twisted.multiplication_residuals, _equal_up_to_q_squared)


def run_cor2_residual(grid: Grid) -> CheckReport:
    """Corollary 2: the unnormalized alternating sums U_N tend to
    2 (-1)^n A_n / (q (1+q)^(n+1)), A_n on the series path, with every
    v_p(U_N - limit) at least N; the d-l+1 kernel's limit, the same formula
    times q^2 with A_n from the generating function, is q^2 times it."""
    report = CheckReport("cor2-residual", grid.describe())
    for p in grid.primes:
        q = Fraction(1 + p)
        for char_name, char in (("principal", principal_character(p)),
                                ("quadratic", quadratic_character(p))):
            sums = fermionic.riemann_sums(grid.padic_n_max, q, p, grid.level_max, char)
            sides = _path_sides(twisted.TwistedConfig.build(char, 1, 0, q), grid.padic_n_max)
            for n, (row, (gf, series)) in enumerate(zip(sums, sides)):
                # A_n is rational here: the twist is 1 and chi takes values in {0, 1, -1}.
                scale = 2 * (-1) ** n / (q * (1 + q) ** (n + 1))
                limit = scale * series.coeffs[0]
                vals = [padic_valuation(total - limit, p) for total in row]
                growth = all(v >= level for level, v in enumerate(vals))
                kernel_limit = q**2 * scale * gf.coeffs[0]
                ratio = None if limit == 0 else kernel_limit / limit
                detail = f"valuations={['inf' if v == math.inf else v for v in vals]} ratio={ratio}"
                report.add(f"p={p} char={char_name} n={n}", growth and kernel_limit == q**2 * limit, detail)
    return report.finalize()


def run_cor3(grid: Grid) -> CheckReport:
    """Exact reduction at q = 1 to twisted Euler polynomial combinations."""
    return _config_report(grid, "cor3", twisted.euler_reduction_checks, _equal, fixed_q=Fraction(1))


def run_eq22(grid: Grid) -> CheckReport:
    """Telescoping of the folded twisted Euler generating function."""
    report = CheckReport("eq22", grid.describe())
    for d in grid.moduli:
        for zeta_order in grid.zeta_orders:
            k = grid.zeta_exponent % zeta_order if zeta_order > 1 else 0
            zeta_eff = cyclotomic_field(zeta_order).zeta_power(k)
            (folded, direct), (taylor, moments) = twisted.euler_gf_consistency(d, zeta_eff, 12)
            series_equal, moments_equal = folded == direct, taylor == moments
            report.add(
                f"d_fold={d} zeta={zeta_order}^{k}",
                series_equal and moments_equal,
                f"series_equal={series_equal} moments_equal={moments_equal}",
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
                lhs, rhs = fermionic.alternating_kernel_ratio_check(d, values, q)
                report.add(f"d={d} q={format_rational(q)} trial={trial}", lhs == rhs)
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
