"""Relation checks over parameter grids.

This module states every relation's two sides; the modules it reads
(`twisted`, `fermionic`, `lfunction`) export quantities only.  Each
relation, registered once under its stable CLI token, is a stream of
(key, verdict) points, a verdict an (ok, detail) pair or the reason string
of a skipped point; :func:`_report` turns a stream into a report sorted by
key, which passes iff no point fails and at least one passes.  Routes that
give other than the grid's count of n or levels (eq15's 9 moments and
eq22's 12 orders included), or two routes of different lengths, fail every
point of their configuration, so no relation passes on fewer points.
Theorems 1 and 5 are one identity, stated once by :func:`_integral_sides`
with q^2 and the sign inside the integer scale of the integral side, so
thm1, thm5 and cor3 decide by ==, and cor2 on its two paths' A_n.

Every quantity that two relations read at one point is read through one
process-wide memo, :func:`_memo`, once per configuration and n_max:

* A_n (`twisted.twisted_values`): thm2, thm1, thm5, thm6, cor2 and cor3;
* the alternating sums (`twisted.alternating_char_sums`): thm2's and
  cor2's series path and thm3's exact side;
* the L-series sums at s = 0, -1, ..., -n_max (`lfunction.l_series_sums`):
  thm3 as they are, thm6 through `lfunction.with_prefactor`, the step
  `l_eval` itself takes; a sum held as its error string is the point's
  skip reason in both;
* the d-step moments (`fermionic._char_moment_sequence`): distribution and
  thm1;
* the residue-class sums (`fermionic.residue_class_sums`): distribution,
  thm5 and cor3;

and eq22 holds its twist-only 1-fold, :func:`_fold` at d = 1, and moments
per (field, k) across the fold counts.  The key is the function as read
from its module at the call, with its arguments, so a quantity patched on
its module misses the memo.  Each result is held as a tuple, which no
caller can mutate, for the rest of the process: one CLI run, or one test,
since the test suite clears the memo before each.  A read returns only the
result of the route it names, so no relation ever compares a route with itself.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import fermionic, lfunction, twisted
from .characters import (
    DirichletCharacter,
    enumerate_characters,
    principal_character,
    quadratic_character,
)
from .cyclotomic import cyclotomic_field, embed_complex
from .errors import NotConverged
from .eulerian import eulerian_at
from .ntheory import is_squarefree
from .rationals import format_rational, padic_valuation
from .series import binomial_solve, power_moments


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


def default_grid() -> Grid:
    return Grid()


@cache
def grid_characters(d: int) -> tuple[tuple[str, DirichletCharacter], ...]:
    """The characters a grid exercises per modulus: the principal one, the
    quadratic one where it exists, and one order-4 character for d = 5;
    held per modulus, so each sweep over the configurations enumerates the
    characters mod 5 once."""
    out = [("principal", principal_character(d))]
    if d >= 3 and is_squarefree(d):
        out.append(("quadratic", quadratic_character(d)))
    if d == 5:
        order4 = next(c for c in enumerate_characters(5) if c.value_order == 4)
        out.append(("order4", order4))
    return tuple(out)


@dataclass(frozen=True)
class PointResult:
    key: str
    verdict: str  # pass | fail | skip
    detail: str = ""


@dataclass
class CheckReport:
    relation: str
    grid_description: str
    points: list

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for p in self.points:
            out[p.verdict] += 1
        return out

    @property
    def passed(self) -> bool:
        counts = self.counts  # a check that checks nothing does not pass
        return counts["fail"] == 0 and counts["pass"] > 0

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "grid": self.grid_description,
            "points": [
                {"point": p.key, "verdict": p.verdict, "detail": p.detail} for p in self.points
            ],
            "summary": self.counts,
        }


@cache
def _memo(quantity, *args) -> tuple:
    """quantity(*args) as a tuple, computed once per equal key."""
    return tuple(quantity(*args))


def _configs(grid: Grid, fixed_q: Fraction | None = None):
    """Every grid configuration as an unbuilt point (key, char, zeta_order,
    k, q); a fixed q replaces the grid's q values and stays out of the key."""
    for d in grid.moduli:
        for char_name, char in grid_characters(d):
            for zeta_order in grid.zeta_orders:
                k = grid.zeta_exponent % zeta_order
                key = f"d={d} char={char_name} zeta={zeta_order}^{k}"
                for q in grid.q_values if fixed_q is None else (fixed_q,):
                    yield (key if fixed_q is not None else f"{key} q={format_rational(q)}"), char, zeta_order, k, q


def _report(name: str, grid: Grid, points) -> CheckReport:
    """The report of a stream of (key, verdict) points, sorted by key: a
    verdict is an (ok, detail) pair, or the reason string of a skipped point."""
    results = (PointResult(key, "skip", verdict) if isinstance(verdict, str)
               else PointResult(key, "pass" if verdict[0] else "fail", verdict[1]) for key, verdict in points)
    described = (f"n<={grid.n_max} d in {list(grid.moduli)} q in "
                 f"{[format_rational(q) for q in grid.q_values]} zeta orders {list(grid.zeta_orders)}")
    return CheckReport(name, described, sorted(results, key=lambda p: p.key))


def _eq15_points(grid: Grid):
    """Moments of the alternating measure against classical polynomials: one
    moment sequence I(x^n), n <= 8, per q, in Q(zeta_1)."""
    for q in grid.q_values:
        try:
            verdicts = [(lhs == Fraction(-1) ** n * eulerian_at(n, -q) / (1 + q) ** n, "")
                        for n, lhs in _zip(range(9), fermionic._moment_sequence(8, 1 / q, cyclotomic_field(1), 0))]
        except _ShortRoute as exc:
            verdicts = [(False, str(exc))] * 9
        for n, verdict in enumerate(verdicts):
            yield f"n={n} q={format_rational(q)}", verdict


# Tolerances of the two float relations: thm3 bounds the absolute gap, thm6
# the gap relative to 1 + |exact value|.
PARTIAL_SUM_TOL = 1e-10
INTERPOLATION_TOL = 1e-9


class _ShortRoute(Exception):
    """Two routes of one configuration gave sequences of different lengths:
    a fault of the program, not of its input, so each point of that
    configuration fails."""


def _zip(*routes):
    """zip over routes of one length; _ShortRoute, naming the lengths, where they differ."""
    lengths = [len(route) for route in routes]
    if len(set(lengths)) > 1:
        raise _ShortRoute(f"short route: lengths {' and '.join(map(str, lengths))}")
    return zip(*routes)


def _config_points(grid: Grid, sides, decide, fixed_q: Fraction | None = None):
    """One verdict per configuration and n: sides(cfg, n_max) gives an
    (lhs, rhs) pair per n, or the reason string of a skipped point, and
    decide(cfg, lhs, rhs) gives (ok, detail).  A configuration whose sides
    are not n_max + 1, or whose routes differ in length, fails at every n."""
    for key, *config in _configs(grid, fixed_q):
        cfg = twisted.TwistedConfig.build(*config)
        try:
            verdicts = [pair if isinstance(pair, str) else decide(cfg, *pair)
                        for _, pair in _zip(range(grid.n_max + 1), sides(cfg, grid.n_max))]
        except _ShortRoute as exc:
            verdicts = [(False, str(exc))] * (grid.n_max + 1)
        for n, verdict in enumerate(verdicts):
            yield f"{key} n={n}", verdict


def _skip_vanishing(sides, what: str):
    """sides, with the reason string in place of each pair whose right side vanishes."""
    return lambda cfg, n_max: [f"{what} vanishes at n={n}" if rhs.is_zero() else (lhs, rhs)
                               for n, (lhs, rhs) in enumerate(sides(cfg, n_max))]


def _equal(cfg, lhs, rhs) -> tuple:
    return lhs == rhs, ""


def _equal_q_squared(cfg, lhs, rhs) -> tuple:
    return lhs == rhs, "expected q^2"


def _absolute_gap(cfg, lhs, rhs) -> tuple:
    gap = abs(lhs - rhs)
    return gap <= PARTIAL_SUM_TOL, f"gap={gap:.3e}"


def _relative_gap(cfg, lhs, rhs) -> tuple:
    gap = abs(lhs - rhs)
    return gap <= INTERPOLATION_TOL * (1 + abs(rhs)), f"gap={gap:.3e}"


def _path_sides(cfg, n_max: int) -> list:
    """Theorem 2: generating-function coefficients beside the closed-form series path."""
    series = twisted.series_from_sums(cfg, _memo(twisted.alternating_char_sums, cfg, n_max))
    return [(tv.value, b) for tv, b in _zip(_memo(twisted.twisted_values, cfg, n_max), series)]


def _integral_sides(cfg, n_max: int, integrals) -> list:
    """Theorems 1 and 5: A_n = q^2 (-(1+q))^n I(zeta^x chi(x) x^n), I from the
    caller's route.  With q = u/v in lowest terms and v > 0, the factor is the
    coprime pair ((-(u+v))^n u^2, v^(n+2)) that `CyclotomicNumber.scaled` takes,
    so the right side is canonical and == decides."""
    u, v = cfg.q.numerator, cfg.q.denominator
    return [(tv.value, integral.scaled((-(u + v)) ** n * u * u, v ** (n + 2)))
            for n, (tv, integral) in enumerate(_zip(_memo(twisted.twisted_values, cfg, n_max), integrals))]


def _thm1_sides(cfg, n_max: int) -> list:
    """Theorem 1: the integral from the d-step functional equation; q^2 is
    the gap between the d-l+1 kernel and the iterated d-1-l kernel."""
    return _integral_sides(cfg, n_max, _memo(fermionic._char_moment_sequence, n_max, cfg))


def _thm3_sides(cfg, n_max: int) -> list:
    """Numeric partial sums of sum (-1)^m zeta^m chi(m) m^n / q^m beside the
    embedded exact closed form of the same series."""
    return [held if isinstance(held, str) else (held.value, embed_complex(e))
            for held, e in _zip(_memo(lfunction.l_series_sums, cfg, n_max),
                                _memo(twisted.alternating_char_sums, cfg, n_max))]


def _thm5_sides(cfg, n_max: int) -> list:
    """Theorem 5: the integral through its residue-class decomposition.  At
    q = 1, with odd d, q^2 = 1 and [d]_{-1} = 1, so this is Corollary 3:
    A_n = (-2d)^n sum_a (-1)^a chi(a) zeta^a E_n(a/d), E_n the twisted Euler
    values of twist zeta^d."""
    return _integral_sides(cfg, n_max, _memo(fermionic.residue_class_sums, n_max, cfg))


def _thm6_sides(cfg, n_max: int) -> list:
    """L(-n), `lfunction.with_prefactor` of the held sum, beside (-1)^n A_n
    embedded, A_n from the generating function; a sum held as its skip
    reason, or a prefactor step that does not converge, skips the point.
    For modulus 1 the series misses the index-0 summand of the generating
    function, which only contributes at n = 0; that point is skipped."""
    out = []
    sums, values = _memo(lfunction.l_series_sums, cfg, n_max), _memo(twisted.twisted_values, cfg, n_max)
    for n, (held, tv) in enumerate(_zip(sums, values)):
        if n == 0 and cfg.char.modulus == 1:
            out.append("series misses the index-0 term at modulus 1")
        elif isinstance(held, str):
            out.append(held)
        else:
            try:
                out.append((lfunction.with_prefactor(-n, cfg, held).value, (-1) ** n * embed_complex(tv.value)))
            except NotConverged as exc:
                out.append(f"NotConverged: {exc}")
    return out


def _distribution_sides(cfg, n_max: int) -> list:
    """The moment I(zeta^x chi(x) x^n) from the d-step equation beside its
    residue-class decomposition.

    >>> from eulertwist import TwistedConfig, quadratic_character
    >>> pairs = _distribution_sides(TwistedConfig.build(quadratic_character(3), 1, 0, 2), 1)
    >>> [lhs == rhs for lhs, rhs in pairs]
    [True, True]
    """
    return list(_zip(_memo(fermionic._char_moment_sequence, n_max, cfg),
                     _memo(fermionic.residue_class_sums, n_max, cfg)))


def _cor2_points(grid: Grid):
    """Corollary 2: the unnormalized alternating sums U_N tend to 2 (-1)^n A_n /
    (q (1+q)^(n+1)), A_n on the series path, with every v_p(U_N - limit) at least
    N; the d-l+1 kernel's limit, the same formula times q^2 with A_n from the
    generating function, is q^2 times it: the two paths' A_n are equal."""
    for p in grid.primes:
        q = Fraction(1 + p)
        for char_name, char in (("principal", principal_character(p)),
                                ("quadratic", quadratic_character(p))):
            sums = fermionic.riemann_sums(grid.padic_n_max, q, p, grid.level_max, char)
            verdicts = []
            try:
                sides = _path_sides(twisted.TwistedConfig.build(char, 1, 0, q), grid.padic_n_max)
                for n, row, (gf, series) in _zip(range(grid.padic_n_max + 1), sums, sides):
                    # A_n is rational here: the twist is 1 and chi takes values in {0, 1, -1}.
                    limit = 2 * (-1) ** n / (q * (1 + q) ** (n + 1)) * series.coeffs[0]
                    vals = [padic_valuation(total - limit, p) for total in row]
                    growth = all(v >= level for level, v in _zip(range(grid.level_max + 1), vals))
                    ratio = None if limit == 0 else q**2 * gf.coeffs[0] / series.coeffs[0]
                    detail = f"valuations={['inf' if v == math.inf else v for v in vals]} ratio={ratio}"
                    verdicts.append((growth and gf == series, detail))
            except _ShortRoute as exc:  # each n of this character fails
                verdicts = [(False, str(exc))] * (grid.padic_n_max + 1)
            for n, verdict in enumerate(verdicts):
                yield f"p={p} char={char_name} n={n}", verdict


def _fold(field, k: int, d: int, order: int) -> tuple:
    """The Taylor coefficients below the order of the d-fold 2 sum_{l<d} (-1)^l
    zeta^l e^(lt) / (zeta^d e^(dt) + 1), zeta = zeta_z^k in `field` = Q(zeta_z):
    one monic binomial solve of step d over its unit zeta^d, zeta^l / zeta^d
    read as the exponent k (l - d) and the pivot 1 + zeta^-d as (1, -k d).
    d = 1 gives the direct quotient 2/(zeta e^t + 1), which every fold telescopes to."""
    rows, den = power_moments(field, [(l, 2 * (-1) ** l, k * (l - d)) for l in range(d)], order - 1)
    return tuple(binomial_solve(field, rows, den, (d, 1), (1, -k * d)))


def _eq22_points(grid: Grid):
    """Telescoping of the folded twisted Euler generating function: per odd
    fold count d, the d-fold :func:`_fold` against the 1-fold
    2/(zeta e^t + 1), and the Taylor coefficients of the latter against the
    integral moments I(zeta^x x^n), through order 11.  The 1-fold and the
    moments depend on the twist alone, so they are held per (field, k)
    across the fold counts, and fold count 1 reads the held 1-fold as its
    series side; a 1-fold short of the 12 orders fails its point."""
    order = 12
    for d in grid.moduli:
        if d < 1 or d % 2 == 0:
            raise ValueError("the fold count must be odd")
        for zeta_order in grid.zeta_orders:
            k = grid.zeta_exponent % zeta_order
            field = cyclotomic_field(zeta_order)
            direct = _memo(_fold, field, k, 1, order)
            series_equal = (direct if d == 1 else _fold(field, k, d, order)) == direct
            moments_equal = direct == _memo(fermionic._moment_sequence, order - 1, 1, field, k)
            short = "" if len(direct) == order else f" short route: {len(direct)} of {order} orders"
            yield f"d_fold={d} zeta={zeta_order}^{k}", (
                series_equal and moments_equal and not short,
                f"series_equal={series_equal} moments_equal={moments_equal}{short}")


def _eq28_points(grid: Grid):
    """The two alternating kernels differ by exactly q^2 on random tables:
    sum_l (-1)^l q^(d-l+1) v_l = q^2 sum_l (-1)^l q^(d-1-l) v_l."""
    rng = random.Random(grid.seed)
    for d in grid.moduli:
        for q in grid.q_values:
            for trial in range(grid.random_tables):
                values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
                lhs = sum((-1) ** l * q ** (d - l + 1) * v for l, v in enumerate(values))
                rhs = q**2 * sum((-1) ** l * q ** (d - 1 - l) * v for l, v in enumerate(values))
                yield f"d={d} q={format_rational(q)} trial={trial}", (lhs == rhs, "")


# One row per relation: its token and its stream of points.  A config row reads
# its sides function by name when it runs, so one patched on this module runs.
# RELATIONS holds a plain callable per token, grid -> report, that callers may rebind.
_POINTS = {
    "eq15": _eq15_points,
    "thm2": lambda grid: _config_points(grid, _path_sides, _equal),
    "thm3": lambda grid: _config_points(grid, _thm3_sides, _absolute_gap),
    "thm6": lambda grid: _config_points(grid, _thm6_sides, _relative_gap),
    "distribution": lambda grid: _config_points(grid, _distribution_sides, _equal),
    "thm1-residual": lambda grid: _config_points(
        grid, _skip_vanishing(_thm1_sides, "integral moment"), _equal_q_squared),
    "thm5-residual": lambda grid: _config_points(
        grid, _skip_vanishing(_thm5_sides, "decomposition sum"), _equal_q_squared),
    "cor2-residual": _cor2_points,
    "cor3": lambda grid: _config_points(grid, _thm5_sides, _equal, fixed_q=Fraction(1)),
    "eq22": _eq22_points,
    "eq28-residual": _eq28_points,
}
RELATIONS = {token: lambda grid, token=token, points=points: _report(token, grid, points(grid))
             for token, points in _POINTS.items()}

ALIASES = {"witt": "eq15", "cor2": "cor2-residual"}


def run_relation(name: str, grid: Grid) -> CheckReport:
    """The relation a token or alias names, run on the grid; KeyError names an unknown token."""
    return RELATIONS[ALIASES.get(name, name)](grid)
