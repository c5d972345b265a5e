"""The checks driver can fail: one side off at one n fails exactly the
points at that n, and every other point still passes."""
import ast
import fractions
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import eulertwist as et
from eulertwist import checks, cli, fermionic, lfunction, series, twisted
from eulertwist.cyclotomic import CyclotomicNumber, cyclotomic_field
from conftest import field_element
from test_cli import CONFIG_RELATIONS
from test_reachability import exit_code, program_runs

SMALL_GRID = checks.Grid(
    n_max=3, moduli=(3,), q_values=(F(2),), zeta_orders=(1, 3),
    primes=(3, 5), level_max=2, padic_n_max=3,
)
BAD_N = 2


def lhs_off_by_one(sides):
    def patched(cfg, n_max):
        out = list(sides(cfg, n_max))
        lhs, rhs = out[BAD_N]
        out[BAD_N] = (lhs + 1, rhs)
        return out

    return patched


# relation -> (namespace, attribute, wrapper): what reads the patched side
CASES = {
    "thm2": (checks, "_path_sides", lhs_off_by_one),
    "thm3": (checks, "_thm3_sides", lhs_off_by_one),
    "thm6": (checks, "_thm6_sides", lhs_off_by_one),
    "distribution": (checks, "_distribution_sides", lhs_off_by_one),
    "thm1-residual": (checks, "_thm1_sides", lhs_off_by_one),
    "thm5-residual": (checks, "_thm5_sides", lhs_off_by_one),
    # cor3 is Theorem 5 at q = 1.
    "cor3": (checks, "_thm5_sides", lhs_off_by_one),
    # cor2 reads A_n from both paths; the generating-function side sets its kernel ratio.
    "cor2-residual": (checks, "_path_sides", lhs_off_by_one),
}


def assert_fails_exactly_bad_n(report) -> None:
    bad = {p.key for p in report.points if p.key.endswith(f" n={BAD_N}")}
    assert bad
    assert {p.key for p in report.points if p.verdict == "fail"} == bad
    assert all(p.verdict == "pass" for p in report.points if p.key not in bad)


@pytest.mark.parametrize("relation", sorted(CASES))
def test_one_bad_side_fails_exactly_its_points(monkeypatch, relation):
    namespace, attribute, wrap = CASES[relation]
    monkeypatch.setattr(namespace, attribute, wrap(getattr(namespace, attribute)))
    assert_fails_exactly_bad_n(checks.run_relation(relation, SMALL_GRID))


def test_one_bad_walk_sum_fails_exactly_its_cor2_points(monkeypatch):
    real = fermionic.riemann_sums

    def shifted(*args):
        sums = real(*args)
        sums[BAD_N][-1] += 1  # v_p(U_N - limit) >= N >= 1 before the shift, 0 after
        return sums

    monkeypatch.setattr(fermionic, "riemann_sums", shifted)
    assert_fails_exactly_bad_n(checks.run_relation("cor2-residual", SMALL_GRID))


def test_a_bad_residue_class_sum_fails_only_the_relations_that_read_it(monkeypatch):
    """`fermionic.residue_class_sums` holds the residue-class decomposition,
    its factor d^n/[d]_{-1/q} included, for distribution, thm5 and cor3:
    one entry off fails exactly that entry's points of each, and cor3 gives
    thm5's verdict at q = 1 wherever thm5 does not skip."""
    real = fermionic.residue_class_sums

    def shifted(n_max, cfg):
        out = real(n_max, cfg)
        out[BAD_N] = out[BAD_N] + 1
        return out

    monkeypatch.setattr(fermionic, "residue_class_sums", shifted)
    for relation in ("distribution", "thm5-residual", "cor3"):
        assert_fails_exactly_bad_n(checks.run_relation(relation, SMALL_GRID))
    for relation in ("thm1-residual", "thm2", "thm3", "thm6", "eq15", "eq22", "eq28-residual", "cor2-residual"):
        assert checks.run_relation(relation, SMALL_GRID).passed, relation
    thm5 = checks.run_relation("thm5-residual", replace(SMALL_GRID, q_values=(F(1),))).points
    cor3 = {p.key: p.verdict for p in checks.run_relation("cor3", SMALL_GRID).points}
    assert {p.key for p in thm5 if p.verdict == "fail"} == {p.key for p in thm5 if p.key.endswith(f" n={BAD_N}")}
    checked = [p for p in thm5 if p.verdict != "skip"]
    assert checked and len(checked) < len(thm5)  # A_1 = 0 at q = 1 for the quadratic character mod 3
    assert all(cor3[p.key.replace(" q=1/1", "")] == p.verdict for p in checked)


def test_a_bad_series_path_fails_only_the_relations_that_read_it(monkeypatch):
    """thm2 and cor2 read the series path as `twisted.series_from_sums` of
    the held alternating sums."""
    real = twisted.series_from_sums

    def shifted(cfg, sums):
        out = real(cfg, sums)
        out[BAD_N] = out[BAD_N] + 1
        return out

    monkeypatch.setattr(twisted, "series_from_sums", shifted)
    for relation in ("thm2", "cor2-residual"):
        assert_fails_exactly_bad_n(checks.run_relation(relation, SMALL_GRID))
    for relation in ("thm1-residual", "thm5-residual", "thm6", "cor3"):
        report = checks.run_relation(relation, SMALL_GRID)
        assert report.counts["fail"] == 0 and report.counts["pass"] > 0


@pytest.mark.parametrize("relation, namespace, attribute, shorten, lengths", [
    ("thm2", twisted, "series_from_sums", lambda values: values[:-1], "6 and 5"),  # one n fewer on one side
    ("thm6", twisted, "twisted_values", lambda values: values[:-1], "6 and 5"),  # one n fewer on the only exact side
    ("cor2-residual", fermionic, "riemann_sums", lambda rows: [row[:-1] for row in rows], "5 and 4"),  # one level fewer
], ids=["thm2", "thm6", "cor2-residual"])
def test_a_short_route_fails_its_points_and_exits_1(capsys, monkeypatch, relation, namespace, attribute, shorten,
                                                     lengths):
    """A short route is a fault of the program, not of its input: every
    point of each configuration it reaches fails with a detail naming the
    two lengths, the check exits 1, and no point passes on fewer n or
    levels."""
    real = getattr(namespace, attribute)
    monkeypatch.setattr(namespace, attribute, lambda *args: shorten(real(*args)))
    assert cli.main(["check", "--relation", relation]) == 1
    out, err = capsys.readouterr()
    doc = json.loads(out)
    grid = checks.default_grid()
    per_config = (grid.padic_n_max if relation == "cor2-residual" else grid.n_max) + 1
    assert err == "" and len(doc["points"]) % per_config == 0
    assert doc["summary"] == {"pass": 0, "fail": len(doc["points"]), "skip": 0}
    assert {p["detail"] for p in doc["points"]} == {f"short route: lengths {lengths}"}


ROWS_SHORT = [(fermionic, "power_moments"), (checks, "power_moments")]


@pytest.mark.parametrize("relation, patched, shorten, fails, detail", [
    ("cor2", [(fermionic, "riemann_sums"), (checks, "_path_sides")], lambda out: out[:-1], 20,
     "short route: lengths 5 and 4 and 4"),  # both routes one n fewer
    ("eq15", ROWS_SHORT, lambda out: (out[0][:-1], out[1]), 27, "short route: lengths 9 and 8"),
    ("eq22", ROWS_SHORT, lambda out: (out[0][:-1], out[1]), 9,
     "series_equal=True moments_equal=True short route: 11 of 12 orders"),
], ids=["cor2", "eq15", "eq22"])
def test_routes_short_alike_still_fail_every_point(capsys, monkeypatch, relation, patched, shorten, fails, detail):
    """Routes one n or one `power_moments` row short alike agree with each
    other, but not with the count the relation names: every point fails and
    the check exits 1."""
    for namespace, attribute in patched:
        real = getattr(namespace, attribute)
        monkeypatch.setattr(namespace, attribute, lambda *args, real=real: shorten(real(*args)))
    assert cli.main(["check", "--relation", relation]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"pass": 0, "fail": fails, "skip": 0}
    assert {p["detail"] for p in doc["points"]} == {detail}


def test_a_genuine_value_error_still_exits_3(capsys, monkeypatch):
    """eq22 refuses an even fold count, a fault of the input and not a short
    route: it raises ValueError, and `main` exits 3.  No grid file can hold
    one, so the default grid is patched."""
    even = replace(checks.default_grid(), moduli=(2,))
    with pytest.raises(ValueError, match="the fold count must be odd"):
        checks.run_relation("eq22", even)
    monkeypatch.setattr(checks, "default_grid", lambda: even)
    assert cli.main(["check", "--relation", "eq22"]) == 3
    assert capsys.readouterr().err == "error: ValueError: the fold count must be odd\n"


def test_a_bad_power_moment_fails_every_relation_that_reads_one(monkeypatch):
    """`series.power_moments`, the integer kernel over (node, rational,
    exponent) triples, is shared field arithmetic, like the product of two
    field elements: a fault in it fails points of thm2, thm3, thm6, cor2 and
    eq22, whose other sides (the float sums, the p-adic walk, the Euler
    moments of the one-step solve, whose one right side has no moment past
    the zeroth) never read it at the doubled moment, and thm2's two sides
    read it with different weights.  distribution still passes, because both of
    its sides read the same moments, just as they read the same field
    arithmetic."""
    real = series.power_moments

    def doubled(field, terms, n_max):
        rows, den = real(field, terms, n_max)
        if n_max >= 2:
            rows[2] = [2 * c for c in rows[2]]
        return rows, den

    bound = [module for module in vars(et).values() if getattr(module, "power_moments", None) is real]
    assert {module.__name__.rpartition(".")[2] for module in bound} >= {"series", "fermionic", "eulerian"}
    for module in bound:
        monkeypatch.setattr(module, "power_moments", doubled)
    grid = checks.default_grid()
    for relation in ("thm2", "thm3", "thm6", "cor2-residual", "eq22"):
        assert checks.run_relation(relation, grid).counts["fail"] > 0, relation
    assert checks.run_relation("distribution", grid).passed


def test_a_bad_moment_solve_fails_every_relation_that_reads_one(monkeypatch):
    """`series.binomial_solve`, as `fermionic` binds it, is the triangular
    solve behind both functional equations: a fault there fails points of
    eq15, thm1, thm5, cor3 and eq22, whose other sides (the classical
    polynomials, A_n from the generating function, the telescoped Euler
    series) read no moment, or the kernel through their own module's
    binding, which stays unpatched.  thm2,
    thm3, thm6, cor2 and eq28 read no moment and still pass.  distribution
    reads the solve on both sides, the d-step moments against the one-step
    moments of its residue classes, and still fails, at every n >= 2: its
    left side reads the doubled entry only at n = 2, its right side carries
    M_2 into every n >= 2 through the binomial sum over classes."""
    real = fermionic.binomial_solve

    def doubled(*args):
        out = real(*args)
        if len(out) > 2:
            out[2] = 2 * out[2]
        return out

    monkeypatch.setattr(fermionic, "binomial_solve", doubled)
    grid = checks.default_grid()
    for relation in ("eq15", "thm1-residual", "thm5-residual", "cor3", "eq22"):
        assert checks.run_relation(relation, grid).counts["fail"] > 0, relation
    for relation in ("thm2", "thm3", "thm6", "cor2-residual", "eq28-residual"):
        assert checks.run_relation(relation, grid).passed, relation
    assert checks.run_relation("distribution", grid).counts["fail"] > 0


def test_one_bad_held_l_series_sum_fails_exactly_its_points_in_thm3_and_thm6(monkeypatch):
    """thm3 reads the held sums at s = -n as they are and thm6 through the
    prefactor: one held value off at one n fails exactly that n in both."""
    real = lfunction.l_series_sums

    def shifted(cfg, n_max):
        out = real(cfg, n_max)
        out[BAD_N] = out[BAD_N]._replace(value=out[BAD_N].value + 1)
        return out

    monkeypatch.setattr(lfunction, "l_series_sums", shifted)
    for relation in ("thm3", "thm6"):
        assert_fails_exactly_bad_n(checks.run_relation(relation, SMALL_GRID))


def test_a_prefactor_past_the_double_range_skips_the_point_in_thm6_alone():
    """At q = 10^10 the bare sums stay finite up to n = 32, but (1+q)^(n+1)
    leaves the double range from n = 29 on: thm6 skips exactly those points,
    with the prefactor step's NotConverged as the reason, and thm3, which
    reads the bare sums, passes them all."""
    grid = checks.Grid(n_max=32, moduli=(3,), q_values=(F(10**10),), zeta_orders=(1,))
    thm6 = checks.run_relation("thm6", grid)
    assert thm6.counts == {"pass": 58, "fail": 0, "skip": 8}
    skipped = {(p.key.split()[1], p.key.split()[-1], p.detail) for p in thm6.points if p.verdict == "skip"}
    assert skipped == {(char, f"n={n}", "NotConverged: non-finite value")
                       for char in ("char=principal", "char=quadratic") for n in range(29, 33)}
    assert checks.run_relation("thm3", grid).counts == {"pass": 66, "fail": 0, "skip": 0}


# 1620 held keys: a memo bounded at a few hundred entries would evict them between readers.
WIDE_GRID = checks.Grid(n_max=0, moduli=tuple(range(1, 30, 2)), zeta_orders=(1, 3, 5, 9),
                        q_values=(F(2), F(5, 2), F(-3, 7)))
# (module, quantity, its key in the count): what the config relations read through checks._memo
HELD = [
    (twisted, "twisted_values", lambda cfg, n_max: cfg),
    (twisted, "alternating_char_sums", lambda cfg, n_max: cfg),
    (fermionic, "_char_moment_sequence", lambda n_max, cfg: cfg),
    (fermionic, "residue_class_sums", lambda n_max, cfg: cfg),
    (lfunction, "l_series_sum", lambda params: (params.cfg, params.s)),
]


def test_thm2_thm3_and_thm6_compute_each_shared_sum_once(monkeypatch):
    """Run as separate `run_relation` calls in `RELATIONS` order, the six
    config relations compute each held quantity once per configuration,
    and sum the L-series once per configuration and n, on the default grid
    and on a wide one: nothing held is evicted between two readers."""
    calls = Counter()
    for module, name, key in HELD:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name, key=key:
                            calls.update([(name, key(*args))]) or real(*args))
    for grid, count in ((checks.default_grid(), 54), (WIDE_GRID, 324)):
        checks._memo.cache_clear()
        calls.clear()
        for relation in [r for r in checks.RELATIONS if r in CONFIG_RELATIONS]:
            assert checks.run_relation(relation, grid).passed, relation
        configs = {twisted.TwistedConfig.build(*config) for _, *config in checks._configs(grid)}
        assert len(configs) == count
        expected = Counter((name, cfg) for _, name, _ in HELD[:-1] for cfg in configs)
        expected.update(("l_series_sum", (cfg, complex(-n))) for cfg in configs for n in range(grid.n_max + 1))
        assert calls == expected
        info = checks._memo.cache_info()
        assert info.misses == info.currsize == len(HELD) * count


def test_every_report_names_its_token_and_each_point_once():
    """The benchmark's check-sweep counts a report's points by key: on the
    default grid and on a wide one, each token's report names that token
    and holds each key once."""
    for grid in (checks.default_grid(), WIDE_GRID):
        for token in checks.RELATIONS:
            report = checks.run_relation(token, grid)
            keys = [p.key for p in report.points]
            assert report.relation == token and keys and len(set(keys)) == len(keys), token


def test_a_sweep_enumerates_the_characters_of_each_modulus_at_most_once(capsys, monkeypatch):
    """grid_characters holds its tuple per modulus: `check --relation all`
    on the default grid enumerates the characters mod 5 once, not once per
    pass over the configurations."""
    real, calls = checks.enumerate_characters, Counter()
    monkeypatch.setattr(checks, "enumerate_characters", lambda d: calls.update([d]) or real(d))
    checks.grid_characters.cache_clear()
    assert cli.main(["check", "--relation", "all"]) == 0
    capsys.readouterr()
    assert calls == Counter({5: 1})
    assert checks.grid_characters(5) is checks.grid_characters(5)


@pytest.mark.parametrize("seed", range(4))
def test_equal_up_to_q_squared_decides_as_the_product(seed):
    """The cross-multiplied test gives the verdict of lhs == q^2 rhs with
    the product formed, on equal, nearly equal and other-field pairs."""
    rng = random.Random(seed)
    for _ in range(40):
        order = rng.choice((1, 3, 4, 9))
        field = cyclotomic_field(order)
        q = F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
        if q == -1:
            continue
        cfg = twisted.TwistedConfig.build(et.principal_character(1), 1, 0, q)
        rhs = field_element(field, [F(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(field.degree)])
        product = q**2 * rhs
        nudged = product + field_element(field, [F(rng.choice((0, 1)), rng.randint(1, 9)) for _ in range(field.degree)])
        # the product's coefficients in another field of the same degree
        other = CyclotomicNumber(cyclotomic_field({1: 2, 3: 4, 4: 3, 9: 7}[order]), product.num, product.den)
        for lhs in (product, nudged, rhs, other):
            assert checks._equal_up_to_q_squared(cfg, lhs, rhs) == (lhs == product, "expected q^2")


def test_eq22_holds_its_twist_only_quantities_across_fold_counts(monkeypatch):
    """One 1-fold and one moment sequence per twist, and one d-fold per fold count d > 1 and twist: at d = 1
    the held 1-fold is the series side."""
    folds, moments = [], []
    real_fold, real_moments = checks._fold, fermionic._moment_sequence
    monkeypatch.setattr(checks, "_fold", lambda *args: folds.append(args) or real_fold(*args))
    monkeypatch.setattr(fermionic, "_moment_sequence", lambda *args: moments.append(args) or real_moments(*args))
    grid = checks.default_grid()
    assert checks.run_relation("eq22", grid).passed
    assert len(moments) == len(grid.zeta_orders) < len(grid.zeta_orders) * len(grid.moduli)
    assert 1 in grid.moduli
    assert len(folds) == len(grid.zeta_orders) * (1 + sum(d > 1 for d in grid.moduli))


def fractions_built(run) -> int:
    """The Fractions built inside run(): calls of `Fraction.__new__`, and of `Fraction._from_coprime_ints`, through
    which Fraction arithmetic builds its results from Python 3.12 on, counted by sys.setprofile."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename == fractions.__file__ \
                and frame.f_code.co_name in ("__new__", "_from_coprime_ints"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count


def test_the_relation_sides_build_no_fraction_per_n():
    """thm1's, thm5's and cor3's sides and `twisted.series_from_sums` scale by q = u/v as integer pairs: with the
    quantities they read already held, the Fractions they build do not grow from n_max 0 to n_max 8."""
    char = et.quadratic_character(5)
    configs = [twisted.TwistedConfig.build(char, 3, 1, q) for q in (F(-3, 7), F(1))]
    sides = [(checks._thm1_sides, configs[0]), (checks._thm5_sides, configs[0]), (checks._thm5_sides, configs[1])]

    def built(n_max: int) -> list:
        sums = twisted.alternating_char_sums(configs[0], n_max)
        for side, cfg in sides:
            side(cfg, n_max)  # holds the quantities
        counts = [fractions_built(lambda: side(cfg, n_max)) for side, cfg in sides]
        return counts + [fractions_built(lambda: twisted.series_from_sums(configs[0], sums))]

    small, large = built(0), built(8)
    assert all(a >= b for a, b in zip(small, large)), (small, large)


def test_eq15_solves_one_moment_sequence_per_q(monkeypatch):
    real, ratios = fermionic._moment_sequence, []

    def counted(n, ratio, *args):
        ratios.append(ratio)
        return real(n, ratio, *args)

    monkeypatch.setattr(fermionic, "_moment_sequence", counted)
    grid = checks.default_grid()
    assert checks.run_relation("eq15", grid).passed
    assert ratios == [1 / q for q in grid.q_values]


def test_no_program_path_reaches_the_general_field_inverse(monkeypatch, tmp_path):
    """Every pivot the program inverts is a binomial 1 + c zeta^k with zeta^k
    of odd order, inverted by its geometric series: no run of the
    reachability gate's list reaches the general `CyclotomicNumber.inverse`,
    which serves the tests and the benchmark's `cyclotomic.inverse` span."""

    def refused(self):
        raise AssertionError(f"general inverse of {self!r}")

    monkeypatch.setattr(CyclotomicNumber, "inverse", refused)
    for argv, code in program_runs(tmp_path):
        assert exit_code(argv) == code, argv


def test_only_the_binomial_solve_inverts_a_pivot():
    """`series.binomial_solve` is the one function in `src/` that reads
    `binomial_inverse`: every other caller states its pivot as the pair
    (c, k) and leaves its inversion to the solve."""
    readers = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "binomial_inverse":
                readers.append((module, function))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if named else function)

    for path in sorted(Path(series.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert readers == [("series", "binomial_solve")]


def test_only_the_prefactor_step_reads_ln_1_plus_q():
    """`lfunction.with_prefactor` is the one function in `src/` that reads
    ln(1+q), `ln_1q`: every L-value is its step from a bare sum."""
    readers = set()

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            read = isinstance(getattr(child, "ctx", None), ast.Load)
            if read and (getattr(child, "attr", None) == "ln_1q" or getattr(child, "id", None) == "ln_1q"):
                readers.add((module, function))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if named else function)

    for path in sorted(Path(lfunction.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert readers == {("lfunction", "with_prefactor")}
