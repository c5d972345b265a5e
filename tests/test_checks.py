"""The checks driver can fail: one side off at one n fails exactly the
points at that n, and every other point still passes."""
from fractions import Fraction as F

import pytest

from eulertwist import checks, eulerian, fermionic, lfunction, series, twisted

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
    "thm3": (lfunction, "series_partial_sum_checks", lhs_off_by_one),
    "thm6": (lfunction, "interpolation_checks", lhs_off_by_one),
    "distribution": (fermionic, "distribution_identity_checks", lhs_off_by_one),
    "thm1-residual": (twisted, "witt_residuals", lhs_off_by_one),
    "thm5-residual": (twisted, "multiplication_residuals", lhs_off_by_one),
    "cor3": (twisted, "euler_reduction_checks", lhs_off_by_one),
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


def test_a_bad_series_path_fails_only_the_relations_that_read_it(monkeypatch):
    real = twisted.twisted_series_values

    def shifted(cfg, n_max):
        out = real(cfg, n_max)
        out[BAD_N] = out[BAD_N] + 1
        return out

    monkeypatch.setattr(twisted, "twisted_series_values", shifted)
    for relation in ("thm2", "cor2-residual"):
        assert_fails_exactly_bad_n(checks.run_relation(relation, SMALL_GRID))
    for relation in ("thm1-residual", "thm5-residual", "thm6", "cor3"):
        report = checks.run_relation(relation, SMALL_GRID)
        assert report.counts["fail"] == 0 and report.counts["pass"] > 0


def test_a_bad_power_moment_fails_every_relation_that_reads_one(monkeypatch):
    """`series.power_moments` is shared field arithmetic, like the product of
    two field elements: a fault in it fails points of thm2, thm3, thm6, cor2
    and eq22, whose other sides (the float sums, the p-adic walk, the Euler
    moments of the one-step solve) never read it, and thm2's two sides read
    it with different weights.  distribution still passes, because both of
    its sides read the same moments, just as they read the same field
    arithmetic."""
    real = series.power_moments

    def doubled(terms, n_max):
        out = real(terms, n_max)
        if n_max >= 2:
            out[2] = 2 * out[2]
        return out

    for module in (series, fermionic, eulerian):
        monkeypatch.setattr(module, "power_moments", doubled)
    grid = checks.default_grid()
    for relation in ("thm2", "thm3", "thm6", "cor2-residual", "eq22"):
        assert checks.run_relation(relation, grid).counts["fail"] > 0, relation
    assert checks.run_relation("distribution", grid).passed
