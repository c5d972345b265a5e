"""The exact relations on a grid beyond the default one: moduli up to 15,
twist orders up to 27 (ambient fields up to Q(zeta_108), degree 36) and
n up to 12.  Every point must pass.

thm3 and thm6 are left out: they compare against double-precision
L-series sums, which lose all accuracy at some of these points and so give
false fails; they join this gate once the L-series carries a rounding
bound.
"""
from fractions import Fraction as F

import pytest

from eulertwist import checks

REACH_GRID = checks.Grid(
    n_max=12, moduli=(1, 3, 5, 7, 15), zeta_orders=(1, 3, 9, 27), q_values=(F(2), F(5, 2))
)


@pytest.mark.parametrize("relation", [
    "eq15", "thm2", "distribution", "thm1-residual", "thm5-residual", "cor2-residual", "cor3", "eq22",
    "eq28-residual",
])
def test_exact_relations_pass_on_the_reach_grid(relation):
    report = checks.run_relation(relation, REACH_GRID)
    counts = report.counts
    assert counts["fail"] == 0, [p for p in report.points if p.verdict == "fail"][:5]
    assert counts["pass"] > 0


# cor2 reads only the primes, level_max and padic_n_max of a grid; these go
# past the default grid's primes (3, 5) and padic_n_max 4.
COR2_REACH_GRID = checks.Grid(primes=(3, 5, 7, 11, 13), level_max=3, padic_n_max=12)


def test_cor2_passes_on_the_reach_primes():
    counts = checks.run_relation("cor2-residual", COR2_REACH_GRID).counts
    assert counts == {"pass": 5 * 2 * 13, "fail": 0, "skip": 0}
