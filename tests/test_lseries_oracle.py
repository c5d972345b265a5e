"""l_eval at complex s against an outside oracle: the 40-digit Lerch split
of perfbench/oracles.py, which builds chi and the twist in mpmath from the
exponent tables and uses none of the program's arithmetic.  The module is
loaded from its path and left as it is; without mpmath these tests skip."""
import importlib.util
import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

pytest.importorskip("mpmath")

from eulertwist import TwistedConfig, enumerate_characters, l_eval, principal_character  # noqa: E402
from eulertwist.lfunction import LParams  # noqa: E402

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


def oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(cfg, s: complex) -> dict:
    """The point and l_eval's result in the form the oracle reads."""
    result = l_eval(LParams(s=s, cfg=cfg))
    return {
        "modulus": cfg.char.modulus, "exponents": tuple(cfg.char.exponents), "value_order": cfg.char.value_order,
        "zeta_order": cfg.zeta_order, "zeta_exponent": cfg.zeta_exponent, "q": cfg.q,
        "s": s, "value": result.value, "terms": result.terms_used, "tail_bound": result.tail_bound,
    }


def seeded_points(seed: int = 31):
    """One point per (d, twist order, q): a seeded character mod d, twist
    exponent prime to the order, Re s in [-2, 8] and Im s in [-40, 40]."""
    rng = random.Random(seed)
    for d, z, q in itertools.product((3, 5, 7), (1, 3, 9), (F(5, 4), F(2), F(5))):
        char = rng.choice(enumerate_characters(d))
        k = rng.choice([k for k in range(z) if math.gcd(k, z) == 1])
        yield TwistedConfig.build(char, z, k, q), complex(rng.uniform(-2, 8), rng.uniform(-40, 40))


def test_l_eval_meets_the_lerch_oracle_at_seeded_points():
    lseries_rejects = oracles().lseries_rejects
    rejected = [(cfg, s) for cfg, s in seeded_points() if lseries_rejects(record(cfg, s))]
    assert rejected == []


@pytest.mark.parametrize("d, index, order, k, s", [
    (3, 1, 3, 1, complex(8, 1)), (7, 2, 9, 4, complex(0.25, -33)), (15, 5, 1, 0, complex(3, 17)),
])
def test_l_eval_meets_the_lerch_oracle_at_positive_re_s_near_q_one(d, index, order, k, s):
    """At q = 11/10 the sum stops where (M+1)^(-Re s) q^(-(M+1)) / (1 - 1/q)
    meets the tolerance, far before q^(-M/2) does."""
    cfg = TwistedConfig.build(enumerate_characters(d)[index], order, k, F(11, 10))
    assert not oracles().lseries_rejects(record(cfg, s))


@pytest.mark.xfail(strict=True, reason="CHANGES.md:3: the double-precision sum loses 12 digits here, "
                   "with tail_bound 2.1e-111; certified L-values (ROADMAP item 1) remove this mark")
def test_l_eval_meets_the_lerch_oracle_where_the_terms_reach_1e64():
    cfg = TwistedConfig.build(principal_character(3), 3, 1, F(11, 10))
    assert not oracles().lseries_rejects(record(cfg, complex(-30, 10)))
