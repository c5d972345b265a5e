"""Complex L-series evaluation and its interpolation of the exact values."""
import time
from fractions import Fraction as F

import pytest

from eulertwist import (
    TwistedConfig,
    interpolation_checks,
    l_eval,
    principal_character,
    quadratic_character,
    series_partial_sum_checks,
)
from eulertwist.errors import NotConverged, OutsideConvergence, ResidualUndefined
from eulertwist.lfunction import LParams, l_prefactor, l_series_sum


def quadratic3_config(q=F(2)):
    return TwistedConfig.build(quadratic_character(3), 1, 0, q)


class TestEvaluation:
    def test_anchor_values(self):
        cfg = quadratic3_config()
        for n, expected in ((0, -4.0), (1, -12.0), (2, -12.0)):
            result = l_eval(LParams(s=complex(-n), cfg=cfg, tol=1e-12))
            assert abs(result.value - expected) < 1e-9
            assert result.tail_bound <= 1e-12

    def test_character_kills_multiples_of_the_modulus(self):
        from eulertwist.cyclotomic import embed_complex

        cfg = quadratic3_config()
        for k in range(1, 4):
            assert embed_complex(cfg.char_value(3 * k), 1) == 0

    def test_outside_convergence(self):
        cfg = TwistedConfig.build(quadratic_character(3), 1, 0, F(1))
        with pytest.raises(OutsideConvergence):
            l_eval(LParams(s=0j, cfg=cfg))

    def test_max_terms_guard(self):
        with pytest.raises(NotConverged):
            l_eval(LParams(s=0j, cfg=quadratic3_config(), tol=1e-12, max_terms=5))

    @pytest.mark.parametrize("q, s", [(F(2), 1e300), (F(2), -1e5), (F(2), -200.0), (F(100), -200.0)])
    def test_unbounded_work_is_not_converged_quickly(self, q, s):
        # 1e300 and -1e5 need more than max_terms terms before any tail bound
        # is checked; at -200 a term (q = 2) or the prefactor (q = 100)
        # overflows double precision.
        start = time.monotonic()
        with pytest.raises(NotConverged):
            l_eval(LParams(s=complex(s), cfg=quadratic3_config(q)))
        assert time.monotonic() - start < 1.0

    def test_prefactor_factorization_is_exact(self):
        params = LParams(s=complex(-1.5, 0.25), cfg=quadratic3_config())
        inner = l_series_sum(params)
        combined = l_eval(params)
        assert combined.value == l_prefactor(params.s, 2.0) * inner.value
        assert combined.terms_used == inner.terms_used

    def test_monotone_truncation(self):
        cfg = quadratic3_config()
        loose = l_eval(LParams(s=-2 + 0j, cfg=cfg, tol=1e-6))
        tight = l_eval(LParams(s=-2 + 0j, cfg=cfg, tol=1e-13))
        assert abs(loose.value - tight.value) <= loose.tail_bound * abs(
            l_prefactor(-2 + 0j, 2.0)
        )

    def test_conjugate_symmetry(self):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(2))
        s = complex(1.5, 0.7)
        direct = l_eval(LParams(s=s, cfg=cfg))
        mirrored = l_eval(LParams(s=s.conjugate(), cfg=cfg.conjugate()))
        assert abs(mirrored.value - direct.value.conjugate()) < 1e-12


class TestInterpolation:
    @pytest.mark.parametrize("n", range(3))
    def test_anchor_points(self, n):
        l_value, exact = interpolation_checks(quadratic3_config(), n)[n]
        assert abs(l_value - exact) <= 1e-9 * (1 + abs(exact))

    def test_modulus_one_needs_positive_index(self):
        cfg = TwistedConfig.build(principal_character(1), 1, 0, F(2))
        sides = interpolation_checks(cfg, 1)
        assert isinstance(sides[0], ResidualUndefined)
        l_value, exact = sides[1]
        assert abs(l_value - exact) <= 1e-9 * (1 + abs(exact))

    def test_nontrivial_twist(self):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(3))
        for l_value, exact in interpolation_checks(cfg, 3):
            assert abs(l_value - exact) <= 1e-9 * (1 + abs(exact))


class TestSeriesPartialSums:
    def test_linear_moment(self):
        numeric, exact = series_partial_sum_checks(quadratic3_config(), 1)[1]
        assert abs(numeric - exact) <= 1e-10
        assert abs(exact - (-2.0 / 3.0)) < 1e-12

    def test_quadratic_moment(self):
        numeric, exact = series_partial_sum_checks(quadratic3_config(), 2)[2]
        assert abs(numeric - exact) <= 1e-10
        assert abs(exact - (-2.0 / 9.0)) < 1e-12

    def test_zero_character_sums_to_zero(self):
        import dataclasses

        cfg = quadratic3_config()
        muted = dataclasses.replace(
            cfg, char_values=tuple(cfg.field.zero for _ in cfg.char_values)
        )
        numeric, exact = series_partial_sum_checks(muted, 2)[2]
        assert abs(numeric - exact) <= 1e-10
        assert numeric == 0
        assert exact == 0
