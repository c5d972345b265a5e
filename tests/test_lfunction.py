"""Complex L-series evaluation and its interpolation of the exact values."""
import cmath
import dataclasses
import math
import random
import sys
import time
from fractions import Fraction as F

import pytest

from eulertwist import (
    TwistedConfig,
    checks,
    enumerate_characters,
    l_eval,
    principal_character,
    quadratic_character,
)
from eulertwist.errors import MathError, NotConverged, OutsideConvergence, OutsideDoubleRange
from eulertwist import lfunction
from eulertwist.cyclotomic import embed_complex
from eulertwist.lfunction import LParams, l_series_sum


def quadratic3_config(q=F(2)):
    return TwistedConfig.build(quadratic_character(3), 1, 0, q)


def muted_config(cfg):
    """cfg with a character whose every value is 0."""
    return dataclasses.replace(cfg, char=dataclasses.replace(cfg.char, exponents=(None,) * cfg.char.modulus))


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
            assert embed_complex(cfg.char_value(3 * k)) == 0

    def test_outside_convergence(self):
        cfg = TwistedConfig.build(quadratic_character(3), 1, 0, F(1))
        with pytest.raises(OutsideConvergence):
            l_eval(LParams(s=0j, cfg=cfg))

    def test_max_terms_guard(self):
        with pytest.raises(NotConverged):
            l_eval(LParams(s=0j, cfg=quadratic3_config(), tol=1e-12, max_terms=5))

    @pytest.mark.parametrize("q, max_terms", [(F(2), 50), (F(1000001, 1000000), 200000)])
    def test_unreachable_tail_bound_raises_before_any_term(self, monkeypatch, q, max_terms):
        # at s = 0 the tail bound 1e-12 needs 84 terms at q = 2 and about
        # 8.4e7 at q = 1 + 1e-6; with fewer allowed, nothing is summed
        monkeypatch.setattr(lfunction, "_Summands", lambda cfg: pytest.fail("a term was evaluated"))
        with pytest.raises(NotConverged):
            l_series_sum(LParams(s=0j, cfg=quadratic3_config(q), max_terms=max_terms))

    @pytest.mark.parametrize("q, s", [(F(2), -1e5), (F(2), -200.0), (F(100), -200.0)])
    def test_unbounded_work_is_not_converged_quickly(self, q, s):
        # -1e5 needs more than max_terms terms before any tail bound is
        # checked; at -200 a term (q = 2) or the prefactor (q = 100)
        # overflows double precision.
        start = time.monotonic()
        with pytest.raises(NotConverged):
            l_eval(LParams(s=complex(s), cfg=quadratic3_config(q)))
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("q, d, message", [
        (F(2), 3, "^term 7 overflows double precision$"), (F(10**20), 1, "^non-finite value$"),
    ])
    def test_an_infinite_phase_is_not_converged(self, q, d, message):
        # at Im s = 1e308 the phase Im(s) ln m is past the double range from m = 7 on (m = 6 has chi(6) = 0),
        # and cmath.exp raises ValueError on it: in a term at q = 2, in the prefactor's Im(s) ln(1 + q) at
        # q = 10^20, where the sum stops before m = 7
        with pytest.raises(NotConverged, match=message):
            l_eval(LParams(s=complex(0, 1e308), cfg=TwistedConfig.build(principal_character(d), 1, 0, q)))

    def test_huge_positive_re_s_sums_one_term_quickly(self):
        # past m = 1 every term is below 2^-1e300, so one term meets the
        # tail bound; the prefactor 2 * 3^(1 - 1e300) rounds to 0
        start = time.monotonic()
        result = l_eval(LParams(s=1e300 + 0j, cfg=quadratic3_config()))
        assert time.monotonic() - start < 1.0
        assert (result.value, result.terms_used, result.tail_bound) == (0j, 1, 0.0)

    def test_prefactor_factorization_is_exact(self):
        params = LParams(s=complex(-1.5, 0.25), cfg=quadratic3_config())
        inner = l_series_sum(params)
        combined = l_eval(params)
        assert combined.value == reference_prefactor(params.s, 2.0) * inner.value
        assert combined.terms_used == inner.terms_used

    def test_monotone_truncation(self):
        cfg = quadratic3_config()
        loose = l_eval(LParams(s=-2 + 0j, cfg=cfg, tol=1e-6))
        tight = l_eval(LParams(s=-2 + 0j, cfg=cfg, tol=1e-13))
        assert abs(loose.value - tight.value) <= loose.tail_bound * abs(reference_prefactor(-2 + 0j, 2.0))

    def test_conjugate_symmetry(self):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(2))
        s = complex(1.5, 0.7)
        direct = l_eval(LParams(s=s, cfg=cfg))
        mirrored_cfg = TwistedConfig.build(quadratic_character(5), 3, 2, F(2))  # chi real: only zeta^1 -> zeta^2
        mirrored = l_eval(LParams(s=s.conjugate(), cfg=mirrored_cfg))
        assert abs(mirrored.value - direct.value.conjugate()) < 1e-12


class TestInterpolation:
    @pytest.mark.parametrize("n", range(3))
    def test_anchor_points(self, n):
        l_value, exact = checks._thm6_sides(quadratic3_config(), n)[n]
        assert abs(l_value - exact) <= 1e-9 * (1 + abs(exact))

    def test_modulus_one_needs_positive_index(self):
        cfg = TwistedConfig.build(principal_character(1), 1, 0, F(2))
        sides = checks._thm6_sides(cfg, 1)
        assert sides[0] == "series misses the index-0 term at modulus 1"
        l_value, exact = sides[1]
        assert abs(l_value - exact) <= 1e-9 * (1 + abs(exact))

    def test_nontrivial_twist(self):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(3))
        for l_value, exact in checks._thm6_sides(cfg, 3):
            assert abs(l_value - exact) <= 1e-9 * (1 + abs(exact))


class TestSumsAtNegativeIntegers:
    """`l_series_sums`, the sequence thm3 and thm6 hold, is `l_series_sum`
    at s = 0, -1, ..., -n_max, and `with_prefactor` is the step of `l_eval`."""

    def test_each_entry_is_the_sum_at_minus_n(self):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(5, 2))
        for n, held in enumerate(lfunction.l_series_sums(cfg, 6)):
            params = LParams(s=complex(-n), cfg=cfg)
            assert held == l_series_sum(params)
            assert lfunction.with_prefactor(complex(-n), cfg, held) == l_eval(params)

    @pytest.mark.parametrize("q, n_max, error", [
        (F(1), 3, OutsideConvergence), (F(10**400), 2, OutsideDoubleRange), (F(10001, 10000), 3, NotConverged),
    ])
    def test_an_error_is_held_with_its_message_and_no_traceback(self, q, n_max, error):
        cfg = quadratic3_config(q)
        held = lfunction.l_series_sums(cfg, n_max)
        assert len(held) == n_max + 1
        for n, entry in enumerate(held):
            with pytest.raises(error) as raised:
                l_series_sum(LParams(s=complex(-n), cfg=cfg))
            assert entry == f"{error.__name__}: {raised.value}"

    def test_a_non_finite_value_is_not_converged(self):
        inner = lfunction.LEvaluation(value=1e308 + 0j, terms_used=1, tail_bound=0.0)
        with pytest.raises(NotConverged, match="non-finite value"):
            lfunction.with_prefactor(-600 + 0j, quadratic3_config(), inner)


class TestSeriesPartialSums:
    def test_linear_moment(self):
        numeric, exact = checks._thm3_sides(quadratic3_config(), 1)[1]
        assert abs(numeric - exact) <= 1e-10
        assert abs(exact - (-2.0 / 3.0)) < 1e-12

    def test_quadratic_moment(self):
        numeric, exact = checks._thm3_sides(quadratic3_config(), 2)[2]
        assert abs(numeric - exact) <= 1e-10
        assert abs(exact - (-2.0 / 9.0)) < 1e-12

    def test_zero_character_sums_to_zero(self):
        cfg = quadratic3_config()
        muted = muted_config(cfg)
        numeric, exact = checks._thm3_sides(muted, 2)[2]
        assert abs(numeric - exact) <= 1e-10
        assert numeric == 0
        assert exact == 0


def oracle_tail(sigma: float, ln_q: float):
    """The tail bound after term m at Re s = sigma, as a function of m:
    q^(-m/2) / (1 - q^(-1/2)) at sigma <= 0 (from the stable index on), and
    (m+1)^(-sigma) q^(-(m+1)) / (1 - 1/q) at finite sigma > 0, taken in logs."""
    if 0 < sigma < math.inf:
        log_scale = -math.log(-math.expm1(-ln_q))
        return lambda m: math.exp(log_scale - sigma * math.log(m + 1) - (m + 1) * ln_q)
    tail_scale = 1.0 / (1.0 - math.exp(-ln_q / 2))
    return lambda m: math.exp(-m * ln_q / 2) * tail_scale


def reference_series_sum(params: LParams) -> lfunction.LEvaluation:
    """The series as one per-term loop that embeds chi and zeta on every call
    and tests the tail bound after every term, past the stable index at
    Re s <= 0: the plain form that l_series_sum must reproduce bit for bit."""
    cfg = params.cfg
    q = float(cfg.q)
    if q <= 1:
        raise OutsideConvergence(f"series evaluation needs q > 1, got q={cfg.q}")
    ln_q = math.log(q)
    chi = [embed_complex(cfg.char_value(a)) for a in range(cfg.char.modulus)]
    zeta = [embed_complex(cfg.zeta_pow(m)) for m in range(cfg.zeta_order)]
    s = complex(params.s)
    start = 1
    if not 0 < s.real < math.inf:
        re_abs = abs(s.real)
        if not 2 * re_abs / ln_q <= params.max_terms:
            raise NotConverged(f"tail bound not reached within {params.max_terms} terms")
        start = max(1, math.ceil(2 * re_abs / ln_q))
        while re_abs * math.log(start) > start * ln_q / 2:
            start += 1
            if start > params.max_terms:
                raise NotConverged(f"tail bound not reached within {params.max_terms} terms")
    tail_of = oracle_tail(s.real, ln_q)
    total = 0j
    m = 0
    try:
        while True:
            m += 1
            if m > params.max_terms:
                raise NotConverged(f"tail bound not reached within {params.max_terms} terms")
            chi_m = chi[m % cfg.char.modulus]
            if chi_m != 0:
                sign = -1.0 if m % 2 else 1.0
                magnitude = cmath.exp(-s * math.log(m) - m * ln_q)
                total += sign * chi_m * zeta[m % cfg.zeta_order] * magnitude
            if m >= start:
                tail = tail_of(m)
                if tail < params.tol:
                    return lfunction.LEvaluation(value=total, terms_used=m, tail_bound=tail)
    except OverflowError as exc:
        raise NotConverged(f"term {m} overflows double precision") from exc


def outcome(fn, params) -> tuple:
    """Every bit of a result, or the type and message of its error."""
    try:
        r = fn(params)
    except MathError as exc:
        return type(exc).__name__, str(exc)
    return repr(r.value), r.terms_used, repr(r.tail_bound)


def reference_prefactor(s: complex, q: float) -> complex:
    """q * (1+q)^(1-s), spelled out apart from with_prefactor."""
    return q * cmath.exp((1 - s) * math.log(1 + q))


def reference_eval(params: LParams) -> lfunction.LEvaluation:
    inner = reference_series_sum(params)
    value = reference_prefactor(complex(params.s), float(params.cfg.q)) * inner.value
    return lfunction.LEvaluation(value=value, terms_used=inner.terms_used, tail_bound=inner.tail_bound)


def random_config(rng: random.Random) -> TwistedConfig:
    d = rng.choice(range(1, 16, 2))
    order = rng.choice((1, 3, 9))
    k = rng.choice([k for k in range(order) if math.gcd(k, order) == 1] or [0])
    q = 1 + F(rng.randint(1, 400), 100)  # in (1, 5]
    return TwistedConfig.build(rng.choice(enumerate_characters(d)), order, k, q)


class TestSameBitsAsThePerTermLoop:
    """Reusing the coefficients per config and the stop index per key changes
    no bit of a value, a term count, a tail bound or an error message."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_configs(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            cfg = random_config(rng)
            for _ in range(6):
                s = complex(rng.uniform(-2, 8), rng.uniform(-40, 40))
                tol, max_terms = rng.choice(((1e-12, 200000), (1e-6, 200000), (1e-14, 300)))
                params = LParams(s=s, cfg=cfg, tol=tol, max_terms=max_terms)
                assert outcome(l_series_sum, params) == outcome(reference_series_sum, params)
                assert outcome(l_eval, params) == outcome(reference_eval, params)

    @pytest.mark.parametrize("q", [F(1), F(1, 2), F(-3, 7)])
    def test_outside_convergence(self, q):
        params = LParams(s=1j, cfg=quadratic3_config(q))
        assert outcome(l_series_sum, params)[0] == "OutsideConvergence"
        assert outcome(l_series_sum, params) == outcome(reference_series_sum, params)

    @pytest.mark.parametrize("s, max_terms", [
        (0j, 5), (1 + 0j, 30), (-1e300 + 0j, 200000), (-1e5 + 0j, 200000), (complex(math.inf, 0), 200000),
    ])
    def test_max_terms_message(self, s, max_terms):
        params = LParams(s=s, cfg=quadratic3_config(), max_terms=max_terms)
        expected = ("NotConverged", f"tail bound not reached within {max_terms} terms")
        assert outcome(l_series_sum, params) == outcome(reference_series_sum, params) == expected

    @pytest.mark.parametrize("s", [-200 + 0j, complex(-160, 25), -171 + 0j])
    def test_overflow_message_names_the_same_term(self, s):
        # At s = -171 the first term too large for a double is m = 93, where
        # chi(93) = 0: that term is skipped, never summed, and m = 94 overflows.
        params = LParams(s=s, cfg=quadratic3_config())
        got = outcome(l_series_sum, params)
        assert got[0] == "NotConverged" and "overflows double precision" in got[1]
        assert got == outcome(reference_series_sum, params)

    def test_two_configs_interleaved(self):
        first = TwistedConfig.build(quadratic_character(7), 9, 2, F(6, 5))
        second = TwistedConfig.build(enumerate_characters(5)[1], 3, 1, F(11, 10))
        for j in range(8):
            for cfg in (first, second):
                params = LParams(s=complex(4 - j, 5 * j - 20), cfg=cfg)
                assert outcome(l_series_sum, params) == outcome(reference_series_sum, params)
                assert outcome(l_eval, params) == outcome(reference_eval, params)

    def test_stops_that_shrink_then_grow(self):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(6, 5))
        stops = []
        shrink_then_grow = ((-8, 1e-12), (0, 1e-3), (2, 1e-6), (-3, 1e-12), (-12, 1e-14), (1, 1e-9), (-20, 1e-12))
        for re_s, tol in (*shrink_then_grow, (8, 1e-12)):
            params = LParams(s=complex(re_s, 7), cfg=cfg, tol=tol)
            stops.append(outcome(l_series_sum, params)[1])
            assert outcome(l_series_sum, params) == outcome(reference_series_sum, params)
            assert outcome(l_eval, params) == outcome(reference_eval, params)
        assert stops[1] < stops[0] and stops[2] < stops[1] and stops[4] > stops[0] and stops[6] > stops[4]

    def test_vertical_lines(self):
        # the access pattern of a scan over s: 180 points on each of four lines
        cfg = TwistedConfig.build(enumerate_characters(7)[2], 9, 4, F(6, 5))
        for sigma in (8.0, -2.0, 3.25, 0.5):
            for j in range(180):
                params = LParams(s=complex(sigma, -40 + 80 * j / 179), cfg=cfg)
                assert outcome(l_eval, params) == outcome(reference_eval, params)

    def test_sums_past_the_row_cap(self, monkeypatch):
        monkeypatch.setattr(lfunction, "_ROW_CAP", 40)
        cfg = TwistedConfig.build(quadratic_character(3), 3, 2, F(3, 2))
        for re_s, tol in ((0, 1e-3), (0, 1e-12), (6, 1e-12), (1, 1e-6), (0, 1e-12), (-4, 1e-14)):
            params = LParams(s=complex(re_s, 3), cfg=cfg, tol=tol)
            assert outcome(l_series_sum, params) == outcome(reference_series_sum, params)
            assert outcome(l_eval, params) == outcome(reference_eval, params)

    @pytest.mark.parametrize("cap, first", [(2**14, -100 + 0j), (2**14, -171 + 0j), (8, -100 + 0j)])
    def test_overflow_in_held_new_and_streamed_rows(self, monkeypatch, cap, first):
        # s = -100 holds every row up to its stop, past the terms that overflow
        # at s = -200 and -171; s = -171 first overflows while it meets new m;
        # with the cap at 8 those terms are streamed
        monkeypatch.setattr(lfunction, "_ROW_CAP", cap)
        cfg = quadratic3_config()
        for s in (first, -200 + 0j, complex(-160, 25), -171 + 0j, 2 + 0j, -171 + 0j, 100 + 0j, 3j):
            params = LParams(s=s, cfg=cfg)
            assert outcome(l_series_sum, params) == outcome(reference_series_sum, params)
        assert lfunction._held.cfg is cfg and lfunction._held.rows[-1][0] <= cap

    def test_a_line_revisited_after_another_line_and_another_config(self):
        # each line's magnitudes are held for the last line summed: a line met
        # again after another Re s, another stop (tol) or another config must
        # not read a stale table
        cfg = TwistedConfig.build(enumerate_characters(7)[2], 9, 4, F(6, 5))
        other = TwistedConfig.build(quadratic_character(5), 3, 1, F(5, 2))
        visits = (
            (cfg, 0.5, 1, 1e-12), (cfg, 0.5, -3, 1e-12), (cfg, -2.0, 4, 1e-12), (cfg, 0.5, 7, 1e-12),
            (cfg, 0.5, 2, 1e-6), (cfg, 0.5, -9, 1e-12), (other, 0.5, 5, 1e-12), (cfg, 0.5, 11, 1e-12),
            (other, -2.0, 5, 1e-12), (cfg, -2.0, -6, 1e-12),
        )
        for c, sigma, t, tol in visits:
            params = LParams(s=complex(sigma, t), cfg=c, tol=tol)
            assert outcome(l_series_sum, params) == outcome(reference_series_sum, params)
            assert outcome(l_eval, params) == outcome(reference_eval, params)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_real_s_after_complex_s_on_its_line(self, n):
        cfg = TwistedConfig.build(quadratic_character(5), 9, 2, F(3, 2))
        for s in (complex(-n, 3), complex(-n, -0.5), complex(-n), complex(-n, 2), complex(-n, -0.0)):
            params = LParams(s=s, cfg=cfg)
            assert outcome(l_series_sum, params) == outcome(reference_series_sum, params)
            assert outcome(l_eval, params) == outcome(reference_eval, params)

    def test_a_term_past_the_rect_threshold(self):
        # at s = -159.59 + 7i, q = 2, the largest exponent -s ln m - m ln q has
        # real part 708.44 (m = 230), past the module's threshold 708.40 and below
        # ln DBL_MAX: there cmath.exp scales exp(x - 1) by e, and rect(exp(x), y)
        # gives other bits, so the line is summed term by term, cold and warm
        cfg = quadratic3_config()
        for s in (complex(-159.59, 7), complex(-159.59, -2), complex(-159.6, 7), complex(-3, 7), complex(-159.59, 7)):
            params = LParams(s=s, cfg=cfg)
            got = outcome(l_series_sum, params)
            assert got == outcome(reference_series_sum, params)
            assert got[0] != "NotConverged"

    @pytest.mark.parametrize("d", [1, 3])
    def test_an_infinite_phase_on_a_warm_line(self, d):
        # Im s = +-1e308 on a line whose table is held: the phase Im(s) ln m
        # leaves the double range from m = 7 on (1e308 ln 6 is just below
        # DBL_MAX), and the message names the term as on a cold line; at
        # +-1e300 every phase is finite, and the held table gives the
        # per-term loop's bits
        cfg = TwistedConfig.build(principal_character(d), 1, 0, F(2))
        for t in (1.0, 1e308, -1e308, 1e300, -1e300):
            params = LParams(s=complex(0, t), cfg=cfg)
            if abs(t) < 1e308:
                assert outcome(l_series_sum, params) == outcome(reference_series_sum, params)
                continue
            warm = outcome(l_series_sum, params)
            cold = outcome(l_series_sum, dataclasses.replace(params, cfg=dataclasses.replace(cfg)))
            assert warm == cold == ("NotConverged", "term 7 overflows double precision")


class TestSummandTable:
    """The held table's work, counted by calls to ln, and its size."""

    @staticmethod
    def count_logs(monkeypatch) -> list:
        calls = []
        real = math.log
        monkeypatch.setattr(lfunction.math, "log", lambda x: calls.append(x) or real(x))
        return calls

    @staticmethod
    def summed(cfg, lo: int, hi: int) -> list:
        return [m for m, _ in cfg.twisted_exponents(range(lo + 1, hi + 1))]

    def test_ln_m_only_for_new_m(self, monkeypatch):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(6, 5))
        small, large = LParams(s=complex(-2, 1), cfg=cfg), LParams(s=complex(-8, -3), cfg=cfg)
        first = l_eval(small)
        for s in (complex(-2, 9), complex(0.5, -4), complex(-1, 2), complex(8, 3)):  # stops no larger
            lfunction.stop_index(s.real, cfg.q, 1e-12, 200000)  # the stop index is cached, not counted
            calls = self.count_logs(monkeypatch)
            assert l_series_sum(LParams(s=s, cfg=cfg)).terms_used <= first.terms_used
            assert calls == []
            monkeypatch.undo()
        lfunction.stop_index(-8.0, cfg.q, 1e-12, 200000)
        calls = self.count_logs(monkeypatch)
        stop = l_series_sum(large).terms_used
        assert stop > first.terms_used
        assert calls == self.summed(cfg, first.terms_used, stop)

    def test_rows_never_exceed_the_cap(self, monkeypatch):
        monkeypatch.setattr(lfunction, "_ROW_CAP", 50)
        cfg = quadratic3_config(F(3, 2))
        stop = l_series_sum(LParams(s=1j, cfg=cfg)).terms_used
        held = lfunction._held
        assert stop > 50 and held.reach == 50
        cycle = len(held.coefficients)
        rows = [(m, held.coefficients[m % cycle], math.log(m), m * held.ln_q) for m in self.summed(cfg, 0, 50)]
        assert held.rows == rows
        calls = self.count_logs(monkeypatch)
        l_series_sum(LParams(s=2j, cfg=cfg))
        assert calls == self.summed(cfg, 50, stop)  # past the cap each sum streams its terms
        assert [row[0] for row in held.rows] == self.summed(cfg, 0, 50)

    def test_a_new_config_releases_the_old_rows(self):
        import sys

        l_series_sum(LParams(s=1j, cfg=quadratic3_config(F(3, 2))))
        old = lfunction._held
        assert old.rows
        cfg = quadratic3_config(F(5, 2))
        l_series_sum(LParams(s=1j, cfg=cfg))
        assert lfunction._held.cfg is cfg
        assert sys.getrefcount(old) == 2  # this name and the call's argument

    def test_the_prefactor_reads_q_from_its_own_config(self, monkeypatch):
        """A wrapper of l_series_sum that returns without building a table leaves
        another config's table held; l_eval's prefactor still reads its own q."""
        s, held_cfg, cfg = complex(-2, 1), quadratic3_config(F(3, 2)), quadratic3_config(F(5, 2))
        inner = l_series_sum(LParams(s=s, cfg=cfg))
        l_series_sum(LParams(s=s, cfg=held_cfg))
        monkeypatch.setattr(lfunction, "l_series_sum", lambda params: inner)
        assert lfunction._held.cfg is held_cfg
        assert l_eval(LParams(s=s, cfg=cfg)).value == reference_prefactor(s, float(cfg.q)) * inner.value

    def test_l_eval_sums_through_the_module_attribute_once_per_call(self, monkeypatch):
        """perfbench's span and term hook wrap `lfunction.l_series_sum`; l_eval
        calls it by that name, once per call, raising or not."""
        real, calls = lfunction.l_series_sum, []
        monkeypatch.setattr(lfunction, "l_series_sum", lambda params: calls.append(params) or real(params))
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(6, 5))
        points = [LParams(s=complex(sigma, t), cfg=cfg) for sigma in (8.0, 0.5, -2.0) for t in (-3.0, 0.0, 11.0)]
        for params in points:
            l_eval(params)
        unreachable = LParams(s=-1e5 + 0j, cfg=cfg)
        with pytest.raises(NotConverged):
            l_eval(unreachable)
        assert calls == points + [unreachable]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_held_prefactor_has_the_bits_of_with_prefactor(self, seed):
        """From the held q and ln(1+q), l_eval gives every bit and every error
        of `with_prefactor` at an equal config whose table is not held, where
        it computes them from q."""
        rng = random.Random(seed)
        for _ in range(12):
            cfg = random_config(rng)
            for _ in range(6):
                params = LParams(s=complex(rng.uniform(-30, 8), rng.uniform(-40, 40)), cfg=cfg)
                try:
                    inner = l_series_sum(params)
                except MathError:
                    continue
                step, twin = lfunction.with_prefactor, dataclasses.replace(cfg)
                assert outcome(l_eval, params) == outcome(lambda p: step(p.s, twin, inner), params)
                assert lfunction._held.cfg is cfg

    def test_only_the_prefactor_overflows(self):
        """At q = 10^10, s = -31 the bare sum is about -1e-10 and (1+q)^32 is
        past the double range: both steps raise the same NotConverged."""
        params = LParams(s=-31 + 0j, cfg=quadratic3_config(F(10**10)))
        inner = l_series_sum(params)
        assert cmath.isfinite(inner.value) and 0 < abs(inner.value) < 1e-9
        with pytest.raises(NotConverged, match="^non-finite value$"):
            l_eval(params)
        assert lfunction._held.cfg is params.cfg
        with pytest.raises(NotConverged, match="^non-finite value$"):
            lfunction.with_prefactor(params.s, params.cfg, inner)


class TestMagnitudeTable:
    """Each line Re s = sigma holds its term magnitudes exp(-sigma ln m - m ln q):
    the first point on the line takes one exp per summed row, every later one
    none, and a term is c_m rect(magnitude, -Im(s) ln m)."""

    def test_rect_of_exp_is_cmath_exp_below_the_threshold(self):
        # the identity the held magnitudes rest on: up to CPython's
        # CM_LOG_LARGE_DOUBLE = ln(DBL_MAX / 4), cmath.exp(x + iy) forms
        # exp(x) cos y and exp(x) sin y, the products of cmath.rect(exp(x), y)
        limit = lfunction._RECT_EXP_MAX
        assert limit == math.log(sys.float_info.max / 4)
        rng = random.Random(20261021)
        xs = [limit, math.nextafter(limit, 0), 0.0, -0.0, -745.0, -800.0, 1e-300]
        xs += [rng.uniform(-760, limit) for _ in range(3000)] + [limit - rng.expovariate(1) for _ in range(500)]
        ys = [0.0, -0.0, 1e300, -1e300, sys.float_info.max, 5e-324]
        for x in xs:
            for y in (*ys, rng.uniform(-1e3, 1e3), rng.uniform(-1e20, 1e20), math.ldexp(rng.random(), rng.randint(-60, 60))):
                left, right = cmath.rect(math.exp(x), y), cmath.exp(complex(x, y))
                assert (left.real.hex(), left.imag.hex()) == (right.real.hex(), right.imag.hex()), (x, y)

    def test_one_exp_per_row_on_a_new_line_and_none_after(self, monkeypatch):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(6, 5))
        for sigma in (0.5, -2.0):
            lfunction.stop_index(sigma, cfg.q, 1e-12, 200000)  # the stop index's exps are cached, not counted
        l_series_sum(LParams(s=complex(-3.0, 1), cfg=cfg))  # holds the rows up to both stops, on a third line
        for sigma in (0.5, -2.0):
            calls = []
            real = math.exp
            monkeypatch.setattr(lfunction.math, "exp", lambda x: calls.append(x) or real(x))
            stop = l_series_sum(LParams(s=complex(sigma, 3), cfg=cfg)).terms_used
            rows = [row for row in lfunction._held.rows if row[0] <= stop]
            assert len(calls) == len(rows) == len(lfunction._held.magnitudes)
            for t in (-4.0, 0.0, 9.5):
                calls.clear()
                l_series_sum(LParams(s=complex(sigma, t), cfg=cfg))
                assert calls == []
            monkeypatch.undo()

    def test_the_table_is_keyed_by_re_s_and_stop(self):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(6, 5))
        for sigma, tol in ((0.5, 1e-12), (0.5, 1e-6), (-2.0, 1e-6)):
            stop = l_series_sum(LParams(s=complex(sigma, 1), cfg=cfg, tol=tol)).terms_used
            held = lfunction._held
            assert held.line == (sigma, stop)
            assert held.magnitudes == [math.exp(-sigma * lm - mq) for m, _, lm, mq in held.rows if m <= stop]


class TestCoefficientReuse:
    def test_one_embedding_of_chi_and_zeta_per_config(self, monkeypatch):
        embeds = []
        monkeypatch.setattr(lfunction, "embed_complex", lambda a: embeds.append(a) or embed_complex(a))
        cfg = TwistedConfig.build(quadratic_character(5), 9, 2, F(5, 2))
        for j in range(100):
            l_eval(LParams(s=complex(-2 + j / 10, j - 50), cfg=cfg))
        assert len(embeds) == 5 + 9

    def test_alternating_configs(self):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(2))
        muted = muted_config(cfg)
        other = TwistedConfig.build(quadratic_character(7), 9, 4, F(11, 10))
        for j in range(6):
            for c in (cfg, muted, other):
                params = LParams(s=complex(j, 3 - j), cfg=c)
                assert outcome(l_eval, params) == outcome(reference_eval, params)

    def test_equal_configs_that_are_distinct_objects(self):
        first, second = (TwistedConfig.build(quadratic_character(3), 3, 2, F(3, 2)) for _ in range(2))
        assert first == second and first is not second
        for j in range(4):
            for c in (first, second):
                params = LParams(s=complex(0.5, j), cfg=c)
                assert outcome(l_eval, params) == outcome(reference_eval, params)


def looped_stable_index(re_abs: float, ln_q: float, max_terms: int) -> int:
    """The stable index by a loop over m, one log per step: an oracle for the bisection in `_indices`."""
    peak = 2 * re_abs / ln_q
    if not peak <= max_terms:
        raise NotConverged(f"tail bound not reached within {max_terms} terms")
    m = max(1, math.ceil(peak))
    while re_abs * math.log(m) > m * ln_q / 2:
        m += 1
        if m > max_terms:
            raise NotConverged(f"tail bound not reached within {max_terms} terms")
    return m


def looped_stop_index(sigma: float, q, tol: float, max_terms: int) -> tuple:
    """The stop index at Re s = sigma by a loop over m, one exp per step,
    after the q checks the sum makes first: an oracle for the bisection in
    `stop_index`."""
    try:
        q_float = float(q)
    except OverflowError as exc:
        raise OutsideDoubleRange("q exceeds double range") from exc
    if q_float <= 1:
        raise OutsideConvergence(f"series evaluation needs q > 1, got q={q}")
    ln_q = math.log(q_float)
    start = 1 if 0 < sigma < math.inf else looped_stable_index(abs(sigma), ln_q, max_terms)
    tail_of = oracle_tail(sigma, ln_q)
    for m in range(start, max_terms + 1):
        tail = tail_of(m)
        if tail < tol:
            return m, tail
    return max_terms, None


def index_outcome(fn, *args) -> tuple:
    try:
        m, tail = fn(*args)
    except MathError as exc:
        return type(exc).__name__, str(exc)
    return m, repr(tail)


def uncached_stop_index(*args) -> tuple:
    lfunction._indices.cache_clear()
    return lfunction.stop_index(*args)


class TestStopIndexBisection:
    """`stop_index` finds each index by bisection on the sum's float tests; a
    loop over every m gives the same index, tail bound and error, on either
    side of Re s = 0."""

    @staticmethod
    def draw(rng: random.Random, max_terms: int = 0) -> tuple:
        if rng.random() < 0.5:
            q = 1 + F(rng.randint(1, 50), rng.choice((1000, 10**4, 10**5)))  # (1, 1.05]
        else:
            q = 1 + F(rng.randint(1, 400), 100)
        ln_q = math.log(float(q))
        kind = rng.random()
        if kind < 0.3:
            peak = rng.uniform(0, math.e)
        elif kind < 0.5:
            peak = math.e * (1 + rng.choice((1e-16, 1e-12, 1e-8, 1e-4, 1e-2)) * rng.random())
        else:
            peak = math.exp(rng.uniform(1, 6))
        re_abs = peak * ln_q / 2
        # Re s = -re_abs, or a Re s > 0 of the same size or at an extreme
        sigma = -re_abs if rng.random() < 0.5 else rng.choice((re_abs, re_abs, re_abs, 1e-9, 1e3, 1e300))
        max_terms = max_terms or rng.choice((1, 5, 40, 300, 200000))
        tol = 10.0 ** -rng.uniform(0, 300)
        if max_terms == 200000:
            # a tol at, just beside or near the tail bound of an index up to
            # 3000, so the looped oracle stays short
            target = round(math.exp(rng.uniform(0, 8)))
            tail = oracle_tail(sigma, ln_q)(target)
            tail = rng.choice((tail, math.nextafter(tail, 0), math.nextafter(tail, 1), tail * rng.uniform(0.5, 2)))
            tol = tail if tail > 0 else tol
        return sigma, q, tol, max_terms

    def test_random_draws(self):
        rng = random.Random(20261018)
        for _ in range(20000):
            args = self.draw(rng)
            assert index_outcome(uncached_stop_index, *args) == index_outcome(looped_stop_index, *args), args

    def test_max_terms_at_the_index(self):
        rng = random.Random(17)
        for _ in range(500):
            sigma, q, tol, _ = self.draw(rng, 200000)
            found = index_outcome(uncached_stop_index, sigma, q, tol, 200000)
            if isinstance(found[0], str):
                continue
            for max_terms in (found[0], found[0] - 1):
                args = (sigma, q, tol, max(max_terms, 1))
                assert index_outcome(uncached_stop_index, *args) == index_outcome(looped_stop_index, *args), args

    @pytest.mark.parametrize("q, sigma, stop", [
        (F(100001, 100000), 0.0, 7967461), (F(10001, 10000), -30.0, 9649962),
        (F(100001, 100000), 1e-9, 3914415), (F(10001, 10000), 1.0, 244362), (F(10001, 10000), 30.0, 3),
    ])
    def test_no_loop_over_the_terms(self, q, sigma, stop):
        # a loop over m takes seconds at the first four; at the last the
        # stop of the Re s = 0 bound lies about 368,000 terms above it
        start = time.perf_counter()
        for _ in range(10):
            m, tail = uncached_stop_index(sigma, q, 1e-12, 10**7)
        assert (time.perf_counter() - start) / 10 < 1e-3
        assert tail < 1e-12 and m == stop

    @pytest.mark.parametrize("s", [complex(-3, 5), complex(8, 1)])
    def test_terms_are_the_stop_index(self, s):
        cfg = quadratic3_config(F(11, 10))
        result = l_series_sum(LParams(s=s, cfg=cfg))
        assert (result.terms_used, result.tail_bound) == lfunction.stop_index(s.real, F(11, 10), 1e-12, 200000)

    def test_q_above_one_that_rounds_to_one(self):
        q = F(10**19 + 1, 10**19)
        assert q > 1 and float(q) == 1.0
        params = LParams(s=2 + 0j, cfg=quadratic3_config(q))
        assert outcome(l_series_sum, params) == ("NotConverged", "tail bound not reached within 200000 terms")

    @pytest.mark.parametrize("q, error", [
        (F(10**400), "OutsideDoubleRange"), (F(-(10**400)), "OutsideDoubleRange"),
        (F(10**19 - 1, 10**19), "OutsideConvergence"), (F(1), "OutsideConvergence"),
        (F(-3, 7), "OutsideConvergence"), (F(1, 10**400), "OutsideConvergence"),
    ])
    def test_q_outside_the_series(self, q, error):
        got = index_outcome(lfunction.stop_index, 1.0, q, 1e-12, 200000)
        assert got[0] == error
        assert got == index_outcome(looped_stop_index, 1.0, q, 1e-12, 200000)


class TestFirstFailure:
    """The bisection behind both stop-index searches: against a scan over m,
    its count of exp and log calls, and the edges of the index it finds."""

    @staticmethod
    def scanned(holds, lo: int, hi: int) -> int:
        m = lo
        while m <= hi and holds(m):
            m += 1
        return m

    def test_random_monotone_predicates(self):
        rng = random.Random(20261019)
        for _ in range(3000):
            lo = rng.randint(-20, 60)
            hi = lo + rng.randint(-3, 80)
            threshold = rng.randint(lo - 5, max(lo, hi) + 5)  # holds below it, fails from it on
            tested = []

            def holds(m):
                tested.append(m)
                return m < threshold

            expected = self.scanned(lambda m: m < threshold, lo, hi)
            assert lfunction._first_failure(holds, lo, hi) == expected, (lo, hi, threshold)
            assert all(lo <= m <= hi for m in tested)
            assert len(tested) <= math.ceil(math.log2(max(hi - lo + 2, 1)))

    @pytest.mark.parametrize("lo, hi", [(5, 4), (5, -10), (0, -1)])
    def test_an_empty_range_returns_lo(self, lo, hi):
        assert lfunction._first_failure(lambda m: pytest.fail("no index to test"), lo, hi) == lo

    @pytest.mark.parametrize("lo, hi", [(1, 1), (1, 2), (3, 10**7), (-4, 17)])
    def test_all_true_and_all_false(self, lo, hi):
        assert lfunction._first_failure(lambda m: True, lo, hi) == hi + 1
        assert lfunction._first_failure(lambda m: False, lo, hi) == lo

    @pytest.mark.parametrize("q, sigma", [
        (F(100001, 100000), 0.0), (F(10001, 10000), -30.0), (F(100001, 100000), 1e-9),
        (F(10001, 10000), 1.0), (F(10001, 10000), 30.0), (F(3, 2), -1e3), (F(2), 1e300),
    ])
    def test_exp_and_log_calls_grow_as_log_max_terms(self, monkeypatch, q, sigma):
        # each bisection tests at most ceil(log2(max_terms + 1)) indices, with
        # one or two calls per test, so the whole stop_index stays under
        # 3 log2(max_terms) calls; a loop over m would make millions
        max_terms, calls = 10**7, []
        for name in ("exp", "log"):
            real = getattr(math, name)
            monkeypatch.setattr(lfunction.math, name, lambda x, real=real: calls.append(x) or real(x))
        m, tail = uncached_stop_index(sigma, q, 1e-12, max_terms)
        monkeypatch.undo()
        assert tail < 1e-12 and len(calls) <= 3 * math.log2(max_terms)

    @pytest.mark.parametrize("sigma, q, tol, max_terms", [
        (1749.2075907989747, F(2500000000000001, 2500000000000000), 1e-12, 2),
        (1e300, F(250000000000001, 250000000000000), 9.381442602128551e-135, 186555),
        (1e300, F(2000000000000001, 2000000000000000), 2.0, 87),
    ])
    def test_large_re_s_at_q_just_above_one(self, sigma, q, tol, max_terms):
        # ln q is under 1e-14 and the first tail bound underflows to 0.0, so
        # the stop is m = 1, found without a test outside 1..max_terms
        got = index_outcome(uncached_stop_index, sigma, q, tol, max_terms)
        assert got == index_outcome(looped_stop_index, sigma, q, tol, max_terms) == (1, "0.0")

    @pytest.mark.parametrize("sigma", [0.0, -0.0, 1.0])
    def test_no_terms_allowed(self, sigma):
        got = index_outcome(uncached_stop_index, sigma, F(2), 1e-12, 0)
        assert got == index_outcome(looped_stop_index, sigma, F(2), 1e-12, 0) == (0, "None")


@pytest.mark.parametrize("q", [F(101, 100), F(11, 10), F(3, 2), F(5)])
def test_the_tail_bound_holds_at_positive_re_s(q):
    """At Re s > 0 the terms after the stop M, summed at 40 digits from M + 1
    to 3M + 200 in absolute value, stay within the reported tail bound."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(f"tail {q}")
    with mpmath.workdps(40):
        q_mp = mpmath.mpf(q.numerator) / q.denominator
        for sigma in (1e-9, 20.0, *(rng.choice((20 * rng.random(), 10 ** rng.uniform(-6, 1.3))) for _ in range(10))):
            d, order = rng.choice(range(1, 16, 2)), rng.choice((1, 3, 9))
            k = rng.choice([k for k in range(order) if math.gcd(k, order) == 1] or [0])
            cfg = TwistedConfig.build(rng.choice(enumerate_characters(d)), order, k, q)
            result = l_series_sum(LParams(s=complex(sigma, rng.uniform(-40, 40)), cfg=cfg))
            stop, neg_sigma = result.terms_used, -mpmath.mpf(sigma)
            rest = mpmath.fsum(
                mpmath.exp(neg_sigma * mpmath.log(m)) * q_mp ** -m
                for m in range(stop + 1, 3 * stop + 201) if cfg.char.exponents[m % d] is not None
            )
            assert rest <= result.tail_bound, (cfg, sigma, stop)
