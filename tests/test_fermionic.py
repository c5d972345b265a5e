"""The alternating integral engine: triangular solves, the distribution
identity, kernel normalization, and p-adic truncation diagnostics."""
import math
import random
from fractions import Fraction as F

import pytest

from eulertwist import (
    PLUS_INFINITY,
    TwistedConfig,
    checks,
    cyclotomic_field,
    enumerate_characters,
    eulerian_at,
    fermionic,
    padic_truncation,
    padic_valuation,
    principal_character,
    q_bracket_neg,
    quadratic_character,
    riemann_sums,
    twisted,
    twisted_values,
)
from eulertwist.cyclotomic import CyclotomicField, CyclotomicNumber
from eulertwist.errors import DivisionByZero, NotPadicallyConvergent
from eulertwist.fermionic import _char_moment_sequence, _moment_sequence, residue_class_sums
from eulertwist.series import power_moments
from eulertwist.twisted import alternating_char_sums, twisted_series_values
from conftest import moment_values


def distribution_sides(n_max, char, zeta_order, zeta_exponent, q):
    return checks._distribution_sides(TwistedConfig.build(char, zeta_order, zeta_exponent, q), n_max)


def kernel_limit(char, q, n):
    """The limit of the unnormalized sums under the d-l+1 kernel, read from
    A_n at twist 1: 2 q (-1)^n A_n / (1+q)^(n+1)."""
    a_n = twisted_values(TwistedConfig.build(char, 1, 0, q), n)[n].value
    return 2 * q * (-1) ** n * a_n * (1 / (1 + q) ** (n + 1))


def series_limit(char, q, n):
    """The limit of the unnormalized sums U_N, read from A_n on the series
    path: 2 (-1)^n A_n / (q (1+q)^(n+1))."""
    a_n = twisted_series_values(TwistedConfig.build(char, 1, 0, q), n)[n]
    return 2 * (-1) ** n * a_n.coeffs[0] / (q * (1 + q) ** (n + 1))


def series_value(char, q, n):
    """The alternating series sum_{m>=1} (-1)^m chi(m) m^n / q^m, closed form."""
    return alternating_char_sums(TwistedConfig.build(char, 1, 0, q), n)[n].coeffs[0]


def one_term_walk(n_max, q, p, max_level, char):
    """sums[n][N] = U_N, one term at a time: with q = u/v,
    acc_n <- acc_n u + chi(x) (-v)^x x^n, and U_N = acc_n / u^x at
    x = p^N - 1.  The oracle of `riemann_sums`, which walks the first levels
    this way and regroups each later level from the one before it."""
    u, v = q.numerator, q.denominator
    acc = [0] * (n_max + 1)
    sums = [[] for _ in acc]
    weight = 1  # (-v)^x
    end = 1  # the next checkpoint p^N
    for x in range(p**max_level if max_level >= 0 else 0):
        term = int(char.rational_value(x)) * weight
        for m in range(n_max + 1):
            acc[m] = acc[m] * u + term
            term *= x
        weight *= -v
        if x + 1 == end:
            for row, total in zip(sums, acc):
                row.append(F(total, u**x))
            end *= p
    return sums


# At n_max 4, riemann_sums walks level N, [p^(N-1), p^N), one term at a time
# while p^N <= d or 2 p^(N-1) <= 6: up to level 2 at p = 3 and level 1 at
# p = 5 and 7.  Each later level is regrouped into p shifted copies of the
# level before, so each top below reaches at least three regrouped levels.
WALK_TOP_LEVEL = {3: 7, 5: 5, 7: 4}
WALK_POINTS = [
    (F(4, 7), 3), (F(4), 3), (F(-2), 3),
    (F(6, 11), 5), (F(11), 5),
    (F(-6), 7), (F(8, 15), 7), (F(15), 7),
]


def walk_characters(p):
    return [principal_character(1), principal_character(p), quadratic_character(p)]


def rational_characters(d):
    return [char for char in enumerate_characters(d) if char.is_rational_valued]


def literal_partials(n, q, p, max_level, char):
    """S_N for N = 0..max_level, one Fraction term at a time: the prefix sum of
    chi(x) x^n (-1/q)^x over x < p^N, over the alternating bracket of p^N.  The
    oracle of `padic_truncation`, whose levels past the period use a closed form."""
    total, out, end = F(0), [], 1
    for x in range(p**max_level if max_level >= 0 else 0):
        total += (char.rational_value(x) if char else 1) * F(x) ** n * (F(-1) / q) ** x
        if x + 1 == end:
            out.append(total / q_bracket_neg(end, 1 / q))
            end *= p
    return out


# (q, p) with |q - 1|_p < 1: q = 1 + p, and -2, 4/7, 6/11 and -6 at the one prime each suits
CLOSED_FORM_POINTS = [
    (F(4), 3), (F(-2), 3), (F(4, 7), 3), (F(6), 5), (F(6, 11), 5), (F(8), 7), (F(-6), 7),
]


def closed_form_characters(p):
    """The trivial character, the principal and quadratic ones mod p and, at p = 3, the principal one mod 9
    and both rational ones mod 27, each with a top level two past its period: levels below, at and past
    p^N = d."""
    chars = [(None, 2), (principal_character(p), 3), (quadratic_character(p), 3)]
    return chars + ([(principal_character(9), 4)] + [(char, 5) for char in rational_characters(27)]) * (p == 3)


def walk_valuations(char, q, p, max_level, n):
    """v_p(U_N - limit) for N = 0..max_level."""
    limit = series_limit(char, q, n)
    return [padic_valuation(total - limit, p) for total in riemann_sums(n, q, p, max_level, char)[n]]


class TestPolyTwistIntegral:
    def test_zeroth_moment_is_one(self):
        for ratio in (F(1, 2), F(3), F(2, 7)):
            assert _moment_sequence(0, ratio, cyclotomic_field(1), 0)[0] == 1

    def test_first_moment(self):
        q = F(2)
        assert _moment_sequence(1, 1 / q, cyclotomic_field(1), 0)[1] == F(-1, 3)  # -1/(1+q)

    def test_second_moment(self):
        q = F(2)
        assert _moment_sequence(2, 1 / q, cyclotomic_field(1), 0)[2] == (1 - q) / (1 + q) ** 2

    def test_singular_pivot(self):
        # at ratio -1 the pivot 1 - zeta^-k is the geometric series' c = -1, refused at
        # twist 1, in Q(zeta_1) or a larger field, and at every other power of zeta
        field = cyclotomic_field(9)
        with pytest.raises(DivisionByZero, match="no geometric-series inverse"):
            _moment_sequence(1, F(-1), cyclotomic_field(1), 0)
        for k in (0, 9, 1, 3, 8):
            with pytest.raises(DivisionByZero, match="no geometric-series inverse"):
                _moment_sequence(1, F(-1), field, k)

    @pytest.mark.parametrize("q", [F(2), F(3), F(5, 2)])
    @pytest.mark.parametrize("n", range(9))
    def test_witt_identity_with_classical_polynomials(self, n, q):
        lhs = _moment_sequence(n, 1 / q, cyclotomic_field(1), 0)[n]
        rhs = F(-1) ** n * eulerian_at(n, -q) / (1 + q) ** n
        assert lhs == rhs

    def test_functional_equation_residual(self):
        rng = random.Random(3)
        field = cyclotomic_field(3)
        for _ in range(20):
            n = rng.randint(0, 5)
            ratio = F(rng.randint(1, 6), rng.randint(1, 6))
            exponent = rng.randint(0, 2)
            twist = field.zeta_power(exponent)
            moments = [
                _moment_sequence(k, ratio, field, exponent)[k]
                for k in range(n + 1)
            ]
            plugged = ratio * twist * sum(
                math.comb(n, k) * moments[k] for k in range(n + 1)
            ) + moments[n]
            assert plugged == (1 + ratio if n == 0 else 0)

    def test_functional_equation_residual_for_general_twists(self):
        # zeta_12^4 = zeta_3: an odd-order twist in a field of even order
        field, ratio = cyclotomic_field(12), F(2, 3)
        twist = field.zeta_power(4)
        moments = [_moment_sequence(k, ratio, field, 4)[k] for k in range(6)]
        for n in range(6):
            plugged = ratio * twist * sum(math.comb(n, k) * moments[k] for k in range(n + 1)) + moments[n]
            assert plugged == (1 + ratio if n == 0 else 0)


def untwisted_integral(n, char, q):
    return _char_moment_sequence(n, TwistedConfig.build(char, 1, 0, q))[n]


class TestCharTwistIntegral:
    def test_quadratic_anchor(self):
        assert untwisted_integral(0, quadratic_character(3), F(2)) == -1

    def test_trivial_character(self):
        for q in (F(2), F(3), F(7, 2)):
            assert untwisted_integral(0, principal_character(1), q) == 1

    def test_reduces_to_poly_integral_at_modulus_one(self):
        q = F(2)
        lhs = untwisted_integral(1, principal_character(1), q)
        assert lhs == F(-1, 3)
        assert lhs == _moment_sequence(1, 1 / q, cyclotomic_field(1), 0)[1]
        # at d = 1 the d-step equation is q times the one-step equation at
        # ratio 1/q, so the two moment solves agree exactly
        for order in (1, 3, 5, 9):
            for k in (k for k in range(order) if math.gcd(k, order) == 1):
                for q in (F(2), F(5, 2), F(-3, 7)):
                    cfg = TwistedConfig.build(principal_character(1), order, k, q)
                    for n in range(7):
                        one_step = _moment_sequence(n, 1 / q, cfg.field, cfg.twist_exponent(1))
                        assert one_step == _char_moment_sequence(n, cfg)

    def test_each_kernel_weight_is_formed_once_per_call(self, monkeypatch):
        # every weight chi(l) zeta^l is a power of zeta_N scaled by a
        # rational, and each triangular division is monic, its unit zeta^d
        # folded into the exponents, so the only field products are the
        # n + 1 by the pivot inverse, each one pass over the one product
        # matrix of the pivot inverse that series.binomial_solve builds per
        # call; the one-step moments and eq22's quotient form the same, and
        # the series path reads its cycle the same way and forms none.  The
        # residue classes add one matrix per nonzero class row S_j.  No
        # route multiplies two field elements by CyclotomicNumber.__mul__.
        real_mul, real_matrix = CyclotomicNumber.__mul__, CyclotomicField._product_columns
        products, matrices = [], []

        def counted_mul(self, other):
            if isinstance(other, CyclotomicNumber):
                products.append(other)
            return real_mul(self, other)

        def counted_matrix(self, b):
            matrices.append(tuple(b))
            return real_matrix(self, b)

        monkeypatch.setattr(CyclotomicNumber, "__mul__", counted_mul)
        monkeypatch.setattr(CyclotomicField, "_product_columns", counted_matrix)

        def count(route, *args):
            products.clear()
            matrices.clear()
            route(*args)
            return len(products), len(matrices)

        for char, zeta_order in ((quadratic_character(15), 9), (quadratic_character(97), 7)):
            cfg = TwistedConfig.build(char, zeta_order, 1, F(5, 2))
            d, k = char.modulus, cfg.twist_exponent(char.modulus)
            for n in (0, 5, 20):
                assert count(_char_moment_sequence, n, cfg) == (0, 1)
                assert count(twisted_values, cfg, n) == (0, 1)
                assert matrices == [cfg.field.binomial_inverse(cfg.q**d, -k).num]
                assert count(_moment_sequence, n, cfg.q**-15, cfg.field, cfg.twist_exponent(15)) == (0, 1)
                assert count(checks._fold, cfg.field, cfg.twist_exponent(1), 1, n + 1) == (0, 1)
                classes = [(a, (-1) ** a * cfg.q**-a, e) for a, e in cfg.twisted_exponents(range(d))]
                rows = [tuple(row) for row in power_moments(cfg.field, classes, n)[0] if any(row)]
                assert count(residue_class_sums, n, cfg) == (0, 1 + len(rows))
                assert matrices[1:] == rows
            assert count(twisted_series_values, cfg, 8) == (0, 0)


class TestDistributionIdentity:
    def test_anchor(self):
        lhs, rhs = distribution_sides(0, quadratic_character(3), 1, 0, F(2))[0]
        assert lhs == -1
        assert lhs == rhs

    def test_modulus_one_is_structural(self):
        for lhs, rhs in distribution_sides(3, principal_character(1), 1, 0, F(3)):
            assert lhs == rhs

    def test_cyclotomic_point(self):
        for lhs, rhs in distribution_sides(4, quadratic_character(5), 3, 1, F(3)):
            assert lhs == rhs


def shifted_moments(n, ratio, field, k, shift):
    """I(zeta_N^(kx) (x+shift)^m) for m = 0..n under mu_(-ratio): the one-step
    equation's triangular solve at the right side (1+ratio) shift^m, in unit
    form and field arithmetic, x_m = ((1+ratio) shift^m - unit
    sum_(j<m) C(m,j) x_j) / (unit + 1) with unit = ratio zeta_N^k, where the
    program divides the equation by the unit."""
    unit, pivot_inv = ratio * field.zeta_power(k), field.binomial_inverse(ratio, k)
    out = []
    for m in range(n + 1):
        lower = sum((math.comb(m, j) * x for j, x in enumerate(out)), field.zero)
        out.append(((1 + ratio) * shift**m - unit * lower) * pivot_inv)
    return out


def per_class_residue_sums(n_max, cfg):
    """The residue-class decomposition one class at a time: one moment
    sequence per class with chi(a) != 0, at shift a/d, the sum over classes
    times d^n/[d]_{-1/q}.  The oracle of the shared moment sequence in
    `residue_class_sums`."""
    q, d = cfg.q, cfg.char.modulus
    sums = [cfg.field.zero] * (n_max + 1)
    for a in range(d):
        chi = cfg.char_value(a)
        if chi.is_zero():
            continue
        coeff = ((-1) ** a * q**-a) * (chi * cfg.zeta_pow(a))
        inner = shifted_moments(n_max, q**-d, cfg.field, cfg.twist_exponent(d), F(a, d))
        sums = [acc + coeff * moment for acc, moment in zip(sums, inner)]
    return [F(d**n) / q_bracket_neg(d, 1 / q) * acc for n, acc in enumerate(sums)]


def field_product_residue_sums(n_max, cfg):
    """The binomial sum over classes with one field product and one canonical
    add per term: [d]_{-1/q}^-1 sum_j C(n,j) d^(n-j) M_(n-j) S_j, each term a
    CyclotomicNumber.  The oracle of the integer convolution in
    `residue_class_sums`, which reads the same M_k and S_j."""
    q, d = cfg.q, cfg.char.modulus
    moments = _moment_sequence(n_max, q**-d, cfg.field, cfg.twist_exponent(d))
    classes = moment_values(cfg.field, [(a, (-1) ** a * q**-a, e) for a, e in cfg.twisted_exponents(range(d))], n_max)
    weights = [(j, s) for j, s in enumerate(classes) if s]
    scale = 1 / q_bracket_neg(d, 1 / q)
    return [scale * sum((math.comb(n, j) * d ** (n - j) * moments[n - j] * s for j, s in weights if j <= n),
                        classes[0] * 0)
            for n in range(n_max + 1)]


class TestResidueClassSums:
    def test_matches_the_field_product_sum_on_the_reach_grid(self):
        """All 120 reach-grid configurations, the q = 1 ones of cor3
        included, at n_max 12."""
        grid = checks.Grid(n_max=12, moduli=(1, 3, 5, 7, 15), zeta_orders=(1, 3, 9, 27), q_values=(F(2), F(5, 2)))
        configs = [config for fixed_q in (None, F(1)) for _, *config in checks._configs(grid, fixed_q)]
        assert len(configs) == 120
        for config in configs:
            cfg = TwistedConfig.build(*config)
            assert residue_class_sums(12, cfg) == field_product_residue_sums(12, cfg), cfg

    @pytest.mark.parametrize("d", [91, 95, 97])
    def test_matches_the_field_product_sum_at_many_classes(self, d):
        cfg = TwistedConfig.build(quadratic_character(d), 1, 0, F(5, 2))
        assert residue_class_sums(30, cfg) == field_product_residue_sums(30, cfg)

    def test_no_field_element_per_term(self, monkeypatch):
        """The convolution forms one CyclotomicNumber per n, past the moment
        solve and the class weights, and no field product or sum."""
        cfg = TwistedConfig.build(quadratic_character(15), 9, 1, F(5, 2))
        moments = _moment_sequence(12, cfg.q**-15, cfg.field, cfg.twist_exponent(15))
        monkeypatch.setattr(fermionic, "_moment_sequence", lambda *args: moments)
        built = []
        real_init = CyclotomicNumber.__init__

        def counted(self, *args):
            built.append(args)
            real_init(self, *args)

        monkeypatch.setattr(CyclotomicNumber, "__init__", counted)
        monkeypatch.setattr(CyclotomicNumber, "__mul__", lambda *args: pytest.fail("a field product"))
        monkeypatch.setattr(CyclotomicNumber, "__add__", lambda *args: pytest.fail("a field sum"))
        sums = residue_class_sums(12, cfg)
        assert len(sums) == 13
        assert len(built) == 13  # one per n: power_moments gives the class weights as raw integer rows

    @pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 15, 21])
    def test_matches_one_sequence_per_class(self, d):
        rng = random.Random(d)
        for _, char in checks.grid_characters(d):
            for order in (1, 3, 9):
                exponent = rng.choice([k for k in range(order) if math.gcd(k, order) == 1])
                for q in (F(2), F(5, 2), F(-3, 7), F(1)):
                    cfg = TwistedConfig.build(char, order, exponent, q)
                    assert residue_class_sums(10, cfg) == per_class_residue_sums(10, cfg)

    @pytest.mark.parametrize("d", [7, 15])
    def test_one_moment_sequence_whatever_the_modulus(self, monkeypatch, d):
        calls = []

        def counted(*args):
            calls.append(args)
            return _moment_sequence(*args)

        monkeypatch.setattr(fermionic, "_moment_sequence", counted)
        residue_class_sums(6, TwistedConfig.build(principal_character(d), 3, 1, F(5, 2)))
        assert len(calls) == 1


def test_kernel_ratio_is_q_squared():
    # eq28 draws 5 tables per (d, q) from the seed, in this loop order
    grid = checks.Grid(moduli=(1, 3, 5), q_values=(F(2), F(3), F(5, 2)), random_tables=5, seed=17)
    report = checks.run_relation("eq28-residual", grid)
    assert [p.verdict for p in report.points] == ["pass"] * 45


class TestPadicTruncation:
    def test_constant_integrand_is_exact_at_every_level(self):
        report = padic_truncation(0, F(4), 3, 4)
        for level in report.levels:
            assert level.partial == 1
            assert level.valuation == PLUS_INFINITY

    def test_first_moment_anchor(self):
        report = padic_truncation(1, F(4), 3, 3)
        assert report.exact == F(-1, 5)
        level1 = report.levels[1]
        assert level1.partial == F(-2, 13)
        assert level1.partial - report.exact == F(3, 65)
        assert level1.valuation == 1

    def test_level_zero_is_the_first_summand(self):
        report = padic_truncation(0, F(4), 3, 0)
        assert report.levels[0].partial == 1

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("n", range(3))
    def test_valuation_growth(self, p, n):
        q = F(1 + p)
        for char in (None, quadratic_character(p)):
            report = padic_truncation(n, q, p, 3, char=char)
            vals = [lv.valuation for lv in report.levels]
            assert all(v >= lv.level for lv, v in zip(report.levels, vals))
            assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    @pytest.mark.parametrize("n, p, char", [(0, 3, None), (2, 3, quadratic_character(3)), (1, 5, None)])
    def test_partial_sums_equal_a_fresh_sum_per_level(self, n, p, char):
        q = F(1 + p)
        report = padic_truncation(n, q, p, 3, char=char)
        walk = riemann_sums(n, q, p, 3, char)[n] if char is not None else None
        for level in range(4):
            count = p**level
            fresh = sum(
                (F(-1, 1) / q) ** x * (char.rational_value(x) if char else 1) * x**n
                for x in range(count)
            )
            assert report.levels[level].partial == fresh / q_bracket_neg(count, 1 / q)
            if walk is not None:
                assert walk[level] == fresh

    @pytest.mark.parametrize("q, p, char", [
        (F(4, 7), 3, quadratic_character(3)),
        (F(-2), 3, principal_character(3)),
        (F(6, 11), 5, principal_character(1)),
        (F(-6), 7, quadratic_character(7)),
        (F(8, 15), 7, principal_character(7)),
    ])
    def test_integer_walk_equals_a_fresh_sum_off_integer_q(self, q, p, char):
        # The checks and the benchmark only reach q = 1 + kp; here q has a
        # denominator, a negative sign, or both.
        sums = riemann_sums(4, q, p, 3, char)
        for n in range(5):
            for level in range(4):
                fresh = sum(
                    (F(-1, 1) / q) ** x * char.rational_value(x) * x**n for x in range(p**level)
                )
                assert sums[n][level] == fresh

    @pytest.mark.parametrize("q, p", WALK_POINTS)
    def test_pieced_walk_equals_the_one_term_walk(self, q, p):
        for char in walk_characters(p):
            oracle = one_term_walk(4, q, p, WALK_TOP_LEVEL[p], char)
            for max_level in range(-1, WALK_TOP_LEVEL[p] + 1):
                expected = [row[: max_level + 1] for row in oracle]
                assert riemann_sums(4, q, p, max_level, char) == expected

    @pytest.mark.parametrize("q, p", WALK_POINTS)
    def test_truncation_walks_its_exponent_alone(self, q, p):
        top = WALK_TOP_LEVEL[p]
        for char in walk_characters(p):
            oracle = one_term_walk(6, q, p, top, char)
            for n in (0, 1, 6):
                partials = [lv.partial for lv in padic_truncation(n, q, p, top, char=char).levels]
                assert partials == [
                    total / q_bracket_neg(p**level, 1 / q) for level, total in enumerate(oracle[n])
                ]

    @pytest.mark.parametrize("n_max", [0, 4, 5, 6, 12])
    def test_walked_and_regrouped_levels_meet_at_each_exponent_count(self, n_max):
        # level 2 (P = 3) is walked while 2 P <= n_max + 2, so from n_max 4 on, and regrouped at n_max 0;
        # levels 3 to 6 are regrouped at every n_max here (level 3 is walked from n_max 16)
        for char in walk_characters(3):
            for q in (F(4, 7), F(-2)):
                assert riemann_sums(n_max, q, 3, 6, char) == one_term_walk(n_max, q, 3, 6, char)

    @pytest.mark.parametrize("d, top", [(9, 6), (27, 6), (243, 7)])
    def test_walk_at_a_character_modulus_of_a_power_of_p(self, d, top):
        # the levels up to p^N = d are walked whatever n_max (levels 1-2, 1-3 and 1-5), so the first
        # regrouped level has P = d: the copies are whole periods of the character
        for char in rational_characters(d):
            for q in (F(4), F(-2), F(4, 7)):
                for n_max in (0, 4):
                    assert riemann_sums(n_max, q, 3, top, char) == one_term_walk(n_max, q, 3, top, char)

    @pytest.mark.parametrize("p, top", [(67, 2), (263, 1)])
    def test_walk_at_a_prime_above_64(self, p, top):
        # level 1 is walked: p^1 <= d for the characters mod p, 2 p^0 <= n_max + 2 for the one mod 1;
        # level 2 at p = 67 is regrouped at n_max 0 and 4, into level 1 and 66 shifted copies of it
        for char in walk_characters(p):
            for q in (F(p + 1), F(1 - p), F(p + 2, 2)):
                for n_max in (0, 4):
                    assert riemann_sums(n_max, q, p, top, char) == one_term_walk(n_max, q, p, top, char)

    @pytest.mark.parametrize("q, p", WALK_POINTS)
    def test_truncation_valuations_are_those_of_partial_minus_exact(self, q, p):
        for char in walk_characters(p):
            for n in (0, 3):
                report = padic_truncation(n, q, p, WALK_TOP_LEVEL[p], char=char)
                assert [lv.valuation for lv in report.levels] == [
                    padic_valuation(lv.partial - report.exact, p) for lv in report.levels
                ]

    @pytest.mark.parametrize("q, p", CLOSED_FORM_POINTS)
    def test_partials_equal_a_literal_sum_below_at_and_past_the_period(self, q, p):
        for char, top in closed_form_characters(p):
            for n in (0, 1, 4):
                partials = [lv.partial for lv in padic_truncation(n, q, p, top, char=char).levels]
                assert partials == literal_partials(n, q, p, top, char)

    @pytest.mark.parametrize("q, p", CLOSED_FORM_POINTS)
    def test_power_sums_are_read_once_past_the_period_and_never_up_to_it(self, monkeypatch, q, p):
        calls = []
        real = twisted.periodic_power_sums

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(twisted, "periodic_power_sums", counted)
        for char, top in closed_form_characters(p):
            period = 0 if char is None else round(math.log(char.modulus, p))  # p^period = d
            for max_level in range(-1, top + 1):
                calls.clear()
                padic_truncation(2, q, p, max_level, char=char)
                assert len(calls) == (max_level > period)

    @pytest.mark.parametrize("q, p", [(F(4), 3), (F(6, 11), 5), (F(-6), 7)])
    def test_partials_do_not_read_the_exact_value(self, monkeypatch, q, p):
        cases = [(char, top, n) for char, top in closed_form_characters(p) for n in (0, 3)]
        before = [padic_truncation(n, q, p, top, char=char) for char, top, n in cases]
        real = fermionic._char_moment_sequence
        monkeypatch.setattr(fermionic, "_char_moment_sequence", lambda n, cfg: [x + 1 for x in real(n, cfg)])
        for (char, top, n), old in zip(cases, before):
            new = padic_truncation(n, q, p, top, char=char)
            assert new.exact == old.exact + 1
            assert [lv.partial for lv in new.levels] == [lv.partial for lv in old.levels]
            valuations = [padic_valuation(lv.partial - new.exact, p) for lv in new.levels]
            assert [lv.valuation for lv in new.levels] == valuations
            assert valuations != [lv.valuation for lv in old.levels]

    def test_index_zero_term_of_modulus_one_is_one(self):
        # 0^0 = 1: at d = 1 and n = 0 the x = 0 term is chi(0) = 1.
        char = principal_character(1)
        for max_level in (0, 4):
            sums = riemann_sums(0, F(4), 3, max_level, char)
            assert sums == one_term_walk(0, F(4), 3, max_level, char)
            assert sums[0][0] == 1
        assert padic_truncation(0, F(4), 3, 0).levels[0].partial == 1
        assert padic_truncation(1, F(4), 3, 0).levels[0].partial == 0

    def test_negative_level_count_gives_no_levels(self):
        assert riemann_sums(2, F(4), 3, -1, quadratic_character(3)) == [[], [], []]
        assert padic_truncation(2, F(4), 3, -1).levels == ()

    def test_regime_guards(self):
        with pytest.raises(NotPadicallyConvergent):
            padic_truncation(1, F(2), 3, 2)  # v_3(q-1) = 0
        with pytest.raises(NotPadicallyConvergent):
            padic_truncation(1, F(4), 3, 2, char=quadratic_character(5))  # 5 not a power of 3
        with pytest.raises(ValueError):
            padic_truncation(1, F(4), 4, 2)  # p must be prime

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_regime_check_refuses_where_the_valuation_form_did(self, p):
        # the Fraction form: |q - 1|_p < 1 and |q|_p = 1 through padic_valuation
        qs = [F(1), F(p + 1, p), F(p + 1), F(2 * p + 1), F(p - 1), F(1, p), F(p), F(0), F(-1), F(-2), F(1, 2),
              F(-1, 2), F(2, 3), F(1 - p), F(1 - 2 * p), F(1 - p, 1 + p), F(-p - 1, p), F(1, 1 + p), F(1, 1 - p)]
        qs += [F(1 + k * p) for k in range(-4, 5)] + [F(1 + k * p, 1 + j * p) for k in (-2, 3) for j in (1, -3)]
        for q in qs:
            admitted = padic_valuation(q - 1, p) >= 1 and padic_valuation(q, p) == 0
            try:
                fermionic._check_padic_regime(q, p, principal_character(1))
            except NotPadicallyConvergent:
                assert not admitted, q
            else:
                assert admitted, q


class TestSeriesLimit:
    def test_quadratic_anchor(self):
        assert series_value(quadratic_character(3), F(4), 0) == F(-4, 13)
        limit = series_limit(quadratic_character(3), F(4), 0)
        assert kernel_limit(quadratic_character(3), F(4), 0) * (1 / limit) == 16
        for level, valuation in enumerate(walk_valuations(quadratic_character(3), F(4), 3, 4, 0)):
            assert valuation >= level

    @pytest.mark.parametrize("n", range(4))
    def test_ratio_constant_in_n(self, n):
        limit = series_limit(quadratic_character(3), F(4), n)
        assert kernel_limit(quadratic_character(3), F(4), n) * (1 / limit) == F(4) ** 2

    def test_modulus_one_limit_includes_index_zero_term(self):
        char = principal_character(1)
        assert series_limit(char, F(4), 0) == 2 * (series_value(char, F(4), 0) + 1)
        for level, valuation in enumerate(walk_valuations(char, F(4), 3, 3, 0)):
            assert valuation >= level

    def test_scaled_limit_is_q_squared_times_true_series(self):
        q = F(6)
        assert kernel_limit(quadratic_character(5), q, 2) == q**2 * 2 * series_value(quadratic_character(5), q, 2)
