"""Twisted Eulerian values: both evaluation paths, the q^2 residuals against
the integral world, twisted Euler polynomials, and the q = 1 reduction."""
import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

from eulertwist import (
    TruncatedSeries,
    TwistedConfig,
    checks,
    cyclotomic_field,
    enumerate_characters,
    eulerian_at,
    galois_conjugate,
    lift_to_field,
    nth_taylor_coefficient,
    principal_character,
    quadratic_character,
    twisted_gf,
    twisted_value,
    twisted_values,
)
from eulertwist.checks import grid_characters
from eulertwist.errors import DivisionByZero
from eulertwist.fermionic import _moment_sequence
from eulertwist.series import binomial_solve
from eulertwist.twisted import (
    alternating_char_sums,
    twisted_series_value,
    twisted_series_values,
)


def quadratic3_config(q=F(2)):
    return TwistedConfig.build(quadratic_character(3), 1, 0, q)


def muted_config(cfg):
    """cfg with a character whose every value is 0."""
    return dataclasses.replace(cfg, char=dataclasses.replace(cfg.char, exponents=(None,) * cfg.char.modulus))


def exp_series(field, terms, rate, order):
    """The series of sum r zeta_N^e exp(x rate t) over the (integer node x,
    rational r, exponent e) triples of `terms`, each coefficient summed term
    by term in field arithmetic."""
    return TruncatedSeries(tuple(
        sum((field.zeta_power(e) * (r * F(x * rate) ** j / math.factorial(j)) for x, r, e in terms), field.zero)
        for j in range(order)))


def inverse_then_multiply_gf(cfg, order):
    """The generating function as the numerator's series times the general
    series inverse of the denominator's: the route before the triangular
    division, kept as its oracle.  Each exponent of chi(l) zeta^l is looked
    up from the product of the two lookups, not from `twisted_exponents`."""
    q, d, field = cfg.q, cfg.char.modulus, cfg.field
    exponent = {field.zeta_power(j): j for j in range(field.order)}
    denominator = exp_series(field, [(d, 1, exponent[cfg.zeta_pow(d)]), (0, q**d, 0)], -(1 + q), order)
    weights = [(l, (1 + q) * (-1) ** l * q ** (d - l + 1), exponent[cfg.char_value(l) * cfg.zeta_pow(l)])
               for l in range(d) if not cfg.char_value(l).is_zero()]
    return exp_series(field, weights, -(1 + q), order) * denominator.inverse()


def character_value(char, a):
    """chi(a) in Q(zeta_M), M the value order, zero where gcd(a, d) > 1."""
    field = cyclotomic_field(char.value_order)
    e = char.exponent(a)
    return field.zero if e is None else field.zeta_power(e)


def aligned(char, zeta):
    """(chi_values, zeta) lifted into Q(zeta_lcm(twist order, value order)),
    chi_values[a] = chi(a): the route before the config's lookups by
    exponent, kept as their oracle."""
    field = cyclotomic_field(math.lcm(zeta.field.order, char.value_order))
    return [lift_to_field(character_value(char, a), field) for a in range(char.modulus)], lift_to_field(zeta, field)


def conjugate(cfg):
    """The point of the conjugate character and twist, every exponent
    negated."""
    char = cfg.char
    exponents = tuple(None if e is None else -e % char.value_order for e in char.exponents)
    conjugate_char = dataclasses.replace(char, exponents=exponents)
    return TwistedConfig.build(conjugate_char, cfg.zeta_order, -cfg.zeta_exponent, cfg.q)


def powers(x, k):
    """[x^0, x^1, ..., x^k], one product each."""
    out = [x.field.from_rational(1)]
    for _ in range(k):
        out.append(out[-1] * x)
    return out


def lookup_points():
    """Seeded points over a pool of characters (principal and quadratic for
    d in 1, 3, 5, 15, 97, and the order-4 character mod 5): each character
    at each twist order 1, 3, 9, 99, and each exponent coprime to a twist
    order at least once."""
    rng = random.Random(18)
    pool = [principal_character(d) for d in (1, 3, 5, 15, 97)]
    pool += [quadratic_character(d) for d in (3, 5, 15, 97)]
    pool.append(next(c for c in enumerate_characters(5) if c.value_order == 4))
    small = [c for c in pool if c.modulus <= 15]
    points = []
    for zeta_order in (1, 3, 9, 99):
        units = [k for k in range(zeta_order) if math.gcd(k, zeta_order) == 1]
        rng.shuffle(units)
        chars = pool + [rng.choice(small) for _ in units[len(pool):]]
        for i, char in enumerate(chars):
            points.append((char, zeta_order, units[i % len(units)], rng.choice([F(1), F(-3, 7), F(2), F(5, 2)])))
    return points


def oracle_points():
    """Seeded points: q = 1 and q < 0, d = 1, twist order 1, the order-4
    character mod 5, and d = 97."""
    rng = random.Random(16)
    order4 = next(c for c in enumerate_characters(5) if c.value_order == 4)
    chars = [principal_character(1), quadratic_character(3), order4, enumerate_characters(15)[3],
             quadratic_character(97), principal_character(97)]
    points = []
    for char in chars:
        for zeta_order in (1, 3, 7, 9):
            q = rng.choice([F(1), F(-3, 7), F(-2), F(2), F(5, 2), F(1, 3)])
            points.append((char, zeta_order, rng.randrange(1, zeta_order + 1) % zeta_order, q))
    return points


@pytest.mark.parametrize("point", lookup_points(),
                         ids=lambda p: f"d{p[0].modulus}-o{p[0].value_order}-z{p[1]}^{p[2]}")
def test_lookups_equal_lift_and_multiply(point):
    # canonical forms: equal elements have the same num and den
    cfg = TwistedConfig.build(*point)
    char, zeta_order, k, _ = point
    chi, zeta = aligned(char, cyclotomic_field(zeta_order).zeta_power(k))
    zeta_pows = powers(zeta, zeta_order)
    stop = math.lcm(2, char.modulus, zeta_order)
    exponents = dict(cfg.twisted_exponents(range(stop)))
    for m in range(stop):
        lifted, twist = chi[m % char.modulus], zeta_pows[m % zeta_order]
        product = lifted * twist
        assert cfg.char_value(m) == lifted and cfg.zeta_pow(m) == twist
        twisted = cfg.field.zeta_power(exponents[m]) if m in exponents else None
        assert twisted == (None if product.is_zero() else product)


class TestGeneratingFunction:
    def test_constant_term_anchor(self):
        gf = twisted_gf(quadratic3_config(), 1)
        assert gf.coeffs[0] == -4

    def test_modulus_one_constant_is_q_squared(self):
        for q in (F(2), F(3), F(5, 2)):
            cfg = TwistedConfig.build(principal_character(1), 1, 0, q)
            assert twisted_gf(cfg, 1).coeffs[0] == q * q

    def test_all_zero_character_gives_zero_series(self):
        cfg = quadratic3_config()
        muted = muted_config(cfg)
        gf = twisted_gf(muted, 6)
        assert all(c.is_zero() for c in gf.coeffs)

    @pytest.mark.parametrize("point", oracle_points(),
                             ids=lambda p: f"d{p[0].modulus}-o{p[0].value_order}-z{p[1]}-q{p[3]}")
    def test_division_matches_inverse_then_multiply(self, point):
        cfg = TwistedConfig.build(*point)
        order = 7 if cfg.char.modulus == 97 else 9
        assert twisted_gf(cfg, order) == inverse_then_multiply_gf(cfg, order)

    def test_no_general_inverse_for_an_odd_order_twist(self, monkeypatch):
        from eulertwist.cyclotomic import CyclotomicNumber

        order4 = next(c for c in enumerate_characters(5) if c.value_order == 4)
        cfg = TwistedConfig.build(order4, 9, 2, F(5, 2))
        monkeypatch.setattr(CyclotomicNumber, "inverse", lambda self: pytest.fail("a general inverse ran"))
        twisted_gf(cfg, 6)
        checks._thm1_sides(cfg, 4)
        checks._thm5_sides(cfg, 4)
        eq22_report(3, 9, 2)

    def test_singular_configuration_rejected(self):
        # zeta^d = -q^d needs an even-order twist, which build() refuses
        with pytest.raises(ValueError):
            TwistedConfig.build(principal_character(1), 2, 1, F(1))


class TestValueAnchors:
    def test_first_three_values(self):
        values = twisted_values(quadratic3_config(), 2)
        assert [v.value for v in values] == [-4, 12, -12]

    def test_both_paths_recorded_and_equal(self):
        cfg = quadratic3_config()
        assert twisted_value(cfg, 2).value == twisted_series_value(cfg, 2)

    def test_at_q_one_only_the_series_expansion_exists(self):
        # the generating function is defined at q = 1, where it is even in t
        # for this character (so A_1 = 0); the alternating series diverges
        # there, and its closed form over the odd period lcm(d, twist order)
        # has no pole at ratio -1, so it gives the Abel sum, which equals the
        # generating-function values
        cfg = TwistedConfig.build(quadratic_character(3), 1, 0, F(1))
        assert twisted_value(cfg, 1).value == 0
        for d in (1, 3, 5, 7, 15):
            for _, char in grid_characters(d):
                for zeta_order in (1, 3, 9):
                    cfg = TwistedConfig.build(char, zeta_order, 1 % zeta_order, F(1))
                    values = [tv.value for tv in twisted_values(cfg, 8)]
                    assert twisted_series_values(cfg, 8) == values, cfg


class TestSeriesPath:
    def test_closed_sum_matches_plain_geometric_formula(self):
        # for n = 0 the regrouped sum collapses to a single geometric ratio
        cfg = quadratic3_config()
        z = F(1, 2)
        cycle = [
            (-1) ** m * quadratic_character(3).rational_value(m) for m in range(1, 7)
        ]
        direct = sum(c * z ** (i + 1) for i, c in enumerate(cycle)) / (1 - z**6)
        assert alternating_char_sums(cfg, 0)[0] == direct

    def test_zero_character_sums_to_zero(self):
        cfg = quadratic3_config()
        muted = muted_config(cfg)
        assert twisted_series_value(muted, 3).is_zero()

    def test_modulus_one_includes_index_zero_correction(self):
        for q in (F(2), F(3)):
            cfg = TwistedConfig.build(principal_character(1), 1, 0, q)
            assert twisted_series_value(cfg, 0) == q * q

    @pytest.mark.parametrize("q", [F(2), F(3), F(5, 2)])
    @pytest.mark.parametrize("zeta_order", [1, 3, 9])
    def test_path_agreement_on_cyclotomic_points(self, q, zeta_order):
        k = 1 if zeta_order > 1 else 0
        cfg = TwistedConfig.build(quadratic_character(5), zeta_order, k, q)
        gf = twisted_gf(cfg, 5)
        for n, series in enumerate(twisted_series_values(cfg, 4)):
            assert nth_taylor_coefficient(gf, n) == series


@pytest.mark.parametrize("q", [F(2), F(3), F(5, 2)])
def test_untwisted_values_reduce_to_classical(q):
    # modulus 1, twist 1: the value is q^2 times the classical polynomial at -q
    cfg = TwistedConfig.build(principal_character(1), 1, 0, q)
    for n, value in enumerate(twisted_values(cfg, 6)):
        assert value.value == q**2 * eulerian_at(n, -q)


class TestTwistedEuler:
    def test_zeroth_value(self):
        field = cyclotomic_field(3)
        assert _moment_sequence(0, 1, field, 1)[0] == 2 * (1 + field.zeta_power(1)).inverse()

    def test_classical_zeroth(self):
        assert _moment_sequence(0, 1, cyclotomic_field(1), 0)[0] == 1

    def test_classical_first(self):
        assert _moment_sequence(1, 1, cyclotomic_field(1), 0)[1] == F(-1, 2)

    def test_singular_twist(self):
        with pytest.raises(DivisionByZero, match="no geometric-series inverse"):
            _moment_sequence(1, -1, cyclotomic_field(1), 0)


def eq22_report(d_fold, zeta_order, k=1):
    """eq22 at one fold count and one twist zeta_(zeta_order)^k."""
    grid = checks.Grid(moduli=(d_fold,), zeta_orders=(zeta_order,), zeta_exponent=k)
    return checks.run_relation("eq22", grid)


class TestEulerGfConsistency:
    # Two pairs of sides, through t^11: folded against telescoped series, and
    # Taylor coefficients against integral moments; a point passes when both
    # pairs agree.
    def test_single_fold_is_structural(self):
        assert eq22_report(1, 3).passed

    def test_threefold_telescoping(self):
        assert eq22_report(3, 3).passed

    def test_fivefold_untwisted(self):
        assert eq22_report(5, 1).passed

    @pytest.mark.parametrize("d_fold, zeta", [(1, 1), (5, 1), (3, "zeta3"), (5, "zeta9^2"), (9, "zeta15")])
    def test_quotients_match_inverse_then_multiply(self, monkeypatch, d_fold, zeta):
        field, k = cyclotomic_field(1), 0
        if zeta != 1:
            order, _, k = zeta[4:].partition("^")
            field, k = cyclotomic_field(int(order)), int(k or 1)
        quotients = []

        def recorded(*args):
            quotients.append(binomial_solve(*args))
            return quotients[-1]

        monkeypatch.setattr(checks, "binomial_solve", recorded)
        assert eq22_report(d_fold, field.order, k).passed
        numerator = exp_series(field, [(l, 2 * (-1) ** l, k * l) for l in range(d_fold)], 1, 12)
        folded = numerator * exp_series(field, [(d_fold, 1, k * d_fold), (0, 1, 0)], 1, 12).inverse()
        direct = exp_series(field, [(0, 2, 0)], 1, 12) * exp_series(field, [(1, 1, k), (0, 1, 0)], 1, 12).inverse()
        solved = (folded, direct) if d_fold > 1 else (direct,)  # at d = 1 the held 1-fold is the series side
        assert quotients == [[nth_taylor_coefficient(series, n) for n in range(12)] for series in solved]

    def test_even_fold_rejected(self):
        with pytest.raises(ValueError):
            checks.run_relation("eq22", checks.Grid(moduli=(2,)))


class TestResiduals:
    # Each entry of Theorem 1's and Theorem 5's sides is the pair (lhs, rhs)
    # of lhs = rhs, the factor q^2 inside the right side.
    def test_witt_anchor(self):
        lhs, rhs = checks._thm1_sides(quadratic3_config(), 0)[0]
        assert not rhs.is_zero() and lhs == rhs

    def test_witt_modulus_one(self):
        cfg = TwistedConfig.build(principal_character(1), 1, 0, F(2))
        lhs, rhs = checks._thm1_sides(cfg, 0)[0]
        assert not rhs.is_zero() and lhs == rhs

    def test_residual_is_one_at_q_one(self):
        cfg = TwistedConfig.build(quadratic_character(3), 1, 0, F(1))
        for lhs, rhs in (checks._thm1_sides(cfg, 2)[2], checks._thm5_sides(cfg, 2)[2]):
            assert not rhs.is_zero() and lhs == 1 * rhs

    @pytest.mark.parametrize("q", [F(2), F(5, 2)])
    def test_residuals_agree_and_equal_q_squared(self, q):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, q)
        pairs = zip(checks._thm1_sides(cfg, 3), checks._thm5_sides(cfg, 3))
        for (lhs1, rhs1), (lhs5, rhs5) in pairs:
            assert lhs1 == lhs5  # both are A_n
            assert not rhs1.is_zero() and lhs1 == rhs1
            assert not rhs5.is_zero() and lhs5 == rhs5

    def test_residuals_never_invert_per_n(self, monkeypatch):
        from eulertwist.cyclotomic import CyclotomicNumber

        order4 = next(c for c in enumerate_characters(5) if c.value_order == 4)
        cfg = TwistedConfig.build(order4, 9, 1, F(5, 2))
        real_inverse = CyclotomicNumber.inverse
        calls = []

        def counted_inverse(self):
            calls.append(self)
            return real_inverse(self)

        monkeypatch.setattr(CyclotomicNumber, "inverse", counted_inverse)
        for residuals in (checks._thm1_sides, checks._thm5_sides):
            counts = []
            for n_max in (2, 8):
                calls.clear()
                residuals(cfg, n_max)
                counts.append(len(calls))
            assert counts[1] <= counts[0], (residuals.__name__, counts)


class TestQOneReduction:
    # Corollary 3 is Theorem 5 at q = 1: A_n against
    # (-2d)^n sum_a (-1)^a chi(a) zeta^a E_n(a/d), E_n with twist zeta^d.
    def test_anchor_both_sides_minus_two(self):
        cfg = TwistedConfig.build(quadratic_character(3), 1, 0, F(1))
        lhs, rhs = checks._thm5_sides(cfg, 0)[0]
        assert lhs == -2
        assert rhs == -2
        assert lhs == rhs

    def test_principal_mod_three(self):
        cfg = TwistedConfig.build(principal_character(3), 1, 0, F(1))
        lhs, rhs = checks._thm5_sides(cfg, 0)[0]
        assert lhs == rhs

    def test_cyclotomic_grid(self):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(1))
        for lhs, rhs in checks._thm5_sides(cfg, 4):
            assert lhs == rhs


def test_galois_equivariance():
    # zeta_L -> zeta_L^(-1) maps A_n to the value of the conjugated character and twist
    for char in (quadratic_character(3), enumerate_characters(5)[1]):
        cfg = TwistedConfig.build(char, 9, 1, F(5, 2))
        conjugated = twisted_values(conjugate(cfg), 3)
        for n, tv in enumerate(twisted_values(cfg, 3)):
            assert galois_conjugate(tv.value, cfg.field.order - 1) == conjugated[n].value


class TestOneComputationPerPoint:
    GRID = dataclasses.replace(checks.default_grid(), moduli=(5,), zeta_orders=(3,), q_values=(F(5, 2),))

    # These relations read A_n from the generating function alone: one
    # twisted_values per configuration, and the series path, whose closed
    # form builds the tails power_sum_rational, is never built.
    @pytest.mark.parametrize("relation", ["thm1-residual", "thm5-residual", "thm6"])
    def test_builds_each_point_once(self, monkeypatch, relation):
        from collections import Counter

        from eulertwist import eulerian, twisted

        gf_builds = Counter()
        tail_calls = []
        real_gf, real_tail = twisted.twisted_values, eulerian.power_sum_rational

        def counted_gf(cfg, n_max):
            gf_builds[cfg] += 1
            return real_gf(cfg, n_max)

        def counted_tail(j, w):
            tail_calls.append(j)
            return real_tail(j, w)

        monkeypatch.setattr(twisted, "twisted_values", counted_gf)
        monkeypatch.setattr(eulerian, "power_sum_rational", counted_tail)
        report = checks.run_relation(relation, self.GRID)
        assert report.passed
        configs = len(checks.grid_characters(5))
        assert len(gf_builds) == configs and set(gf_builds.values()) == {1}
        assert tail_calls == []

    SHARING = ("thm2", "thm6", "distribution", "thm1-residual", "thm5-residual")

    def test_relations_share_each_quantity(self, monkeypatch):
        """In one process, the relations that read A_n, the d-step moments or
        the residue-class sums compute each once per configuration."""
        from collections import Counter

        from eulertwist import fermionic, twisted

        calls = Counter()

        def counted(module, name, cfg_at):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name, args[cfg_at]] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(twisted, "twisted_values", 0)
        counted(fermionic, "_char_moment_sequence", 1)
        counted(fermionic, "residue_class_sums", 1)
        for relation in self.SHARING:
            assert checks.run_relation(relation, self.GRID).passed, relation
        configs = len(checks.grid_characters(5))
        for name in ("twisted_values", "_char_moment_sequence", "residue_class_sums"):
            assert sorted(n for (quantity, _), n in calls.items() if quantity == name) == [1] * configs, name

    def test_a_held_quantity_is_a_tuple_and_a_patched_one_misses(self, monkeypatch):
        from eulertwist import twisted

        assert checks.run_relation("thm2", self.GRID).passed
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(5, 2))
        held = checks._memo(twisted.twisted_values, cfg, self.GRID.n_max)
        assert type(held) is tuple and held is checks._memo(twisted.twisted_values, cfg, self.GRID.n_max)
        real, calls = twisted.twisted_values, []
        monkeypatch.setattr(twisted, "twisted_values", lambda *args: calls.append(args) or real(*args))
        assert checks.run_relation("thm6", self.GRID).passed
        assert len(calls) == len(checks.grid_characters(5))

    def test_sequences_match_per_n_reads(self):
        cfg = TwistedConfig.build(quadratic_character(5), 3, 1, F(5, 2))
        rho1 = checks._thm1_sides(cfg, 4)
        rho5 = checks._thm5_sides(cfg, 4)
        series = twisted_series_values(cfg, 4)
        for n in range(5):
            (lhs1, rhs1), (lhs5, rhs5) = rho1[n], rho5[n]
            assert lhs1 == lhs5
            assert lhs1 == rhs1 and lhs5 == rhs5
            assert series[n] == twisted_series_value(cfg, n) == twisted_value(cfg, n).value
