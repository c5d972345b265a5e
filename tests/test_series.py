"""Truncated power series arithmetic, inversion, and Taylor extraction."""
import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from eulertwist import (
    CyclotomicNumber,
    TruncatedSeries,
    TwistedConfig,
    checks,
    cli,
    cyclotomic_field,
    enumerate_characters,
    nth_taylor_coefficient,
    twisted_values,
)
from eulertwist.fermionic import _char_moment_sequence, _moment_sequence
from eulertwist.series import divide_step, exp_quotient, integer_combination, power_moments
from eulertwist.errors import NonUnitConstantTerm, OrderTooLow
from conftest import field_element


def test_difference_of_squares():
    a = TruncatedSeries((1, 1, 0))
    b = TruncatedSeries((1, -1, 0))
    assert a * b == TruncatedSeries((1, 0, -1))


def test_multiplication_by_zero():
    a = TruncatedSeries((3, F(1, 2), 7))
    zero = TruncatedSeries((0, 0, 0))
    assert a * zero == zero


def test_telescoping_product():
    ones = TruncatedSeries((1,) * 8)
    assert ones * TruncatedSeries((1, -1) + (0,) * 6) == TruncatedSeries((1,) + (0,) * 7)


def test_geometric_inverse():
    inv = TruncatedSeries((1, -1, 0, 0, 0)).inverse()
    assert inv == TruncatedSeries((1, 1, 1, 1, 1))


def test_constant_inverse():
    inv = TruncatedSeries((F(5, 3), 0, 0, 0)).inverse()
    assert inv == TruncatedSeries((F(3, 5), 0, 0, 0))


def test_inverse_of_two_plus_t():
    a = TruncatedSeries((2, 1, 0))
    inv = a.inverse()
    assert inv == TruncatedSeries((F(1, 2), F(-1, 4), F(1, 8)))
    assert a * inv == TruncatedSeries((1, 0, 0))


def test_inverse_needs_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        TruncatedSeries((0, 1, 0)).inverse()


def exp_of(c, order):
    """The series of exp(c t): coefficient j is c^j / j!."""
    return TruncatedSeries(tuple(F(c) ** j / math.factorial(j) for j in range(order)))


def test_exp_functional_equation():
    rng = random.Random(11)
    for _ in range(20):
        a = F(rng.randint(-6, 6), rng.randint(1, 5))
        product = exp_of(a, 8) * exp_of(-a, 8)
        assert product == TruncatedSeries((1,) + (0,) * 7)


def test_exp_sum_rule():
    rng = random.Random(12)
    for _ in range(20):
        a = F(rng.randint(-6, 6), rng.randint(1, 5))
        b = F(rng.randint(-6, 6), rng.randint(1, 5))
        assert exp_of(a + b, 7) == exp_of(a, 7) * exp_of(b, 7)


def test_taylor_coefficient_of_exponential():
    c = F(3, 2)
    assert nth_taylor_coefficient(exp_of(c, 5), 2) == c * c


def test_taylor_coefficient_of_constant():
    assert nth_taylor_coefficient(TruncatedSeries((1, 0, 0, 0, 0)), 3) == 0


def test_taylor_coefficient_of_geometric():
    inv = TruncatedSeries((1, -1, 0, 0, 0)).inverse()
    assert nth_taylor_coefficient(inv, 4) == 24


def test_taylor_coefficient_order_guard():
    with pytest.raises(OrderTooLow):
        nth_taylor_coefficient(TruncatedSeries((1, 2)), 2)


@pytest.mark.parametrize("field_order", [1, 3, 9])
def test_inverse_round_trip_random(field_order):
    field = cyclotomic_field(field_order)
    rng = random.Random(100 + field_order)
    one = TruncatedSeries((field.from_rational(1),) + (field.zero,) * 5)
    for _ in range(100):
        coeffs = [
            field_element(field, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)])
            for _ in range(6)
        ]
        if coeffs[0].is_zero():
            coeffs[0] = field.from_rational(1)
        series = TruncatedSeries(tuple(coeffs))
        assert series * series.inverse() == one


def test_binomial_convolution_of_taylor_coefficients():
    rng = random.Random(13)
    order = 6
    a = TruncatedSeries(tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)))
    b = TruncatedSeries(tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)))
    product = a * b
    for n in range(order):
        expected = sum(
            math.comb(n, k)
            * nth_taylor_coefficient(a, k)
            * nth_taylor_coefficient(b, n - k)
            for k in range(n + 1)
        )
        assert nth_taylor_coefficient(product, n) == expected


def oracle_power_moments(terms, n_max: int) -> list:
    """[sum w x^j for j = 0..n_max] over (integer node x, weight w) pairs,
    0^0 = 1, one field product and one addition per weight and j: the
    generic kernel that the integer kernel replaced, kept as its oracle."""
    terms = list(terms)
    sums = [terms[0][1] * 0 if terms else 0] * (n_max + 1)
    for x, w in terms:
        if w == 0:
            continue
        sums[0] = sums[0] + w
        for j in range(1, n_max + 1 if x else 1):
            w = w * x
            sums[j] = sums[j] + w
    return sums


def random_triples(rng, field):
    """Seeded (node, rational, exponent) triples in Q(zeta_N): random nodes,
    exponents below, at and past 2D - 1 and past N, node 0 and a repeated
    node, and a zero rational."""
    order, degree = field.order, field.degree
    exponents = [0, degree - 1, 2 * degree - 1, 2 * degree, order, order + 1, 3 * order + 2]

    def triple(x):
        e = rng.choice(exponents) if rng.random() < 0.5 else rng.randrange(-order, 3 * order)
        return x, F(rng.randint(-6, 6), rng.randint(1, 6)), e

    terms = [triple(rng.randint(-3, 7)) for _ in range(rng.randint(1, 6))]
    terms += [triple(0), triple(terms[0][0]), (rng.randint(1, 7), F(0), rng.randrange(order))]
    rng.shuffle(terms)
    return terms


def as_pairs(field, terms):
    """The (node, field weight r zeta^e) pairs of the triples."""
    return [(x, field.zeta_power(e) * r) for x, r, e in terms]


FIELD_ORDERS = [1, 3, 9, 15, 45, 99]


@pytest.mark.parametrize("field_order", [None, 9])
def test_power_moments_match_direct_powers(field_order):
    field = cyclotomic_field(1 if field_order is None else field_order)  # None: over Q
    rng = random.Random(31 if field_order is None else 32)
    for _ in range(40):
        terms = random_triples(rng, field)
        n_max = rng.randint(0, 8)
        expected = [sum((w * x**j for x, w in as_pairs(field, terms)), field.zero) for j in range(n_max + 1)]
        assert power_moments(field, terms, n_max) == expected


@pytest.mark.parametrize("field_order", FIELD_ORDERS)
def test_power_moments_match_the_field_oracle(field_order):
    # canonical forms: equal elements have the same num and den
    field = cyclotomic_field(field_order)
    rng = random.Random(31 + field_order)
    for _ in range(15):
        terms = random_triples(rng, field)
        n_max = rng.randint(0, 8)
        got = power_moments(field, terms, n_max)
        want = oracle_power_moments(as_pairs(field, terms), n_max)
        assert [(m.num, m.den) for m in got] == [(m.num, m.den) for m in want]
        muted = [(x, 0, e) for x, _, e in terms]
        assert power_moments(field, muted, n_max) == [field.zero] * (n_max + 1)
    zero = field.zero
    assert [(m.num, m.den) for m in power_moments(field, [], 3)] == [(zero.num, zero.den)] * 4


def test_one_kernel_call_reduces_once_per_moment(monkeypatch):
    """One reduction mod Phi_N per moment and no field addition or product:
    the weights stay integers until each moment is reduced."""
    field = cyclotomic_field(45)
    calls = []
    real = type(field)._reduce_ints

    def counted(self, vec, den):
        calls.append(len(vec))
        return real(self, vec, den)

    def refused(*args):
        raise AssertionError("a field operation per weight")

    monkeypatch.setattr(type(field), "_reduce_ints", counted)
    monkeypatch.setattr(CyclotomicNumber, "__add__", refused)
    monkeypatch.setattr(CyclotomicNumber, "__mul__", refused)
    terms = random_triples(random.Random(7), field)
    n_max = 6
    power_moments(field, terms, n_max)
    assert calls == [field.order] * (n_max + 1)


def linear_combination(scales, values):
    """sum s v over rational scales s and values v that are all rationals or
    all elements of one cyclotomic field, over one common denominator with
    one content gcd: the inner sum of the triangular divisions before they
    ran on integer vectors, kept as an oracle."""
    pairs = [(F(s), v) for s, v in zip(scales, values) if s]
    if not isinstance(values[0], CyclotomicNumber):
        den = math.lcm(*(s.denominator * v.denominator for s, v in pairs))
        return F(sum(s.numerator * v.numerator * (den // (s.denominator * v.denominator)) for s, v in pairs), den)
    den = math.lcm(*(s.denominator * v.den for s, v in pairs))
    vec = [0] * values[0].field.degree
    for s, v in pairs:
        k = s.numerator * (den // (s.denominator * v.den))
        for i, c in enumerate(v.num):
            vec[i] += k * c
    return CyclotomicNumber(values[0].field, vec, den)


def oracle_exp_quotient(field, terms, rate, unit, node, pivot_inv, order) -> list:
    """The triangular division F_n = (N_n - unit sum_j (node rate)^j / j!
    F_(n-j)) pivot_inv with Fraction scales and one canonical field element
    per intermediate: each numerator coefficient one product of a power
    moment by rate^n / n!, each inner sum one :func:`linear_combination`,
    then a field product by unit, a field subtraction and a field product by
    pivot_inv.  The form that ``series.exp_quotient`` replaced, kept as its
    oracle; it divides by the unit-form denominator unit exp(node rate t) + c,
    pivot_inv = 1/(unit + c), where the program runs the monic one."""
    rate = F(rate)
    numerator = [m * (rate**j / math.factorial(j)) for j, m in enumerate(power_moments(field, terms, order - 1))]
    step = node * rate
    scales = [step**j / math.factorial(j) for j in range(order)]
    out = [numerator[0] * pivot_inv]
    for n in range(1, order):
        acc = linear_combination(scales[1 : n + 1], out[::-1])
        out.append((numerator[n] - unit * acc) * pivot_inv)
    return out


@pytest.mark.parametrize("field_order", [None, *FIELD_ORDERS])
def test_linear_combination_matches_the_sum_of_products(field_order):
    """The oracle and ``integer_combination`` (over Q as Q(zeta_1)), each
    against the plain sum of products."""
    field = cyclotomic_field(1 if field_order is None else field_order)
    rng = random.Random(41 if field_order is None else 41 + field_order)

    def value():
        if field_order is None:
            return F(rng.randint(-9, 9), rng.randint(1, 9))
        return field_element(field, [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(field.degree)])

    for _ in range(30):
        size = rng.randint(1, 6)
        scales = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(size)]
        values = [value() for _ in range(size)]
        if rng.random() < 0.3:
            scales[0] = 0
        if rng.random() < 0.3:
            values[-1] = values[-1] * 0
        got = linear_combination(scales, values)
        want = sum((s * v for s, v in zip(scales, values)), values[0] * 0)
        assert type(got) is type(want)
        if field_order is None:
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            values, want = [field.from_rational(v) for v in values], field.from_rational(want)
        else:
            assert (got.num, got.den) == (want.num, want.den)
        pairs = [(s.numerator, s.denominator) for s in scales]
        assert CyclotomicNumber(field, *integer_combination(pairs, values)) == want


def test_divide_step_matches_field_arithmetic():
    """One step against (sum s_j v_j) pivot_inv in field arithmetic, the
    first term a right side and the rest lower terms under scales of either
    sign, zero values and a lone right side included."""
    rng = random.Random(17)
    for field_order in FIELD_ORDERS:
        field = cyclotomic_field(field_order)

        def element():
            return field_element(field, [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(field.degree)])

        for _ in range(6):
            size = rng.randint(1, 6)
            scales = [(rng.randint(-20, 20) or 1, rng.randint(1, 12)) for _ in range(size)]
            values = [element() if rng.random() < 0.9 else field.zero for _ in range(size)]
            pivot_inv = element() or field.from_rational(1)
            want = sum((v * F(a, b) for (a, b), v in zip(scales, values)), field.zero) * pivot_inv
            got = divide_step(scales, values, pivot_inv)
            assert (got.num, got.den) == (want.num, want.den)


# (field order, twist exponents k); every k with k mod N >= D makes zeta^k a dense row of x^k mod Phi_N
QUOTIENT_FIELDS = [(1, [0]), (3, [1, 2]), (9, [1, 4, 7, 8]), (15, [2, 8, 14]), (21, [5, 13, 20]), (99, [7, 61, 98])]
QUOTIENT_QS = [F(2), F(5, 2), F(-3, 7), F(2, 3), F(2**40 + 1)]


@pytest.mark.parametrize("field_order, exponents", QUOTIENT_FIELDS)
def test_exp_quotient_matches_the_fraction_oracle(field_order, exponents):
    """The integer pipeline against the Fraction-scale oracle, num and den
    identical at every coefficient: the generating function's quotient, its
    weights (1+q)(-1)^l q^(d-l+1) as integers (-1)^l u^(d-l+1) v^l with
    (u+v)/v^(d+2) folded back in, at d <= 15 and n <= 12 over every q of
    QUOTIENT_QS, and eq22's fold at rate 1."""
    field = cyclotomic_field(field_order)
    rng = random.Random(f"exp-quotient:{field_order}")
    for q in QUOTIENT_QS:
        u, v = q.numerator, q.denominator
        for k in exponents:
            # the degree-60 field costs most, above all at the tall q: smaller d and n there
            d = rng.randint(1, 15) if field.degree < 60 else 1 if u > 2**40 else rng.randint(1, 5)
            n = rng.randint(0, 12) if field.degree < 60 else rng.randint(0, 2 if u > 2**40 else 4)
            exps = [rng.randrange(3 * field.order) for _ in range(d)]
            kept = [l for l in range(d) if rng.random() < 0.8]
            rational = [(l, (1 + q) * (-1) ** l * q ** (d - l + 1), exps[l]) for l in kept]
            integer = [(l, (-1) ** l * u ** (d - l + 1) * v**l, exps[l]) for l in kept]
            want = oracle_exp_quotient(field, rational, -(1 + q), field.zeta_power(k), d,
                                       field.binomial_inverse(q**d, 1, k), n + 1)
            monic = [(l, w, e - k) for l, w, e in integer]
            got = exp_quotient(field, monic, -(1 + q), d, field.binomial_inverse(1, q**d, -k), n + 1,
                               F(u + v, v ** (d + 2))).coeffs
            assert [(c.num, c.den) for c in got] == [(c.num, c.den) for c in want], (q, k, d, n)
        d_fold = rng.choice([1, 3, 5, 7, 9, 11, 13, 15])
        for k in exponents:
            want = oracle_exp_quotient(field, [(l, 2 * (-1) ** l, k * l) for l in range(d_fold)], 1,
                                       field.zeta_power(k * d_fold), d_fold,
                                       field.binomial_inverse(1, 1, k * d_fold), 12)
            got = exp_quotient(field, [(l, 2 * (-1) ** l, k * (l - d_fold)) for l in range(d_fold)], 1, d_fold,
                               field.binomial_inverse(1, 1, -k * d_fold), 12).coeffs
            assert [(c.num, c.den) for c in got] == [(c.num, c.den) for c in want], ("eq22", k, d_fold)


def test_quotient_matches_inverse_then_multiply():
    """The monic quotient, its terms and constant divided by the unit
    ratio zeta^k, against the unit-form numerator series times the series
    inverse of the unit-form denominator."""
    rng = random.Random(16)
    for _ in range(30):
        field = cyclotomic_field(rng.choice([1, 9]))
        rate = F(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        node = rng.randint(1, 7)
        if field.order == 1:
            ratio, k = F(rng.randint(1, 5), rng.randint(1, 5)), 0
            constant = F(rng.randint(-5, 5), rng.randint(1, 5))
        else:
            ratio, k, constant = F(1), rng.randrange(9), F(rng.randint(2, 9), 3)
        unit = field.zeta_power(k) * ratio
        if unit + constant == 0:
            continue
        terms = [(rng.randint(0, 8), F(rng.randint(-9, 9), rng.randint(1, 9)), rng.randrange(2 * field.order))
                 for _ in range(rng.randint(1, 4))]
        order = rng.randint(1, 9)
        denominator = TruncatedSeries(tuple(
            unit * ((node * rate) ** j / math.factorial(j)) + (constant if j == 0 else 0) for j in range(order)))
        numerator = TruncatedSeries(tuple(
            sum((w * ((x * rate) ** j / math.factorial(j)) for x, w in as_pairs(field, terms)), field.zero)
            for j in range(order)))
        expected = numerator * denominator.inverse()
        monic = [(x, r / ratio, e - k) for x, r, e in terms]
        pivot_inv = (1 + field.zeta_power(-k) * (constant / ratio)).inverse()
        assert exp_quotient(field, monic, rate, node, pivot_inv, order) == expected


def unit_form_solve(rhs, unit, step, pivot_inv) -> list:
    """x_m = (rhs_m - unit sum_(j<m) C(m,j) step^(m-j) x_j) pivot_inv over
    rationals or field elements, pivot_inv = 1/(unit + c): the binomial
    triangular solve before it was made monic, kept as its oracle."""
    out = []
    for m, value in enumerate(rhs):
        lower = sum((math.comb(m, j) * step ** (m - j) * x for j, x in enumerate(out)), value * 0)
        out.append((value - unit * lower) * pivot_inv)
    return out


# (character modulus, twist order, twist exponent) for an order-3 character, each with -k mod N >= D for the
# exponents k of zeta and of zeta^d in Q(zeta_N), N the twist order: there zeta_N^(-k) is a multi-term row of
# x^j mod Phi_N, so an exponent shift of +k in place of -k changes the values
FOLD_POINTS = [(9, 15, 2), (13, 21, 5), (7, 99, 2)]
FOLD_QS = [F(-3, 7), F(2, 3), F(1), F(2**40 + 1)]


@pytest.mark.parametrize("d, zeta_order, zeta_exponent", FOLD_POINTS)
def test_monic_divisions_match_the_unit_form_where_the_inverse_twist_is_a_multi_term_row(d, zeta_order,
                                                                                       zeta_exponent):
    """Every division made monic by its unit zeta_N^k against its unit-form
    oracle, num and den identical: A_n (the generating function), the d-step
    moments, eq22's quotient, and the one-step moments at ratio -3/7 and at
    q^-d, in the field and on the fieldless path."""
    char = next(c for c in enumerate_characters(d) if c.value_order == 3)
    for q in FOLD_QS:
        if zeta_order == 99 and q > 2**40:
            continue  # the pivot's norm (q^d)^99 + 1 has some 28000 bits, and each degree-60 product costs seconds
        cfg = TwistedConfig.build(char, zeta_order, zeta_exponent, q)
        field, k, k_one = cfg.field, cfg.twist_exponent(d), cfg.twist_exponent(1)
        assert field.order == zeta_order and min(-k % field.order, -k_one % field.order) >= field.degree
        n = 4 if zeta_order == 99 else 6
        weights = [(l, (1 + q) * (-1) ** l * q ** (d - l + 1), e) for l, e in cfg.twisted_exponents(range(d))]
        quotient = oracle_exp_quotient(field, weights, -(1 + q), field.zeta_power(k), d,
                                       field.binomial_inverse(q**d, 1, k), n + 1)
        assert [a.value for a in twisted_values(cfg, n)] == [math.factorial(j) * c for j, c in enumerate(quotient)]
        kernel = [(l, (1 + q) * (-1) ** l * q ** (d - 1 - l), e) for l, e in cfg.twisted_exponents(range(d))]
        assert _char_moment_sequence(n, cfg) == unit_form_solve(
            power_moments(field, kernel, n), field.zeta_power(k), d, field.binomial_inverse(q**d, 1, k))
        assert checks._twist_quotient(field, k_one, n + 1) == tuple(oracle_exp_quotient(
            field, [(0, 2, 0)], 1, field.zeta_power(k_one), 1, field.binomial_inverse(1, 1, k_one), n + 1))
        for ratio, twist in ((F(-3, 7), k_one), (q**-d, k)):
            rhs = [field.from_rational(1 + ratio)] + [field.zero] * n
            assert _moment_sequence(n, ratio, field, twist) == unit_form_solve(
                rhs, ratio * field.zeta_power(twist), 1, field.binomial_inverse(1, ratio, twist))
        for ratio in (F(-3, 7), 1 / q):
            assert _moment_sequence(n, ratio, cyclotomic_field(1), 0) == unit_form_solve(
                [1 + ratio] + [F(0)] * n, ratio, 1, 1 / (1 + ratio))


# stdout of `twisted` at points where -k mod N >= D for zeta^d = zeta_N^k (N = 18 and 198), pinned from the
# unit-form division
FOLD_PINS = [
    ("--q -3/7 --d 7 --char index:1 --zeta-order 9 --zeta-k 4 --n 0..4",
     "2741e22c32ba4f0cdcde3cc809ee2f325963417347d3270729d6399fa8364675"),
    ("--q 5/2 --d 29 --char quadratic --zeta-order 99 --zeta-k 97 --n 0..2",
     "569787bfe2aaabfdad9c0f44ef15ecaeac9e344f1b6a094343ac38bc0a58d4c3"),
]


@pytest.mark.parametrize("argv, digest", FOLD_PINS, ids=["index1-zeta9", "quadratic29-zeta99"])
def test_twisted_stdout_is_pinned_where_the_fold_bites(capsys, argv, digest):
    assert cli.main(["twisted", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
