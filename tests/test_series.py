"""Truncated power series arithmetic, inversion, and Taylor extraction."""
import math
import random
from fractions import Fraction as F

import pytest

from eulertwist import CyclotomicNumber, TruncatedSeries, cyclotomic_field, exp_sum, nth_taylor_coefficient
from eulertwist.series import exp_quotient, linear_combination, power_moments
from eulertwist.errors import NonUnitConstantTerm, OrderTooLow


def test_difference_of_squares():
    a = TruncatedSeries.of([1, 1], order=3)
    b = TruncatedSeries.of([1, -1], order=3)
    assert a * b == TruncatedSeries.of([1, 0, -1])


def test_multiplication_by_zero():
    a = TruncatedSeries.of([3, F(1, 2), 7], order=3)
    zero = TruncatedSeries.of([0], order=3)
    assert a * zero == zero


def test_telescoping_product():
    ones = TruncatedSeries.of([1] * 8)
    assert ones * TruncatedSeries.of([1, -1], order=8) == TruncatedSeries.of([1] + [0] * 7)


def test_geometric_inverse():
    inv = TruncatedSeries.of([1, -1], order=5).inverse()
    assert inv == TruncatedSeries.of([1, 1, 1, 1, 1])


def test_constant_inverse():
    inv = TruncatedSeries.of([F(5, 3)], order=4).inverse()
    assert inv == TruncatedSeries.of([F(3, 5)], order=4)


def test_inverse_of_two_plus_t():
    a = TruncatedSeries.of([2, 1], order=3)
    inv = a.inverse()
    assert inv == TruncatedSeries.of([F(1, 2), F(-1, 4), F(1, 8)])
    assert a * inv == TruncatedSeries.of([1, 0, 0])


def test_inverse_needs_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        TruncatedSeries.of([0, 1], order=3).inverse()


def exp_of(c, order):
    """The series of exp(c t), as the one-term exponential sum over Q."""
    return exp_sum(cyclotomic_field(1), [(1, 1, 0)], c, order)


def test_exp_of_zero():
    assert exp_of(F(0), 4) == TruncatedSeries.of([1, 0, 0, 0])


def test_exp_of_one():
    assert exp_of(F(1), 4) == TruncatedSeries.of([1, 1, F(1, 2), F(1, 6)])


def test_exp_functional_equation():
    rng = random.Random(11)
    for _ in range(20):
        a = F(rng.randint(-6, 6), rng.randint(1, 5))
        product = exp_of(a, 8) * exp_of(-a, 8)
        assert product == TruncatedSeries.of([1] + [0] * 7)


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
    assert nth_taylor_coefficient(TruncatedSeries.of([1], order=5), 3) == 0


def test_taylor_coefficient_of_geometric():
    inv = TruncatedSeries.of([1, -1], order=5).inverse()
    assert nth_taylor_coefficient(inv, 4) == 24


def test_taylor_coefficient_order_guard():
    with pytest.raises(OrderTooLow):
        nth_taylor_coefficient(TruncatedSeries.of([1, 2], order=2), 2)


@pytest.mark.parametrize("field_order", [1, 3, 9])
def test_inverse_round_trip_random(field_order):
    field = cyclotomic_field(field_order)
    rng = random.Random(100 + field_order)
    one = TruncatedSeries.of([field.one], order=6)
    for _ in range(100):
        coeffs = [
            field.reduce([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)])
            for _ in range(6)
        ]
        if coeffs[0].is_zero():
            coeffs[0] = field.one
        series = TruncatedSeries(tuple(coeffs))
        assert series * series.inverse() == one


def test_binomial_convolution_of_taylor_coefficients():
    rng = random.Random(13)
    order = 6
    a = TruncatedSeries.of([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)])
    b = TruncatedSeries.of([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)])
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


@pytest.mark.parametrize("field_order", [None, *FIELD_ORDERS])
def test_linear_combination_matches_the_sum_of_products(field_order):
    field = None if field_order is None else cyclotomic_field(field_order)
    rng = random.Random(41 if field is None else 41 + field_order)

    def value():
        if field is None:
            return F(rng.randint(-9, 9), rng.randint(1, 9))
        return field.reduce([F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(field.degree)])

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
        if field is None:
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        else:
            assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("field_order", [None, 9])
def test_exp_sum_matches_direct_taylor_coefficients(field_order):
    field = cyclotomic_field(1 if field_order is None else field_order)  # None: over Q
    rng = random.Random(33 if field_order is None else 34)
    for _ in range(40):
        terms = random_triples(rng, field)
        rate, order = F(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(1, 8)
        expected = tuple(
            sum((w * ((x * rate) ** j / math.factorial(j)) for x, w in as_pairs(field, terms)), field.zero)
            for j in range(order)
        )
        assert exp_sum(field, terms, rate, order).coeffs == expected
        muted = [(x, 0, e) for x, _, e in terms]
        assert exp_sum(field, muted, rate, order) == TruncatedSeries((field.zero,) * order)


def test_quotient_matches_inverse_then_multiply():
    rng = random.Random(16)
    for _ in range(30):
        field = cyclotomic_field(rng.choice([1, 9]))
        rate = F(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        node = rng.randint(1, 7)
        if field.order == 1:
            unit = field.from_rational(F(rng.randint(1, 5), rng.randint(1, 5)))
            constant = F(rng.randint(-5, 5), rng.randint(1, 5))
        else:
            unit, constant = field.zeta_power(rng.randrange(9)), F(rng.randint(2, 9), 3)
        if unit + constant == 0:
            continue
        terms = [(rng.randint(0, 8), F(rng.randint(-9, 9), rng.randint(1, 9)), rng.randrange(2 * field.order))
                 for _ in range(rng.randint(1, 4))]
        order = rng.randint(1, 9)
        denominator = TruncatedSeries.of([unit * ((node * rate) ** j / math.factorial(j)) + (constant if j == 0 else 0)
                                          for j in range(order)])
        expected = exp_sum(field, terms, rate, order) * denominator.inverse()
        assert exp_quotient(field, terms, rate, unit, node, (unit + constant) ** -1, order) == expected
