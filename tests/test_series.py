"""Truncated power series arithmetic, inversion, and Taylor extraction."""
import math
import random
from fractions import Fraction as F

import pytest

from eulertwist import TruncatedSeries, cyclotomic_field, exp_sum, nth_taylor_coefficient
from eulertwist.series import exp_quotient, power_moments
from eulertwist.errors import NonUnitConstantTerm, OrderTooLow


def test_difference_of_squares():
    a = TruncatedSeries.of([1, 1], order=3)
    b = TruncatedSeries.of([1, -1], order=3)
    assert a * b == TruncatedSeries.of([1, 0, -1])


def test_multiplication_by_zero():
    a = TruncatedSeries.of([3, F(1, 2), 7], order=3)
    zero = TruncatedSeries.constant(F(0), 3)
    assert a * zero == zero


def test_telescoping_product():
    ones = TruncatedSeries.of([1] * 8)
    assert ones * TruncatedSeries.of([1, -1], order=8) == TruncatedSeries.of([1] + [0] * 7)


def test_geometric_inverse():
    inv = TruncatedSeries.of([1, -1], order=5).inverse()
    assert inv == TruncatedSeries.of([1, 1, 1, 1, 1])


def test_constant_inverse():
    inv = TruncatedSeries.constant(F(5, 3), 4).inverse()
    assert inv == TruncatedSeries.constant(F(3, 5), 4)


def test_inverse_of_two_plus_t():
    a = TruncatedSeries.of([2, 1], order=3)
    inv = a.inverse()
    assert inv == TruncatedSeries.of([F(1, 2), F(-1, 4), F(1, 8)])
    assert a * inv == TruncatedSeries.of([1, 0, 0])


def test_inverse_needs_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        TruncatedSeries.of([0, 1], order=3).inverse()


def exp_of(c, order):
    """The series of exp(c t), as the one-term exponential sum."""
    return exp_sum([(1, 1)], c, order)


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
    assert nth_taylor_coefficient(TruncatedSeries.constant(F(1), 5), 3) == 0


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
    one = TruncatedSeries.constant(field.one, 6)
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


def test_series_json_wrapper():
    series = TruncatedSeries.of([1, F(-1, 2)], order=2)
    assert series.to_json() == {"order": 2, "coeffs": ["1/1", "-1/2"]}


def random_terms(rng, field):
    """Seeded (node, weight) pairs over Q (field None) or a cyclotomic field:
    random nodes and weights, node 0, and a zero weight."""
    def weight():
        if field is None:
            return F(rng.randint(-5, 5), rng.randint(1, 4))
        return field.reduce([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(field.degree)])

    zero = F(0) if field is None else field.zero
    terms = [(rng.randint(-3, 7), weight()) for _ in range(rng.randint(1, 5))]
    terms += [(0, weight()), (rng.randint(1, 7), zero)]
    rng.shuffle(terms)
    return terms, zero


@pytest.mark.parametrize("field_order", [None, 9])
def test_power_moments_match_direct_powers(field_order):
    field = None if field_order is None else cyclotomic_field(field_order)
    rng = random.Random(31 if field is None else 32)
    for _ in range(40):
        terms, zero = random_terms(rng, field)
        n_max = rng.randint(0, 8)
        expected = [sum((w * x**j for x, w in terms), zero) for j in range(n_max + 1)]
        assert power_moments(terms, n_max) == expected
        muted = [(x, zero) for x, _ in terms]
        assert power_moments(muted, n_max) == [zero] * (n_max + 1)
    assert power_moments([], 3) == [0, 0, 0, 0]


@pytest.mark.parametrize("field_order", [None, 9])
def test_exp_sum_matches_direct_taylor_coefficients(field_order):
    field = None if field_order is None else cyclotomic_field(field_order)
    rng = random.Random(33 if field is None else 34)
    for _ in range(40):
        terms, zero = random_terms(rng, field)
        rate, order = F(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(1, 8)
        expected = tuple(
            sum((w * ((x * rate) ** j / math.factorial(j)) for x, w in terms), zero) for j in range(order)
        )
        assert exp_sum(terms, rate, order).coeffs == expected
        muted = [(x, zero) for x, _ in terms]
        assert exp_sum(muted, rate, order) == TruncatedSeries((zero,) * order)


def test_quotient_matches_inverse_then_multiply():
    rng = random.Random(16)
    field = cyclotomic_field(9)
    for _ in range(30):
        rate = F(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        node = rng.randint(1, 7)
        if rng.random() < 0.5:
            unit, constant = F(rng.randint(1, 5), rng.randint(1, 5)), F(rng.randint(-5, 5), rng.randint(1, 5))
        else:
            unit, constant = field.zeta_power(rng.randrange(9)), field.from_rational(F(rng.randint(2, 9), 3))
        if unit + constant == 0:
            continue
        terms = [(rng.randint(0, 8), unit * F(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(rng.randint(1, 4))]
        order = rng.randint(1, 9)
        expected = exp_sum(terms, rate, order) * exp_sum([(node, unit), (0, constant)], rate, order).inverse()
        assert exp_quotient(terms, rate, unit, node, (unit + constant) ** -1, order) == expected
