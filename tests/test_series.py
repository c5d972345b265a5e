"""Truncated power series arithmetic, inversion, and Taylor extraction."""
import hashlib
import math
import operator
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
from eulertwist.series import binomial_solve, power_moments
from eulertwist.errors import NonUnitConstantTerm, OrderTooLow
from conftest import field_element, moment_values


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
        assert moment_values(field, terms, n_max) == expected


@pytest.mark.parametrize("field_order", FIELD_ORDERS)
def test_power_moments_match_the_field_oracle(field_order):
    # canonical forms: equal elements have the same num and den
    field = cyclotomic_field(field_order)
    rng = random.Random(31 + field_order)
    for _ in range(15):
        terms = random_triples(rng, field)
        n_max = rng.randint(0, 8)
        got = moment_values(field, terms, n_max)
        want = oracle_power_moments(as_pairs(field, terms), n_max)
        assert [(m.num, m.den) for m in got] == [(m.num, m.den) for m in want]
        muted = [(x, 0, e) for x, _, e in terms]
        assert power_moments(field, muted, n_max) == ([[0] * field.degree] * (n_max + 1), 1)
    assert power_moments(field, [], 3) == ([[0] * field.degree] * 4, 1)


def test_one_kernel_call_reads_each_slot_once(monkeypatch):
    """Each term's slot is read as its row mod Phi_N once per call, and no
    moment forms a field element or folds a vector: the moments are raw
    integer rows over one denominator."""
    field = cyclotomic_field(45)
    slots = []
    real = type(field)._row

    def counted(self, j):
        slots.append(j)
        return real(self, j)

    def refused(*args):
        raise AssertionError("a field operation per weight or per moment")

    monkeypatch.setattr(type(field), "_row", counted)
    for name in ("_fold", "_reduce_ints", "_mul_ints"):
        monkeypatch.setattr(type(field), name, refused)
    for name in ("__init__", "__add__", "__mul__"):
        monkeypatch.setattr(CyclotomicNumber, name, refused)
    terms = random_triples(random.Random(7), field)
    rows, den = power_moments(field, terms, 6)
    assert sorted(slots) == sorted(e % field.order for _, r, e in terms if r)
    assert len(rows) == 7 and all(len(row) == field.degree for row in rows)
    assert den == math.lcm(*(F(r).denominator for _, r, _ in terms))


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
    pivot_inv.  The form that the integer division replaced, kept as its
    oracle; it divides by the unit-form denominator unit exp(node rate t) + c,
    pivot_inv = 1/(unit + c), where the program runs the monic one."""
    rate = F(rate)
    numerator = [m * (rate**j / math.factorial(j)) for j, m in enumerate(moment_values(field, terms, order - 1))]
    step = node * rate
    scales = [step**j / math.factorial(j) for j in range(order)]
    out = [numerator[0] * pivot_inv]
    for n in range(1, order):
        acc = linear_combination(scales[1 : n + 1], out[::-1])
        out.append((numerator[n] - unit * acc) * pivot_inv)
    return out


# The stepwise integer division that `series.binomial_solve` replaced, kept as its oracle: per coefficient one
# integer combination over the lcm of every earlier denominator, one content gcd and one field product.

def integer_combination(scales, values) -> tuple[list[int], int]:
    """sum (a/b) v over integer pairs (a, b), b > 0, and elements v of one
    cyclotomic field, as one integer vector over one common denominator."""
    dens = [b * v.den for (_, b), v in zip(scales, values)]
    den = math.lcm(*dens)
    ks = [a * (den // b) for (a, _), b in zip(scales, dens)]
    return [sum(map(operator.mul, ks, column)) for column in zip(*(v.num for v in values))], den


def divide_step(scales, values, pivot_inv) -> CyclotomicNumber:
    """(sum_j s_j v_j) pivot_inv: the combination, its content divided out,
    then one raw product by pivot_inv, wrapped once."""
    num, den = integer_combination(scales, values)
    g = math.gcd(den, *num)
    num, den = [c // g for c in num], den // g
    field = pivot_inv.field
    return CyclotomicNumber(field, field._mul_ints(num, pivot_inv.num), den * pivot_inv.den)


def exp_scales(x, order: int) -> list[tuple[int, int]]:
    """x^j / j! for j < order, as reduced integer pairs."""
    p, q = x.numerator, x.denominator
    out = [(1, 1)]
    for j in range(1, order):
        a, b = out[-1]
        a, b = a * p, b * q * j
        g = math.gcd(a, b)
        out.append((a // g, b // g))
    return out


def exp_quotient(field, terms, rate, node: int, pivot_inv, order: int, scale=1) -> list:
    """The ordinary coefficients of scale * sum r zeta_N^e exp(x rate t) / (exp(node rate t) + c), pivot_inv =
    1/(1 + c): F_n = (N_n - sum_(j=1..n) (node rate)^j / j! F_(n-j)) pivot_inv, one :func:`divide_step` each."""
    steps = [(-a, b) for a, b in exp_scales(node * rate, order)]
    rates = [(a * scale.numerator, b * scale.denominator) for a, b in exp_scales(rate, order)]
    out: list = []
    for m, first in zip(moment_values(field, terms, order - 1), rates):
        out.append(divide_step([first, *steps[1 : len(out) + 1]], [m, *reversed(out)], pivot_inv))
    return out


def stepwise_binomial_solve(rhs, step: int, pivot_inv) -> list:
    """x_m = (rhs_m - sum_(k<m) C(m,k) step^(m-k) x_k) pivot_inv, one :func:`divide_step` per m."""
    out: list = []
    for m, value in enumerate(rhs):
        scales = [(1, 1)] + [(-math.comb(m, k) * step ** (m - k), 1) for k in range(m)]
        out.append(divide_step(scales, [value, *out], pivot_inv))
    return out


def taylor(coeffs) -> list:
    """n! times the n-th ordinary coefficient."""
    return [math.factorial(n) * c for n, c in enumerate(coeffs)]


@pytest.mark.parametrize("field_order", [None, *FIELD_ORDERS])
def test_linear_combination_matches_the_sum_of_products(field_order):
    """The oracles `linear_combination` and `integer_combination` (over Q as
    Q(zeta_1)), each against the plain sum of products."""
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
    """The oracle's step against (sum s_j v_j) pivot_inv in field arithmetic,
    the first term a right side and the rest lower terms under scales of
    either sign, zero values and a lone right side included."""
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


def test_product_columns_multiply_by_the_fixed_factor():
    """Entry j of a b is sum(map(mul, column_j, a)) over the columns of b's
    matrix, against the field product, dense rows of x^i b included."""
    rng = random.Random(19)
    for field_order in (*FIELD_ORDERS, 90):
        field = cyclotomic_field(field_order)
        for _ in range(4):
            a, b = ([rng.randint(-99, 99) for _ in range(field.degree)] for _ in range(2))
            columns = field._product_columns(b)
            assert [sum(map(operator.mul, column, a)) for column in columns] == field._mul_ints(a, b)


# (field order, twist exponents k, each zeta_N^k of odd order); every k with k mod N >= D makes zeta^k a dense
# row of x^k mod Phi_N
KERNEL_FIELDS = [(1, [0]), (3, [1, 2]), (9, [1, 4, 7, 8]), (15, [2, 8, 14]), (45, [7, 26, 44]), (90, [2, 40, 88]),
                 (99, [7, 61, 98])]
# q < 0, q = 1, a tall q, and two q = u/v with v | d at the fold count they are paired with
KERNEL_QS = [(F(2), None), (F(5, 2), None), (F(-3, 7), None), (F(1), None), (F(2**40 + 1), None), (F(2, 3), 3),
             (F(5, 3), 15)]


@pytest.mark.parametrize("field_order, exponents", KERNEL_FIELDS)
def test_kernel_gives_the_taylor_coefficients_of_the_retired_quotients(field_order, exponents):
    """The generating function's A_n through `binomial_solve` (nodes -l(u+v),
    integer weights (u+v)(-1)^l u^(d-l+1) v^l, step -d(u+v) over v), num and
    den identical to n! times the retired integer quotient and, where it is
    cheap, the Fraction-scale one; seeded, n <= 12 (smaller in the
    degree-60 field and at the tall q).  Where v | d, the step reduced as a
    Fraction changes its denominator, and that mutant must differ."""
    field = cyclotomic_field(field_order)
    rng = random.Random(f"kernel:{field_order}")
    small, mutants = field.degree >= 24, 0
    for q, fold in KERNEL_QS:
        u, v = q.numerator, q.denominator
        tall = u > 2**40
        for k in exponents:
            d = fold or (rng.randint(1, 3) if tall and small else rng.randint(1, 5) if tall or small else
                         rng.randint(1, 15))
            n = rng.randint(0, 2) if field.degree >= 60 else rng.randint(0, 4) if tall or small else rng.randint(0, 12)
            n = max(n, 2) if fold else n
            exps = [rng.randrange(3 * field.order) for _ in range(d)]
            kept = [l for l in range(d) if fold or rng.random() < 0.8]
            integer = [(l, (-1) ** l * u ** (d - l + 1) * v**l, exps[l] - k) for l in kept]
            pivot_inv = field.binomial_inverse(1, q**d, -k)
            want = taylor(exp_quotient(field, integer, -(1 + q), d, pivot_inv, n + 1, F(u + v, v ** (d + 2))))
            if not (tall or small):
                rational = [(l, (1 + q) * (-1) ** l * q ** (d - l + 1), exps[l]) for l in kept]
                assert want == taylor(oracle_exp_quotient(field, rational, -(1 + q), field.zeta_power(k), d,
                                                          field.binomial_inverse(q**d, 1, k), n + 1))
            rows, den = power_moments(field, [(-(u + v) * l, (u + v) * w, e) for l, w, e in integer], n)
            step = (-(u + v) * d, v)
            got = binomial_solve(rows, den * v ** (d + 2), step, pivot_inv)
            assert [(c.num, c.den) for c in got] == [(c.num, c.den) for c in want], (q, k, d, n)
            reduced = F(*step)
            if reduced.denominator != v and any(want[1:]):
                mutant = binomial_solve(rows, den * v ** (d + 2), (reduced.numerator, reduced.denominator), pivot_inv)
                assert mutant != want, (q, k, d)
                mutants += fold is not None
        d_fold = rng.choice([1, 3, 5, 7, 9, 11, 13, 15])
        for k in exponents:
            terms = [(l, 2 * (-1) ** l, k * (l - d_fold)) for l in range(d_fold)]
            pivot_inv = field.binomial_inverse(1, 1, -k * d_fold)
            want = taylor(exp_quotient(field, terms, 1, d_fold, pivot_inv, 12))
            assert binomial_solve(*power_moments(field, terms, 11), (d_fold, 1), pivot_inv) == want, ("eq22", k)
    assert mutants == 2 * len(exponents)  # every v | d point tells the reduced step from the kept pair


def test_kernel_matches_the_stepwise_solve_at_any_step():
    """Random raw right sides over den b^n and unreduced steps a/b against
    the Fraction-scale solve, and at b = 1 against the retired stepwise
    integer solve of the moment equations, num and den identical."""
    rng = random.Random(23)
    for field_order in FIELD_ORDERS:
        field = cyclotomic_field(field_order)
        for _ in range(4):
            n = rng.randint(0, 9)
            g = rng.randint(1, 4)
            a, b = g * (rng.randint(-7, 7) or 1), g * rng.choice([1, 1, 2, 3, 5])
            den = rng.randint(1, 30)
            rows = [[rng.randint(-40, 40) if rng.random() < 0.7 else 0 for _ in range(field.degree)]
                    for _ in range(n + 1)]
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            pivot_inv = field.binomial_inverse(1, c, 2 * rng.randrange(field.order))
            rhs = [CyclotomicNumber(field, row, den * b**m) for m, row in enumerate(rows)]
            got = binomial_solve(rows, den, (a, b), pivot_inv)
            want = unit_form_solve(rhs, 1, F(a, b), pivot_inv)
            assert [(x.num, x.den) for x in got] == [(x.num, x.den) for x in want]
            if b == 1:
                assert got == stepwise_binomial_solve(rhs, a, pivot_inv)


def test_quotient_matches_inverse_then_multiply():
    """The kernel's Taylor coefficients of a monic quotient, its terms and
    constant divided by the unit ratio zeta^k, against the unit-form
    numerator series times the series inverse of the unit-form
    denominator: with rate p/b, the nodes x p and the step node p over b."""
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
        p, b = rate.numerator, rate.denominator
        rows, den = power_moments(field, [(x * p, r / ratio, e - k) for x, r, e in terms], order - 1)
        pivot_inv = (1 + field.zeta_power(-k) * (constant / ratio)).inverse()
        assert binomial_solve(rows, den, (node * p, b), pivot_inv) == taylor(expected.coeffs)


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
            moment_values(field, kernel, n), field.zeta_power(k), d, field.binomial_inverse(q**d, 1, k))
        assert checks._twist_quotient(field, k_one, n + 1) == tuple(taylor(oracle_exp_quotient(
            field, [(0, 2, 0)], 1, field.zeta_power(k_one), 1, field.binomial_inverse(1, 1, k_one), n + 1)))
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
