"""The integer-vector field arithmetic against a sympy reference.

The reference reduces, multiplies and inverts with sympy polynomials over
QQ (``Poly.rem`` and ``Poly.invert`` modulo Phi_N), which share no code with
the package.  Results must agree coefficient for coefficient and stay in
canonical form; the complex embedding must agree bit for bit with a
Fraction Horner loop.  The inverse by the norm is also checked against a
fraction-free (Bareiss) linear solve, which needs no sympy.
"""
import cmath
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertwist import cyclotomic_field, cyclotomic_polynomial, embed_complex
from eulertwist.cyclotomic import CyclotomicNumber
from eulertwist.errors import DivisionByZero
from conftest import field_element

try:
    import sympy
    from sympy.polys.densearith import dup_rem
    from sympy.polys.domains import ZZ
except ImportError:  # the sympy references skip; the Bareiss oracle runs without it
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")
X = sympy.Symbol("x") if sympy else None
ORDERS = (9, 36, 54)


def sym_poly(coeffs):
    """A sympy polynomial over QQ from rationals, constant term first."""
    return sympy.Poly([sympy.Rational(F(c).numerator, F(c).denominator) for c in reversed(coeffs)], X,
                      domain=sympy.QQ)


def field_coeffs(field, poly):
    """A sympy polynomial of degree below the field's as Fractions, constant term first."""
    coeffs = [F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return tuple(coeffs + [F(0)] * (field.degree - len(coeffs)))


def ref_reduce(field, coeffs):
    return field_coeffs(field, sym_poly(coeffs).rem(sym_poly(field.minimal_polynomial)))


def ref_mul(field, a, b):
    return field_coeffs(field, (sym_poly(a) * sym_poly(b)).rem(sym_poly(field.minimal_polynomial)))


def ref_inverse(field, a):
    return field_coeffs(field, sym_poly(a).invert(sym_poly(field.minimal_polynomial)))


def ref_embed(field, a):
    root = cmath.exp(2j * cmath.pi / field.order)
    value = 0j
    for c in reversed(a):
        value = value * root + complex(c)
    return value


def assert_canonical(x):
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert len(x.num) == x.field.degree
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


def bits(z):
    """Both parts exactly, the sign of a zero part included."""
    return (z.real.hex(), z.imag.hex())


rationals = st.builds(F, st.integers(-99, 99), st.integers(1, 99))


@st.composite
def elements(draw, field):
    """Dense, sparse (mostly zero) and rational elements."""
    kind = draw(st.sampled_from(("dense", "sparse", "rational")))
    n = field.degree
    if kind == "dense":
        coeffs = draw(st.lists(rationals, min_size=n, max_size=n))
    elif kind == "sparse":
        coeffs = draw(st.lists(st.one_of(st.just(F(0)), rationals), min_size=n, max_size=n))
    else:
        coeffs = [draw(rationals)] + [F(0)] * (n - 1)
    return tuple(coeffs)


@st.composite
def field_pairs(draw):
    field = cyclotomic_field(draw(st.sampled_from(ORDERS)))
    return field, draw(elements(field)), draw(elements(field))


@needs_sympy
@settings(max_examples=60, deadline=None)
@given(field_pairs(), rationals, st.integers(-40, 40))
def test_ring_operations_match_reference(pair, scalar, integer):
    field, ra, rb = pair
    a, b = field_element(field, ra), field_element(field, rb)
    assert a.coeffs == ra and b.coeffs == rb
    # a's numerator reversed over a's denominator: canonical with a.den, as gcd(a.den, *a.num) = 1
    mirror = CyclotomicNumber(field, a.num[::-1], a.den)
    assert mirror.den == a.den
    expected = {
        "add": (a + b, tuple(x + y for x, y in zip(ra, rb))),
        "sub": (a - b, tuple(x - y for x, y in zip(ra, rb))),
        "neg": (-a, tuple(-x for x in ra)),
        "mul": (a * b, ref_mul(field, ra, rb)),
        "square": (a * a, ref_mul(field, ra, ra)),
        "fraction": (a * scalar, tuple(x * scalar for x in ra)),
        "integer": (integer * a, tuple(x * integer for x in ra)),
        # scaling back shares factors between the scalar and every entry
        "rescale": ((a * 6) * F(1, 6), ra),
        "radd": (scalar + a, (ra[0] + scalar,) + ra[1:]),
        # sums of operands over one denominator; a - a is the canonical zero (0, ..., 0) / 1
        "double": (a + a, tuple(2 * x for x in ra)),
        "cancel": (a - a, (F(0),) * field.degree),
        "same_den": (a + mirror, tuple(x + y for x, y in zip(ra, ra[::-1]))),
    }
    for name, (got, want) in expected.items():
        assert got.coeffs == want, name
        assert_canonical(got)


@needs_sympy
@settings(max_examples=40, deadline=None)
@given(field_pairs())
def test_inverse_matches_reference(pair):
    field, ra, _ = pair
    a = field_element(field, ra)
    if a.is_zero():
        return
    inverse = a.inverse()
    assert inverse.coeffs == ref_inverse(field, ra)
    assert_canonical(inverse)


@settings(max_examples=40, deadline=None)
@given(field_pairs())
def test_equal_values_have_equal_hashes(pair):
    field, ra, rb = pair
    a, b = field_element(field, ra), field_element(field, rb)
    scaled = CyclotomicNumber(field, [-6 * c for c in a.num], -6 * a.den)
    for left, right in ((a * b, b * a), ((a + b) - b, a), (scaled, a), (a * 2 - a, a)):
        assert left == right
        assert (left.num, left.den) == (right.num, right.den)
        assert hash(left) == hash(right)
    zero = a - a
    assert zero.num == (0,) * field.degree and zero.den == 1
    assert zero == field.zero and hash(zero) == hash(field.zero)


@settings(max_examples=60, deadline=None)
@given(field_pairs())
def test_embedding_matches_fraction_horner_bit_for_bit(pair):
    field, ra, _ = pair
    a = field_element(field, ra)
    for value, coeffs in ((a, ra), (-a, tuple(-x for x in ra))):
        assert bits(embed_complex(value)) == bits(ref_embed(field, coeffs))


def sympy_cyclotomic(n):
    return tuple(int(c) for c in reversed(sympy.cyclotomic_poly(n, X, polys=True).all_coeffs()))


# 6270 = 2 * 3 * 5 * 11 * 19 has five primes; 9312 = 96 * 97 is the largest order a CLI run builds (d 97, a
# character of value order 96, twist 97).
@needs_sympy
@pytest.mark.parametrize("n", [*range(1, 61), 105, 385, 1155, 3168, 6270, 7954, 9312])
def test_cyclotomic_polynomial_against_sympy(n):
    assert cyclotomic_polynomial(n) == sympy_cyclotomic(n)


@needs_sympy
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_reduction_matches_reference(order, data):
    field = cyclotomic_field(order)
    coeffs = data.draw(st.lists(rationals, min_size=1, max_size=2 * field.degree - 1))
    reduced = field_element(field, coeffs)
    assert reduced.coeffs == ref_reduce(field, coeffs)
    assert_canonical(reduced)


# D = 1 (1, 2), prime N (5, 97), 2D - 1 > N (9, 27, 99), 2D - 1 < N (105, 385)
# and even N (12, 36, 90): the table holds rows D..max(2D - 1, N) - 1.
ROW_ORDERS = (1, 2, 5, 97, 9, 27, 99, 105, 385, 12, 36, 90)


@needs_sympy
@pytest.mark.parametrize("order", ROW_ORDERS)
def test_every_power_of_zeta_matches_reference(order):
    # rem(x^e, Phi_N) for each e < N, where e >= D reads held row e - D;
    # then e = N and N + 1 from x^N itself, and e = -1 as x^(N - 1).  sympy's
    # dense remainder over ZZ is exact since Phi_N is monic.
    field = cyclotomic_field(order)
    phi = [ZZ(c) for c in reversed(field.minimal_polynomial)]

    def ref_power(e):
        rem = [int(c) for c in reversed(dup_rem([ZZ(1)] + [ZZ(0)] * e, phi, ZZ))]
        return tuple(F(c) for c in rem + [0] * (field.degree - len(rem)))

    for e in [*range(order), order, order + 1]:
        assert field.zeta_power(e).coeffs == ref_power(e), e
    assert field.zeta_power(-1).coeffs == ref_power(order - 1)


@needs_sympy
@pytest.mark.parametrize("order", ROW_ORDERS)
def test_reduce_takes_exactly_the_table_size(order):
    # max(2D - 1, N) coefficients reach every held row.
    field = cyclotomic_field(order)
    rng = random.Random(order)
    size = max(2 * field.degree - 1, order)
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)]
    assert field_element(field, coeffs).coeffs == ref_reduce(field, coeffs)


BINOMIAL_ORDERS = (1, 3, 9, 15, 45, 99, 105)


@needs_sympy
@pytest.mark.parametrize("order", BINOMIAL_ORDERS)
def test_binomial_inverse_matches_reference(order):
    field = cyclotomic_field(order)
    rng = random.Random(order)
    exponents = [1, order - 1] + [rng.randrange(order) for _ in range(3)]
    exponents += [k for k in range(1, order) if math.gcd(k, order) > 1][:2]  # zeta^k of order m < N
    for k in exponents:
        c0 = F(rng.randint(-30, 30), rng.randint(1, 20))
        c1 = F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 20))
        if c0 == -c1 or c0 == 0:  # 1/(c1 zeta^k) is not of the form 1/(1 + c zeta^k)
            continue
        a = c0 + c1 * field.zeta_power(k)
        inverse = field.binomial_inverse(c1 / c0, k) * (1 / c0)
        assert inverse.coeffs == ref_inverse(field, a.coeffs)
        assert inverse == a.inverse()
        assert a * inverse == 1
        assert_canonical(inverse)


def test_binomial_inverse_refuses_even_orders_and_a_vanishing_norm():
    with pytest.raises(ValueError):
        cyclotomic_field(4).binomial_inverse(1, 1)  # 1 + i is a unit, but 1^4 = (-1)^4
    with pytest.raises(ValueError):
        cyclotomic_field(6).binomial_inverse(F(1, 2), 3)  # zeta_6^3 = -1 has order 2
    with pytest.raises(DivisionByZero):
        cyclotomic_field(9).binomial_inverse(-1, 3)
    with pytest.raises(DivisionByZero):
        cyclotomic_field(1).binomial_inverse(-1, 0)


@needs_sympy
def bareiss_inverse(a):
    """Multiplicative inverse: solve (multiplication by num) x = 1 over
    the integers by fraction-free (Bareiss) elimination."""
    if a.is_zero():
        raise DivisionByZero("inverse of zero in a cyclotomic field")
    field, num, den = a.field, a.num, a.den
    n = field.degree
    if not any(num[1:]):
        return field.from_rational(F(den, num[0]))
    # Column j of the matrix is num * x^j mod Phi_N; each row ends with
    # its coefficient of the right-hand side 1.
    columns = [list(num)]
    for _ in range(n - 1):
        last = columns[-1]
        lead = last[-1]
        column = [0] + last[:-1]
        if lead:
            for i, r in field._high_rows[0]:
                column[i] += lead * r
        columns.append(column)
    rows = [[*row, 0] for row in zip(*columns)]
    rows[0][n] = 1
    # Entries left of the diagonal are never read again, so they are
    # not cleared.
    previous = 1
    for k in range(n):
        if rows[k][k] == 0:
            swap = next(r for r in range(k + 1, n) if rows[r][k])
            rows[k], rows[swap] = rows[swap], rows[k]
        pivot = rows[k][k]
        tail = rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            factor = row[k]
            row[k + 1 :] = [
                (pivot * x - factor * y) // previous for x, y in zip(row[k + 1 :], tail)
            ]
        previous = pivot
    # rows is now upper triangular with rows[n-1][n-1] = +-det; back
    # substitution yields det * x, every division exact.
    det = rows[n - 1][n - 1]
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = det * row[n] - sum([a * b for a, b in zip(row[i + 1 : n], x[i + 1 :])])
        x[i] = acc // row[i]
    return CyclotomicNumber(field, [c * den for c in x], det)


def seeded_elements(field, rng):
    """Dense and sparse nonzero numerators over denominators 1..20, units
    and binomials c0 + c1 zeta^k among them."""
    n = field.degree
    dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(2)]
    wide = [rng.randint(-2**20, 2**20) for _ in range(n)]
    sparse = []
    for size in (1, 2, 3):
        vec = [0] * n
        for i in rng.sample(range(n), min(size, n)):
            vec[i] = rng.choice([-1, 1]) * rng.randint(1, 9)
        sparse.append(vec)
    unit = [1] + [0] * (n - 1)
    if n > 1:
        unit[1] = 1  # 1 + zeta
    for num in (*dense, wide, *sparse, unit):
        yield CyclotomicNumber(field, num, rng.randint(1, 20))


@pytest.mark.parametrize("order", [*range(1, 61), 63, 75, 81, 90, 99])
def test_inverse_by_the_norm_matches_bareiss(order):
    field = cyclotomic_field(order)
    for a in seeded_elements(field, random.Random(order)):
        inverse, expected = a.inverse(), bareiss_inverse(a)
        assert inverse == expected
        assert (inverse.num, inverse.den) == (expected.num, expected.den)
        assert a * inverse == 1
        assert_canonical(inverse)
