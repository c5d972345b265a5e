"""`embed_certified` against mpmath, which shares no code with the package: the power basis summed at mpmath's
exp(2 pi i j / N), at the entries' bit length + 256 bits, so that at least 60 digits of the value survive any
cancellation drawn here.  Each part must be within 4 ulp of the value's modulus, also where entries of up to
2^200 cancel to a value near 1, and exactly 0 where the part is 0.  Without mpmath these tests skip."""
import math
import random

import pytest

mpmath = pytest.importorskip("mpmath")

from eulertwist import cyclotomic_field, principal_character  # noqa: E402
from eulertwist.cyclotomic import CyclotomicNumber, _unit_circle, embed_certified, galois_conjugate  # noqa: E402
from eulertwist.twisted import TwistedConfig, twisted_values  # noqa: E402

ORDERS = (1, 2, 3, 4, 5, 7, 9, 12, 15, 27, 45, 63, 77, 91, 97, 99)


def reference(a: CyclotomicNumber):
    with mpmath.workprec(max(abs(c) for c in a.num).bit_length() + 256):
        order = a.field.order
        return sum(mpmath.mpf(c) * mpmath.expjpi(mpmath.mpf(2 * j) / order) for j, c in enumerate(a.num)) / a.den


def ulps_off(value: complex, ref) -> float:
    """The larger part's distance from ref, in ulps of |ref|."""
    ulp = math.ulp(float(abs(ref)))
    return float(max(abs(value.real - ref.real), abs(value.imag - ref.imag)) / ulp)


def cancelling(field, rng):
    """zeta^k (M (zeta^j + zeta^-j) - c + small): M < 2^200 and c the integer nearest M 2 cos(2 pi j/N), so the
    entries are near 2^200 and the value's modulus is at most about 2^20."""
    order, j = field.order, rng.randrange(field.order)
    big = rng.getrandbits(200) | 1 << 199
    with mpmath.workprec(400):
        c = int(mpmath.nint(big * 2 * mpmath.cospi(mpmath.mpf(2 * j) / order)))
    small = CyclotomicNumber(field, [rng.randint(-2**20, 2**20) for _ in range(field.degree)], rng.randint(1, 99))
    rotation = field.zeta_power(rng.randrange(order))
    return rotation * ((field.zeta_power(j) + field.zeta_power(order - j)) * big - c + small)


@pytest.mark.parametrize("order", ORDERS)
def test_parts_are_within_4_ulp_of_the_modulus(order):
    field, rng = cyclotomic_field(order), random.Random(order)
    for trial in range(12):
        if trial % 2:
            a = cancelling(field, rng)
        else:
            bits = rng.choice((8, 64, 200))
            a = CyclotomicNumber(field, [rng.randint(-2**bits, 2**bits) for _ in range(field.degree)],
                                 rng.randint(1, 2**bits))
        if a.is_zero():
            continue
        value, ref = embed_certified(a), reference(a)
        assert ulps_off(value, ref) <= 4, (order, a)


@pytest.mark.parametrize("order", ORDERS)
def test_a_zero_part_is_exactly_zero(order):
    field, rng = cyclotomic_field(order), random.Random(1000 + order)
    b = CyclotomicNumber(field, [rng.randint(-2**200, 2**200) for _ in range(field.degree)], rng.randint(1, 2**64))
    conjugate = galois_conjugate(b, order - 1)
    real, imaginary = b + conjugate, b - conjugate
    assert embed_certified(real).imag == 0.0
    assert imaginary.is_zero() or embed_certified(imaginary).real == 0.0
    assert embed_certified(field.zero) == 0j


@pytest.mark.parametrize("order, bits", [(3, 128), (27, 128), (99, 192), (97, 640), (3168, 128)])
def test_table_entries_are_within_one_unit(order, bits):
    cos_table, sin_table = _unit_circle(order, bits)
    assert len(cos_table) == len(sin_table) == cyclotomic_field(order).degree
    with mpmath.workprec(bits + 64):
        for j in range(0, len(cos_table), max(1, len(cos_table) // 64)):
            zeta = mpmath.expjpi(mpmath.mpf(2 * j) / order)
            assert abs(cos_table[j] - mpmath.ldexp(zeta.real, bits)) <= 1
            assert abs(sin_table[j] - mpmath.ldexp(zeta.imag, bits)) <= 1


def test_twisted_values_at_q_1_are_within_4_ulp():
    # twist order 27 at q = 1: entries near 2^80 cancel to A_12 = -3141510.13...i, which the Horner sum in
    # doubles printed as -134217728 + 83886080i
    cfg = TwistedConfig.build(principal_character(1), 27, 1, 1)
    for tv in twisted_values(cfg, 16):
        assert ulps_off(embed_certified(tv.value), reference(tv.value)) <= 4, tv.n
