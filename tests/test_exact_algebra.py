"""Rationals, the alternating q-bracket, valuations, and cyclotomic field arithmetic."""
import cmath
import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulertwist import (
    PLUS_INFINITY,
    cli,
    cyclotomic_field,
    cyclotomic_polynomial,
    embed_complex,
    galois_conjugate,
    lift_to_field,
    padic_valuation,
    q_bracket_neg,
)
from eulertwist.errors import (
    DivisionByZero,
    FieldMismatch,
    NotAPrimitiveEmbedding,
    OutsideDoubleRange,
    PoleAtMinusOne,
)
from eulertwist.ntheory import euler_phi
from eulertwist.rationals import DECIMAL_CUTOFF_BITS, decimal_string, format_rational, parse_rational
from conftest import field_element


def random_element(field, rng):
    coeffs = tuple(
        F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(field.degree)
    )
    return field_element(field, coeffs)


def int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


class TestCyclotomicPolynomial:
    def test_small_orders(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_divides_x_n_minus_1(self, n):
        # the product of Phi_e over the divisors e of n is x^n - 1, in integers
        product = (1,)
        for e in range(1, n + 1):
            if n % e == 0:
                product = int_poly_mul(product, cyclotomic_polynomial(e))
        assert product == (-1,) + (0,) * (n - 1) + (1,)
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


class TestFieldArithmetic:
    def test_product_reduces(self):
        z = cyclotomic_field(3).zeta_power(1)
        assert (1 + z) * (-z) == 1

    def test_inverse_of_one(self):
        for n in (1, 3, 5, 9):
            assert cyclotomic_field(n).from_rational(1).inverse() == 1

    def test_zeta_has_order_n(self):
        z = cyclotomic_field(3).zeta_power(1)
        assert z * z * z == 1

    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    def test_field_axioms_random(self, n):
        field = cyclotomic_field(n)
        rng = random.Random(1000 + n)
        for _ in range(200):
            a = random_element(field, rng)
            b = random_element(field, rng)
            c = random_element(field, rng)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == 1

    @pytest.mark.parametrize("n", [1, 3, 9, 12, 45])
    def test_scaled_is_the_product_by_the_fraction(self, n):
        # against each coefficient times p/q in Fractions, the whole vector then reduced once
        field = cyclotomic_field(n)
        rng = random.Random(2000 + n)
        pairs = [(0, 1), (1, 1), (-1, 1)] + [(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
                                             for _ in range(60)]
        for p, q in pairs:
            p, q = p // math.gcd(p, q), q // math.gcd(p, q)
            for a in (random_element(field, rng), field.zero, field.zeta_power(rng.randrange(n))):
                scaled = a.scaled(p, q)
                assert scaled == field_element(field, [c * F(p, q) for c in a.coeffs]) == a * F(p, q)
                assert scaled.den > 0 and math.gcd(scaled.den, *scaled.num) == 1
                if p == 0:
                    assert scaled.num == (0,) * field.degree and scaled.den == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(DivisionByZero):
            cyclotomic_field(3).zero.inverse()

    def test_field_mismatch_raises(self):
        with pytest.raises(FieldMismatch):
            cyclotomic_field(3).zeta_power(1) + cyclotomic_field(5).zeta_power(1)

    def test_lift_to_larger_field(self):
        z3 = cyclotomic_field(3).zeta_power(1)
        f9 = cyclotomic_field(9)
        assert lift_to_field(z3, f9) == f9.zeta_power(3)
        a = 1 + 2 * z3
        b = lift_to_field(a, f9)
        assert lift_to_field(a * a, f9) == b * b

    def test_corner_field_builds_in_under_a_second_and_100_mb(self):
        # Q(zeta_7954), degree 3840, is the work budget's field corner; a fresh
        # interpreter, so neither the field cache nor an earlier test's
        # allocations hide the build's own time and peak RSS (ru_maxrss is in
        # kB, in bytes on macOS).
        script = (
            "import json, resource, sys, time\n"
            "from eulertwist.cyclotomic import CyclotomicField\n"
            "start = time.perf_counter()\n"
            "CyclotomicField(7954)\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(json.dumps([time.perf_counter() - start, peak // (1024 if sys.platform == 'darwin' else 1)]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, timeout=60)
        seconds, peak_kb = json.loads(proc.stdout)
        assert seconds < 1.0
        assert peak_kb < 100 * 1024


class TestComplexEmbedding:
    def test_order_one(self):
        assert embed_complex(cyclotomic_field(1).zeta_power(1)) == 1 + 0j

    def test_primitive_cube_root(self):
        value = embed_complex(cyclotomic_field(3).zeta_power(1))
        assert abs(value - complex(-0.5, math.sqrt(3) / 2)) < 1e-15

    def test_vanishing_root_sum(self):
        z = cyclotomic_field(3).zeta_power(1)
        assert abs(embed_complex(1 + z + z * z)) < 1e-15

    def test_non_coprime_index_rejected(self):
        with pytest.raises(NotAPrimitiveEmbedding):
            galois_conjugate(cyclotomic_field(9).zeta_power(1), 3)

    @pytest.mark.parametrize("coeffs", [
        [F(10**400), F(0)],  # a coefficient beyond double range
        [F(15 * 10**307), F(15 * 10**307)],  # each in range, their embedding 2.6e308 is not
    ])
    def test_beyond_double_range_rejected(self, coeffs):
        with pytest.raises(OutsideDoubleRange):
            embed_complex(field_element(cyclotomic_field(6), coeffs))

    def test_ring_homomorphism(self):
        rng = random.Random(7)
        field = cyclotomic_field(9)
        for _ in range(50):
            a = field_element(field, [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(6)])
            b = field_element(field, [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(6)])
            lhs = embed_complex(a * b)
            rhs = embed_complex(a) * embed_complex(b)
            assert abs(lhs - rhs) < 1e-12

    def test_galois_conjugate_tracks_embedding(self):
        field = cyclotomic_field(9)
        a = 2 + field.zeta_power(2) - 3 * field.zeta_power(5)
        # a at zeta -> omega^2, omega = exp(2 pi i / 9): sum_i c_i exp(4 pi i i / 9)
        omega_squared = sum(complex(c) * cmath.exp(4j * cmath.pi * i / 9) for i, c in enumerate(a.coeffs))
        assert abs(embed_complex(galois_conjugate(a, 2)) - omega_squared) < 1e-12


class TestQBrackets:
    def test_alternating_bracket(self):
        assert q_bracket_neg(3, F(1)) == 1

    def test_pole(self):
        with pytest.raises(PoleAtMinusOne):
            q_bracket_neg(2, F(-1))


class TestPadicValuation:
    def test_examples(self):
        assert padic_valuation(F(1, 5), 5) == -1
        assert padic_valuation(F(0), 5) == PLUS_INFINITY
        assert padic_valuation(F(50, 3), 5) == 2

    @given(
        st.fractions(max_denominator=1000),
        st.fractions(max_denominator=1000),
        st.sampled_from([3, 5, 7]),
    )
    def test_multiplicative(self, a, b, p):
        if a == 0 or b == 0:
            return
        assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            padic_valuation(F(1), 6)


class TestSerialization:
    def test_rational_wire_format(self):
        assert format_rational(F(-4)) == "-4/1"
        assert parse_rational("-4/1") == F(-4)
        assert parse_rational("5/2") == F(5, 2)
        assert parse_rational("7") == F(7)

    def test_decimal_string_matches_str_on_each_side_of_the_cutoff(self):
        # str() of these ints needs the digit limit lifted; decimal_string does not read it above the cutoff
        rng = random.Random(23)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            for bits in (1, 64, DECIMAL_CUTOFF_BITS - 1, DECIMAL_CUTOFF_BITS, DECIMAL_CUTOFF_BITS + 1,
                         2 * DECIMAL_CUTOFF_BITS + 1):
                for n in (rng.getrandbits(bits) | 1 << (bits - 1), 10 ** (bits * 3 // 10), 2**bits - 1):
                    text = str(n)
                    assert decimal_string(n) == text and decimal_string(-n) == "-" + text
                    assert format_rational(F(-1, n)) == f"-1/{text}"
            assert decimal_string(0) == "0"
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    def test_ints_over_the_default_digit_limit_are_written_in_process(self, capsys):
        # Below the cutoff but past the default limit of 4300 digits, str() refuses these ints; the
        # limit is lifted only to write the references.
        ints = [10**4300, 2**20000 + 1]
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            texts = [str(n) for n in ints]
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        for n, text in zip(ints, texts):
            assert decimal_string(n) == text and decimal_string(-n) == "-" + text
            assert format_rational(F(-n, 3)) == f"-{text}/3"
        assert cli.main(["integral", "--n", "5", "--q", "4", "--p", "3", "--levels", "9", "--format", "csv"]) == 0
        assert max(len(line) for line in capsys.readouterr().out.splitlines()) > 4300
