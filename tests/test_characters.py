"""Dirichlet character construction, enumeration, values, and file I/O."""
import contextlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from eulertwist import (
    TwistedConfig,
    character_from_table,
    enumerate_characters,
    principal_character,
    quadratic_character,
)
from eulertwist.characters import character_from_json, load_character_file
from eulertwist.errors import InvalidCharacter, NotSquarefree
from eulertwist.ntheory import euler_phi


class TestFromTable:
    def test_quadratic_mod_three(self):
        char = character_from_table(3, 2, {0: None, 1: 0, 2: 1})
        assert char.value_order == 2
        assert char.rational_value(2) == -1

    def test_principal_mod_three(self):
        char = character_from_table(3, 2, {0: None, 1: 0, 2: 0})
        assert char == principal_character(3)
        assert char.value_order == 1  # canonicalized to the exact image order

    def test_unit_mapped_to_zero_rejected(self):
        table = {a: (None if a % 3 == 0 or a == 2 else 0) for a in range(9)}
        with pytest.raises(InvalidCharacter):
            character_from_table(9, 1, table)

    def test_multiplicativity_failure_reports_pair(self):
        # chi(2) = -1 but chi(4) = +1 requires chi(2)^2 = chi(4); force a break
        table = {0: None, 1: 0, 2: 1, 3: None, 4: 1, 5: 0, 6: None, 7: 0, 8: 0}
        with pytest.raises(InvalidCharacter, match=r"multiplicativity fails at \(2, 2\)"):
            character_from_table(9, 2, table)

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_accepted_tables_are_exactly_the_enumerated_characters(self, d):
        # every table with chi(1) = 1 and 0 at the non-units, the other units at any exponent mod M
        units = [a for a in range(2, d) if math.gcd(a, d) == 1]
        for order in (1, 2, 3, 6):
            accepted = []
            for values in itertools.product(range(order), repeat=len(units)):
                table = {**dict.fromkeys(range(d)), 1: 0, **dict(zip(units, values))}
                with contextlib.suppress(InvalidCharacter):
                    accepted.append(character_from_table(d, order, table))
            assert len(set(accepted)) == len(accepted)
            assert set(accepted) == {char for char in enumerate_characters(d) if order % char.value_order == 0}


class TestQuadratic:
    def test_mod_three_values(self):
        char = quadratic_character(3)
        assert char.rational_value(2) == -1
        assert char.rational_value(1) == 1

    def test_mod_fifteen_at_two(self):
        assert quadratic_character(15).rational_value(2) == 1

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            quadratic_character(9)


class TestEnumeration:
    @pytest.mark.parametrize("d", [1, 3, 5, 9, 15, 27])
    def test_counts(self, d):
        assert len(enumerate_characters(d)) == euler_phi(d)

    def test_mod_five_value_orders(self):
        orders = sorted(c.value_order for c in enumerate_characters(5))
        assert orders == [1, 2, 4, 4]

    def test_trivial_modulus(self):
        (char,) = enumerate_characters(1)
        assert char.value_order == 1
        assert char.exponent(0) == 0
        assert char.exponent(12345) == 0

    def test_first_is_principal(self):
        assert enumerate_characters(15)[0] == principal_character(15)

    @pytest.mark.parametrize("d", [5, 9, 15])
    def test_closure_under_products(self, d):
        # the product's table adds the exponents in the lcm of the value orders
        chars = enumerate_characters(d)
        pool = set(chars)
        for a in chars:
            for b in chars:
                order = math.lcm(a.value_order, b.value_order)
                sa, sb = order // a.value_order, order // b.value_order
                table = {m: None if ea is None else (ea * sa + eb * sb) % order
                         for m, (ea, eb) in enumerate(zip(a.exponents, b.exponents))}
                assert character_from_table(d, order, table) in pool

    def test_quadratic_appears_in_enumeration(self):
        assert quadratic_character(15) in set(enumerate_characters(15))


class TestValues:
    def test_reduction_mod_d(self):
        assert quadratic_character(3).rational_value(5) == -1

    def test_zero_on_multiples(self):
        char = quadratic_character(5)
        for k in range(1, 6):
            assert char.exponent(5 * k) is None

    def test_one_at_one(self):
        for d in (1, 3, 9):
            chars = enumerate_characters(d)
            for char in chars:
                assert char.exponent(1) == 0

    def test_periodicity(self):
        rng = random.Random(5)
        for char in enumerate_characters(9):
            for _ in range(100):
                m = rng.randint(0, 10**6)
                assert char.exponent(m) == char.exponent(m + 9)

    def test_orthogonality(self):
        # chi(a) through the lift every route reads, at twist 1
        for d in (3, 5, 9, 15):
            for char in enumerate_characters(d):
                cfg = TwistedConfig.build(char, 1, 0, 1)
                total = cfg.field.zero
                for a in range(d):
                    total = total + cfg.char_value(a)
                if char.value_order == 1:
                    assert total == euler_phi(d)
                else:
                    assert total.is_zero()


def test_rational_value_is_the_int_of_the_fraction_value():
    # the Fraction form chi(m) took before, 0 off the units and (-1)^e on them
    for d in range(1, 16, 2):
        for char in enumerate_characters(d):
            if char.is_rational_valued:
                for m in range(-d, 2 * d):
                    e = char.exponent(m)
                    value = char.rational_value(m)
                    assert type(value) is int
                    assert value == (Fraction(0) if e is None else Fraction(-1) ** e)


class TestJson:
    def test_round_trip(self):
        char = quadratic_character(15)
        assert character_from_json(char.to_json(), 15) == char

    def test_file_loading(self, tmp_path):
        path = tmp_path / "quadratic3.json"
        doc = {"modulus": 3, "order": 2, "values": {"0": None, "1": 0, "2": 1}}
        path.write_text(json.dumps(doc))
        assert load_character_file(str(path), 3) == quadratic_character(3)

    def test_null_encodes_zero(self):
        doc = principal_character(3).to_json()
        assert doc["values"]["0"] is None
        assert doc["values"]["1"] == 0
