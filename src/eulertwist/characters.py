"""Dirichlet characters of odd modulus with exact root-of-unity values.

A character mod d is stored as a table of exponents: residue a maps either
to None (the value 0, exactly when gcd(a, d) > 1) or to k meaning
zeta_M^k, where M is the character's value order.  Tables are canonicalized
so M is the exact order of the character's image; the principal character
therefore always reports order 1.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .errors import InvalidCharacter, NotSquarefree
from .ntheory import euler_phi, factorize, is_squarefree, primitive_root


@dataclass(frozen=True)
class DirichletCharacter:
    modulus: int
    value_order: int
    exponents: tuple  # length-modulus tuple of int exponents or None

    def exponent(self, m: int):
        return self.exponents[m % self.modulus]

    def rational_value(self, m: int) -> int:
        """chi(m) as the int 0, 1 or -1; only for characters of value order <= 2."""
        if self.value_order > 2:
            raise ValueError("character is not rational-valued")
        e = self.exponent(m)
        return 0 if e is None else (-1) ** e

    @property
    def is_rational_valued(self) -> bool:
        return self.value_order <= 2

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "order": self.value_order,
            "values": {str(a): e for a, e in enumerate(self.exponents)},
        }

    def __repr__(self) -> str:
        return f"DirichletCharacter(mod {self.modulus}, order {self.value_order})"


def _canonical_exponents(order: int, exps: tuple) -> tuple[int, tuple]:
    g = order
    for e in exps:
        if e is not None:
            g = math.gcd(g, e)
    return order // g, tuple(None if e is None else e // g for e in exps)


def character_from_table(modulus: int, order: int, table) -> DirichletCharacter:
    """Validate a full value table and build the character.

    `table` maps every residue 0..modulus-1 to an exponent of zeta_order or
    to None for the value 0.  All character axioms are checked, including
    complete multiplicativity over every residue pair, which with chi(1) = 1
    bounds each value's order: a unit a of order r has r e_a = 0 mod order.
    """
    if modulus < 1 or modulus % 2 == 0:
        raise InvalidCharacter(f"modulus must be odd and positive, got {modulus}")
    if order < 1:
        raise InvalidCharacter(f"value order must be positive, got {order}")
    if set(table) != set(range(modulus)):
        raise InvalidCharacter("table must cover exactly the residues 0..d-1")
    exps = []
    for a in range(modulus):
        e = table[a]
        if math.gcd(a, modulus) > 1:
            if e is not None:
                raise InvalidCharacter(f"residue {a} shares a factor with {modulus}, value must be 0")
            exps.append(None)
        else:
            if e is None:
                raise InvalidCharacter(f"residue {a} is a unit, value must be nonzero")
            if not 0 <= e < order:
                raise InvalidCharacter(f"exponent {e} at residue {a} outside 0..{order - 1}")
            exps.append(e)
    one = 1 % modulus
    if exps[one] != 0:
        raise InvalidCharacter("value at 1 must be exactly 1")
    for a in range(modulus):
        for b in range(modulus):
            ea, eb = exps[a], exps[b]
            got = exps[(a * b) % modulus]
            want = None if (ea is None or eb is None) else (ea + eb) % order
            if got != want:
                raise InvalidCharacter(f"multiplicativity fails at ({a}, {b})")
    final_order, canon = _canonical_exponents(order, tuple(exps))
    return DirichletCharacter(modulus, final_order, canon)


def principal_character(modulus: int) -> DirichletCharacter:
    if modulus < 1 or modulus % 2 == 0:
        raise ValueError("modulus must be odd and positive")
    exps = tuple(0 if math.gcd(a, modulus) == 1 else None for a in range(modulus))
    return DirichletCharacter(modulus, 1, exps)


def _characters(modulus: int):
    """The prime-power factors (p^e, phi(p^e)) of the modulus, ascending, and
    build(ks): the character sending the smallest generator g of each factor's
    unit group to zeta_phi(p^e)^k, so a unit a to the product over the factors
    of zeta_phi(p^e)^(k log_g(a mod p^e)), in canonical form."""
    factors = sorted((p**e, euler_phi(p**e)) for p, e in factorize(modulus).items())
    logs = []
    for pk, nk in factors:
        g = primitive_root(pk)
        table = {}
        r = 1
        for idx in range(nk):
            table[r] = idx
            r = (r * g) % pk
        logs.append(table)
    group_exponent = math.lcm(*(nk for _, nk in factors))

    def build(ks) -> DirichletCharacter:
        exps = []
        for a in range(modulus):
            if math.gcd(a, modulus) > 1:
                exps.append(None)
                continue
            e = 0
            for (pk, nk), table, k in zip(factors, logs, ks):
                e += k * (group_exponent // nk) * table[a % pk]
            exps.append(e % group_exponent)
        order, canon = _canonical_exponents(group_exponent, tuple(exps))
        return DirichletCharacter(modulus, order, canon)

    return factors, build


def quadratic_character(modulus: int) -> DirichletCharacter:
    """The Jacobi-symbol character a -> (a|d); needs odd squarefree d >= 3.

    With g a generator mod a prime p, (a|p) = (-1)^log_g(a), the index
    character k = (p - 1)/2; (a|d) is the product of (a|p) over the p | d."""
    if modulus < 3 or modulus % 2 == 0:
        raise ValueError("quadratic character needs odd modulus >= 3")
    if not is_squarefree(modulus):
        raise NotSquarefree(f"{modulus} is not squarefree")
    factors, build = _characters(modulus)
    return build([nk // 2 for _, nk in factors])


def enumerate_characters(modulus: int) -> list[DirichletCharacter]:
    """All phi(d) characters mod d, ordered lexicographically by the exponent
    tuple of their values on fixed generators of the prime-power factors."""
    if modulus < 1 or modulus % 2 == 0:
        raise ValueError("modulus must be odd and positive")
    if modulus > 10**4:
        raise ValueError("enumeration supported for moduli up to 10^4")
    factors, build = _characters(modulus)
    return [build(ks) for ks in itertools.product(*(range(nk) for _, nk in factors))]


_FILE_SHAPE = 'a character file holds {"modulus": d, "order": M, "values": {"a": exponent or null}}'


def character_from_json(doc: dict, modulus: int) -> DirichletCharacter:
    """The character of a to_json document; InvalidCharacter for a document
    of another shape, and for one whose modulus is not `modulus`, before the
    table is validated."""
    try:
        read = int(doc["modulus"])
        order = int(doc["order"])
        table = {int(a): (None if e is None else int(e)) for a, e in doc["values"].items()}
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise InvalidCharacter(_FILE_SHAPE) from exc
    if read != modulus:
        raise InvalidCharacter(f"character file has modulus {read}, expected {modulus}")
    return character_from_table(read, order, table)


def load_character_file(path: str, modulus: int) -> DirichletCharacter:
    """The character of a to_json file; InvalidCharacter for a file that is
    not UTF-8 JSON, holds an int over the interpreter's digit limit or nests
    too deeply for json.load, as for a document of another shape.  The first
    two raise a ValueError, the last a RecursionError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise InvalidCharacter(_FILE_SHAPE) from exc
    return character_from_json(doc, modulus)
