"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are residues modulo the N-th cyclotomic polynomial Phi_N, stored as
length-phi(N) vectors of rationals over the power basis 1, zeta, ...,
zeta^(phi(N)-1).  Working modulo Phi_N rather than x^N - 1 keeps the ring a
field, so power-series constant terms stay invertible.

The class of x itself is a primitive N-th root of unity; complex embeddings
send it to exp(2*pi*i*k/N).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, FieldMismatch, NotAPrimitiveEmbedding
from .ntheory import divisors, euler_phi, mobius
from .polys import Poly
from .rationals import format_rational, parse_rational


def cyclotomic_polynomial(order: int) -> Poly:
    """Phi_order via the Moebius product of (x^e - 1) factors, exact division."""
    if order < 1:
        raise ValueError("cyclotomic polynomial order must be >= 1")
    numerator = Poly.one()
    denominator = Poly.one()
    for e in divisors(order):
        mu = mobius(order // e)
        factor = Poly.of(*([-1] + [0] * (e - 1) + [1]))  # x^e - 1
        if mu == 1:
            numerator = numerator * factor
        elif mu == -1:
            denominator = denominator * factor
    phi = numerator.exact_div(denominator)
    assert phi.is_integral() and phi.coeffs[-1] == 1
    return phi


class CyclotomicField:
    """Q(zeta_N) with a precomputed reduction table for powers of zeta.

    Instances are interned by order; get them through :func:`cyclotomic_field`.
    """

    def __init__(self, order: int):
        self.order = order
        self.minimal_polynomial = cyclotomic_polynomial(order)
        self.degree = euler_phi(order)
        assert self.minimal_polynomial.degree == self.degree
        # power_table[j] = coefficient vector of x^j mod Phi_N, as exact ints
        top = max(2 * self.degree - 1, order)
        phi_coeffs = [int(c) for c in self.minimal_polynomial.coeffs]
        table = [[0] * self.degree for _ in range(top)]
        table[0][0] = 1
        for j in range(1, top):
            shifted = [0] + table[j - 1][:]
            lead = shifted[self.degree] if len(shifted) > self.degree else 0
            if lead:
                for i in range(self.degree):
                    shifted[i] -= lead * phi_coeffs[i]
            table[j] = shifted[: self.degree]
        self._power_table = table

    def reduce(self, coeffs: list[Fraction]) -> "CyclotomicNumber":
        """Reduce a coefficient list of any length <= table size mod Phi_N."""
        out = [Fraction(0)] * self.degree
        for j, c in enumerate(coeffs):
            if c:
                row = self._power_table[j]
                for i in range(self.degree):
                    if row[i]:
                        out[i] += c * row[i]
        return CyclotomicNumber(self, tuple(out))

    def from_rational(self, value) -> "CyclotomicNumber":
        vec = [Fraction(0)] * self.degree
        vec[0] = Fraction(value)
        return CyclotomicNumber(self, tuple(vec))

    def zeta_power(self, exponent: int) -> "CyclotomicNumber":
        row = self._power_table[exponent % self.order]
        return CyclotomicNumber(self, tuple(Fraction(c) for c in row))

    def zeta(self) -> "CyclotomicNumber":
        return self.zeta_power(1)

    @property
    def zero(self) -> "CyclotomicNumber":
        return self.from_rational(0)

    @property
    def one(self) -> "CyclotomicNumber":
        return self.from_rational(1)

    def __repr__(self) -> str:
        return f"CyclotomicField({self.order})"


@lru_cache(maxsize=None)
def cyclotomic_field(order: int) -> CyclotomicField:
    return CyclotomicField(order)


@dataclass(frozen=True)
class CyclotomicNumber:
    field: CyclotomicField
    coeffs: tuple[Fraction, ...]

    def _coerce(self, other) -> "CyclotomicNumber":
        if isinstance(other, CyclotomicNumber):
            if other.field is not self.field:
                raise FieldMismatch(
                    f"mixing Q(zeta_{self.field.order}) with Q(zeta_{other.field.order})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other) -> "CyclotomicNumber":
        return (-self) + other

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "CyclotomicNumber":
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.field, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.field.degree
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return self.field.reduce(prod)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_N."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero in a cyclotomic field")
        r0, r1 = self.field.minimal_polynomial, Poly.of(*self.coeffs)
        t0, t1 = Poly.zero(), Poly.one()
        while r1.degree > 0:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        # r1 is a nonzero constant: Phi_N is irreducible over Q
        scale = r1.coeffs[0]
        inv = t1 * (1 / scale)
        vec = [inv.coefficient(i) for i in range(self.field.degree)]
        return CyclotomicNumber(self.field, tuple(vec))

    def __truediv__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CyclotomicNumber":
        return self.inverse() * other

    def __pow__(self, n: int) -> "CyclotomicNumber":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CyclotomicNumber) or other.field is not self.field:
            return False
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field.order, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def to_json(self) -> dict:
        return {
            "order": self.field.order,
            "coeffs": [format_rational(c) for c in self.coeffs],
        }

    def __repr__(self) -> str:
        return f"CyclotomicNumber(order={self.field.order}, coeffs={self.coeffs})"


def cyclotomic_from_json(doc: dict) -> CyclotomicNumber:
    field = cyclotomic_field(int(doc["order"]))
    coeffs = [parse_rational(c) for c in doc["coeffs"]]
    if len(coeffs) != field.degree:
        raise ValueError(f"expected {field.degree} coefficients for order {field.order}")
    return CyclotomicNumber(field, tuple(coeffs))


def embed_complex(a: CyclotomicNumber, k: int = 1) -> complex:
    """Evaluate the coefficient polynomial at exp(2*pi*i*k/N); k coprime to N."""
    n = a.field.order
    if math.gcd(k, n) != 1:
        raise NotAPrimitiveEmbedding(f"gcd({k}, {n}) != 1")
    root = cmath.exp(2j * cmath.pi * k / n)
    value = 0j
    for c in reversed(a.coeffs):
        value = value * root + complex(c)
    return value


def galois_conjugate(a: CyclotomicNumber, k: int) -> CyclotomicNumber:
    """Image of a under the field automorphism zeta -> zeta^k, gcd(k, N) = 1."""
    n = a.field.order
    if math.gcd(k, n) != 1:
        raise NotAPrimitiveEmbedding(f"gcd({k}, {n}) != 1")
    out = a.field.zero
    for j, c in enumerate(a.coeffs):
        if c:
            out = out + a.field.zeta_power(j * k) * c
    return out


def lift_to_field(a: CyclotomicNumber, target: CyclotomicField) -> CyclotomicNumber:
    """Embed Q(zeta_N) into Q(zeta_L) for N | L by zeta_N -> zeta_L^(L/N)."""
    if a.field is target:
        return a
    if target.order % a.field.order != 0:
        raise FieldMismatch(f"{a.field.order} does not divide {target.order}")
    step = target.order // a.field.order
    out = target.zero
    for j, c in enumerate(a.coeffs):
        if c:
            out = out + target.zeta_power(j * step) * c
    return out
