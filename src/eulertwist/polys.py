"""Dense univariate polynomials over the rationals.

Coefficients are stored constant-term first with trailing zeros trimmed, so
structural equality is mathematical equality.

>>> Poly.from_ints(-1, 0, 1) // Poly.from_ints(-1, 1)
Poly(1, 1)
>>> Poly.from_ints(1, 1).evaluate(Fraction(3))
Fraction(4, 1)
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistency


def _coerce(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    return Poly.of(value)


@dataclass(frozen=True)
class Poly:
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs) -> "Poly":
        vals = [Fraction(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        return Poly(tuple(vals))

    @staticmethod
    def from_ints(*coeffs: int) -> "Poly":
        return Poly.of(*coeffs)

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly.of(1)

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __add__(self, other: "Poly | int | Fraction") -> "Poly":
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.of(*(self.coefficient(i) + other.coefficient(i) for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other: "Poly | int | Fraction") -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Poly | int | Fraction") -> "Poly":
        return _coerce(other) + (-self)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly | int | Fraction") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly.of(*(c * other for c in self.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly.of(*out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial powers are undefined")
        result, base = Poly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        while len(rem) >= len(other.coeffs):
            factor = rem[-1] / lead
            shift = len(rem) - len(other.coeffs)
            quot[shift] = factor
            for j, b in enumerate(other.coeffs):
                rem[shift + j] -= factor * b
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                break
        return Poly.of(*quot), Poly.of(*rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def exact_div(self, other: "Poly") -> "Poly":
        """Division that must leave no remainder; raises otherwise."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise InternalInconsistency(f"inexact polynomial division, remainder {r}")
        return q

    def evaluate(self, x):
        """Horner evaluation; works for any value supporting + and *."""
        result = None
        for c in reversed(self.coeffs):
            result = c if result is None else result * x + c
        if result is None:
            return 0 * x
        return result

    def __repr__(self) -> str:
        body = ", ".join(str(c) if c.denominator != 1 else str(c.numerator) for c in self.coeffs)
        return f"Poly({body})"
