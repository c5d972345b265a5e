"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are residues modulo the N-th cyclotomic polynomial Phi_N over the
power basis 1, zeta, ..., zeta^(phi(N)-1).  Working modulo Phi_N rather than
x^N - 1 keeps the ring a field, so power-series constant terms stay
invertible.

An element a = (num_0 + num_1 zeta + ... ) / den is stored as one integer
numerator vector ``num`` over one integer denominator ``den`` (the layout of
ANTIC's ``nf_elem``; Cohen, *A Course in Computational Algebraic Number
Theory*, 4.2).  The form is canonical: ``den > 0`` and
``gcd(den, *num) == 1``, so zero is ``(0, ..., 0) / 1`` and structural
equality is equality in the field.  Every operation works on integers and
divides out the content gcd once at the end; ``coeffs`` gives the same
element as a tuple of Fractions.

The class of x itself is a primitive N-th root of unity; the complex
embedding sends it to exp(2*pi*i/N).
"""
from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, FieldMismatch, NotAPrimitiveEmbedding, OutsideDoubleRange
from .ntheory import euler_phi, factorize
from .rationals import format_rational


def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Phi_order as integer coefficients, constant term first.

    For order > 1, Phi_order is the Moebius product of (1 - x^e)^mu(order/e)
    over the divisors e, taken as a power series cut after degree
    phi(order); the cut is exact because Phi_order has that degree.  Only
    squarefree order/e count: e = order/prod(S) for a set S of order's
    primes, with mu(order/e) = (-1)^|S|.  Each factor is one in-place pass:
    multiplying by 1 - x^e runs down, dividing by it (multiplying by
    1 + x^e + x^2e + ...) runs up.

    >>> cyclotomic_polynomial(1), cyclotomic_polynomial(6)
    ((-1, 1), (1, -1, 1))
    >>> cyclotomic_polynomial(105)[7]
    -2
    """
    if order < 1:
        raise ValueError("cyclotomic polynomial order must be >= 1")
    if order == 1:
        return (-1, 1)
    degree, primes = euler_phi(order), list(factorize(order))
    c = [1] + [0] * degree
    for size in range(len(primes) + 1):
        for subset in itertools.combinations(primes, size):
            e = order // math.prod(subset)
            if size % 2 == 0:
                for i in range(degree, e - 1, -1):
                    c[i] -= c[i - e]
            else:
                for i in range(e, degree + 1):
                    c[i] += c[i - e]
    return tuple(c)


class CyclotomicField:
    """Q(zeta_N) with one table of x^j mod Phi_N, held as sparse rows.

    Instances are interned by order; get them through :func:`cyclotomic_field`.
    """

    def __init__(self, order: int):
        self.order = order
        self.minimal_polynomial = phi_coeffs = cyclotomic_polynomial(order)
        n = self.degree = euler_phi(order)
        assert len(phi_coeffs) == n + 1 and phi_coeffs[-1] == 1
        # _high_rows[j - D] = the nonzero (index, int) entries of x^j mod Phi_N, D <= j < max(2D - 1, N): x times
        # a row shifts its entries up one place and folds the top one back through x^D = -(Phi_N - x^D), row 0.
        row, self._high_rows = tuple((i, -c) for i, c in enumerate(phi_coeffs[:-1]) if c), []
        for _ in range(max(2 * n - 1, order) - n):
            self._high_rows.append(row)
            *low, (i, lead) = row
            if i < n - 1:
                row = tuple([(i + 1, c) for i, c in row])
            else:
                acc = {i: lead * c for i, c in self._high_rows[0]}
                for i, c in low:
                    acc[i + 1] = acc.get(i + 1, 0) + c
                row = tuple(sorted((i, c) for i, c in acc.items() if c))

    def _row(self, j: int):
        """x^j mod Phi_N as (index, int) pairs, for 0 <= j < max(2D - 1, N)."""
        return self._high_rows[j - self.degree] if j >= self.degree else ((j, 1),)

    def _fold(self, vec: list[int]) -> list[int]:
        """vec mod Phi_N as D ints, for an integer vector of length <= max(2D - 1, N), entry j >= D folded
        in through row j - D; ``binomial_inverse`` and ``_substitute`` pass length N, one slot per exponent."""
        n = self.degree
        out = vec[:n] + [0] * (n - len(vec))
        for c, row in zip(vec[n:], self._high_rows):
            if c:
                for i, r in row:
                    out[i] += c * r
        return out

    def _reduce_ints(self, vec: list[int], den: int) -> "CyclotomicNumber":
        """vec / den mod Phi_N, in canonical form (see :meth:`_fold`)."""
        return CyclotomicNumber(self, self._fold(vec), den)

    def _mul_ints(self, a, b) -> list[int]:
        """a b mod Phi_N for two integer vectors of length D, as D ints with no content divided out: the
        product of ``CyclotomicNumber.__mul__`` and of ``fermionic.residue_class_sums``.  The triangular
        solve ``series.binomial_solve`` multiplies by one fixed factor many times, through
        :meth:`_product_columns` instead."""
        right = [(j, y) for j, y in enumerate(b) if y]
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in right:
                    prod[i + j] += x * y
        return self._fold(prod)

    def _product_columns(self, b) -> list[tuple]:
        """The matrix of a -> a b mod Phi_N for an integer vector b of length D, by columns: column j
        holds entry j of x^i b mod Phi_N for i = 0..D-1, so entry j of a b is
        sum(map(operator.mul, column_j, a)), with no fold per product."""
        rows = [list(b)]
        for _ in range(self.degree - 1):
            *low, top = rows[-1]
            row = [0, *low]
            if top:
                for i, c in self._high_rows[0]:
                    row[i] += top * c
            rows.append(row)
        return list(zip(*rows))

    def binomial_inverse(self, c0, c1, k: int) -> "CyclotomicNumber":
        """1 / (c0 + c1 zeta^k) for rationals c0, c1, where w = zeta^k has odd order m.

        With w^m = 1, (c0 + c1 w) sum_(i<m) c0^(m-1-i) (-c1)^i w^i = c0^m - (-c1)^m, so the
        inverse is m rows x^(k i) mod Phi_N scaled by integers, with no linear algebra.  For odd m
        the right side vanishes only at c0 = -c1; for even m it can vanish while c0 + c1 w does
        not (1 + i in Q(zeta_4)), so even m is refused.

        >>> field = cyclotomic_field(3)
        >>> inv = field.binomial_inverse(2, 1, 1)
        >>> inv.coeffs, inv * (2 + field.zeta_power(1)) == 1
        ((Fraction(1, 3), Fraction(-1, 3)), True)
        """
        order = self.order
        m = order // math.gcd(k, order)
        if m % 2 == 0:
            raise ValueError(f"zeta^{k} has even order {m}; the geometric series needs an odd order")
        c0, c1 = Fraction(c0), Fraction(c1)
        # Over the integers: c0 = a / (den0 den1) and -c1 = b / (den0 den1).
        a, b = c0.numerator * c1.denominator, -c1.numerator * c0.denominator
        norm = a**m - b**m
        if norm == 0:
            raise DivisionByZero(f"c0^{m} = (-c1)^{m}: no geometric-series inverse of c0 + c1 zeta^{k}")
        powers_of_a = [1]
        for _ in range(m - 1):
            powers_of_a.append(powers_of_a[-1] * a)
        vec = [0] * order
        term, j = c0.denominator * c1.denominator, 0  # term = den0 den1 b^i; j = k i mod order
        for a_power in reversed(powers_of_a):
            vec[j] += a_power * term
            term, j = term * b, (j + k) % order
        return self._reduce_ints(vec, norm)

    def from_rational(self, value) -> "CyclotomicNumber":
        value = Fraction(value)
        return _make(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)

    def zeta_power(self, exponent: int) -> "CyclotomicNumber":
        num = [0] * self.degree
        for i, c in self._row(exponent % self.order):
            num[i] = c
        return _make(self, tuple(num), 1)

    @property
    def zero(self) -> "CyclotomicNumber":
        return self.from_rational(0)

    def __repr__(self) -> str:
        return f"CyclotomicField({self.order})"


@lru_cache(maxsize=None)
def cyclotomic_field(order: int) -> CyclotomicField:
    return CyclotomicField(order)


class CyclotomicNumber:
    """num / den in Q(zeta_N), canonical; immutable after construction."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, num, den: int = 1):
        """The element num / den, from any integer vector of length
        field.degree and any nonzero integer den."""
        if len(num) != field.degree:
            raise ValueError(f"expected {field.degree} coefficients for order {field.order}")
        if den == 0:
            raise DivisionByZero("zero denominator in a cyclotomic number")
        g = math.gcd(den, *num)  # also rejects entries that are not ints
        if den < 0:
            g = -g
        self.field = field
        self.num = tuple(num) if g == 1 else tuple([c // g for c in num])
        self.den = den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

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
        da, db = self.den, other.den
        return CyclotomicNumber(self.field, [x * db + y * da for x, y in zip(self.num, other.num)], da * db)

    __radd__ = __add__

    def __sub__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "CyclotomicNumber":
        return (-self) + other

    def __neg__(self) -> "CyclotomicNumber":
        return _make(self.field, tuple([-a for a in self.num]), self.den)

    def __mul__(self, other) -> "CyclotomicNumber":
        if isinstance(other, (int, Fraction)):
            # With gcd(den, num) = 1 and gcd(p, q) = 1, the content of
            # (p*num)/(den*q) is gcd(den, p) * gcd(q, num).
            p, q = other.numerator, other.denominator
            g, h = math.gcd(self.den, p), math.gcd(q, *self.num)
            k = p // g
            return _make(self.field, tuple([a // h * k for a in self.num]), self.den // g * (q // h))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(self.field, self.field._mul_ints(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse by the norm: for b = num (over denominator
        1), b times rest = prod_(k != 1) sigma_k(b) over the units k mod N is
        the rational integer N(b) (Washington, *Introduction to Cyclotomic
        Fields*, ch. 2), so 1/a = rest * den / N(b).  The conjugates come in
        pairs sigma_k, sigma_(N-k), so rest is sigma_(N-1)(b) times the
        product of sigma_k(b sigma_(N-1)(b)) over the units 1 < k < N/2."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero in a cyclotomic field")
        field, num, den = self.field, self.num, self.den
        order = field.order
        if not any(num[1:]):
            return field.from_rational(Fraction(den, num[0]))
        b = _make(field, num, 1)
        rest = _substitute(b, field, order - 1)
        real = b * rest
        for k in range(2, (order + 1) // 2):
            if math.gcd(k, order) == 1:
                rest = rest * _substitute(real, field, k)
        return rest * Fraction(den, (b * rest).num[0])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CyclotomicNumber) or other.field is not self.field:
            return False
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.field.order, self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def to_json(self) -> dict:
        return {
            "order": self.field.order,
            "coeffs": [format_rational(c) for c in self.coeffs],
        }

    def __repr__(self) -> str:
        return f"CyclotomicNumber(order={self.field.order}, coeffs={self.coeffs})"


def _make(field: CyclotomicField, num: tuple, den: int) -> CyclotomicNumber:
    """Wrap a vector already in canonical form."""
    out = object.__new__(CyclotomicNumber)
    out.field, out.num, out.den = field, num, den
    return out


def embed_complex(a: CyclotomicNumber) -> complex:
    """Evaluate the coefficient polynomial at exp(2*pi*i/N).
    OutsideDoubleRange when a coefficient or the value exceeds double range."""
    root = cmath.exp(2j * cmath.pi / a.field.order)
    den = a.den
    value = 0j
    try:
        for c in reversed(a.num):
            # int / int is correctly rounded: the same float as float(Fraction)
            value = value * root + complex(c / den)
    except OverflowError as exc:
        raise OutsideDoubleRange("a coefficient exceeds double range") from exc
    if not cmath.isfinite(value):
        raise OutsideDoubleRange("the complex value exceeds double range")
    return value


def galois_conjugate(a: CyclotomicNumber, k: int) -> CyclotomicNumber:
    """Image of a under the field automorphism zeta -> zeta^k, gcd(k, N) = 1."""
    n = a.field.order
    if math.gcd(k, n) != 1:
        raise NotAPrimitiveEmbedding(f"gcd({k}, {n}) != 1")
    return _substitute(a, a.field, k)


def lift_to_field(a: CyclotomicNumber, target: CyclotomicField) -> CyclotomicNumber:
    """Embed Q(zeta_N) into Q(zeta_L) for N | L by zeta_N -> zeta_L^(L/N)."""
    if a.field is target:
        return a
    if target.order % a.field.order != 0:
        raise FieldMismatch(f"{a.field.order} does not divide {target.order}")
    return _substitute(a, target, target.order // a.field.order)


def _substitute(a: CyclotomicNumber, target: CyclotomicField, e: int) -> CyclotomicNumber:
    """a(zeta_N) with zeta_N -> zeta_L^e in Q(zeta_L): the numerator entry j
    goes to index j*e mod L, and the vector is reduced once over a.den."""
    vec = [0] * target.order
    for j, c in enumerate(a.num):
        if c:
            vec[j * e % target.order] += c
    return target._reduce_ints(vec, a.den)
