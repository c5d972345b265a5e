"""Truncated formal power series over an exact field.

Coefficients are stored in ordinary t^n normalization (NOT divided by n!);
conversion to exponential-generating-function coefficients happens only in
:func:`nth_taylor_coefficient`.  Coefficients are rationals or elements
of one cyclotomic field.

The exponential sums and quotients behind every A_n run on the integer
layout num / den of :mod:`eulertwist.cyclotomic`, not on Fractions or one
canonical field element per intermediate:

* a power moment sum r x^j zeta_N^e over (integer node x, rational r,
  exponent e) triples is one integer vector per moment, reduced once mod
  Phi_N (:func:`power_moments`);
* the scales x^j / j! are integer pairs, formed once per call
  (:func:`exp_scales`);
* a rational combination of field elements is one integer vector over one
  common denominator (:func:`integer_combination`);
* one step of a monic triangular division, (sum_j s_j v_j) pivot_inv with
  the right side as the first term and the lower terms under negated
  scales, is one integer combination, one content gcd and one product by
  pivot_inv, wrapped once (:func:`divide_step`).

:func:`exp_quotient` divides an exponential sum by a two-term denominator
exp(node rate t) + c with these steps, with no series inverse or series
product, and ``fermionic._binomial_solve`` takes the same step.  Every
caller makes its division monic: a denominator unit zeta_N^k times a
rational divides the numerator's weights and exponents (an exponent shift
-k in the triples of :func:`power_moments`) and the constant term, so the
pivot is 1 + c zeta_N^(-k) and no step multiplies by the unit.
No program path multiplies or inverts a whole series; the benchmark's spans
and the tests read those two.

>>> geometric = TruncatedSeries((1, -1, 0, 0, 0)).inverse()
>>> geometric.coeffs == (1, 1, 1, 1, 1)
True
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicNumber
from .errors import NonUnitConstantTerm, OrderTooLow


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        zero = (self.coeffs[0] + other.coeffs[0]) * 0
        out = [zero] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(tuple(out))

    def inverse(self) -> "TruncatedSeries":
        """Reciprocal series: b with self * b = 1 + O(t^order)."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise NonUnitConstantTerm("series inverse needs a nonzero constant term")
        inv0 = a0.inverse() if isinstance(a0, CyclotomicNumber) else Fraction(1, a0)
        out = [inv0]
        for n in range(1, self.order):
            acc = None
            for j in range(1, n + 1):
                term = self.coeffs[j] * out[n - j]
                acc = term if acc is None else acc + term
            out.append(-inv0 * acc)
        return TruncatedSeries(tuple(out))


def power_moments(field, terms, n_max: int) -> list:
    """[sum r x^j zeta_N^e for j = 0..n_max] in `field` = Q(zeta_N) over the
    (integer node x, rational r, exponent e) triples of `terms`, 0^0 = 1.
    Every r is scaled to one common denominator, and moment j adds r x^j
    into slot e mod N of one integer vector, reduced mod Phi_N once with one
    content gcd: no field element is formed per term.

    >>> from eulertwist.cyclotomic import cyclotomic_field
    >>> [str(m.coeffs[0]) for m in power_moments(cyclotomic_field(1), [(0, 5, 0), (2, Fraction(1, 2), 7)], 3)]
    ['11/2', '1', '2', '4']
    """
    rows = [(x, r, e % field.order) for x, r, e in terms if r]
    den = math.lcm(*{r.denominator for _, r, _ in rows})
    rows = [(x, r.numerator * (den // r.denominator), e) for x, r, e in rows]
    moments = []
    for _ in range(n_max + 1):
        vec = [0] * field.order
        for _, a, e in rows:
            vec[e] += a
        moments.append(field._reduce_ints(vec, den))
        rows = [(x, a * x, e) for x, a, e in rows if x]
    return moments


def integer_combination(scales, values) -> tuple[list[int], int]:
    """sum (a/b) v over integer pairs (a, b), b > 0, and elements v of one
    cyclotomic field, as one integer vector over one common denominator,
    its content not divided out.

    >>> from eulertwist.cyclotomic import cyclotomic_field
    >>> half, third = (cyclotomic_field(1).from_rational(Fraction(1, k)) for k in (2, 3))
    >>> integer_combination([(2, 1), (3, 4)], [half, third])  # 2/2 + 3/12 = 15/12, content 3 kept
    ([15], 12)
    """
    dens = [b * v.den for (_, b), v in zip(scales, values)]
    den = math.lcm(*dens)
    ks = [a * (den // b) for (a, _), b in zip(scales, dens)]
    return [sum(map(operator.mul, ks, column)) for column in zip(*(v.num for v in values))], den


def divide_step(scales, values, pivot_inv) -> CyclotomicNumber:
    """(sum_j s_j v_j) pivot_inv for integer-pair scales s_j matched to field
    elements v_j and a field element pivot_inv: one step of a monic
    triangular division, its right side the first term and its lower terms
    under negated scales.  The sum is one :func:`integer_combination` with
    one content gcd; the product by pivot_inv is one raw integer product
    reduced mod Phi_N (``CyclotomicField._mul_ints``), wrapped once.

    >>> from eulertwist.cyclotomic import cyclotomic_field
    >>> one = cyclotomic_field(1).from_rational(1)
    >>> divide_step([(3, 1), (-1, 2)], [one, one], one * Fraction(1, 5))  # (3 - 1/2) / 5
    CyclotomicNumber(order=1, coeffs=(Fraction(1, 2),))
    """
    num, den = integer_combination(scales, values)
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    field = pivot_inv.field
    return CyclotomicNumber(field, field._mul_ints(num, pivot_inv.num), den * pivot_inv.den)


def exp_scales(x, order: int) -> list[tuple[int, int]]:
    """x^j / j! for j < order and a rational x, as reduced integer pairs
    (numerator, denominator).

    >>> exp_scales(Fraction(-2, 3), 4)
    [(1, 1), (-2, 3), (2, 9), (-4, 81)]
    """
    p, q = x.numerator, x.denominator
    out = [(1, 1)]
    for j in range(1, order):
        a, b = out[-1]
        a, b = a * p, b * q * j
        g = math.gcd(a, b)
        out.append((a // g, b // g))
    return out


def exp_quotient(field, terms, rate, node: int, pivot_inv, order: int, scale=1) -> TruncatedSeries:
    """The series of scale * sum r zeta_N^e exp(x rate t) / (exp(node rate t) + c)
    over the (integer node x, rational r, exponent e) triples of `terms`, in
    `field` = Q(zeta_N), for a rational scale, given the field element
    pivot_inv = 1/(1 + c), the inverse of the denominator's constant term.
    A denominator u exp(node rate t) + c', u a rational times zeta_N^k, is
    made monic by its caller: the exponents of `terms` shifted by -k, the
    rationals and c' divided by the rational.

    Every later denominator coefficient is (node rate)^j / j!, so the
    quotient is one monic triangular division,

        F_n = (N_n - sum_(j=1..n) (node rate)^j / j! F_(n-j)) pivot_inv,

    N_n = scale rate^n / n! M_n for the power moments M_n of `terms`.  Formed
    once per call: the moments (one :func:`power_moments` call) and the
    scales -(node rate)^j / j! and scale rate^j / j! as integer pairs
    (:func:`exp_scales`).  Each F_n is then one :func:`divide_step`, M_n its
    first term: one field product per coefficient.

    >>> from eulertwist.cyclotomic import cyclotomic_field
    >>> field = cyclotomic_field(1)  # 2 / (e^t + 1):
    >>> quotient = exp_quotient(field, [(0, 2, 0)], 1, 1, field.from_rational(Fraction(1, 2)), 4)
    >>> [str(c.coeffs[0]) for c in quotient.coeffs]
    ['1', '-1/2', '0', '1/24']
    """
    if order < 1:
        raise ValueError("series order must be >= 1")
    steps = [(-a, b) for a, b in exp_scales(node * rate, order)]
    rates = [(a * scale.numerator, b * scale.denominator) for a, b in exp_scales(rate, order)]
    out: list = []
    for m, first in zip(power_moments(field, terms, order - 1), rates):
        out.append(divide_step([first, *steps[1 : len(out) + 1]], [m, *reversed(out)], pivot_inv))
    return TruncatedSeries(tuple(out))


def nth_taylor_coefficient(series: TruncatedSeries, n: int):
    """n! times the ordinary coefficient: the coefficient of t^n/n!."""
    if n >= series.order:
        raise OrderTooLow(f"need order > {n}, series has order {series.order}")
    return math.factorial(n) * series.coeffs[n]
