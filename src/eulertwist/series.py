"""Truncated formal power series over an exact field.

Coefficients are stored in ordinary t^n normalization (NOT divided by n!);
conversion to exponential-generating-function coefficients happens only in
:func:`nth_taylor_coefficient`.  Coefficient types mix freely as long as
they support field arithmetic: Fraction and CyclotomicNumber both do.
A power moment sum r x^j zeta_N^e is taken over (integer node x, rational r,
exponent e) triples in integers, one vector per moment reduced once mod Phi_N
(:func:`power_moments`), so no field element is formed per weight.
Exponential sums read it (:func:`exp_sum`), and a sum over a two-term
denominator unit * exp(node rate t) + c is divided out directly
(:func:`exp_quotient`), with no series inverse or series product.  A rational
combination of field elements is one integer vector over one common
denominator with one content gcd (:func:`linear_combination`).

>>> geometric = TruncatedSeries.of([1, -1], order=5).inverse()
>>> geometric.coeffs == (1, 1, 1, 1, 1)
True
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicNumber
from .errors import NonUnitConstantTerm, OrderTooLow


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple

    @staticmethod
    def of(coeffs, order: int | None = None) -> "TruncatedSeries":
        """Build from a coefficient list, zero-padded or cut to `order`."""
        vals = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        if order is not None:
            if order < 1:
                raise ValueError("series order must be >= 1")
            filler = _zero_like(vals[0]) if vals else Fraction(0)
            vals = (vals + [filler] * order)[:order]
        if not vals:
            raise ValueError("a truncated series needs at least one coefficient")
        return TruncatedSeries(tuple(vals))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        zero = _zero_like(self.coeffs[0] + other.coeffs[0])
        out = [zero] * n
        for i, a in enumerate(self.coeffs[:n]):
            if _is_zero(a):
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if not _is_zero(b):
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(tuple(out))

    def inverse(self) -> "TruncatedSeries":
        """Reciprocal series: b with self * b = 1 + O(t^order)."""
        a0 = self.coeffs[0]
        if _is_zero(a0):
            raise NonUnitConstantTerm("series inverse needs a nonzero constant term")
        inv0 = a0 ** (-1)
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
    rows = [(x, Fraction(r), e % field.order) for x, r, e in terms if r]
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


def linear_combination(scales, values):
    """sum s v over rational scales s and values v that are all rationals or
    all elements of one cyclotomic field, over one common denominator with
    one content gcd.

    >>> linear_combination([2, Fraction(1, 3)], [Fraction(1, 4), Fraction(3, 2)])
    Fraction(1, 1)
    """
    pairs = [(Fraction(s), v) for s, v in zip(scales, values) if s]
    if not isinstance(values[0], CyclotomicNumber):
        den = math.lcm(*(s.denominator * v.denominator for s, v in pairs))
        return Fraction(sum(s.numerator * v.numerator * (den // (s.denominator * v.denominator)) for s, v in pairs),
                        den)
    den = math.lcm(*(s.denominator * v.den for s, v in pairs))
    vec = [0] * values[0].field.degree
    for s, v in pairs:
        k = s.numerator * (den // (s.denominator * v.den))
        for i, c in enumerate(v.num):
            vec[i] += k * c
    return CyclotomicNumber(values[0].field, vec, den)


def exp_sum(field, terms, rate, order: int) -> TruncatedSeries:
    """The series of sum r zeta_N^e exp(x rate t) over the (integer node x,
    rational r, exponent e) triples of `terms`, in `field` = Q(zeta_N):
    coefficient j is rate^j / j! times power moment j.

    >>> from eulertwist.cyclotomic import cyclotomic_field
    >>> [str(c.coeffs[0]) for c in exp_sum(cyclotomic_field(1), [(1, 1, 0)], 1, 4).coeffs]
    ['1', '1', '1/2', '1/6']
    """
    if order < 1:
        raise ValueError("series order must be >= 1")
    rate = Fraction(rate)
    return TruncatedSeries(tuple(
        m * (rate**j / math.factorial(j)) for j, m in enumerate(power_moments(field, terms, order - 1))
    ))


def exp_quotient(field, terms, rate, unit, node: int, pivot_inv, order: int) -> TruncatedSeries:
    """The series of sum r zeta_N^e exp(x rate t) / (unit exp(node rate t) + c)
    over the (integer node x, rational r, exponent e) triples of `terms`, in
    `field` = Q(zeta_N), given pivot_inv = 1/(unit + c), the inverse of the
    denominator's constant term.

    Every later denominator coefficient is unit (node rate)^j / j!, so the
    quotient is one triangular division,

        F_n = (N_n - unit sum_(j=1..n) (node rate)^j / j! F_(n-j)) pivot_inv,

    with the inner sum one :func:`linear_combination` (one content gcd) and
    two field products per coefficient.  N_n is the numerator's
    :func:`exp_sum`.

    >>> from eulertwist.cyclotomic import cyclotomic_field
    >>> quotient = exp_quotient(cyclotomic_field(1), [(0, 2, 0)], 1, 1, 1, Fraction(1, 2), 4)  # 2 / (e^t + 1)
    >>> [str(c.coeffs[0]) for c in quotient.coeffs]
    ['1', '-1/2', '0', '1/24']
    """
    numerator = exp_sum(field, terms, rate, order).coeffs
    step = node * Fraction(rate)
    scales = [step**j / math.factorial(j) for j in range(order)]
    out = [numerator[0] * pivot_inv]
    for n in range(1, order):
        acc = linear_combination(scales[1 : n + 1], out[::-1])
        out.append((numerator[n] - unit * acc) * pivot_inv)
    return TruncatedSeries(tuple(out))


def nth_taylor_coefficient(series: TruncatedSeries, n: int):
    """n! times the ordinary coefficient: the coefficient of t^n/n!."""
    if n >= series.order:
        raise OrderTooLow(f"need order > {n}, series has order {series.order}")
    return math.factorial(n) * series.coeffs[n]


def _zero_like(x):
    return x * 0


def _is_zero(x) -> bool:
    return x == 0 or (hasattr(x, "is_zero") and x.is_zero())
