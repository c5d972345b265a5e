"""Truncated formal power series over an exact field.

Coefficients are stored in ordinary t^n normalization (NOT divided by n!);
conversion to exponential-generating-function coefficients happens only in
:func:`nth_taylor_coefficient`.  Coefficient types mix freely as long as
they support field arithmetic: Fraction and CyclotomicNumber both do.
Exponential sums come from one power-moment kernel (:func:`exp_sum`), and a
sum over a two-term denominator unit * exp(node rate t) + c is divided out
directly (:func:`exp_quotient`), with no series inverse or series product.

>>> geometric = TruncatedSeries.of([1, -1], order=5).inverse()
>>> geometric.coeffs == (1, 1, 1, 1, 1)
True
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

    @staticmethod
    def constant(value, order: int) -> "TruncatedSeries":
        zero = _zero_like(value)
        return TruncatedSeries.of([value] + [zero] * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self.coeffs[i] - other.coeffs[i] for i in range(n)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

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

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def to_json(self) -> dict:
        from .rationals import format_rational

        encoded = [
            c.to_json() if hasattr(c, "to_json") else format_rational(c) for c in self.coeffs
        ]
        return {"order": self.order, "coeffs": encoded}


def power_moments(terms, n_max: int) -> list:
    """[sum w x^j for j = 0..n_max] over the (integer node x, weight w)
    pairs of `terms`, with 0^0 = 1; zero weights are skipped and each weight
    enters by integer scalings alone.  The sums start from the zero of the
    first weight, or from the integer 0 when there are no terms.

    >>> power_moments([(0, Fraction(5)), (2, Fraction(1, 2)), (3, Fraction(0))], 3)
    [Fraction(11, 2), Fraction(1, 1), Fraction(2, 1), Fraction(4, 1)]
    """
    terms = list(terms)
    sums = [_zero_like(terms[0][1]) if terms else 0] * (n_max + 1)
    for x, w in terms:
        if _is_zero(w):
            continue
        sums[0] = sums[0] + w
        for j in range(1, n_max + 1 if x else 1):
            w = w * x
            sums[j] = sums[j] + w
    return sums


def exp_sum(terms, rate, order: int) -> TruncatedSeries:
    """The series of sum w exp(x rate t) over the (integer node x, weight w)
    pairs of `terms`: coefficient j is rate^j / j! times power moment j.

    >>> exp_sum([(1, Fraction(1))], Fraction(1), 4).coeffs
    (Fraction(1, 1), Fraction(1, 1), Fraction(1, 2), Fraction(1, 6))
    """
    if order < 1:
        raise ValueError("series order must be >= 1")
    rate = Fraction(rate)
    return TruncatedSeries(tuple(
        m * (rate**j / math.factorial(j)) for j, m in enumerate(power_moments(terms, order - 1))
    ))


def exp_quotient(terms, rate, unit, node: int, pivot_inv, order: int) -> TruncatedSeries:
    """The series of sum w exp(x rate t) / (unit exp(node rate t) + c) over the
    (integer node x, weight w) pairs of `terms`, given pivot_inv = 1/(unit + c),
    the inverse of the denominator's constant term.

    Every later denominator coefficient is unit (node rate)^j / j!, so the
    quotient is one triangular division,

        F_n = (N_n - unit sum_(j=1..n) (node rate)^j / j! F_(n-j)) pivot_inv,

    with rational scalings inside the sum and two field products per
    coefficient.  N_n is the numerator's :func:`exp_sum`.

    >>> exp_quotient([(0, Fraction(2))], 1, 1, 1, Fraction(1, 2), 4).coeffs  # 2 / (e^t + 1)
    (Fraction(1, 1), Fraction(-1, 2), Fraction(0, 1), Fraction(1, 24))
    """
    numerator = exp_sum(terms, rate, order).coeffs
    step = node * Fraction(rate)
    scales = [step**j / math.factorial(j) for j in range(order)]
    out = [numerator[0] * pivot_inv]
    for n in range(1, order):
        acc = out[n - 1] * scales[1]
        for j in range(2, n + 1):
            acc = acc + out[n - j] * scales[j]
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
