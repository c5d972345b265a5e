"""Truncated formal power series, and the integer kernels behind every A_n
and every moment.

Coefficients of a :class:`TruncatedSeries` are stored in ordinary t^n
normalization (NOT divided by n!); :func:`nth_taylor_coefficient` gives
the coefficient of t^n/n!.  Coefficients are rationals or elements of one
cyclotomic field.

The paper's A_n (the Taylor coefficients of the twisted generating
function) and its fermionic moments (the one-step and d-step functional
equations) solve one monic binomial triangular system, and it runs once,
on the integer layout num / den of :mod:`eulertwist.cyclotomic`:

* a power moment sum r x^j zeta_N^e over (integer node x, rational r,
  exponent e) triples is one raw integer row per moment over one common
  denominator, each term's slot read as its row mod Phi_N once per call
  (:func:`power_moments`);
* the system (1 + c zeta_N^k) x_n = R_n - sum_(j<n) C(n,j) (a/b)^(n-j) x_j
  is solved fraction-free: its pivot inverted once, every x_n an integer
  vector over the known denominator den rho^(n+1) b^n, its scales integers
  from one power table, each product by the pivot's inverse one pass over a
  matrix built once per solve, each output canonicalised once
  (:func:`binomial_solve`).

Every caller makes its system monic: a denominator unit zeta_N^k times a
rational divides the right side's weights and exponents (an exponent shift
-k in the triples of :func:`power_moments`), so the caller states its pivot
1 + c zeta_N^(-k) as the pair (c, -k) and no step multiplies by the unit.  No program path
multiplies or inverts a whole series; the benchmark's spans and the tests
read those two.

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


def power_moments(field, terms, n_max: int) -> tuple[list[list[int]], int]:
    """[sum r x^j zeta_N^e for j = 0..n_max] in `field` = Q(zeta_N) over the
    (integer node x, rational r, exponent e) triples of `terms`, 0^0 = 1, as
    raw integer rows of length D over one common denominator, no content
    divided out.  Each term's slot e mod N is read as its row x^e mod Phi_N
    once per call and added, scaled, into its node's weight; moment j is
    then sum_x x^j w_x, one ``sum(map(mul, ...))`` per entry: no fold and no
    field element per moment.

    >>> from eulertwist.cyclotomic import cyclotomic_field
    >>> power_moments(cyclotomic_field(1), [(0, 5, 0), (2, Fraction(1, 2), 7)], 3)
    ([[11], [2], [4], [8]], 2)
    """
    order, degree = field.order, field.degree
    terms = [(x, r, e) for x, r, e in terms if r]
    den = math.lcm(*{r.denominator for _, r, _ in terms})
    weights: dict = {}
    for x, r, e in terms:
        w, a = weights.setdefault(x, [0] * degree), r.numerator * (den // r.denominator)
        for i, c in field._row(e % order):
            w[i] += a * c
    nodes, columns = list(weights), list(zip(*weights.values())) or [()] * degree
    rows, powers = [], [1] * len(nodes)
    for _ in range(n_max + 1):
        rows.append([sum(map(operator.mul, column, powers)) for column in columns])
        powers = list(map(operator.mul, powers, nodes))
    return rows, den


def binomial_solve(field, rows, den: int, step: tuple[int, int], pivot: tuple) -> list[CyclotomicNumber]:
    """x_0, x_1, ... in `field` = Q(zeta_N) of the monic binomial triangular system

        (1 + c zeta_N^k) x_n = R_n - sum_(j<n) C(n,j) (a/b)^(n-j) x_j,

    R_n = rows[n] / (den b^n) for raw integer rows of length D, the step a/b
    an integer pair with b > 0 (not reduced: b is the base of the right
    sides' denominators too), and the pivot a rational c and an exponent k,
    inverted once as P / rho (``CyclotomicField.binomial_inverse``).  The
    one solve behind A_n (the Taylor coefficients of the generating
    function, step d times the rate) and both moment equations (step 1 and
    step d).

    Fraction-free: every x_n is the integer vector X_n over the known
    denominator den rho^(n+1) b^n, so

        X_n = (rho^n R'_n - sum_(j<n) C(n,j) a^(n-j) rho^(n-j-1) X_j) P mod Phi_N,

    R'_n = rows[n], its scales integers read from one power table and no
    step taking an lcm or a gcd.  Each entry of the product by P is one
    ``sum(map(mul, ...))`` over a column of P's multiplication matrix
    (``CyclotomicField._product_columns``), built once per solve.  Each
    output is canonicalised once, by the
    :class:`~eulertwist.cyclotomic.CyclotomicNumber` constructor.

    >>> from eulertwist.cyclotomic import cyclotomic_field
    >>> # the Taylor coefficients of 2 / (e^t + 1), pivot 1 + 1:
    >>> [str(x.coeffs[0]) for x in binomial_solve(cyclotomic_field(1), [[2], [0], [0], [0]], 1, (1, 1), (1, 0))]
    ['1', '-1/2', '0', '1/4']
    """
    (a, b), pivot_inv = step, field.binomial_inverse(*pivot)
    rho, columns = pivot_inv.den, field._product_columns(pivot_inv.num)
    lower = [None]  # lower[j] = -a^j rho^(j-1)
    solved, out, rho_n, scale = [], [], 1, den * rho  # rho_n = rho^n, scale = den rho^(n+1) b^n
    for n, row in enumerate(rows):
        if n:
            lower.append(-a if n == 1 else lower[-1] * a * rho)
        scales = [rho_n] + [math.comb(n, k) * lower[n - k] for k in range(n)]
        acc = [sum(map(operator.mul, scales, entries)) for entries in zip(row, *solved)]
        solved.append([sum(map(operator.mul, column, acc)) for column in columns])
        out.append(CyclotomicNumber(field, solved[-1], scale))
        rho_n, scale = rho_n * rho, scale * rho * b
    return out


def nth_taylor_coefficient(series: TruncatedSeries, n: int):
    """n! times the ordinary coefficient: the coefficient of t^n/n!."""
    if n >= series.order:
        raise OrderTooLow(f"need order > {n}, series has order {series.order}")
    return math.factorial(n) * series.coeffs[n]
