"""Classical Eulerian polynomials and the power-sum closed forms built on them.

A polynomial is a tuple of ints, constant term first.  The canonical
polynomials come from the umbral recurrence; the descent count over all
permutations of S_n is kept as a brute-force oracle.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce

from .cyclotomic import CyclotomicNumber, cyclotomic_field
from .errors import OracleTooLarge, PoleAtOne
from .series import power_moments


@lru_cache(maxsize=None)
def eulerian_recurrence(n: int) -> tuple[int, ...]:
    """A_n from the umbral recurrence sum_{k=0}^{n} C(n,k) A_k(t) (t-1)^(n-k)
    = t A_n(t) with (t - 1) cancelled: A_n = sum_{k<n} C(n,k) A_k(t)
    (t-1)^(n-1-k), by Horner in (t - 1) on integer coefficients, with no
    division.  The cache is write-once and safe to share.

    >>> eulerian_recurrence(0), eulerian_recurrence(4)
    ((1,), (1, 11, 11, 1))
    """
    if n < 0:
        raise ValueError("polynomial index must be >= 0")
    if n == 0:
        return (1,)
    acc = [1]  # acc and A_k have degree k - 1 at step k
    for k in range(1, n):  # acc <- acc t - acc + C(n,k) A_k
        acc = [a - b + math.comb(n, k) * c for a, b, c in zip([0, *acc], [*acc, 0], [*eulerian_recurrence(k), 0])]
    return tuple(acc)


def eulerian_at(n: int, x):
    """A_n(x) by Horner's rule, for any x supporting + and *.

    >>> eulerian_at(3, 2), eulerian_at(5, 1) == math.factorial(5)
    (13, True)
    """
    return reduce(lambda acc, c: acc * x + c, reversed(eulerian_recurrence(n)))


def descent_oracle(n: int) -> tuple[int, ...]:
    """Descent-statistic polynomial of S_n by full enumeration, 0 <= n <= 9; S_0 holds the one empty
    permutation, with no descent."""
    if not 0 <= n <= 9:
        raise OracleTooLarge(f"descent oracle enumerates n! permutations, n={n} unsupported")
    counts = [0] * max(n, 1)
    for perm in itertools.permutations(range(n)):
        descents = sum(1 for i in range(n - 1) if perm[i] > perm[i + 1])
        counts[descents] += 1
    return tuple(counts)


def power_sum_rational(j: int, w) -> Fraction:
    """Closed form of sum_{k>=0} k^j w^k at a rational w = a/b != 1: b/(b-a)
    for j = 0 and w A_j(w)/(1-w)^(j+1) = a b sum_i e_i a^i b^(j-1-i) / (b-a)^(j+1)
    for j >= 1, with A_j = sum_i e_i t^i from :func:`eulerian_recurrence`: the
    numerator by Horner's rule in a on integers, then one Fraction, one gcd.

    >>> [str(power_sum_rational(j, Fraction(1, 2))) for j in range(4)]
    ['2', '2', '6', '26']
    """
    if j < 0:
        raise ValueError("exponent must be >= 0")
    w = Fraction(w)
    if w == 1:
        raise PoleAtOne("power sum diverges at w = 1")
    a, b = w.numerator, w.denominator
    if j == 0:
        return Fraction(b, b - a)
    total, scale = 0, 1  # scale = b^(j-1-i) at coefficient e_i
    for e in reversed(eulerian_recurrence(j)):
        total = total * a + e * scale
        scale *= b
    return Fraction(a * b * total, (b - a) ** (j + 1))


def periodic_power_sums(field, terms, period: int, n_max: int, z) -> list:
    """Exact values S_n of sum_{m>=1} c(m) m^n z^m for n = 0..n_max and a
    rational z, for a coefficient sequence of period P in `field` =
    Q(zeta_N): c(m) for 1 <= m <= P is the sum of r zeta_N^e over the
    (m, rational r, exponent e) triples of `terms`.

    Regrouping m = l + j*P gives S_n = sum_k C(n,k) P^k T_k B_(n-k), with the
    tails T_k = :func:`power_sum_rational` (k, z^P) and the residue moments
    B_i = sum_l c(l) z^l l^i each built once for all n.  With z = u/v, v^P B_i
    are the :func:`~eulertwist.series.power_moments` of the integer-scaled
    weights r u^l v^(P-l), raw integer rows over one denominator, so no
    weight carries a power of v of its own, and each S_n is one integer
    combination of those rows, canonicalised once.  The tails P^k T_k / v^P
    enter over the common denominator
    |v^P - u^P|^(n+1), which each of them divides: each is lifted to it
    once by exact divisions, then by one product with |v^P - u^P| per step
    in n, so no S_n divides its denominator by a tail's.
    """
    if period < 1:
        raise ValueError("need at least one coefficient")
    z = Fraction(z)
    u, v, w = z.numerator, z.denominator, z**period
    scaled, scale, at = [], w.denominator, 0  # scale = u^at v^(P-at)
    for m, r, e in sorted(terms):
        if not 1 <= m <= period:
            raise ValueError(f"node {m} lies outside the period 1..{period}")
        while at < m:
            scale, at = scale // v * u, at + 1
        scaled.append((m, r * scale, e))
    moments, moment_den = power_moments(field, scaled, n_max)
    step = abs(w.denominator - w.numerator)
    sums, den, lifted = [], 1, []  # den = |v^P - u^P|^(n+1); lifted[k] = den P^k T_k / v^P
    for n in range(n_max + 1):
        tail = power_sum_rational(n, w)  # its numerator keeps the factor v^P: v^P and v^P - u^P are coprime
        den *= step
        lifted = [c * step for c in lifted] + [tail.numerator // w.denominator * period**n * (den // tail.denominator)]
        scales = [math.comb(n, k) * c for k, c in enumerate(lifted)]
        num = [sum(map(operator.mul, scales, entries)) for entries in zip(*moments[n::-1])]
        sums.append(CyclotomicNumber(field, num, moment_den * den))
    return sums


def periodic_power_sum(cycle, n: int, z):
    """S_n alone, for one period `cycle` (cycle[i] = c(i+1)) of rationals or
    elements of one cyclotomic field, each entering by its power-basis
    coefficients; see :func:`periodic_power_sums`."""
    field = next((c.field for c in cycle if isinstance(c, CyclotomicNumber)), cyclotomic_field(1))
    terms = [(m, r, e) for m, c in enumerate(cycle, 1) for e, r in enumerate(getattr(c, "coeffs", (c,)))]
    return periodic_power_sums(field, terms, len(cycle), n, z)[n]
