"""Classical Eulerian polynomials and the power-sum closed forms built on them.

The canonical polynomials come from the umbral recurrence; the descent count
over all permutations of S_n is kept as a brute-force oracle, and the
exponential generating function can be expanded under either sign
convention for the exponent.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistency, OracleTooLarge, PoleAtOne
from .polys import Poly
from .series import power_moments

GF_RECURRENCE = "recurrence-consistent"
GF_AS_PRINTED = "as-printed"


@lru_cache(maxsize=None)
def eulerian_recurrence(n: int) -> Poly:
    """A_n from the umbral recurrence sum_{k=0}^{n} C(n,k) A_k(t) (t-1)^(n-k)
    = t A_n(t) with (t - 1) cancelled: A_n = sum_{k<n} C(n,k) A_k(t)
    (t-1)^(n-1-k), by Horner in (t - 1) on integer coefficients, with no
    division.  The cache is write-once and safe to share.
    """
    if n < 0:
        raise ValueError("polynomial index must be >= 0")
    if n == 0:
        return Poly.one()
    acc = [1]  # constant term first; acc and A_k have degree k - 1 at step k
    for k in range(1, n):  # acc <- acc t - acc + C(n,k) A_k
        lower = [int(c) for c in eulerian_recurrence(k).coeffs] + [0]
        acc = [a - b + math.comb(n, k) * c for a, b, c in zip([0, *acc], [*acc, 0], lower)]
    return Poly.of(*acc)


def descent_oracle(n: int) -> Poly:
    """Descent-statistic polynomial of S_n by full enumeration, 1 <= n <= 9."""
    if not 1 <= n <= 9:
        raise OracleTooLarge(f"descent oracle enumerates n! permutations, n={n} unsupported")
    counts = [0] * n
    for perm in itertools.permutations(range(n)):
        descents = sum(1 for i in range(n - 1) if perm[i] > perm[i + 1])
        counts[descents] += 1
    return Poly.from_ints(*counts)


def eulerian_gf_coefficients(n_max: int, convention: str = GF_RECURRENCE) -> list[Poly]:
    """Polynomials read off the exponential generating function
    (1-x)/(e^(t(x-1)) - x), or its sign-flipped variant (1-x)/(e^(t(1-x)) - x)
    under the "as-printed" convention (which yields (-1)^n times the other).
    """
    if convention not in (GF_RECURRENCE, GF_AS_PRINTED):
        raise ValueError(f"unknown convention {convention!r}")
    sign = 1 if convention == GF_RECURRENCE else -1
    # After factoring out the constant term the denominator is
    # 1 - sum_{j>=1} sign^j (x-1)^(j-1) t^j / j!, a unit over Q[x].
    x_minus_1 = Poly.of(-1, 1)
    s = [Poly.zero()]
    for j in range(1, n_max + 1):
        s.append(x_minus_1 ** (j - 1) * (Fraction(sign**j, math.factorial(j))))
    coeffs = [Poly.one()]
    for n in range(1, n_max + 1):
        acc = Poly.zero()
        for j in range(1, n + 1):
            acc = acc + s[j] * coeffs[n - j]
        coeffs.append(acc)
    out = []
    for n, c in enumerate(coeffs):
        poly = math.factorial(n) * c
        if not poly.is_integral():
            raise InternalInconsistency(f"generating function gave non-integer A_{n}")
        out.append(poly)
    return out


def power_sum_rational(j: int, w):
    """Closed form of sum_{k>=0} k^j w^k: 1/(1-w) for j = 0 and
    w A_j(w)/(1-w)^(j+1) for j >= 1; any field element w != 1."""
    if j < 0:
        raise ValueError("exponent must be >= 0")
    if w == 1:
        raise PoleAtOne("power sum diverges at w = 1")
    one = w**0
    inv = (one - w) ** (-1)
    if j == 0:
        return inv
    return w * eulerian_recurrence(j).evaluate(w) * inv ** (j + 1)


def periodic_power_sums(cycle, n_max: int, z) -> list:
    """Exact values S_n of sum_{m>=1} c(m) m^n z^m for n = 0..n_max, for a
    periodic coefficient sequence; cycle[i] = c(i+1) for one full period P.

    Regrouping m = l + j*P gives S_n = sum_k C(n,k) P^k T_k B_(n-k), with the
    tails T_k = :func:`power_sum_rational` (k, z^P) and the residue moments
    B_i = sum_l c(l) z^l l^i (:func:`power_moments`) each built once for all n.
    """
    period = len(cycle)
    if period < 1:
        raise ValueError("need at least one coefficient")
    w = z**period
    tails = [power_sum_rational(k, w) for k in range(n_max + 1)]
    z_powers = itertools.accumulate([z] * period, operator.mul)
    moments = power_moments(enumerate(map(operator.mul, cycle, z_powers), start=1), n_max)
    return [sum(((math.comb(n, k) * period**k * tails[k]) * moments[n - k] for k in range(1, n + 1)),
                tails[0] * moments[n]) for n in range(n_max + 1)]


def periodic_power_sum(cycle, n: int, z):
    """S_n alone; see :func:`periodic_power_sums`."""
    return periodic_power_sums(cycle, n, z)[n]
