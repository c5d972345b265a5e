"""Twisted Eulerian polynomial values over cyclotomic fields.

Everything here evaluates the family A_n attached to a character chi mod d,
a root-of-unity twist, and a rational q.  The values are the Taylor
coefficients of the generating function (kernel exponent d-l+1), read
straight from one fraction-free binomial solve
(:func:`~eulertwist.series.binomial_solve`, the one the moment equations of
:mod:`eulertwist.fermionic` run too); the regrouped alternating series in
closed form is an independent second route (Theorem 2), which shares no
solve.  Both are quantities only: every relation that reads them,
against each other or against the integral world, is stated in
:mod:`eulertwist.checks`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import DirichletCharacter
from .cyclotomic import CyclotomicField, CyclotomicNumber, cyclotomic_field
from .eulerian import periodic_power_sums
from .series import TruncatedSeries, binomial_solve, power_moments


@dataclass(frozen=True)
class TwistedConfig:
    """One parameter point: character chi mod d, twist zeta of odd order z,
    rational q, all inside the ambient field Q(zeta_N), N = lcm(z, value
    order M).  chi(m) = zeta_N^(e_m N/M) and zeta^m = zeta_N^(k m N/z), so
    chi(m) and zeta^m are each one power of zeta_N, read by exponent with no
    lift and no field product, and every exact route reads chi(m) zeta^m as
    its exponent alone (:meth:`twisted_exponents`), in the (node, rational,
    exponent) triples of :func:`~eulertwist.series.power_moments`.

    >>> from eulertwist.characters import enumerate_characters
    >>> order4 = next(c for c in enumerate_characters(5) if c.value_order == 4)
    >>> cfg = TwistedConfig.build(order4, 3, 1, 2)
    >>> pairs = cfg.twisted_exponents(range(4, 7))  # chi(5) = 0
    >>> [(m, cfg.field.zeta_power(e) == cfg.char_value(m) * cfg.zeta_pow(m)) for m, e in pairs]
    [(4, True), (6, True)]
    """

    char: DirichletCharacter
    zeta_order: int
    zeta_exponent: int
    q: Fraction
    field: CyclotomicField

    @staticmethod
    def build(
        char: DirichletCharacter, zeta_order: int, zeta_exponent: int, q
    ) -> "TwistedConfig":
        q = Fraction(q)
        if q == 0 or q == -1:
            raise ValueError("q must avoid 0 and -1")
        if zeta_order < 1 or zeta_order % 2 == 0:
            raise ValueError("twist order must be odd and positive")
        field = cyclotomic_field(math.lcm(zeta_order, char.value_order))
        return TwistedConfig(char, zeta_order, zeta_exponent % zeta_order, q, field)

    def twist_exponent(self, m: int) -> int:
        """The exponent of zeta^m in zeta_N."""
        return self.zeta_exponent * (self.field.order // self.zeta_order) * m

    def _exponents(self, m: int) -> tuple:
        """(exponent of chi(m) or None, exponent of zeta^m), both in zeta_N."""
        e = self.char.exponent(m)
        return (None if e is None else e * (self.field.order // self.char.value_order)), self.twist_exponent(m)

    def zeta_pow(self, m: int) -> CyclotomicNumber:
        return self.field.zeta_power(self.twist_exponent(m))

    def char_value(self, m: int) -> CyclotomicNumber:
        e = self._exponents(m)[0]
        return self.field.zero if e is None else self.field.zeta_power(e)

    def twisted_exponents(self, ms) -> list[tuple[int, int]]:
        """(m, exponent of chi(m) zeta^m in zeta_N) for the m of `ms` with
        chi(m) != 0."""
        return [(m, e + twist) for m in ms for e, twist in [self._exponents(m)] if e is not None]


@dataclass(frozen=True)
class TwistedValue:
    n: int
    value: CyclotomicNumber


def twisted_gf(cfg: TwistedConfig, order: int) -> TruncatedSeries:
    """The generating function expanded to the requested order over the
    ambient field: its ordinary coefficients A_n / n!, from
    :func:`twisted_values`.  No program path reads it; the benchmark's
    Taylor oracle and self-test do."""
    return TruncatedSeries(tuple(tv.value * Fraction(1, math.factorial(tv.n)) for tv in twisted_values(cfg, order - 1)))


def alternating_char_sums(cfg: TwistedConfig, n_max: int) -> list:
    """Closed forms of sum_{m>=1} (-1)^m zeta^m chi(m) m^n (1/q)^m for
    n = 0..n_max, exact.

    With the sign folded into the ratio -1/q, the coefficient chi(m) zeta^m
    has the period lcm(d, twist order), odd for odd d, and the sums regroup
    into the rational power-sum closed forms; an odd period keeps
    (-1/q)^period away from 1, so at q = 1 this is the Abel sum."""
    period = math.lcm(cfg.char.modulus, cfg.zeta_order)
    terms = [(m, 1, e) for m, e in cfg.twisted_exponents(range(1, period + 1))]
    return periodic_power_sums(cfg.field, terms, period, n_max, -1 / cfg.q)


def twisted_series_values(cfg: TwistedConfig, n_max: int) -> list[CyclotomicNumber]:
    """A_0 .. A_{n_max} through the alternating series (:func:`series_from_sums`)."""
    return series_from_sums(cfg, alternating_char_sums(cfg, n_max))


def series_from_sums(cfg: TwistedConfig, sums) -> list[CyclotomicNumber]:
    """A_n from the closed-form sums of :func:`alternating_char_sums`:
    (-1)^n q (1+q)^(n+1) times the sum, plus the index-0 summand
    q(1+q) chi(0), which survives only at n = 0 (and is nonzero only for
    modulus 1)."""
    q = cfg.q
    out = [((-1) ** n * q * (1 + q) ** (n + 1)) * alt for n, alt in enumerate(sums)]
    out[0] = out[0] + (q * (1 + q)) * cfg.char_value(0)
    return out


def twisted_series_value(cfg: TwistedConfig, n: int) -> CyclotomicNumber:
    return twisted_series_values(cfg, n)[n]


def twisted_values(cfg: TwistedConfig, n_max: int) -> list[TwistedValue]:
    """A_0 .. A_{n_max}: the Taylor coefficients of the generating function
    (1+q) sum_{l<d} (-1)^l q^(d-l+1) zeta^l chi(l) exp(-l(1+q)t) divided by
    zeta^d exp(-d(1+q)t) + q^d, defined at every admissible q, q = 1
    included.  Divided by zeta^d = zeta_N^k, the denominator is monic, its
    pivot 1 + q^d zeta_N^(-k) inverted once by its geometric series
    (``CyclotomicField.binomial_inverse``), and A_n is one
    :func:`~eulertwist.series.binomial_solve` of step -d(1+q).  With
    q = u/v, the numerator's n-th Taylor coefficient is
    sum_l w_l zeta_N^(e_l - k) (-l(u+v))^n / v^(n+d+2) for the integers
    w_l = (u+v) (-1)^l u^(d-l+1) v^l: the power moments of the nodes
    -l(u+v), over v^(d+2) b^n with b = v, the step's denominator."""
    q, d, field = cfg.q, cfg.char.modulus, cfg.field
    u, v = q.numerator, q.denominator
    k = cfg.twist_exponent(d)
    terms = [(-(u + v) * l, (u + v) * (-1) ** l * u ** (d - l + 1) * v**l, e - k)
             for l, e in cfg.twisted_exponents(range(d))]
    rows, den = power_moments(field, terms, n_max)
    values = binomial_solve(rows, den * v ** (d + 2), (-(u + v) * d, v), field.binomial_inverse(1, q**d, -k))
    return [TwistedValue(n, value) for n, value in enumerate(values)]


def twisted_value(cfg: TwistedConfig, n: int) -> TwistedValue:
    return twisted_values(cfg, n)[n]
