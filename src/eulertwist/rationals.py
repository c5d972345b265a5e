"""Exact rational scalars: parsing, the alternating q-bracket, and p-adic valuations.

Rationals are plain :class:`fractions.Fraction` values, which already keep
the lowest-terms / positive-denominator normal form we rely on for exact
equality.  The wire encoding is always the two-sided string "num/den",
e.g. "-4/1".
"""
from __future__ import annotations

import decimal
import math
from fractions import Fraction

from .errors import PoleAtMinusOne
from .ntheory import is_prime

PLUS_INFINITY = math.inf


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or a bare integer string into an exact Fraction; any text that is neither,
    a zero denominator included, raises ValueError."""
    num, slash, den = text.strip().partition("/")
    den = int(den) if slash else 1
    if den == 0:
        raise ValueError("has a zero denominator")
    return Fraction(int(num), den)


def format_rational(x: Fraction | int) -> str:
    x = Fraction(x)
    return f"{decimal_string(x.numerator)}/{decimal_string(x.denominator)}"


# CPython 3.11 writes an int in decimal in time quadratic in its length (3.12 hands long ones to
# _pylong.int_to_decimal_string).  Above DECIMAL_CUTOFF_BITS, decimal_string splits the int in binary
# and rejoins the halves in the decimal module, whose products are subquadratic; the two ways meet
# near 40 k bits (2-vCPU VM, Python 3.11.7: 1.7 s -> 0.12 s at 10^6 bits).  Below it, str(), unless
# n has more digits than the interpreter's int-to-string limit (4300 by default, 3.10.7 and later) allows.
DECIMAL_CUTOFF_BITS = 50_000
_DECIMAL_LEAF_BITS = 1024


def decimal_string(n: int) -> str:
    """str(n), the same characters, whatever the interpreter's digit limit: by divide and conquer
    above DECIMAL_CUTOFF_BITS bits and wherever str() refuses n for that limit, n = high 2^h + low
    with h half the bit length, each half converted the same way down to leaves of at most 1024
    bits, and every power 2^h formed once, all in exact decimal arithmetic."""
    if n.bit_length() <= DECIMAL_CUTOFF_BITS:
        try:
            return str(n)
        except ValueError:  # more digits than the interpreter's limit
            pass
    powers: dict[int, decimal.Decimal] = {}

    def two_to(bits: int) -> decimal.Decimal:
        if bits not in powers:
            half = bits >> 1
            leaf = bits <= _DECIMAL_LEAF_BITS
            powers[bits] = decimal.Decimal(2) ** bits if leaf else two_to(half) * two_to(bits - half)
        return powers[bits]

    def convert(m: int, bits: int) -> decimal.Decimal:
        if bits <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(m)
        half = bits >> 1
        high = m >> half
        return convert(high, bits - half) * two_to(half) + convert(m - (high << half), half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def q_bracket_neg(x: int, q: Fraction) -> Fraction:
    """The alternating q-analogue (1 - (-q)^x)/(1 + q)."""
    if x < 0:
        raise ValueError("q_bracket_neg expects x >= 0")
    q = Fraction(q)
    if q == -1:
        raise PoleAtMinusOne("q_bracket_neg has a pole at q = -1")
    return (1 - (-q) ** x) / (1 + q)


def int_valuation(n: int, p: int) -> int | float:
    """Exponent of p in n; PLUS_INFINITY for n = 0."""
    if n == 0:
        return PLUS_INFINITY
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation(a: Fraction | int, p: int) -> int | float:
    """v_p(a) with v_p(0) = PLUS_INFINITY, so |a|_p = p**(-v_p(a))."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a = Fraction(a)
    if a == 0:
        return PLUS_INFINITY
    return int_valuation(a.numerator, p) - int_valuation(a.denominator, p)
