"""Complex evaluation of the alternating twisted L-series, which interpolates
the exact twisted Eulerian values at negative integers (Theorem 6, stated
with the other relations in :mod:`eulertwist.checks`).

The series q/(1+q)^(s-1) * sum_{m>=1} (-1)^m chi(m) zeta^m / (q^m m^s)
converges geometrically for rational q > 1; truncation is controlled by an
explicit majorant, never by eyeballing successive terms.  Its terms are at
most m^(-sigma) q^(-m), sigma = Re s: at sigma <= 0 half of q's decay
absorbs the growth of m^(-sigma) and the tail is bounded by q^(-M/2); at
sigma > 0 the terms only shrink, and the tail past M is bounded by its
first term over 1 - 1/q.

What a term holds apart from s is kept per config, in one summand table: the
periodic coefficients and, for each m with chi(m) != 0 up to a fixed cap,
ln m and m ln q.  A scan over s at one config then costs one exp and two
products per term, with the same bits as summing each term afresh.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import embed_complex
from .errors import NotConverged, OutsideConvergence, OutsideDoubleRange
from .twisted import TwistedConfig


@dataclass(frozen=True)
class LParams:
    s: complex
    cfg: TwistedConfig
    tol: float = 1e-12
    max_terms: int = 200000


@dataclass(frozen=True)
class LEvaluation:
    value: complex
    terms_used: int
    tail_bound: float


def l_prefactor(s: complex, q: float) -> complex:
    """q * (1+q)^(1-s) on the principal branch of log(1+q), 1+q > 0."""
    return q * cmath.exp((1 - s) * math.log(1 + q))


class _Summands:
    """One config's series data, none of it depending on s: q's double and its
    ln; sign(m) chi(m) zeta^m embedded for m mod lcm(2, d, twist order),
    None where chi(m) = 0 and the series skips the term; and the rows
    (m, c_m, ln m, m ln q), as four parallel lists, of every m <= reach with
    chi(m) != 0.  reach is the largest stop summed so far, capped at
    _ROW_CAP; past it, terms are summed as they are met and not kept."""

    __slots__ = ("cfg", "q", "ln_q", "coefficients", "reach", "ms", "cs", "lms", "mqs")

    def __init__(self, cfg: TwistedConfig):
        d, order = cfg.char.modulus, cfg.zeta_order
        chi = [embed_complex(cfg.char_value(a), 1) for a in range(d)]
        zeta = [embed_complex(cfg.zeta_pow(m), 1) for m in range(order)]
        self.cfg, self.q = cfg, float(cfg.q)
        self.ln_q = math.log(self.q)
        self.coefficients = [
            (-1.0 if m % 2 else 1.0) * chi[m % d] * zeta[m % order] if chi[m % d] != 0 else None
            for m in range(math.lcm(2, d, order))
        ]
        self.reach, self.ms, self.cs, self.lms, self.mqs = 0, [], [], [], []


# Rows are kept for m up to this cap, so a held table stays under about 2 MB.
_ROW_CAP = 2**14

# The table of the config summed last; holding the config, the identity test
# below matches no other object.  Callers scan s per config.
_held: _Summands | None = None


def _ln_q(q) -> float:
    """ln of q's double, after the checks the sum makes before its first term."""
    try:
        q_float = float(q)
    except OverflowError as exc:
        raise OutsideDoubleRange("q exceeds double range") from exc
    if q_float <= 1 and q <= 1:  # the exact test decides a q that rounds to 1.0
        raise OutsideConvergence(f"series evaluation needs q > 1, got q={q}")
    return math.log(q_float)


def _first_failure(holds, lo: int, hi: int, guess: float) -> int:
    """The first m >= lo where holds (true, then false) fails, hi + 1 if none up to hi; stepped to from guess."""
    m = max(lo, math.ceil(min(guess, hi + 1))) if guess > lo else lo  # lo for a NaN guess
    while m > lo and not holds(m - 1):
        m -= 1
    while m <= hi and holds(m):
        m += 1
    return m


def stop_index(sigma: float, q, tol: float, max_terms: int) -> tuple:
    """(M, tail): where `l_series_sum` stops at Re s = sigma and its tail
    bound, or (max_terms, None) when no M <= max_terms has one below tol.
    At sigma <= 0 the bound is q^(-M/2) / (1 - q^(-1/2)) from the stable
    index on (the least M with m^(-sigma) <= q^(m/2) for all m >= M); at
    sigma > 0 it is (M+1)^(-sigma) q^(-(M+1)) / (1 - 1/q), M >= 1.  It raises
    what the sum raises before its first term: OutsideDoubleRange,
    OutsideConvergence for an exact q <= 1, and NotConverged for a q > 1
    that rounds to 1.0 or a stable index past max_terms.  Each index steps
    from a closed form to the exact one on the sum's float tests.

    >>> stop_index(0.0, 2, 1e-12, 200000)[0]
    84
    >>> stop_index(8.0, 2, 1e-12, 200000)[0] < stop_index(-8.0, 2, 1e-12, 200000)[0]
    True
    """
    return _indices(sigma, _ln_q(q), tol, max_terms)


@lru_cache(maxsize=256)
def _indices(sigma: float, ln_q: float, tol: float, max_terms: int) -> tuple:
    if 0 < sigma < math.inf:
        return _decayed_indices(sigma, ln_q, tol, max_terms)
    re_abs = abs(sigma)  # an infinite or NaN sigma comes here and raises below
    peak = 2 * re_abs / ln_q if ln_q else math.inf  # ln_q is 0 where q > 1 rounds to 1.0
    if not peak <= max_terms:
        raise NotConverged(f"tail bound not reached within {max_terms} terms")
    # Newton steps from above to the root M >= peak of M = peak ln M, if there is one
    m = step = 2 * peak * math.log(peak) if peak > math.e else 0.0
    while step >= 0.5:
        step = (m - peak * math.log(m)) / (1 - peak / m)
        m -= step
    first = max(1, math.ceil(peak))
    last = max(first, max_terms)
    start = _first_failure(lambda m: re_abs * math.log(m) > m * ln_q / 2, first, last, m)
    if start > last:
        raise NotConverged(f"tail bound not reached within {max_terms} terms")
    tail_scale = 1.0 / (1.0 - math.exp(-ln_q / 2))
    guess = 2 * (math.log(tail_scale) - math.log(tol)) / ln_q if tol > 0 else math.inf
    m = _first_failure(lambda m: not math.exp(-m * ln_q / 2) * tail_scale < tol, start, max_terms, guess)
    return (max_terms, None) if m > max_terms else (m, math.exp(-m * ln_q / 2) * tail_scale)


def _decayed_indices(sigma: float, ln_q: float, tol: float, max_terms: int) -> tuple:
    """`_indices` at sigma > 0.  The tail bound is taken as one exp of a sum
    of logs, so neither (M+1)^(-sigma) nor q^(-(M+1)) underflows alone."""
    if not ln_q:
        raise NotConverged(f"tail bound not reached within {max_terms} terms")
    log_scale = -math.log(-math.expm1(-ln_q))  # ln(1 / (1 - 1/q))

    def tail(m: int) -> float:
        return math.exp(log_scale - sigma * math.log(m + 1) - (m + 1) * ln_q)

    # the stop is about the root x = M + 1 of sigma ln x + x ln q = c.  In ln x
    # the left side is convex, so Newton steps from the root at sigma = 0,
    # which lies above, descend to it without passing it
    c = log_scale - math.log(tol) if tol > 0 else math.inf
    x = c / ln_q
    step = x if 1 < x < math.inf else 0.0
    while step >= 0.5:
        y = math.log(x)
        step = x - math.exp(y - (sigma * y + x * ln_q - c) / (sigma + x * ln_q))
        x -= step
    m = _first_failure(lambda m: not tail(m) < tol, 1, max_terms, x - 1)
    return (max_terms, None) if m > max_terms else (m, tail(m))


def l_series_sum(params: LParams) -> LEvaluation:
    """The bare alternating series, without the prefactor: terms 1..M in
    order, M from `stop_index`; NotConverged before the first term where no
    M <= max_terms meets the tolerance.  The config's table is built once per
    config object, and a term whose row it holds costs one exp and two
    products; the first pass over a new m computes its row, sums the term and
    keeps the row."""
    global _held
    s, cfg = complex(params.s), params.cfg
    held = _held if _held is not None and _held.cfg is cfg else None
    stop, tail = _indices(s.real, held.ln_q if held else _ln_q(cfg.q), params.tol, params.max_terms)
    if tail is None:
        raise NotConverged(f"tail bound not reached within {params.max_terms} terms")
    if held is None:
        held = _held = _Summands(cfg)
    neg_s, exp = -s, cmath.exp
    total = 0j
    m = reach = held.reach
    try:
        for m, c, lm, mq in zip(held.ms, held.cs, held.lms, held.mqs):
            if m > stop:
                break
            total += c * exp(neg_s * lm - mq)
        else:  # every held row is summed; the m in (reach, stop] are new
            coefficients, ln_q, log, cap = held.coefficients, held.ln_q, math.log, _ROW_CAP
            cycle = len(coefficients)
            ms, cs, lms, mqs = held.ms, held.cs, held.lms, held.mqs
            for m in range(reach + 1, min(stop, cap) + 1):
                c = coefficients[m % cycle]
                if c is not None:
                    lm, mq = log(m), m * ln_q
                    ms.append(m)
                    cs.append(c)
                    lms.append(lm)
                    mqs.append(mq)
                    total += c * exp(neg_s * lm - mq)
            for m in range(cap + 1, stop + 1):  # past the cap: streamed, not kept
                c = coefficients[m % cycle]
                if c is not None:
                    total += c * exp(neg_s * log(m) - m * ln_q)
    except OverflowError as exc:
        raise NotConverged(f"term {m} overflows double precision") from exc
    finally:  # a row is kept before its term is summed, so an overflow leaves it held
        held.reach = max(reach, min(m, _ROW_CAP))
    return LEvaluation(value=total, terms_used=stop, tail_bound=tail)


def l_eval(params: LParams) -> LEvaluation:
    """Full L-value: prefactor times the truncated series."""
    inner = l_series_sum(params)
    try:  # q's double from this config, never from the table another sum left held
        value = l_prefactor(complex(params.s), float(params.cfg.q)) * inner.value
    except OverflowError as exc:
        raise NotConverged("non-finite value") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NotConverged("non-finite value")
    return LEvaluation(value=value, terms_used=inner.terms_used, tail_bound=inner.tail_bound)
