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

The stop index is the first m where the tail bound falls below the
tolerance, found by bisection on that float test; at sigma <= 0 the search
starts at the stable index, found the same way.  What a term holds apart
from s is kept per config, in one summand table: q's double, ln q and
ln(1+q), the periodic coefficients and, for each m with chi(m) != 0 up to a
fixed cap, one row (m, c_m, ln m, m ln q).  Beside the rows it holds the
line summed last, keyed by (sigma, tol, max_terms): its stop, its tail bound
and one triple (c_m, ln m, exp(-sigma ln m - m ln q)) per term up to the
stop.  A line's first point records the key, stop and tail and is summed
term by term, so a caller that sums one point per line builds no triple; its
second point builds the triples as it sums, one exp per term; every later
point reads the stop and tail there and sums c_m rect(magnitude, -Im(s) ln m),
one rect and two products per term.  Up to CPython's CM_LOG_LARGE_DOUBLE that
rect is the product cmath.exp forms, so a scan over s at one config has the
same bits as summing each term afresh; a line with a larger exponent, an
infinite phase or a stop past the cap is summed term by term.  The prefactor
takes one exp.

A point is an `LParams`, a named tuple (s, cfg, tol, max_terms) whose
defaults, tol 1e-12 and max_terms 200000, are `LParams._field_defaults`, the
one place the CLI reads them from.  A result is an `LEvaluation`, a named
tuple (value, terms_used, tail_bound).  `l_series_sums` gives the bare sums
at s = 0, -1, ..., -n_max, the sequence thm3 and thm6 hold, a sum that raised
held as the string "ClassName: message".  `with_prefactor` is the one step
from a bare sum to the L-value, for `l_eval` and thm6 alike.
"""
from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from typing import NamedTuple

from .cyclotomic import embed_complex
from .errors import NotConverged, OutsideConvergence, OutsideDoubleRange
from .twisted import TwistedConfig


class LParams(NamedTuple):
    s: complex
    cfg: TwistedConfig
    tol: float = 1e-12
    max_terms: int = 200000


class LEvaluation(NamedTuple):
    value: complex
    terms_used: int
    tail_bound: float


class _Summands:
    """One config's series data, none of it depending on s: q's double, its
    ln and ln(1+q); sign(m) chi(m) zeta^m embedded for m mod lcm(2, d,
    twist order), None where chi(m) = 0 and the series skips the term;
    one row (m, c_m, ln m, m ln q) for every m <= reach with chi(m) != 0; and
    the line summed last, keyed by (Re s, tol, max_terms): its stop, its tail
    bound and its terms, one triple (c_m, ln m, exp(-Re(s) ln m - m ln q))
    per row up to stop, False until the line's second point builds them and
    None where the line is summed term by term.  reach is the largest stop
    summed so far, capped at _ROW_CAP; past it, terms are summed as they are
    met and not kept."""

    __slots__ = ("cfg", "q", "ln_q", "ln_1q", "coefficients", "reach", "rows", "key", "stop", "tail", "terms")

    def __init__(self, cfg: TwistedConfig):
        d, order = cfg.char.modulus, cfg.zeta_order
        chi = [embed_complex(cfg.char_value(a)) for a in range(d)]
        zeta = [embed_complex(cfg.zeta_pow(m)) for m in range(order)]
        self.cfg, self.q = cfg, float(cfg.q)
        self.ln_q, self.ln_1q = math.log(self.q), math.log(1 + self.q)
        self.coefficients = [
            (-1.0 if m % 2 else 1.0) * chi[m % d] * zeta[m % order] if chi[m % d] != 0 else None
            for m in range(math.lcm(2, d, order))
        ]
        self.reach, self.rows = 0, []
        self.key = self.stop = self.tail = self.terms = None


# Rows are kept for m up to this cap.  At d = 1, where every m has a row, a
# held table with its rows and a line of triples at the cap takes 4.2 MB
# (tracemalloc, Python 3.11).
_ROW_CAP = 2**14

# The table of the config summed last; holding the config, the identity test
# below matches no other object.  Callers scan s per config.
_held: _Summands | None = None

# CPython's CM_LOG_LARGE_DOUBLE: up to this real part, cmath.exp(x + iy) is
# the products exp(x) cos y and exp(x) sin y that cmath.rect(exp(x), y) forms.
_RECT_EXP_MAX = math.log(sys.float_info.max / 4)


def _ln_q(q) -> float:
    """ln of q's double, after the checks the sum makes before its first term."""
    try:
        q_float = float(q)
    except OverflowError as exc:
        raise OutsideDoubleRange("q exceeds double range") from exc
    if q_float <= 1 and q <= 1:  # the exact test decides a q that rounds to 1.0
        raise OutsideConvergence(f"series evaluation needs q > 1, got q={q}")
    return math.log(q_float)


def _first_failure(holds, lo: int, hi: int) -> int:
    """The first m in [lo, hi] where holds (true, then false) fails, hi + 1 if
    none does, lo if lo > hi; by bisection, in O(log2(hi - lo)) tests."""
    hi += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def stop_index(sigma: float, q, tol: float, max_terms: int) -> tuple:
    """(M, tail): where `l_series_sum` stops at Re s = sigma and its tail
    bound, or (max_terms, None) when no M <= max_terms has one below tol.
    At sigma <= 0 the bound is q^(-M/2) / (1 - q^(-1/2)) from the stable
    index on (the least M with m^(-sigma) <= q^(m/2) for all m >= M); at
    sigma > 0 it is (M+1)^(-sigma) q^(-(M+1)) / (1 - 1/q), M >= 1.  It raises
    what the sum raises before its first term: OutsideDoubleRange,
    OutsideConvergence for an exact q <= 1, and NotConverged for a q > 1
    that rounds to 1.0 or a stable index past max_terms.  Each index is found
    by bisection on the sum's own float test, which fails from some m on.

    >>> stop_index(0.0, 2, 1e-12, 200000)[0]
    84
    >>> stop_index(8.0, 2, 1e-12, 200000)[0] < stop_index(-8.0, 2, 1e-12, 200000)[0]
    True
    """
    return _indices(sigma, _ln_q(q), tol, max_terms)


@lru_cache(maxsize=256)
def _indices(sigma: float, ln_q: float, tol: float, max_terms: int) -> tuple:
    if not ln_q:  # q > 1 rounds to 1.0
        raise NotConverged(f"tail bound not reached within {max_terms} terms")
    if 0 < sigma < math.inf:
        log_scale = -math.log(-math.expm1(-ln_q))  # ln(1 / (1 - 1/q))

        def tail(m: int) -> float:  # one exp of a sum of logs, so no factor underflows alone
            return math.exp(log_scale - sigma * math.log(m + 1) - (m + 1) * ln_q)

        start = 1
    else:
        re_abs = abs(sigma)  # an infinite or NaN sigma comes here and raises below
        peak = 2 * re_abs / ln_q  # re_abs ln m - m ln q / 2 falls from here on
        if not peak <= max_terms:
            raise NotConverged(f"tail bound not reached within {max_terms} terms")
        first = max(1, math.ceil(peak))
        last = max(first, max_terms)
        start = _first_failure(lambda m: re_abs * math.log(m) > m * ln_q / 2, first, last)
        if start > last:
            raise NotConverged(f"tail bound not reached within {max_terms} terms")
        tail_scale = 1.0 / (1.0 - math.exp(-ln_q / 2))

        def tail(m: int) -> float:
            return math.exp(-m * ln_q / 2) * tail_scale

    m = _first_failure(lambda m: not tail(m) < tol, start, max_terms)
    return (max_terms, None) if m > max_terms else (m, tail(m))


def l_series_sum(params: LParams) -> LEvaluation:
    """The bare alternating series, without the prefactor: terms 1..M in
    order, M from `stop_index`; NotConverged before the first term where no
    M <= max_terms meets the tolerance.  The config's table is built once per
    config object.  A point on the held line, keyed by (Re s, tol,
    max_terms), reads its stop and tail there and sums its triples
    c_m rect(magnitude, -Im(s) ln m), with no stop index and no row
    extension.  Any other point extends the rows to min(M, _ROW_CAP): a
    line's first point records its key, stop and tail and is summed term by
    term by cmath.exp, and its second point builds the triples as it sums.
    A line with an exponent past _RECT_EXP_MAX or M past the cap holds None
    in place of triples, and it and a point at an infinite phase are summed
    term by term, which alone raises; terms past the cap are streamed."""
    global _held
    s, cfg, tol, max_terms = params
    s = complex(s)
    key, neg_t, held = (s.real, tol, max_terms), -s.imag, _held
    if held is not None and held.cfg is cfg:
        if key == held.key:  # the held line
            stop, tail, terms = held.stop, held.tail, held.terms
            # once its triples are built, and where each phase, |Im s| ln m <= |Im s| m, is finite
            if terms and math.isfinite(neg_t * stop):
                total, rect = 0j, cmath.rect
                for c, lm, magnitude in terms:
                    total += c * rect(magnitude, neg_t * lm)
                return LEvaluation(total, stop, tail)
        else:
            stop, tail = _indices(s.real, held.ln_q, tol, max_terms)
    else:
        stop, tail = _indices(s.real, _ln_q(cfg.q), tol, max_terms)
        held = None
    if tail is None:
        raise NotConverged(f"tail bound not reached within {max_terms} terms")
    if held is None:
        held = _held = _Summands(cfg)
    coefficients, ln_q, log, cap = held.coefficients, held.ln_q, math.log, _ROW_CAP
    cycle = len(coefficients)
    reach = min(stop, cap)
    if reach > held.reach:
        for m in range(held.reach + 1, reach + 1):
            c = coefficients[m % cycle]
            if c is not None:
                held.rows.append((m, c, log(m), m * ln_q))
        held.reach = reach
    total = 0j
    if key != held.key:  # a line's first point, summed term by term below
        held.key, held.stop, held.tail, held.terms = key, stop, tail, False
    elif held.terms is False and math.isfinite(neg_t * stop):  # its second point
        terms = None
        if stop <= cap:
            terms, neg_sigma, exp, rect, limit = [], -s.real, math.exp, cmath.rect, _RECT_EXP_MAX
            put = terms.append
            for m, c, lm, mq in held.rows:
                if m > stop:
                    break
                x = neg_sigma * lm - mq
                if x > limit:  # where cmath.exp takes its other branch, the line is summed by it
                    terms, total = None, 0j
                    break
                magnitude = exp(x)
                put((c, lm, magnitude))
                total += c * rect(magnitude, neg_t * lm)
        held.terms = terms
        if terms is not None:
            return LEvaluation(total, stop, tail)
    neg_s, exp = -s, cmath.exp
    try:
        for m, c, lm, mq in held.rows:
            if m > stop:
                break
            total += c * exp(neg_s * lm - mq)
        if stop > cap:  # past the cap: streamed, not kept
            for m in range(cap + 1, stop + 1):
                c = coefficients[m % cycle]
                if c is not None:
                    total += c * exp(neg_s * log(m) - m * ln_q)
    except (OverflowError, ValueError) as exc:  # ValueError: cmath.exp at an infinite phase
        raise NotConverged(f"term {m} overflows double precision") from exc
    return LEvaluation(total, stop, tail)


def l_series_sums(cfg: TwistedConfig, n_max: int) -> list:
    """`l_series_sum` at s = 0, -1, ..., -n_max, at LParams' default tol and
    max_terms: per n its LEvaluation, or the NotConverged,
    OutsideConvergence or OutsideDoubleRange it raised as the string
    "ClassName: message", so that holding it holds no traceback."""
    out = []
    for n in range(n_max + 1):
        try:
            out.append(l_series_sum(LParams(s=complex(-n), cfg=cfg)))
        except (NotConverged, OutsideConvergence, OutsideDoubleRange) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def with_prefactor(s: complex, cfg: TwistedConfig, inner: LEvaluation) -> LEvaluation:
    """The L-value at s from the bare sum `inner`: q * (1+q)^(1-s), principal
    branch, times its value; NotConverged where that is not finite.  q's
    double and ln(1+q) come from the held table when it is cfg's and from
    cfg.q otherwise, with the same bits."""
    try:
        if _held is not None and _held.cfg is cfg:
            q, ln_1q = _held.q, _held.ln_1q
        else:
            q = float(cfg.q)
            ln_1q = math.log(1 + q)
        value = q * cmath.exp((1 - complex(s)) * ln_1q) * inner.value
    except (OverflowError, ValueError) as exc:
        raise NotConverged("non-finite value") from exc
    if not cmath.isfinite(value):
        raise NotConverged("non-finite value")
    return LEvaluation(value, inner.terms_used, inner.tail_bound)


def l_eval(params: LParams) -> LEvaluation:
    """Full L-value: `with_prefactor` of `l_series_sum`, read from this module
    at the call so that a wrapper set on it sees every sum."""
    return with_prefactor(params.s, params.cfg, l_series_sum(params))
