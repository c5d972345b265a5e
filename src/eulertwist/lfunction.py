"""Complex evaluation of the alternating twisted L-series and its
interpolation of the exact twisted Eulerian values at negative integers.

The series q/(1+q)^(s-1) * sum_{m>=1} (-1)^m chi(m) zeta^m / (q^m m^s)
converges geometrically for rational q > 1; truncation is controlled by an
explicit majorant, never by eyeballing successive terms.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import embed_complex
from .errors import NotConverged, OutsideConvergence, OutsideDoubleRange, ResidualUndefined
from .twisted import TwistedConfig, alternating_char_sums, twisted_values


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


def _stable_index(re_abs: float, ln_q: float, max_terms: int) -> int:
    """Smallest M with m^re_abs <= q^(m/2) for every m >= M; NotConverged
    when M would exceed max_terms, since no tail bound is checked before M."""
    peak = 2 * re_abs / ln_q  # beyond this the majorant ratio is decreasing
    if not peak <= max_terms:
        raise NotConverged(f"tail bound not reached within {max_terms} terms")
    m = max(1, math.ceil(peak))
    while re_abs * math.log(m) > m * ln_q / 2:
        m += 1
        if m > max_terms:
            raise NotConverged(f"tail bound not reached within {max_terms} terms")
    return m


# The config evaluated last and its coefficients.  The entry holds the
# config, so the identity test below cannot match another object; callers
# scan s on one config at a time.
_last_coefficients: tuple = (None, [])


def _coefficients(cfg: TwistedConfig) -> list:
    """sign(m) chi(m) zeta^m for m mod lcm(2, d, twist order), embedded once
    per config; None where chi(m) = 0, whose terms the series skips."""
    global _last_coefficients
    last, coefficients = _last_coefficients
    if last is cfg:
        return coefficients
    d, order = cfg.char.modulus, cfg.zeta_order
    chi = [embed_complex(cfg.char_value(a), 1) for a in range(d)]
    zeta = [embed_complex(cfg.zeta_pow(m), 1) for m in range(order)]
    coefficients = [
        (-1.0 if m % 2 else 1.0) * chi[m % d] * zeta[m % order] if chi[m % d] != 0 else None
        for m in range(math.lcm(2, d, order))
    ]
    _last_coefficients = (cfg, coefficients)
    return coefficients


@lru_cache(maxsize=256)
def _stop_index(re_abs: float, ln_q: float, tol: float, max_terms: int) -> tuple:
    """(M, tail): the first M >= _stable_index whose tail bound is below tol,
    and that bound; (max_terms, None) when no M <= max_terms has one."""
    start = _stable_index(re_abs, ln_q, max_terms)
    tail_scale = 1.0 / (1.0 - math.exp(-ln_q / 2))
    for m in range(start, max_terms + 1):
        tail = math.exp(-m * ln_q / 2) * tail_scale
        if tail < tol:
            return m, tail
    return max_terms, None


def l_series_sum(params: LParams) -> LEvaluation:
    """The bare alternating series, without the prefactor.

    Only the terms depend on s.  The periodic coefficients are embedded once
    per config object, and the stop index is found once per (|Re s|, q, tol,
    max_terms); every call then sums terms 1..stop in order."""
    cfg = params.cfg
    try:
        q = float(cfg.q)
    except OverflowError as exc:
        raise OutsideDoubleRange("q exceeds double range") from exc
    if q <= 1:
        raise OutsideConvergence(f"series evaluation needs q > 1, got q={cfg.q}")
    ln_q = math.log(q)
    coefficients = _coefficients(cfg)
    cycle = len(coefficients)
    s = complex(params.s)
    stop, tail = _stop_index(abs(s.real), ln_q, params.tol, params.max_terms)
    neg_s, log, exp = -s, math.log, cmath.exp
    total = 0j
    m = 0
    try:
        for m in range(1, stop + 1):
            c = coefficients[m % cycle]
            if c is not None:
                total += c * exp(neg_s * log(m) - m * ln_q)
    except OverflowError as exc:
        raise NotConverged(f"term {m} overflows double precision") from exc
    if tail is None:
        raise NotConverged(f"tail bound not reached within {params.max_terms} terms")
    return LEvaluation(value=total, terms_used=stop, tail_bound=tail)


def l_eval(params: LParams) -> LEvaluation:
    """Full L-value: prefactor times the truncated series."""
    inner = l_series_sum(params)
    try:
        value = l_prefactor(complex(params.s), float(params.cfg.q)) * inner.value
    except OverflowError as exc:
        raise NotConverged("non-finite value") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NotConverged("non-finite value")
    return LEvaluation(value=value, terms_used=inner.terms_used, tail_bound=inner.tail_bound)


def interpolation_checks(cfg: TwistedConfig, n_max: int) -> list:
    """The two sides (L(-n), (-1)^n A_n embedded) for n = 0..n_max; the
    exact values are the generating-function coefficients of one
    twisted_values call, and the series path is not built.

    For modulus 1 the series misses the index-0 summand of the generating
    function, which only contributes at n = 0; that entry is a
    ResidualUndefined.
    """
    out = []
    for n, tv in enumerate(twisted_values(cfg, n_max)):
        if n == 0 and cfg.char.modulus == 1:
            out.append(ResidualUndefined("series misses the index-0 term at modulus 1"))
            continue
        exact = (-1) ** n * embed_complex(tv.value, 1)
        out.append((l_eval(LParams(s=complex(-n), cfg=cfg)).value, exact))
    return out


def series_partial_sum_checks(cfg: TwistedConfig, n_max: int) -> list:
    """The two sides (numeric, exact) for n = 0..n_max: numeric partial sums
    of sum (-1)^m zeta^m chi(m) m^n / q^m, and the embedded exact closed form
    of the same series."""
    numerics = [l_series_sum(LParams(s=complex(-n), cfg=cfg)).value for n in range(n_max + 1)]
    return [(v, embed_complex(e, 1)) for v, e in zip(numerics, alternating_char_sums(cfg, n_max))]
