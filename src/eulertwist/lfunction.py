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

from .cyclotomic import embed_complex
from .errors import NotConverged, OutsideConvergence
from .twisted import TwistedConfig, alternating_char_sums, twisted_values


@dataclass(frozen=True)
class LParams:
    s: complex
    cfg: TwistedConfig
    embedding_index: int = 1
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


def l_series_sum(params: LParams) -> LEvaluation:
    """The bare alternating series, without the prefactor."""
    cfg = params.cfg
    q = float(cfg.q)
    if q <= 1:
        raise OutsideConvergence(f"series evaluation needs q > 1, got q={cfg.q}")
    ln_q = math.log(q)
    k = params.embedding_index
    chi = [embed_complex(cfg.char_value(a), k) for a in range(cfg.char.modulus)]
    zeta = [embed_complex(cfg.zeta_pow(m), k) for m in range(cfg.zeta_order)]
    s = complex(params.s)
    start = _stable_index(abs(s.real), ln_q, params.max_terms)
    tail_scale = 1.0 / (1.0 - math.exp(-ln_q / 2))
    total = 0j
    m = 0
    try:
        while True:
            m += 1
            if m > params.max_terms:
                raise NotConverged(f"tail bound not reached within {params.max_terms} terms")
            chi_m = chi[m % cfg.char.modulus]
            if chi_m != 0:
                sign = -1.0 if m % 2 else 1.0
                magnitude = cmath.exp(-s * math.log(m) - m * ln_q)
                total += sign * chi_m * zeta[m % cfg.zeta_order] * magnitude
            if m >= start:
                tail = math.exp(-m * ln_q / 2) * tail_scale
                if tail < params.tol:
                    return LEvaluation(value=total, terms_used=m, tail_bound=tail)
    except OverflowError as exc:
        raise NotConverged(f"term {m} overflows double precision") from exc


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


@dataclass(frozen=True)
class InterpolationReport:
    n: int
    l_value: complex
    exact_value: complex
    gap: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.tolerance


def interpolation_checks(cfg: TwistedConfig, ns, tol: float = 1e-9) -> list[InterpolationReport]:
    """L(-n) against (-1)^n times the exact twisted value, embedded, for each
    n in ns; the exact values come from one twisted_values call.

    For modulus 1 the series misses the index-0 summand of the generating
    function, which only contributes at n = 0; that one cell is excluded.
    """
    ns = list(ns)
    if cfg.char.modulus == 1 and 0 in ns:
        raise ValueError("the n = 0 value at modulus 1 is not interpolated by the series")
    values = twisted_values(cfg, max(ns, default=0))
    out = []
    for n in ns:
        exact = (-1) ** n * embed_complex(values[n].value, 1)
        result = l_eval(LParams(s=complex(-n), cfg=cfg, tol=min(tol * 1e-2, 1e-12))).value
        out.append(InterpolationReport(n, result, exact, abs(result - exact), tol * (1 + abs(exact))))
    return out


@dataclass(frozen=True)
class PartialSumReport:
    numeric: complex
    exact: complex
    gap: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.tolerance


def series_partial_sum_checks(cfg: TwistedConfig, ns, tol: float = 1e-10) -> list[PartialSumReport]:
    """Numeric partial sums of sum (-1)^m zeta^m chi(m) m^n / q^m against the
    embedded exact closed form of the same series, for each n in ns."""
    ns = list(ns)
    numerics = [l_series_sum(LParams(s=complex(-n), cfg=cfg, tol=min(tol * 1e-2, 1e-12))).value for n in ns]
    sums = alternating_char_sums(cfg, max(ns, default=0))
    exacts = [embed_complex(sums[n], 1) for n in ns]
    return [PartialSumReport(v, e, abs(v - e), tol) for v, e in zip(numerics, exacts)]
