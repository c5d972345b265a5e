"""Oracles computed apart from the program, in mpmath.

This module imports mpmath at the top, so the benchmark imports it only
after the peak RSS of the measured process has been read.  The oracles
build chi and the twist from the exponent tables (chi(a) =
exp(2 pi i e_a / order)) and use none of the program's arithmetic.
"""
from __future__ import annotations

import math

import mpmath
from mpmath import mp

TAYLOR_DPS = 30
TAYLOR_TOL = 1e-12  # relative to 1 + sum_j |c_j| of the exact coefficients
LERCH_DPS = 40
LSERIES_REL_TOL = 1e-12  # the prefactor's own rounding, relative to the value


def _root(num: int, den: int):
    return mpmath.expjpi(mpmath.mpf(2 * num) / den)


def _chi(exponents, order: int) -> list:
    return [0 if e is None else _root(e, order) for e in exponents]


def _mpq(q):
    return mpmath.mpf(q.numerator) / q.denominator


def taylor_values(rec: dict, n_max: int) -> list:
    """A_0..A_n_max as n! times the Taylor coefficients of the generating
    function in its paper form,

        (1+q) sum_{l<d} (-1)^l q^(d-l+1) zeta^l chi(l) e^(-l(1+q)t)
        / (zeta^d e^(-d(1+q)t) + q^d).
    """
    with mp.workdps(TAYLOR_DPS):
        d = rec["modulus"]
        q = _mpq(rec["q"])
        zeta = _root(rec["zeta_exponent"], rec["zeta_order"])
        chi = _chi(rec["exponents"], rec["value_order"])
        terms = [
            ((-1) ** l * q ** (d - l + 1) * zeta**l * chi[l], -l * (1 + q))
            for l in range(d) if chi[l] != 0
        ]
        zeta_d, q_d = zeta**d, q**d

        def gf(t):
            num = mpmath.fsum(c * mpmath.exp(a * t) for c, a in terms)
            return (1 + q) * num / (zeta_d * mpmath.exp(-d * (1 + q) * t) + q_d)

        coeffs = mpmath.taylor(gf, 0, n_max)
        return [complex(mpmath.factorial(n) * c) for n, c in enumerate(coeffs)]


def taylor_rejects(rec: dict) -> bool:
    """True when some embedded A_n misses the Taylor oracle."""
    embedded = rec["embedded"]
    oracle = taylor_values(rec, len(embedded) - 1)
    return any(abs(o - e) > TAYLOR_TOL * (1 + scale) for o, (e, scale) in zip(oracle, embedded))


def lerch_phi(w, s, a, cutoff):
    """Phi(w, s, a) = sum_{k>=0} w^k (k+a)^(-s), summed past its peak term
    until the terms fall below ``cutoff``; 0 < w < 1."""
    sigma = mpmath.re(s)
    peak = sigma / mpmath.log(w) - a if sigma < 0 else 0  # where the terms stop growing
    total = mpmath.mpc(0)
    k = 0
    w_k = mpmath.mpf(1)
    while True:
        term = w_k * mpmath.exp(-s * mpmath.log(k + a))
        total += term
        if k > peak and abs(term) < cutoff:
            return total
        k += 1
        w_k *= w


def lseries_oracle(rec: dict) -> tuple:
    """(prefactor, bare series) of the L-value at rec["s"], the series split
    into Lerch transcendents over one period P = lcm(2, d, twist order):

        sum_{m>=1} c(m) z^m m^-s = P^-s sum_{l=1..P} c(l) z^l Phi(z^P, s, l/P),

    with c(m) = (-1)^m chi(m) zeta^m and z = 1/q.
    """
    with mp.workdps(LERCH_DPS):
        d, order = rec["modulus"], rec["zeta_order"]
        period = math.lcm(2, d, order)
        q = _mpq(rec["q"])
        z = 1 / q
        s = mpmath.mpc(rec["s"].real, rec["s"].imag)
        zeta = _root(rec["zeta_exponent"], order)
        chi = _chi(rec["exponents"], rec["value_order"])
        sigma = rec["s"].real
        m_peak = max(1.0, -sigma / math.log(float(q)))
        biggest = max(mpmath.mpf(m) ** -sigma * q ** -m for m in {1, math.floor(m_peak), math.ceil(m_peak)})
        cutoff = biggest * mpmath.mpf(10) ** (-(LERCH_DPS - 5))
        scale = abs(mpmath.power(period, -s))
        total = mpmath.mpc(0)
        for l in range(1, period + 1):
            c = (-1) ** l * chi[l % d] * zeta**l
            if c == 0:
                continue
            total += c * z**l * lerch_phi(z**period, s, mpmath.mpf(l) / period, cutoff / (scale * z**l))
        series = mpmath.power(period, -s) * total
        prefactor = q * mpmath.exp((1 - s) * mpmath.log(1 + q))
        return complex(prefactor), complex(series)


def lseries_check(rec: dict) -> tuple[complex, float]:
    """(the oracle's L-value, the error the check allows): the reported
    tail bound scaled by the prefactor, plus 1e-12 of the value for
    double-precision rounding."""
    prefactor, series = lseries_oracle(rec)
    value = prefactor * series
    return value, abs(prefactor) * rec["tail_bound"] + LSERIES_REL_TOL * abs(value)


def lseries_rejects(rec: dict) -> bool:
    """True when the L-value misses the Lerch oracle by more than allowed."""
    value, allowed = lseries_check(rec)
    return abs(rec["value"] - value) > allowed
