"""Exact arithmetic for twisted Eulerian polynomials, alternating p-adic
q-integral moments, and the L-series that interpolates them.

The package verifies every identity it implements along at least two
independent evaluation paths: formal power series over cyclotomic fields,
triangular solves of the integral functional equations, truncated p-adic
sums, and archimedean series.
"""
from .characters import (
    DirichletCharacter,
    character_from_table,
    enumerate_characters,
    principal_character,
    quadratic_character,
)
from .cyclotomic import (
    CyclotomicField,
    CyclotomicNumber,
    cyclotomic_field,
    cyclotomic_polynomial,
    embed_complex,
    galois_conjugate,
    lift_to_field,
)
from .errors import MathError
from .eulerian import descent_oracle, eulerian_at, eulerian_recurrence, power_sum_rational
from .fermionic import TruncationReport, padic_truncation, riemann_sums
from .lfunction import LEvaluation, LParams, l_eval
from .rationals import PLUS_INFINITY, padic_valuation, q_bracket_neg
from .series import TruncatedSeries, nth_taylor_coefficient
from .twisted import TwistedConfig, TwistedValue, twisted_gf, twisted_value, twisted_values

__version__ = "0.1.0"
