"""Exact evaluation of alternating (fermionic) p-adic q-integral moments.

The engine never touches a limit directly: the one-step functional equation
ratio*I(f(x+1)) + I(f(x)) = (1+ratio)*f(0) closes into a triangular linear
system on the moment family I(zeta^(kx) x^n), its twist named by the exponent
k, which is solved upward in n; the d-step equation of a character closes the
same way.  Both are one fraction-free binomial solve,
:func:`~eulertwist.series.binomial_solve`, of step 1 and of step d: the one
behind A_n in :mod:`eulertwist.twisted`, with its own right sides and
pivots.  Truncated alternating Riemann sums
with valuation diagnostics verify that these solutions really are the limits
they claim to be.  The module computes quantities only; the relations that
compare them are stated in :mod:`eulertwist.checks`.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .characters import DirichletCharacter, principal_character
from .cyclotomic import CyclotomicNumber, cyclotomic_field
from .errors import NotPadicallyConvergent
from .ntheory import is_prime
from .rationals import int_valuation, q_bracket_neg
from .series import binomial_solve, power_moments
from .twisted import TwistedConfig, alternating_char_sums


def _moment_sequence(n: int, ratio, field, k: int) -> list:
    """I(zeta_N^(kx) x^m) for m = 0..n under mu_(-ratio), in field = Q(zeta_N)
    at zeta_N^k of odd order, from the one-step equation on
    f(x) = zeta_N^(kx) x^m, whose right side (1+ratio) f(0) is 1 + ratio at
    m = 0 and 0 after it.  Divided by its unit ratio zeta_N^k, the equation
    is monic: its right side is (1 + 1/ratio) zeta_N^(-k) at m = 0, its pivot
    1 + zeta_N^(-k)/ratio, the pair (1/ratio, -k).  Under mu_(-1) the
    moments of x^m are E_m(0):

    >>> [str(x.coeffs[0]) for x in _moment_sequence(5, 1, cyclotomic_field(1), 0)]
    ['1', '-1/2', '0', '1/4', '0', '-1/2']

    Ratio -1, the pivot 1 - zeta_N^(-k), raises the geometric series'
    DivisionByZero at every twist.  No program path passes ratio -1:
    q = -1 is refused everywhere.
    """
    ratio = Fraction(ratio)
    rows, den = power_moments(field, [(0, 1 + 1 / ratio, -k)], n)
    return binomial_solve(field, rows, den, (1, 1), (1 / ratio, -k))


def _char_moment_sequence(n: int, cfg) -> list:
    """I(zeta^x chi(x) x^m) for m = 0..n at the parameter point cfg (a
    :class:`~eulertwist.twisted.TwistedConfig`), in its ambient field, from
    the d-step functional equation

        zeta^d sum_k C(m,k) d^(m-k) I_k + q^d I_m
            = (1+q) sum_{l<d} (-1)^l q^(d-1-l) zeta^l chi(l) l^m,

    solved upward in m.  The alternating kernel exponent d-1-l is the one
    obtained by iterating the one-step equation d times.  Divided by
    zeta^d = zeta_N^k, the equation is monic: each kernel exponent shifts by
    -k and the pivot is 1 + q^d zeta_N^(-k), the pair (q^d, -k).  With
    q = u/v, the kernel weights are the integers (u+v) (-1)^l u^(d-1-l) v^l
    over v^d.

    >>> from eulertwist import TwistedConfig, quadratic_character
    >>> _char_moment_sequence(0, TwistedConfig.build(quadratic_character(3), 1, 0, 2))[0] == -1
    True
    """
    q, d, field = cfg.q, cfg.char.modulus, cfg.field
    u, v, k = q.numerator, q.denominator, cfg.twist_exponent(d)
    kernel = [(l, (u + v) * (-1) ** l * u ** (d - 1 - l) * v**l, e - k) for l, e in cfg.twisted_exponents(range(d))]
    rows, den = power_moments(field, kernel, n)
    return binomial_solve(field, rows, den * v**d, (d, 1), (q**d, -k))


def residue_class_sums(n_max: int, cfg) -> list:
    """I(zeta^x chi(x) x^n) for n = 0..n_max, split into residue classes:
    d^n/[d]_{-1/q} sum_{a<d} c_a I((a/d + x)^n zeta^(dx)) under the measure
    parameter q^-d, c_a = (-1)^a q^-a chi(a) zeta^a.  By the binomial theorem,
    d^n (a/d + x)^n = sum_j C(n,j) a^j d^(n-j) x^(n-j), so this is
    [d]_{-1/q}^-1 sum_j C(n,j) d^(n-j) M_(n-j) S_j: one sequence
    M_k = I(x^k zeta^(dx)), S_j = sum_a c_a a^j, each zero S_j skipped
    (every j >= 1 at d = 1), the S_j the raw integer rows of one
    :func:`~eulertwist.series.power_moments` call over one denominator.
    Each n is one integer convolution: the raw products M_(n-j) S_j, each
    entry one pass over a column of S_j's product matrix
    (``CyclotomicField._product_columns``, built once per nonzero S_j), over
    the lcm of the denominators of M_0..M_n times that of the S_j, scaled by
    integers, summed and wrapped once, with no field element formed per term.
    With q = u/v, the class weights (-1)^a q^-a are the integers
    (-v)^a u^(d-1-a) over u^(d-1)."""
    q, d, field = cfg.q, cfg.char.modulus, cfg.field
    u, v = q.numerator, q.denominator
    moments = _moment_sequence(n_max, q**-d, field, cfg.twist_exponent(d))
    terms = [(a, (-v) ** a * u ** (d - 1 - a), e) for a, e in cfg.twisted_exponents(range(d))]
    classes, class_den = power_moments(field, terms, n_max)
    class_den *= u ** (d - 1)
    weights = [(j, field._product_columns(s)) for j, s in enumerate(classes) if any(s)]
    scale = 1 / q_bracket_neg(d, 1 / q)
    out, moment_den = [], 1
    for n in range(n_max + 1):
        moment_den = math.lcm(moment_den, moments[n].den)
        total = [0] * field.degree
        for j, columns in weights:
            if j > n:
                break
            moment = moments[n - j]
            c = math.comb(n, j) * d ** (n - j) * (moment_den // moment.den)
            total = [x + c * sum(map(operator.mul, column, moment.num)) for x, column in zip(total, columns)]
        out.append(CyclotomicNumber(field, [x * scale.numerator for x in total],
                                    moment_den * class_den * scale.denominator))
    return out


@dataclass(frozen=True)
class TruncationLevel:
    level: int
    partial: Fraction
    valuation: int | float  # v_p(partial - exact); PLUS_INFINITY when equal


@dataclass(frozen=True)
class TruncationReport:
    p: int
    exact: Fraction
    levels: tuple[TruncationLevel, ...]


def _check_padic_regime(q: Fraction, p: int, char: DirichletCharacter) -> None:
    """With q = u/v in lowest terms, |q|_p = 1 is p dividing neither u nor v, and then |q-1|_p < 1 is p
    dividing u - v."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    u, v = q.numerator, q.denominator
    if int_valuation(u - v, p) < 1 or int_valuation(u, p) or int_valuation(v, p):
        raise NotPadicallyConvergent(f"need |q-1|_p < 1 and |q|_p = 1 at p={p}")
    if not char.is_rational_valued:
        raise NotPadicallyConvergent("character must take values in {0, 1, -1}")
    d = char.modulus
    while d % p == 0:
        d //= p
    if d != 1:
        raise NotPadicallyConvergent(
            f"character modulus {char.modulus} is not a power of p={p}; "
            "the alternating sums do not converge"
        )


def riemann_sums(
    n_max: int, q: Fraction, p: int, max_level: int, char: DirichletCharacter
) -> list[list[Fraction]]:
    """sums[n][N] = U_N = sum_{0 <= x < p^N} (-1/q)^x chi(x) x^n = A_N / u^(p^N - 1) for n = 0..n_max,
    N = 0..max_level and q = u/v, from the integers A_N = sum_{x < p^N} chi(x) x^n (-v)^x u^(p^N - 1 - x).

    Level N adds the x in [p^(N-1), p^N) ([0, 1) at N = 0).  While p^N <= d, the character's period, or
    2 p^(N-1) <= n_max + 2 (a walked level has no more products than one regrouped copy), it walks them one
    term at a time, A <- A u + chi(x) x^n (-v)^x.  Past both, P = p^(N-1) is a multiple of d, so x = y + jP
    has chi(x) = chi(y) and the level regroups the prefix into p shifted copies,
    A_N = sum_{j<p} (-v)^(jP) u^((p-1-j)P) copy_j with copy_j[n] = sum_k C(n,k) (jP)^(n-k) A_(N-1)[k]
    by Horner in jP from one table C(n,k) A_(N-1)[k] per regrouped level, combined by Horner in j:
    acc <- acc u^P + (-v)^(jP) copy_j."""
    q = Fraction(q)
    _check_padic_regime(q, p, char)
    u, v, d = q.numerator, q.denominator, char.modulus
    chi = [char.rational_value(a) for a in range(d)]
    sums, rows = [0] * (n_max + 1), [[] for _ in range(n_max + 1)]
    rise, weight = 1, 1  # u^(p^(N-1)) past level 0, and (-v)^x
    for level in range(max_level + 1):
        start, end = p**level // p, p**level
        if end <= d or 2 * start <= n_max + 2:
            for x in range(start, end):
                term = chi[x % d] * weight
                for m, total in enumerate(sums):
                    sums[m] = total * u + term
                    term *= x
                weight *= -v
        else:
            table = [[math.comb(n, k) * s for k, s in enumerate(sums[: n + 1])] for n in range(n_max + 1)]
            lead, fall = (-v) ** start, 1
            for j in range(1, p):
                fall, shift = fall * lead, j * start
                copy = []
                for row in table:
                    total = 0
                    for term in row:  # Horner in jP
                        total = total * shift + term
                    copy.append(total)
                sums = [s * rise + fall * c for s, c in zip(sums, copy)]
        rise = rise**p if level else u  # u^(p^N)
        for row, total in zip(rows, sums):
            row.append(Fraction(total, rise // u))
    return rows


def padic_truncation(
    n: int, q: Fraction, p: int, max_level: int, char: DirichletCharacter | None = None
) -> TruncationReport:
    """Alternating Riemann sums S_N over 0 <= x < p^N, normalized by the alternating bracket of p^N, with
    the p-adic valuation of S_N - exact; char None weighs every x by 1, as the character mod 1 does.
    With q = u/v, P = p^N, U = u^P and V = (-v)^P (each raised by one p-th power per level), every level is
    one Fraction S_N = (u+v) A_N / (scale (U - V)).  While P <= d, the character's period,
    A_N = sum_{x<P} chi(x) x^n (-v)^x u^(P-1-x) by Horner in u, and scale = 1.  Past it, regrouping
    x = y + P in one period's Eulerian power sums T_j = t_j/den = sum_{x>=0} chi(x) x^j (-1/q)^x (one
    :func:`~eulertwist.twisted.alternating_char_sums` call at twist 1 before the loop, plus chi(0) at j = 0) gives
    A_N = t_n U - R_P V, R_P = sum_j C(n,j) P^(n-j) t_j by Horner in P, and scale = u den.  The exact
    value comes from the d-step functional equation, which shares no formula with either."""
    char = principal_character(1) if char is None else char
    q = Fraction(q)
    _check_padic_regime(q, p, char)
    cfg = TwistedConfig.build(char, 1, 0, q)
    period = int_valuation(char.modulus, p)  # p^period = d
    d, u, v = char.modulus, q.numerator, q.denominator
    chi = [char.rational_value(m) for m in range(d)]
    if max_level > period:
        sums = alternating_char_sums(cfg, n)
        den = math.lcm(*(t.den for t in sums))
        weights = [math.comb(n, j) * t.num[0] * (den // t.den) for j, t in enumerate(sums)]  # C(n,j) t_j
        weights[0] += chi[0] * den
    partials, big_u, big_v = [], u, -v
    for level in range(max_level + 1):
        size = p**level
        if level:
            big_u, big_v = big_u**p, big_v**p
        if level <= period:
            total, scale = 0, 1
            for x in range(size):  # Horner in u
                total = total * u + chi[x] * x**n * (-v) ** x
        else:
            tail = 0
            for weight in weights:  # R_P by Horner in P
                tail = tail * size + weight
            total, scale = weights[n] * big_u - tail * big_v, u * den
        partials.append(Fraction((u + v) * total, scale * (big_u - big_v)))
    exact = _char_moment_sequence(n, cfg)[n].coeffs[0]  # degree 1: chi rational, twist 1
    levels = []
    for level, partial in enumerate(partials):
        gap = partial.numerator * exact.denominator - exact.numerator * partial.denominator
        valuation = int_valuation(gap, p) - int_valuation(partial.denominator * exact.denominator, p)
        levels.append(TruncationLevel(level, partial, valuation))
    return TruncationReport(p=p, exact=exact, levels=tuple(levels))
