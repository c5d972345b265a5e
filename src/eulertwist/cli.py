"""Command-line front end.

All exact quantities travel as "num/den" strings so no float ever touches
an exact code path; floats appear only in the L-series subcommand and the
complex embeddings, and are always printed with 17 significant digits.
Identical invocations produce byte-identical output.

Exit codes: 0 success, 1 a check failed or checked nothing (no point
passed), 2 usage error, 3 violated mathematical precondition (the error
class name is printed to stderr).  A check does not exit 3 for a point its
L-series cannot evaluate: thm3 and thm6 skip that point with the reason.
Every flag value is parsed and bounded before any computation starts, so a
bad value exits 2 with a usage message, never with a traceback.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys

from . import checks
from .characters import (
    enumerate_characters,
    load_character_file,
    principal_character,
    quadratic_character,
)
from .cyclotomic import embed_certified
from .errors import MathError
from .eulerian import descent_oracle, eulerian_recurrence
from .fermionic import padic_truncation
from .lfunction import LParams, l_eval, stop_index
from .ntheory import euler_phi, is_prime, is_squarefree
from .rationals import format_rational, parse_rational
from .twisted import TwistedConfig, twisted_values

# Upper bounds on the work one invocation may start.
MAX_TERMS = 10_000_000  # lfun --max-terms: L-series terms summed
# integral --p: an odd prime at most this, checked before the trial division.
MAX_PRIME = 20_000
# twisted, classic and integral --n, and a grid file's n_max and
# padic_n_max: the largest index.
MAX_INDEX = 40
# twisted and lfun --d and --zeta-order, and the moduli and twist orders of a
# grid file: odd and at most these.
MAX_MODULUS = 99
MAX_ZETA_ORDER = 99
# check --grid file: eq28-residual draws this many random tables at most per
# (modulus, q).
MAX_RANDOM_TABLES = 1000
# chars --d: the enumeration holds d * phi(d) values; d = 999 takes 3 s and
# 150 MB, d = 1999 12 s and 550 MB.
MAX_CHARS_MODULUS = 999
# The work budget: twisted, lfun, integral and check exit 2 before any field
# is built or any sum starts when predicted_seconds exceeds this.
MAX_WORK_S = 5.0

# An option value argparse would otherwise read as an option: "-1e9", "-.5",
# "-0.5,3", "-3/7".
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


class UsageError(Exception):
    """A flag combination outside the documented limits; exit 2."""


def _dumps(doc) -> str:
    """Deterministic JSON: insertion order, floats at 17 significant digits."""
    if doc is None:
        return "null"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, float):
        return format(doc, ".17g")
    if isinstance(doc, str):
        return json.dumps(doc)
    if isinstance(doc, (list, tuple)):
        return "[" + ",".join(_dumps(v) for v in doc) + "]"
    if isinstance(doc, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_dumps(v)}" for k, v in doc.items()) + "}"
    raise TypeError(f"cannot serialize {type(doc).__name__}")


def _flag_type(parse):
    """An argparse ``type=``: parse's ValueError becomes a usage error (exit 2)
    naming the flag."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None

    return convert


def _index_list(text: str) -> list[int]:
    """Index lists: "3", "0,2,4", or "0..5" (inclusive); nonempty, each in
    0..MAX_INDEX."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        indices = list(range(int(lo), int(hi) + 1))
    else:
        indices = [int(part) for part in text.split(",")]
    if not indices:
        raise ValueError("empty index range")
    if min(indices) < 0:
        raise ValueError("indices must be >= 0")
    if max(indices) > MAX_INDEX:
        raise ValueError(f"indices must be <= {MAX_INDEX}")
    return indices


def _bounded_int(lo: int, hi: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise ValueError(f"must be >= {lo}")
        if hi is not None and value > hi:
            raise ValueError(f"must be <= {hi}")
        return value

    return parse


def _odd_int(hi: int):
    """Odd integers in 1..hi, from a flag's text or a grid file's int."""

    def parse(value) -> int:
        value = int(value)
        if not 1 <= value <= hi or value % 2 == 0:
            raise ValueError(f"must be odd and in 1..{hi}")
        return value

    return parse


def _odd_prime(hi: int):
    """Odd primes in 3..hi, from a flag's text or a grid file's int; the
    bound is checked before the trial division."""

    def parse(value) -> int:
        value = int(value)
        if not 3 <= value <= hi or not is_prime(value):
            raise ValueError(f"must be an odd prime at most {hi}")
        return value

    return parse


def _character_spec(text: str) -> str:
    """principal, quadratic, index:I with I >= 0, or file:PATH."""
    if text in ("principal", "quadratic") or text.startswith("file:"):
        return text
    if text.startswith("index:"):
        _bounded_int(0)(text[6:])
        return text
    raise ValueError("expected principal, quadratic, index:I or file:PATH")


def _tolerance(text: str) -> float:
    """A finite float >= sys.float_info.min: below it the tail bound underflows to 0 before it meets tol."""
    tol = float(text)
    if not (math.isfinite(tol) and tol >= sys.float_info.min):
        raise ValueError(f"must be a finite number >= {sys.float_info.min!r}")
    return tol


def _complex_point(text: str) -> complex:
    """ "RE" or "RE,IM", both finite floats."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError('expected "RE" or "RE,IM"')
    s = complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError("s must be finite")
    return s


def _point_q(value):
    """The q of a parameter point, twisted and lfun's --q or a grid file's, from a string or an int,
    avoiding 0 and -1, where the generating function and the alternating measure are not defined."""
    q = parse_rational(str(value))
    if q in (0, -1):
        raise ValueError(f"must avoid 0 and -1, got {q}")
    return q


# One row per grid-file key: the Grid field it sets, whether it holds a list, and the parse and
# bound of one value, those of the flag that takes the same value where there is one.
GRID_KEYS = {
    "n_max": ("n_max", False, _bounded_int(0, MAX_INDEX)),
    "moduli": ("moduli", True, _odd_int(MAX_MODULUS)),
    "q": ("q_values", True, _point_q),
    "zeta_orders": ("zeta_orders", True, _odd_int(MAX_ZETA_ORDER)),
    "zeta_exponent": ("zeta_exponent", False, int),
    "primes": ("primes", True, _odd_prime(MAX_MODULUS)),
    "level_max": ("level_max", False, _bounded_int(0)),
    "padic_n_max": ("padic_n_max", False, _bounded_int(0, MAX_INDEX)),
    "random_tables": ("random_tables", False, _bounded_int(1, MAX_RANDOM_TABLES)),
    "seed": ("seed", False, int),
}


def _grid(spec: str):
    """A check grid: "default", or "file:PATH" holding one JSON object of GRID_KEYS keys, each
    optional, bounded as the --grid help says (a bool or a float is refused, a list is nonempty and
    repeats no entry, and every message starts with its key).  The work budget comes later."""
    if spec == "default":
        return checks.default_grid()
    if not spec.startswith("file:"):
        raise ValueError("expected default or file:PATH")
    try:
        with open(spec.split(":", 1)[1], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(exc.strerror or str(exc)) from None
    except RecursionError:  # json.load recurses once per nested array or object
        raise ValueError("the JSON nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("a grid file holds one JSON object")
    fields = {}
    for key, value in doc.items():
        if key not in GRID_KEYS:
            raise ValueError(f"unknown key {key!r}; the keys are {', '.join(GRID_KEYS)}")
        name, is_list, parse = GRID_KEYS[key]
        if is_list and not isinstance(value, list):
            raise ValueError(f"{key} takes a list, got {value!r}")
        if is_list and not value:
            raise ValueError(f"{key} must be nonempty")
        kinds, what = ((int, str), "integers or rational strings") if key == "q" else ((int,), "integers")
        parsed = {}  # ordered as the file, with a set's membership test
        for item in value if is_list else [value]:
            if type(item) not in kinds:  # bool is an int subclass, and a float would be truncated
                raise ValueError(f"{key} takes {what}, got {item!r}")
            try:
                x = parse(item)
            except ValueError as exc:
                raise ValueError(f"{key} {exc}") from None
            if x in parsed:
                raise ValueError(f"{key} lists {x} more than once")
            parsed[x] = None
        fields[name] = tuple(parsed) if is_list else x
    grid = checks.Grid(**fields)
    for zeta_order in grid.zeta_orders:
        if math.gcd(grid.zeta_exponent, zeta_order) != 1:
            raise ValueError(f"zeta_exponent {grid.zeta_exponent} is not coprime to twist order {zeta_order}")
    return grid


def _resolve_character(spec: str, modulus: int):
    if spec == "principal":
        return principal_character(modulus)
    if spec == "quadratic":
        return quadratic_character(modulus)
    if spec.startswith("index:"):
        return enumerate_characters(modulus)[int(spec[6:])]
    return load_character_file(spec[5:], modulus)


# The cost model behind MAX_WORK_S, in seconds, fitted to in-process timings on a 2-vCPU VM with Python
# 3.11.7.  h: log2 of q's larger part, at least 1 (l: the same, 0 at q = 1); D: degree of the ambient field;
# m = z / gcd(z, d): the order of zeta^d, and D' = phi(m) its degree; P = lcm(d, z), the series path's odd
# period; s = d h: bits of q^d, 1 at q = 1; solve(n, b) = (n+1)^2 ((n+1) b)^1.5.
#   term               model                                      a measured point: measured -> model seconds
#   field build        7e-8 order D (the sparse rows x^j mod      order 990: 0.005 -> 0.017; 3168: 0.006 -> 0.21;
#                      Phi_N, D <= j < max(2D - 1, N))            7954: 0.12 -> 2.14; 6270: 1.7 -> 0.63
#   inverse of         2e-8 m D + 7e-11 (m s)^2, 0 when D' = 1:   order 198, d 29, q 98: 0.016 -> 0.025;
#     zeta^d + q^d     m rows x^(k i) mod Phi_N of its geometric  order 99, d 97, q 2: 0.0067 -> 0.0066;
#                      series, then content gcds of m s bits      q 2^40+1: 7.37 -> 10.3;
#                                                                 order 990, d 7, q 2^40+1: 0.121 -> 0.054;
#                                                                 order 7954, d 83, q 2^40+1: 0.63 -> 7.27
#   division           1e-11 n (n+3) D sqrt(D D') (s D')^1.58,    (see A_0..A_n)
#                      0 when D' = 1: a product by that inverse
#                      per A_k, D by about sqrt(D D') entries
#                      of (k+1) s D' and s D' bits
#   A_0..A_n           inverse + division                         d 97, index:1, z 99, q 2, n 0: 0.045 -> 0.023;
#                      + 2e-10 solve(n, s D') D^0.35              n 1: 1.32 -> 8.26; n 4: 15.4 -> 57.9;
#                      + 4e-8 d (n+1)^2 D'^2                      d 41, index:1, z 99, q 2, n 2: 4.75 -> 5.32;
#                      + 1.4e-13 (d+10) (n+1)^3 s^2 D'            d 77, z 67, q 3855, n 1: 7.56 -> 6.73;
#                                                                 d 29, quadratic, z 99, q 5/2, n 20: 22.5 -> 19.3;
#                                                                 d 97, quadratic, z 7, q 2, n 40: 0.79 -> 2.63;
#                                                                 d 31, quadratic, q 2^40+1, n 40: 1.76 -> 4.46;
#                                                                 d 99, z 33, q 10^4299+7, n 0: 27.4 -> 31.5
#   series path        the smaller of two fits.  Integer kernel   principal chi, so D = phi(z):
#                      (power_moments): 1.6e-6 P (n+1)            d 59, z 15, q 2, n 2: 0.003 -> 0.0045;
#                      + 1e-6 (n+1)^2 D + (n+1) (P h)^2 (6.3e-13  d 97, z 3, q 1001/997, n 20: 0.58 -> 0.37;
#                      D + (n+1)^2 (3.5e-12 + 5.7e-13 D)), the    d 3, q 10^4299+7, n 5: 1.10 -> 1.45;
#                      content gcds on D entries of about         d 99, z 97, q 2, n 0: 0.069 -> 0.026;
#                      (n+1) P h bits.  The cap, fitted to the    d 91, z 93, q 4, n 1: 0.18 -> 0.14;
#                      weight-by-weight sums it replaced:         d 75, z 97, q 566821, n 0: 1.38 -> 2.31
#                      2e-5 P (n+1) + 2e-8 (n+1)^2 P^1.48 h^1.1   (the cap: 0.067, 1.00, 1.45, 2.91, 6.27, 40.4).
#                      D^0.31 + 3.3e-12 (n+1)^3 (P h)^2           The cap admits every grid the old price did;
#                      + 3e-10 (n+1) D P^2 l^1.1                  at n >= 8 with D > 1 and tall q both fits fall
#                                                                 short by up to 3x.
#   residue classes    inverse + division + 9e-6 (n+1)^2          d 97, quadratic, z 7, q 2, n 40: 1.24 -> 1.12;
#     (one solve,      + 2e-8 (n+1)^2 D'^2 + 1e-12 (n+1)^3 s^2 D' d 31, quadratic, q 2^40+1, n 40: 3.24 -> 1.85;
#     d (n+1) weights, + 5.7e-10 (n+1)^-0.5 solve(n, s D') D^0.35 d 27, q 10^4299+7, n 0: 1.29 -> 1.65;
#     their (n+1)^2    + d (n+1) (1.3e-5 + 3.4e-13 s^2)           d 91, z 11, q 2, n 40: 3.07 -> 2.57;
#     products)                                                   d 99, z 33, q 2, n 8: 0.0143 -> 0.0135;
#                                                                 d 97, quadratic, z 7, q 1, n 40: 0.050 -> 0.069;
#                                                                 d 97, index:1, z 99, q 2, n 1: 0.38 -> 8.22
#   float sums         6.5e-7 per summed term: the phi(d)/d of    d 1, q 1001/997, n 20 (thm3): 0.56 -> 0.79;
#     (thm3, thm6 at   the indices up to the stop index           d 45, z 3, q 1001/997, n 20 (thm3): 0.39 -> 0.42;
#     s = 0..-n; lfun) (lfunction.stop_index) of each             lfun q 100001/100000, s 0, d 1: 4.5-5.0 -> 5.18;
#                      l_series_sum call with chi(m) != 0, at     d 3: 3.0-3.5 -> 3.45;
#                      LParams' tol and max_terms in a grid; 0    q 10001/10000, s -30, d 1: 5.3-6.2 -> 6.27;
#                      where it raises before its first term,     q 10001/10000, s 3+4i, d 1: 0.02-0.04 -> 0.031
#                      as where no stop index meets tol
#   p-adic walk        4.6e-12 (p^levels h)^2 per exponent        p 3, 9 levels, q 3*10^30+1, n 40: 1.4-2.0 -> 18.2;
#                      (7.5e-13 at exponent 0), fitted to the     n 0: 0.6-1.0 -> 2.98;
#                      walk that folded one piece at a time,      p 19991, 1 level, q 19991*10^30+1, n 0: 0.8-1.1
#                      quadratic in the bits; integral's          -> 3.89; n 40: 1.6-1.9 -> 23.9;
#                      closed form and cor2's regrouped walk      p 7, 6 levels, q 8, n 6: 0.10-0.12 -> 0.57;
#                      (riemann_sums, both characters) mostly     p 19997, 1 level, q 19998, n 40: 0.10-0.14 -> 0.38;
#                      cost 4-150x less; the price is kept,       cor2 walks at q 1+p: p 3, 11 levels, n 4: 0.033
#                      so it admits the same runs                 -> 4.8; p 13, 5 levels, n 0: 0.55 -> 3.0; p 31, 3
#                                                                 levels, n 12: 0.15 -> 2.5; p 97, 2 levels, n 12:
#                                                                 0.097 -> 0.43
#     Measured: `padic_truncation` and integral's csv writing in process, and cor2's two `riemann_sums` calls
#     at the deepest level the budget admits (median of 7 processes).  Printing is no longer the gap:
#     `format_rational` writes long ints by divide and conquer, so at p 3, 9 levels, q 3*10^30+1, n 5 the csv takes
#     0.6-0.7 s for 1.8 M characters (15.6 s by str()) and `padic_truncation` 0.7 s (3.0 s with one fold per piece).
#   embedding          1e-4 + D (3e-6 + 3e-9 B) per printed A_n,    order 9312, B 50000: 0.095 -> 0.47; a real value,
#     (twisted)        B = (n+1) (s D' + log2(d (n+1))) its entries'  whose zero imaginary part takes the fold: 0.14;
#                      bits: embed_certified's D products by 128-bit  order 990, B 50000, a real value: 0.039 -> 0.036;
#                      cos and sin tables, the tables' own D          d 97, quadratic, z 7, q 2, n 0..40: 0.0034 -> 0.014;
#                      products, and a conjugate fold of N entries    d 97, index:1, z 99, q 2, n 0: 0.0058 -> 0.020
#                      where a part is within its error of 0
#   integral's exact   7.3e-11 solve(n, h)                        n 40, q 10/(3^8000+1): 46 -> 46
#   eq15 per q         integral's exact term at n = 8             q (3^9000+1)/7: 0.22 -> 0.27
#   eq22 per (d, z)    5e-4 (d + D)                               d 99, z 99: 0.071 -> 0.080
#   eq28 per table     d (3.5e-5 (1 + log2(h) / 4) + 1.3e-13 s^2) d 99, q 2: 0.0035 -> 0.0035; q 3^800+1: 0.20 -> 0.22
# Each point adds 1e-3.  A check costs its relation (RELATION_PRICES): a configuration A_0..A_n and the dearest of
# series path, residue classes and float sums; `all`, one sweep, each of them once.  lfun: its field and float sum.


def _log_height(q) -> float:
    return math.log2(max(abs(q.numerator), q.denominator))


def _height(q) -> float:
    return max(1.0, _log_height(q))


def _field_s(order: int) -> float:
    return 7e-8 * order * euler_phi(order)


def _point_parts(n: int, d: int, char_order: int, z: int, q) -> tuple:
    """(A_0..A_n, series path, residue classes) at one point."""
    root_order = z // math.gcd(z, d)  # m, the order of zeta^d
    h, degree, zeta_d_degree = _height(q), euler_phi(math.lcm(z, char_order)), euler_phi(root_order)
    size, period = (1 if q == 1 else d * h), math.lcm(d, z)
    inverse = division = 0.0
    if zeta_d_degree > 1:
        inverse = 2e-8 * root_order * degree + 7e-11 * (root_order * size) ** 2
        division = 1e-11 * n * (n + 3) * degree * math.sqrt(degree * zeta_d_degree) * (size * zeta_d_degree) ** 1.58
    coefficients = (n + 1) ** 3.5 * (size * zeta_d_degree) ** 1.5 * degree**0.35  # solve(n, s D') D^0.35
    products = 4e-8 * (n + 1) ** 2 * zeta_d_degree**2
    gcds = (n + 1) ** 3 * size**2 * zeta_d_degree  # content gcds, quadratic in the bits, at large q
    values = inverse + division + 2e-10 * coefficients + d * products + 1.4e-13 * (d + 10) * gcds
    # the series path: the integer kernel's fit, capped by the weight-by-weight fit (see the table above)
    kernel = 1.6e-6 * period * (n + 1) + 1e-6 * (n + 1) ** 2 * degree
    kernel += (n + 1) * (period * h) ** 2 * (6.3e-13 * degree + (n + 1) ** 2 * (3.5e-12 + 5.7e-13 * degree))
    weights = 2e-5 * period * (n + 1) + 2e-8 * (n + 1) ** 2 * period**1.48 * h**1.1 * degree**0.31
    weights += 3.3e-12 * (n + 1) ** 3 * (period * h) ** 2 + 3e-10 * (n + 1) * degree * period**2 * _log_height(q) ** 1.1
    series = min(kernel, weights)
    residues = inverse + division + 9e-6 * (n + 1) ** 2 + 5.7e-10 * coefficients / (n + 1) ** 0.5
    residues += products / 2 + 1e-12 * gcds
    residues += d * (n + 1) * (1.3e-5 + 3.4e-13 * size**2)
    return values, series, residues


def _float_sums_s(sigmas, d: int, q, tol: float = LParams._field_defaults["tol"],
                  max_terms: int = LParams._field_defaults["max_terms"]) -> float:
    """`l_series_sum` at each Re s in sigmas: 6.5e-7 s per summed term, the phi(d)/d of the indices up to its
    stop index where chi(m) != 0; none where it raises at once, also where no stop index meets tol."""
    seconds = 0.0
    for sigma in sigmas:
        with contextlib.suppress(MathError):
            stop, tail = stop_index(sigma, q, tol, max_terms)
            seconds += 0.0 if tail is None else 6.5e-7 * stop * euler_phi(d) / d
    return seconds


def _embed_s(indices, d: int, char_order: int, z: int, q) -> float:
    """`embed_certified` of each printed A_n, n in indices (the embedding row of the table above)."""
    degree, zeta_d_degree = euler_phi(math.lcm(z, char_order)), euler_phi(z // math.gcd(z, d))
    size = 1 if q == 1 else d * _height(q)
    return sum(1e-4 + degree * (3e-6 + 3e-9 * (n + 1) * (size * zeta_d_degree + math.log2(d * (n + 1))))
               for n in indices)


def _walk_s(p: int, levels: int, h: float, exponents) -> float:
    """The walk over p^levels terms for each exponent, priced in logs: no power of p is computed."""
    per_exponent = sum(7.5e-13 if m == 0 else 4.6e-12 for m in exponents)
    return per_exponent * math.exp(2 * (min(levels * math.log(p), 100.0) + math.log(h)))


def _exact_moments_s(n: int, h: float) -> float:
    """The moments I(x^0) .. I(x^n) of one one-step solve at a rational ratio of height h."""
    return 7.3e-11 * (n + 1) ** 3.5 * h**1.5


def _configs_s(grid, fixed_q=None, sweep=False) -> float:
    """Each point of `checks._configs` at 1e-3 + A_0..A_n + the dearest of its series path, residue classes and
    float sums, or at cor3's fixed q + its residue classes; in a sweep of the six configuration relations at 6e-3 +
    A_0..A_n twice (the d-step moments priced as A_n) + all three; plus the fields the points build."""
    seconds, orders = 0.0, set()
    for _, char, z, _, q in checks._configs(grid, fixed_q):
        orders.add(math.lcm(z, char.value_order))
        values, series, residues = _point_parts(grid.n_max, char.modulus, char.value_order, z, q)
        if fixed_q is None:
            parts = series, residues, _float_sums_s(range(0, -grid.n_max - 1, -1), char.modulus, q)
            residues = 5e-3 + values + sum(parts) if sweep else max(parts)
        seconds += 1e-3 + values + residues
    return seconds + sum(map(_field_s, orders))


RELATION_PRICES = {
    **dict.fromkeys(("thm2", "thm3", "thm6", "distribution", "thm1-residual", "thm5-residual"), _configs_s),
    "cor3": lambda grid: _configs_s(grid, fixed_q=1),
    "eq15": lambda grid: sum(1e-3 + _exact_moments_s(8, _height(q)) for q in grid.q_values),
    "eq22": lambda grid: sum(sum(5e-4 * (d + euler_phi(z)) for z in grid.zeta_orders) for d in grid.moduli)
        + sum(map(_field_s, set(grid.zeta_orders))),
    "eq28-residual": lambda grid: sum(
        grid.random_tables * d * (3.5e-5 * (1 + math.log2(_height(q)) / 4) + 1.3e-13 * (d * _height(q)) ** 2)
        for d in grid.moduli for q in grid.q_values),
    # two characters per prime at q = 1 + p
    "cor2-residual": lambda grid: sum(
        2 * (1e-3 + _walk_s(p, grid.level_max, _height(1 + p), range(grid.padic_n_max + 1)) + values + series)
        for p in grid.primes for values, series, _ in [_point_parts(grid.padic_n_max, p, 2, 1, 1 + p)]),
}


def predicted_seconds(args) -> float:
    """The predicted run time of a twisted, lfun, integral or check invocation from its parsed flags, checked
    against MAX_WORK_S before any field is built or any sum starts; 0 for classic and chars (bounded otherwise)."""
    if args.command == "check":
        if args.relation == "all":  # the configuration relations as one sweep, plus the others' own prices
            return _configs_s(args.grid, sweep=True) + sum(
                price(args.grid) for price in RELATION_PRICES.values() if price is not _configs_s)
        return RELATION_PRICES[checks.ALIASES.get(args.relation, args.relation)](args.grid)
    if args.command == "integral":
        h = _height(args.q)
        return 1e-3 + _walk_s(args.p, args.levels, h, [args.n]) + _exact_moments_s(args.n, h)
    if args.command not in ("twisted", "lfun"):
        return 0.0
    char_order = args.character.value_order
    seconds = 1e-3 + _field_s(math.lcm(args.zeta_order, char_order))
    if args.command == "twisted":
        return (seconds + _point_parts(max(args.n), args.d, char_order, args.zeta_order, args.q)[0]
                + _embed_s(args.n, args.d, char_order, args.zeta_order, args.q))
    return seconds + _float_sums_s([args.s.real], args.d, args.q, args.tol, args.max_terms)


# Each handler returns (result, exit status): a doc, which main writes as one JSON line, or the text of a csv
# table or of check's JSON lines.

def _cmd_classic(args) -> tuple:
    poly = eulerian_recurrence(args.n)
    doc = {"n": args.n, "coeffs": [format_rational(c) for c in poly]}
    if not args.check_oracle:
        return doc, 0
    doc["oracle_match"] = match = descent_oracle(args.n) == poly
    return doc, 0 if match else 1


def _cmd_twisted(args) -> tuple:
    cfg = TwistedConfig.build(args.character, args.zeta_order, args.zeta_k, args.q)
    indices = args.n
    values = twisted_values(cfg, max(indices))
    rows = []
    for n in indices:
        val = values[n].value
        emb = embed_certified(val)
        rows.append({"n": n, "cyclotomic": val.to_json(), "complex": [emb.real, emb.imag]})
    params = {"q": format_rational(args.q), "d": args.d, "char": args.char, "zeta_order": args.zeta_order,
              "zeta_k": cfg.zeta_exponent, "ambient_order": cfg.field.order}
    if args.format == "json":
        return {"params": params, "values": rows}, 0
    lines = ["n,re,im,cyclotomic_order,cyclotomic_coeffs"]
    for row in rows:
        real, imag = (format(x, ".17g") for x in row["complex"])
        cyclotomic = row["cyclotomic"]
        lines.append(f"{row['n']},{real},{imag},{cyclotomic['order']},{';'.join(cyclotomic['coeffs'])}")
    return "\n".join(lines) + "\n", 0


def _cmd_integral(args) -> tuple:
    report = padic_truncation(args.n, args.q, args.p, args.levels)
    rows = [(lv.level, format_rational(lv.partial), "inf" if lv.valuation == math.inf else lv.valuation)
            for lv in report.levels]
    if args.format == "csv":
        return "".join(",".join(map(str, row)) + "\n" for row in [("N", "S_N", "valuation"), *rows]), 0
    levels = [{"N": level, "partial": partial, "valuation": valuation} for level, partial, valuation in rows]
    return {"n": args.n, "q": format_rational(args.q), "p": args.p, "exact": format_rational(report.exact),
            "levels": levels}, 0


def _cmd_lfun(args) -> tuple:
    cfg = TwistedConfig.build(args.character, args.zeta_order, args.zeta_k, args.q)
    s = args.s
    result = l_eval(LParams(s=s, cfg=cfg, tol=args.tol, max_terms=args.max_terms))
    return {"s": [s.real, s.imag], "value": [result.value.real, result.value.imag],
            "terms": result.terms_used, "tail_bound": result.tail_bound}, 0


def _cmd_chars(args) -> tuple:
    return {"modulus": args.d, "characters": [c.to_json() for c in enumerate_characters(args.d)]}, 0


def _cmd_check(args) -> tuple:
    tokens = checks.RELATIONS if args.relation == "all" else [args.relation]
    reports = [checks.run_relation(token, args.grid) for token in tokens]
    return "".join(_dumps(report.to_json()) + "\n" for report in reports), 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulertwist",
        description="Exact twisted Eulerian polynomials, alternating q-integrals, "
        "and their L-series, with relation checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    budget = (
        f"The run exits 2 before any field is built or any sum starts when it is predicted to take more than "
        f"MAX_WORK_S = {MAX_WORK_S} s; the prediction sees n, d, the field degrees, the height of q, p^levels and "
        f"lfun's series terms."
    )
    index = _flag_type(_bounded_int(0, MAX_INDEX))

    point = argparse.ArgumentParser(add_help=False)
    point.add_argument(
        "--q", type=_flag_type(_point_q), required=True, help='rational, e.g. "2" or "5/2"; neither 0 nor -1'
    )
    point.add_argument(
        "--d", type=_flag_type(_odd_int(MAX_MODULUS)), required=True, help=f"character modulus, odd, 1..{MAX_MODULUS}"
    )
    point.add_argument(
        "--char", type=_flag_type(_character_spec), default="principal",
        help="principal|quadratic|index:I|file:PATH; quadratic needs a squarefree d >= 3, I < phi(d)",
    )
    point.add_argument(
        "--zeta-order", type=_flag_type(_odd_int(MAX_ZETA_ORDER)), default=1,
        help=f"twist order, odd, 1..{MAX_ZETA_ORDER}; its field, with the character's, is priced by the work budget",
    )
    point.add_argument("--zeta-k", type=int, default=1, help="twist exponent, coprime to the order")

    p = sub.add_parser("classic", help="classical Eulerian polynomial coefficients")
    p.add_argument("--n", type=index, required=True, help=f"polynomial index, 0..{MAX_INDEX}")
    p.add_argument("--check-oracle", action="store_true")
    p.set_defaults(handler=_cmd_classic)

    p = sub.add_parser("twisted", parents=[point], help="twisted Eulerian values on a parameter point", epilog=budget)
    p.add_argument(
        "--n", type=_flag_type(_index_list), required=True,
        help=f'index list: "3", "0,2", or "0..5"; nonempty, each in 0..{MAX_INDEX}',
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_twisted)

    p = sub.add_parser("integral", help="alternating Riemann-sum truncation report", epilog=budget)
    p.add_argument("--n", type=index, required=True, help=f"moment index, 0..{MAX_INDEX}")
    p.add_argument("--q", type=_flag_type(parse_rational), required=True)
    p.add_argument("--p", type=_flag_type(_odd_prime(MAX_PRIME)), required=True, help=f"odd prime, at most {MAX_PRIME}")
    p.add_argument(
        "--levels", type=_flag_type(_bounded_int(0)), default=5,
        help="levels N = 0..LEVELS, >= 0; the p^LEVELS terms of the largest sum are priced by the work budget",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_integral)

    p = sub.add_parser("lfun", parents=[point], help="L-series value at a complex point", epilog=budget)
    p.add_argument(
        "--s", type=_flag_type(_complex_point), required=True,
        help='complex point "RE" or "RE,IM", finite; either part may be negative',
    )
    defaults = LParams._field_defaults
    p.add_argument(
        "--tol", type=_flag_type(_tolerance), default=defaults["tol"], help=f"tail bound, >= {sys.float_info.min!r}"
    )
    p.add_argument(
        "--max-terms", type=_flag_type(_bounded_int(1, MAX_TERMS)), default=defaults["max_terms"],
        help=f"most series terms summed, 1..{MAX_TERMS}",
    )
    p.set_defaults(handler=_cmd_lfun)

    p = sub.add_parser("chars", help="enumerate all characters of a modulus")
    p.add_argument(
        "--d", type=_flag_type(_odd_int(MAX_CHARS_MODULUS)), required=True, help=f"modulus, odd, 1..{MAX_CHARS_MODULUS}"
    )
    p.set_defaults(handler=_cmd_chars)

    p = sub.add_parser("check", help="run one relation check, or all of them, over a grid", epilog=budget)
    p.add_argument(
        "--relation", required=True, choices=(*checks.RELATIONS, *checks.ALIASES, "all"),
        help="a relation token or alias, or all: every relation in turn, one report each, priced per held quantity",
    )
    p.add_argument(
        "--grid", type=_flag_type(_grid), default="default",
        help=f"default|file:PATH, a JSON object of these keys, each optional: n_max and padic_n_max, integers in "
        f"0..{MAX_INDEX}; moduli, odd integers in 1..{MAX_MODULUS}; q, integers or rational strings, neither 0 nor -1; "
        f"zeta_orders, odd integers in 1..{MAX_ZETA_ORDER}; zeta_exponent, an integer coprime to each twist order; "
        f"primes, odd primes at most {MAX_MODULUS}; level_max, an integer >= 0; random_tables, an integer in "
        f"1..{MAX_RANDOM_TABLES}; seed, an integer. Lists are nonempty and repeat no entry, and every message starts "
        f"with its key; the points the relation reads are priced",
    )
    p.set_defaults(handler=_cmd_check)

    for p in sub.choices.values():  # last, after each command's own flags
        p.add_argument("--output")
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join "--opt -1e9" into "--opt=-1e9": argparse takes a value that
    starts with "-" and is not a plain integer or decimal for an option."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    if "zeta_k" in vars(args):  # the point-flag checks that read two flags
        if math.gcd(args.zeta_k, args.zeta_order) != 1:
            parser.error(f"argument --zeta-k: {args.zeta_k} is not coprime to --zeta-order {args.zeta_order}")
        if args.char == "quadratic" and (args.d == 1 or not is_squarefree(args.d)):
            parser.error(f"argument --char: quadratic needs a squarefree --d of at least 3, got {args.d}")
        if args.char.startswith("index:") and int(args.char[6:]) >= euler_phi(args.d):
            parser.error(f"argument --char: modulus {args.d} has characters index:0..{euler_phi(args.d) - 1}")
    try:
        if "zeta_k" in vars(args):
            args.character = _resolve_character(args.char, args.d)
        seconds = predicted_seconds(args)
        if seconds > MAX_WORK_S:
            raise UsageError(
                f"this run is predicted to take {seconds:.3g} s, over the work budget MAX_WORK_S = {MAX_WORK_S:g} s"
            )
        with open(args.output, "w", encoding="utf-8") if args.output else contextlib.nullcontext(sys.stdout) as out:
            result, status = args.handler(args)
            out.write(result if isinstance(result, str) else _dumps(result) + "\n")
        return status
    except (UsageError, OSError) as exc:  # OSError: a character or --output file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MathError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
