"""Command-line front end.

All exact quantities travel as "num/den" strings so no float ever touches
an exact code path; floats appear only in the L-series subcommand and the
complex embeddings, and are always printed with 17 significant digits.
Identical invocations produce byte-identical output.

Exit codes: 0 success, 1 a check failed, 2 usage error, 3 violated
mathematical precondition (the error class name is printed to stderr).
Every flag value is parsed and bounded before any computation starts, so a
bad value exits 2 with a usage message, never with a traceback.
"""
from __future__ import annotations

import argparse
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
from .cyclotomic import embed_complex
from .errors import MathError
from .eulerian import descent_oracle, eulerian_recurrence
from .fermionic import padic_truncation
from .lfunction import LEvaluation, LParams, l_eval
from .ntheory import euler_phi, is_prime
from .rationals import format_rational, parse_rational
from .twisted import TwistedConfig, twisted_values

# Upper bounds on the work one invocation may start.
MAX_TERMS = 10_000_000  # lfun --max-terms: L-series terms summed
# integral: p^levels terms in the largest Riemann sum.  The walk sums 64
# terms at a time in small integers and folds each piece into the exact
# total once; at this bound and n = MAX_INDEX, q = 19998, p = 19997 at one
# level takes about 0.5 s, as does q = 19684, p = 3 at nine levels (2-vCPU
# VM, Python 3.11.7).
MAX_TRUNCATION_TERMS = 20_000
# twisted, classic and integral --n: the largest index; the work grows fast
# in n (Eulerian polynomials up to degree n), and n = 40 takes a few seconds.
MAX_INDEX = 40
# twisted and lfun --d and --zeta-order, and the moduli and twist orders of a
# grid file: odd and at most these, so the bound below is cheap to compute.
MAX_MODULUS = 99
MAX_ZETA_ORDER = 99
# The work of one parameter point follows the cycle length lcm(2, d, twist
# order) of the alternating series times the degree of the ambient field
# Q(zeta_lcm(twist order, character order)); at this bound and n = MAX_INDEX
# the slowest point found (d = 97, quadratic character, twist order 7) takes
# about 3 s at q = 2 and 10 s at q = 5/2.
MAX_POINT_WORK = 10_000
# check --grid file: cor2-residual makes two walks per prime, one per
# character, over p^level_max terms for padic_n_max + 1 exponents; summed
# over the primes, 2 * (padic_n_max + 1) * p^level_max is at most this.
# Folded in pieces, the walks at the bound take tens of milliseconds (16 ms
# at p = 31, level_max 2, padic_n_max 19, of a 0.5 s run); A_n of the limit
# dominates at large padic_n_max.
MAX_COR2_TERMS = 40_000
# check --grid file: eq28-residual draws this many random tables at most per
# (modulus, q); 1000 tables at d = 99 take about 4 s per q.
MAX_RANDOM_TABLES = 1000
# chars --d: the enumeration holds d * phi(d) values; d = 999 takes 3 s and
# 150 MB, d = 1999 12 s and 550 MB.
MAX_CHARS_MODULUS = 999

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
    """An argparse ``type=``: parse's ValueError or ZeroDivisionError becomes
    a usage error (exit 2) naming the flag."""

    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {reason}") from None

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


def _work_error(d: int, zeta_order: int, char_order: int) -> str:
    """Why a parameter point is over MAX_POINT_WORK, or "" when it is within."""
    cycle, degree = math.lcm(2, d, zeta_order), euler_phi(math.lcm(zeta_order, char_order))
    if cycle * degree <= MAX_POINT_WORK:
        return ""
    return (
        f"d={d}, zeta order {zeta_order}, character order {char_order}: cycle length "
        f"{cycle} times field degree {degree} exceeds {MAX_POINT_WORK}"
    )


def _tolerance(text: str) -> float:
    """A finite float > 0: a tolerance that can be met."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("must be a finite number > 0")
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


def _grid(spec: str):
    """A check grid: "default" or "file:PATH" holding a JSON grid."""
    if spec == "default":
        return checks.default_grid()
    if not spec.startswith("file:"):
        raise ValueError("expected default or file:PATH")
    try:
        with open(spec.split(":", 1)[1], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(exc.strerror or str(exc)) from None
    if not isinstance(doc, dict):
        raise ValueError("a grid file holds one JSON object")
    try:
        grid = checks.grid_from_json(doc)
    except TypeError as exc:  # a list where a number belongs, or the reverse
        raise ValueError(exc) from None
    _check_grid_bounds(grid)
    for d in grid.moduli:
        _odd_int(MAX_MODULUS)(d)
    for zeta_order in grid.zeta_orders:
        _odd_int(MAX_ZETA_ORDER)(zeta_order)
    for d in grid.moduli:
        for _, char in checks.grid_characters(d):
            for zeta_order in grid.zeta_orders:
                error = _work_error(d, zeta_order, char.value_order)
                if error:
                    raise ValueError(error)
    return grid


def _check_grid_bounds(grid) -> None:
    """The bounds of a grid file's lists, indices, primes and cor2 and eq28
    work, each naming its key as the file does."""
    for key, values in (("moduli", grid.moduli), ("q", grid.q_values),
                        ("zeta_orders", grid.zeta_orders), ("primes", grid.primes)):
        if not values:
            raise ValueError(f"{key} must be nonempty")
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ValueError(f"{key} lists {repeated} more than once")
    for q in grid.q_values:
        if q in (0, -1):
            raise ValueError(f"q must avoid 0 and -1, got {q}")
    for key, value, lo, hi in (("n_max", grid.n_max, 0, MAX_INDEX), ("padic_n_max", grid.padic_n_max, 0, MAX_INDEX),
                               ("random_tables", grid.random_tables, 1, MAX_RANDOM_TABLES)):
        if not lo <= value <= hi:
            raise ValueError(f"{key} must be in {lo}..{hi}, got {value}")
    for zeta_order in grid.zeta_orders:
        if math.gcd(grid.zeta_exponent, zeta_order) != 1:
            raise ValueError(f"zeta_exponent {grid.zeta_exponent} is not coprime to twist order {zeta_order}")
    if grid.level_max < 0:
        raise ValueError(f"level_max must be >= 0, got {grid.level_max}")
    for p in grid.primes:
        try:
            _odd_prime(MAX_MODULUS)(p)
        except ValueError as exc:
            raise ValueError(f"primes {exc}, got {p}") from None
        if _truncation_terms(p, grid.level_max) > MAX_TRUNCATION_TERMS:
            raise ValueError(f"p^level_max = {p}^{grid.level_max} exceeds {MAX_TRUNCATION_TERMS} terms")
    walks = 2 * (grid.padic_n_max + 1) * sum(p**grid.level_max for p in grid.primes)
    if walks > MAX_COR2_TERMS:
        raise ValueError(
            f"cor2 sums 2 * (padic_n_max + 1) * (sum of p^level_max) = {walks} terms, "
            f"more than {MAX_COR2_TERMS}"
        )


def _resolve_character(spec: str, modulus: int):
    if spec == "principal":
        return principal_character(modulus)
    if spec == "quadratic":
        return quadratic_character(modulus)
    if spec.startswith("index:"):
        return enumerate_characters(modulus)[int(spec[6:])]
    char = load_character_file(spec[5:])
    if char.modulus != modulus:
        raise ValueError(f"character file has modulus {char.modulus}, flags say {modulus}")
    return char


def _check_point_flags(parser, args) -> None:
    """The point-flag checks that read two flags; a failure exits 2."""
    if math.gcd(args.zeta_k, args.zeta_order) != 1:
        parser.error(f"argument --zeta-k: {args.zeta_k} is not coprime to --zeta-order {args.zeta_order}")
    if args.char.startswith("index:") and int(args.char[6:]) >= euler_phi(args.d):
        parser.error(f"argument --char: modulus {args.d} has characters index:0..{euler_phi(args.d) - 1}")


def _point_config(args) -> TwistedConfig:
    """The parameter point named by the shared point flags, once its work is
    known to be within MAX_POINT_WORK."""
    char = _resolve_character(args.char, args.d)
    error = _work_error(args.d, args.zeta_order, char.value_order)
    if error:
        raise UsageError(error)
    return TwistedConfig.build(char, args.zeta_order, args.zeta_k % args.zeta_order, args.q)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_classic(args) -> int:
    poly = eulerian_recurrence(args.n)
    doc = {"n": args.n, "coeffs": [format_rational(c) for c in poly.coeffs]}
    status = 0
    if args.check_oracle:
        match = descent_oracle(args.n) == poly
        doc["oracle_match"] = match
        if not match:
            status = 1
    _emit(args, _dumps(doc) + "\n")
    return status


def _cmd_twisted(args) -> int:
    cfg = _point_config(args)
    indices = args.n
    values = twisted_values(cfg, max(indices))
    rows = []
    for n in indices:
        val = values[n].value
        emb = embed_complex(val, 1)
        rows.append({"n": n, "cyclotomic": val.to_json(), "complex": [emb.real, emb.imag]})
    doc = {
        "params": {
            "q": format_rational(args.q),
            "d": args.d,
            "char": args.char,
            "zeta_order": args.zeta_order,
            "zeta_k": args.zeta_k % args.zeta_order,
            "ambient_order": cfg.field.order,
        },
        "values": rows,
    }
    if args.format == "json":
        _emit(args, _dumps(doc) + "\n")
    else:
        lines = ["n,re,im,cyclotomic_order,cyclotomic_coeffs"]
        for row in rows:
            coeffs = ";".join(row["cyclotomic"]["coeffs"])
            lines.append(
                f"{row['n']},{format(row['complex'][0], '.17g')},"
                f"{format(row['complex'][1], '.17g')},{row['cyclotomic']['order']},{coeffs}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _truncation_terms(p: int, levels: int) -> int:
    """p^levels for a prime p, or the first partial power above
    MAX_TRUNCATION_TERMS."""
    terms = 1
    for _ in range(levels):
        terms *= p
        if terms > MAX_TRUNCATION_TERMS:
            break
    return terms


def _cmd_integral(args) -> int:
    q = args.q
    if _truncation_terms(args.p, args.levels) > MAX_TRUNCATION_TERMS:
        raise UsageError(
            f"p^levels = {args.p}^{args.levels} exceeds {MAX_TRUNCATION_TERMS} terms"
        )
    report = padic_truncation(args.n, q, args.p, args.levels)
    if args.format == "json":
        doc = {
            "n": args.n,
            "q": format_rational(q),
            "p": args.p,
            "exact": format_rational(report.exact),
            "levels": [
                {
                    "N": lv.level,
                    "partial": format_rational(lv.partial),
                    "valuation": "inf" if lv.valuation == math.inf else lv.valuation,
                }
                for lv in report.levels
            ],
        }
        _emit(args, _dumps(doc) + "\n")
    else:
        _emit(args, report.to_csv())
    return 0


def _cmd_lfun(args) -> int:
    cfg = _point_config(args)
    s = args.s
    result: LEvaluation = l_eval(
        LParams(s=s, cfg=cfg, tol=args.tol, max_terms=args.max_terms)
    )
    doc = {
        "s": [s.real, s.imag],
        "value": [result.value.real, result.value.imag],
        "terms": result.terms_used,
        "tail_bound": result.tail_bound,
    }
    _emit(args, _dumps(doc) + "\n")
    return 0


def _cmd_chars(args) -> int:
    chars = enumerate_characters(args.d)
    doc = {"modulus": args.d, "characters": [c.to_json() for c in chars]}
    _emit(args, _dumps(doc) + "\n")
    return 0


def _cmd_check(args) -> int:
    try:
        report = checks.run_relation(args.relation, args.grid)
    except KeyError:
        print(f"error: unknown relation {args.relation!r}", file=sys.stderr)
        return 2
    _emit(args, _dumps(report.to_json()) + "\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulertwist",
        description="Exact twisted Eulerian polynomials, alternating q-integrals, "
        "and their L-series, with relation checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rational = _flag_type(parse_rational)
    index = _flag_type(_bounded_int(0, MAX_INDEX))

    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--q", type=rational, required=True, help='rational, e.g. "2" or "5/2"')
    point.add_argument(
        "--d", type=_flag_type(_odd_int(MAX_MODULUS)), required=True,
        help=f"character modulus, odd, 1..{MAX_MODULUS}",
    )
    point.add_argument(
        "--char", type=_flag_type(_character_spec), default="principal",
        help="principal|quadratic|index:I|file:PATH; I < phi(d)",
    )
    point.add_argument(
        "--zeta-order", type=_flag_type(_odd_int(MAX_ZETA_ORDER)), default=1,
        help=f"twist order, odd, 1..{MAX_ZETA_ORDER}; the cycle length lcm(2, d, order) "
        f"times the degree of Q(zeta_lcm(order, character order)) is at most {MAX_POINT_WORK}",
    )
    point.add_argument("--zeta-k", type=int, default=1, help="twist exponent, coprime to the order")

    p = sub.add_parser("classic", help="classical Eulerian polynomial coefficients")
    p.add_argument("--n", type=index, required=True, help=f"polynomial index, 0..{MAX_INDEX}")
    p.add_argument("--check-oracle", action="store_true")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_classic)

    p = sub.add_parser("twisted", parents=[point], help="twisted Eulerian values on a parameter point")
    p.add_argument(
        "--n", type=_flag_type(_index_list), required=True,
        help=f'index list: "3", "0,2", or "0..5"; nonempty, each in 0..{MAX_INDEX}',
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_twisted)

    p = sub.add_parser("integral", help="alternating Riemann-sum truncation report")
    p.add_argument("--n", type=index, required=True, help=f"moment index, 0..{MAX_INDEX}")
    p.add_argument("--q", type=rational, required=True)
    p.add_argument(
        "--p", type=_flag_type(_odd_prime(MAX_TRUNCATION_TERMS)), required=True,
        help=f"odd prime, at most {MAX_TRUNCATION_TERMS}",
    )
    p.add_argument(
        "--levels", type=_flag_type(_bounded_int(0)), default=5,
        help=f"levels N = 0..LEVELS, >= 0; p^LEVELS at most {MAX_TRUNCATION_TERMS}",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_integral)

    p = sub.add_parser("lfun", parents=[point], help="L-series value at a complex point")
    p.add_argument(
        "--s", type=_flag_type(_complex_point), required=True,
        help='complex point "RE" or "RE,IM", finite; either part may be negative',
    )
    p.add_argument(
        "--tol", type=_flag_type(_tolerance), default=1e-12,
        help="bound on the series tail, a finite float > 0",
    )
    p.add_argument(
        "--max-terms", type=_flag_type(_bounded_int(1, MAX_TERMS)), default=200000,
        help=f"most series terms summed, 1..{MAX_TERMS}",
    )
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_lfun)

    p = sub.add_parser("chars", help="enumerate all characters of a modulus")
    p.add_argument(
        "--d", type=_flag_type(_odd_int(MAX_CHARS_MODULUS)), required=True,
        help=f"modulus, odd, 1..{MAX_CHARS_MODULUS}",
    )
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_chars)

    p = sub.add_parser("check", help="run one relation check over a grid")
    p.add_argument("--relation", required=True)
    p.add_argument(
        "--grid", type=_flag_type(_grid), default="default",
        help=f"default|file:PATH; a file's lists are nonempty and repeat no entry; its q values avoid 0 and -1; "
        f"its moduli and twist orders are odd, at most {MAX_MODULUS} and {MAX_ZETA_ORDER}, each point's work at "
        f"most {MAX_POINT_WORK}, and zeta_exponent coprime to each twist order; n_max and padic_n_max lie in "
        f"0..{MAX_INDEX}; primes are odd primes at most {MAX_MODULUS}, level_max >= 0 with each p^level_max at most "
        f"{MAX_TRUNCATION_TERMS}, and 2 * (padic_n_max + 1) * (sum of p^level_max) at most "
        f"{MAX_COR2_TERMS}; random_tables lies in 1..{MAX_RANDOM_TABLES}",
    )
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_check)

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
    if "zeta_k" in vars(args):
        _check_point_flags(parser, args)
    # Exact results may have more digits than Python's int-to-string limit
    # (3.10.7 and later) allows; lift it while the handler runs.  The flags
    # were parsed above, under the limit.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except (UsageError, OSError) as exc:  # OSError: a character or --output file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MathError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
