"""Only what the program runs stays in src/: every function defined there is
reached by a run of the CLI or by a call of the benchmark, or named on the
allowlist with its reason.

`program_runs` gives CLI invocations, every subcommand and every flag that
picks a code path, each with its exit code.  The benchmark under perfbench/ is a
caller too: BENCHMARK_CALLS calls, once each at a small input, every name it
reads that no run reaches, and the gate derives that set of names itself
(the helpers of test_benchmark_names.py), so a name the benchmark stops
reading, or starts reading, shows here.

The runs and calls go through the package in one fresh interpreter (this
file run as a script), each run through ``cli.main``, under the recorder of
conftest.py.  Fresh, because an earlier test fills caches that would hide
first calls: the interned fields, the Eulerian rows, the stop indices.

A function is defined in src/ where a ``def`` or a ``lambda`` stands, nested
ones included.  ``__repr__`` and ``__hash__`` are exempt, the first for
debugging, the second because the data model pairs it with ``__eq__``.  An
unreached function is deleted, with its export, or named in ALLOWLIST with
the reason it stays; an allowlisted function that some run reaches fails
too, so the list only shrinks by deletion or by use.
"""
import ast
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import eulertwist
from conftest import recording
from eulertwist import cli
from eulertwist.characters import enumerate_characters, quadratic_character
from eulertwist.cyclotomic import cyclotomic_field
from eulertwist.eulerian import periodic_power_sum
from eulertwist.series import TruncatedSeries, nth_taylor_coefficient
from eulertwist.twisted import TwistedConfig, twisted_gf, twisted_series_value, twisted_value
from test_benchmark_names import called_names, resolve, tracer

PACKAGE = Path(eulertwist.__file__).resolve().parent
EXEMPT = ("__repr__", "__hash__")

# At most 8 entries, each with the reason it stays.
ALLOWLIST = {
    "cyclotomic.CyclotomicNumber.__sub__": "field API beside + and *; the tests' field arithmetic reads it",
    "cyclotomic.CyclotomicNumber.__rsub__": "field API beside + and *; the tests' field arithmetic reads it",
    "cyclotomic.CyclotomicNumber.__neg__": "field API beside + and *; the tests' field arithmetic reads it",
    "cyclotomic.CyclotomicNumber.__bool__": "without it every element, zero included, is true; the tests' oracles "
                                            "read it (`if s`, `x or default`)",
    "cyclotomic.galois_conjugate": "ROADMAP item 13's galois relation reads it; the Galois-equivariance test does",
    "cyclotomic.lift_to_field": "ROADMAP item 13 reads it; the tests' independent character lift does",
}


def program_runs(directory) -> list:
    """[(argv, exit code)]: every subcommand, both formats, a default and a
    file grid, an alias and --output, a file: character and a bad one, lfun's
    --tol and --max-terms, classic --check-oracle, a run over the work budget,
    the point limits, and the integral run whose output is long enough for
    the divide-and-conquer decimal writer.  Files go into `directory`."""
    directory = Path(directory)
    char_file, bad_char, grid_file = (directory / name for name in ("char.json", "bad.json", "grid.json"))
    char_file.write_text(json.dumps(enumerate_characters(5)[1].to_json()))
    bad_char.write_text(json.dumps({"modulus": 5, "order": 4, "values": {"0": None, "1": 0, "2": 1, "3": 1, "4": 2}}))
    grid_file.write_text(json.dumps({
        "n_max": 3, "moduli": [1, 5, 9], "q": ["-3/7", 2], "zeta_orders": [1, 3], "zeta_exponent": 2,
        "primes": [3], "level_max": 2, "padic_n_max": 2, "random_tables": 2, "seed": 1,
    }))
    return [
        (["check", "--relation", "all"], 0),
        (["check", "--relation", "all", "--grid", f"file:{grid_file}"], 0),
        (["check", "--relation", "cor2", "--output", str(directory / "cor2.json")], 0),
        (["twisted", "--q", "2", "--d", "5", "--char", "index:1", "--zeta-order", "9", "--n", "0..6"], 0),
        (["twisted", "--q", "1", "--d", "15", "--char", "quadratic", "--zeta-order", "3", "--n", "0..4",
          "--format", "csv"], 0),
        (["twisted", "--q", "-3/7", "--d", "7", "--char", "index:2", "--zeta-order", "5", "--zeta-k", "2", "--n", "3"],
         0),
        (["twisted", "--q", "2", "--d", "97", "--char", "index:1", "--zeta-order", "99", "--n", "4"], 2),
        (["twisted", "--q", "0", "--d", "5", "--n", "1"], 2),
        (["twisted", "--q", "2", "--d", "9", "--char", "quadratic", "--n", "1"], 2),
        (["integral", "--n", "4", "--q", "4", "--p", "3", "--levels", "3"], 0),
        (["integral", "--n", "2", "--q", "6", "--p", "5", "--levels", "2", "--format", "json"], 0),
        (["integral", "--n", "1", "--q", "3000000000000000000000000000001", "--p", "3", "--levels", "7"], 0),
        (["lfun", "--q", "2", "--d", "5", "--char", "index:1", "--zeta-order", "9", "--s", "0.5,3"], 0),
        (["lfun", "--q", "5/2", "--d", "15", "--char", "quadratic", "--s=-2", "--tol", "1e-9", "--max-terms", "5000"],
         0),
        (["lfun", "--q", "3", "--d", "5", "--char", f"file:{char_file}", "--s", "2"], 0),
        (["lfun", "--q", "3", "--d", "5", "--char", f"file:{bad_char}", "--s", "2"], 3),
        (["classic", "--n", "4", "--check-oracle"], 0),
        (["chars", "--d", "15"], 0),
    ]


def exit_code(argv) -> int:
    """cli.main's exit code, a parser.error's included; stdout and stderr are dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def _point():
    return TwistedConfig.build(quadratic_character(3), 3, 1, F(5, 2))


# The names perfbench/ reads that no CLI run reaches: (module, attribute path), as called_names gives them.
BENCHMARK_CALLS = {
    ("cyclotomic", "CyclotomicNumber.__mul__"):
        lambda: cyclotomic_field(9).zeta_power(1) * (cyclotomic_field(9).zeta_power(4) + 1),
    ("cyclotomic", "CyclotomicNumber.inverse"): lambda: (cyclotomic_field(9).zeta_power(1) + 2).inverse(),
    ("series", "TruncatedSeries.__mul__"): lambda: TruncatedSeries((1, 1, 0)) * TruncatedSeries((1, -1, 0)),
    ("series", "TruncatedSeries.inverse"): lambda: TruncatedSeries((2, 1, 0)).inverse(),
    ("eulerian", "periodic_power_sum"): lambda: periodic_power_sum([1, -1, 0], 2, F(1, 2)),
    ("twisted", "twisted_series_value"): lambda: twisted_series_value(_point(), 2),
    ("twisted", "twisted_value"): lambda: twisted_value(_point(), 2),
    ("twisted", "twisted_gf"): lambda: twisted_gf(_point(), 3),
    ("series", "nth_taylor_coefficient"): lambda: nth_taylor_coefficient(TruncatedSeries((1, 1, 0)), 1),
}


def _key(code) -> tuple:
    return os.path.basename(code.co_filename), code.co_firstlineno, code.co_name


def package_keys(codes) -> set:
    """(file name, first line, name) of the codes defined in the package."""
    return {_key(code) for code in codes if Path(code.co_filename).resolve().parent == PACKAGE}


def main() -> None:
    """Read [(argv, exit code)] from stdin; run each, then each benchmark call;
    print the exit codes and the package functions each part reached, as JSON."""
    runs = json.load(sys.stdin)
    with recording() as by_runs:
        codes = [exit_code(argv) for argv, _ in runs]
    with recording() as by_calls:
        for call in BENCHMARK_CALLS.values():
            call()
    json.dump({"codes": codes, "runs": sorted(package_keys(by_runs)), "calls": sorted(package_keys(by_calls))},
              sys.stdout)


def defined_functions() -> dict:
    """{(file name, first line, name): module.qualified name} for every def and
    lambda in the package; a decorated function starts at its first decorator,
    as its code object does."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                lambda_ = isinstance(child, ast.Lambda)
                name = "<lambda>" if lambda_ else child.name
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                out[path.name, first, name] = f"{path.stem}.{prefix}{name}" + (f":{child.lineno}" if lambda_ else "")
                visit(child, path, f"{prefix}{name}.")
            else:
                visit(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def benchmark_names() -> dict:
    """{(module, attribute path): key of its code} for every function the
    benchmark's spans and files name; classes, dicts and modules are not
    functions and are left out."""
    names = {(module, path) for _, module, path in tracer().SPANS}
    for filename in ("workloads.py", "selftest.py", "tracer.py"):
        names |= called_names(filename)
    out = {}
    for module, path in names:
        target = inspect.unwrap(resolve(module, path))
        if inspect.isfunction(target):
            out[module, path] = _key(target.__code__)
    return out


def record(runs) -> dict:
    """main's JSON for these runs, from a fresh interpreter that imports this package."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, __file__], input=json.dumps(runs), capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    return {"codes": doc["codes"], "runs": {tuple(k) for k in doc["runs"]}, "calls": {tuple(k) for k in doc["calls"]}}


def test_every_function_in_src_is_reached(tmp_path):
    runs = program_runs(tmp_path)
    reached = record(runs)
    assert reached["codes"] == [code for _, code in runs]
    unreached_by_runs = {name for name, key in benchmark_names().items() if key not in reached["runs"]}
    assert set(BENCHMARK_CALLS) == unreached_by_runs, (
        f"benchmark calls for names no run reaches: missing {sorted(unreached_by_runs - set(BENCHMARK_CALLS))}, "
        f"stale {sorted(set(BENCHMARK_CALLS) - unreached_by_runs)}")
    defined = defined_functions()
    unreached = {name for key, name in defined.items()
                 if key not in reached["runs"] | reached["calls"] and not name.endswith(EXEMPT)}
    assert len(ALLOWLIST) <= 8
    assert unreached == set(ALLOWLIST), (
        f"unreached, not on the allowlist: {sorted(unreached - set(ALLOWLIST))}; "
        f"allowlisted but reached: {sorted(set(ALLOWLIST) - unreached)}")


if __name__ == "__main__":
    main()
