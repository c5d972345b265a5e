"""CLI fuzz: every subcommand with valid and invalid flag values, in process.

Each draw must end in a documented exit code (0 success, 1 failed check,
2 usage error, 3 violated precondition) with no traceback.  Values are
drawn from bounded sets, so no draw starts a long computation.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertwist import cli

# (valid, invalid) choices per kind of flag value
RATIONALS = (("2", "5/2", "-3/7", "1/2", "1", "11/10", "-2"), ("0", "-1", "1/0", "abc", "", "2.5", "-1e9"))
MODULI = (("1", "3", "5", "7", "9", "15"), ("-3", "0", "2", "x", "", "1.5"))
SMALL_INTS = (("0", "1", "2", "3", "4"), ("-1", "-3", "x", "", "1.5"))
INDEX_LISTS = (("0", "3", "0..3", "0,2", "1..2"), ("3..1", "-1", "-2..1", "0..", "a", "", "1,,2"))
CHARS = (("principal", "quadratic", "index:0", "index:1"), ("index:99", "index:x", "file:/nonexistent", "bogus"))
ZETA_ORDERS = (("1", "3", "9"), ("2", "0", "-3", "z"))
POINTS = (("0", "1", "-2", "-1e9", "-0.5,3", "-.5", "2.5,-1", "1e300"), ("nan", "inf", "1,2,3", "x", ""))
TOLS = (("1e-12", "1e-6"), ("0", "-1", "nan", "x"))
MAX_TERMS = (("100", "5000", "200000"), ("0", "-5", "1000000000000", "x"))
PRIMES = (("3", "5", "7"), ("2", "4", "1", "0", "-3", "x"))
LEVELS = (("0", "1", "2", "3"), ("-1", "20", "1000000000", "x"))
PADIC_Q = (("4", "-2", "10", "6"), ("2", "1/0", "x"))
CLASSIC_N = (("0", "1", "3", "7"), ("-1", "12", "x"))
FORMATS = (("json", "csv"), ("xml",))
RELATIONS = ("eq15", "witt", "thm2", "thm3", "eq22", "cor2", "eq28-residual", "nonsense")

GRID_FILES = {
    "small": {"n_max": 2, "moduli": [1, 3], "q": ["2"], "zeta_orders": [1, 3]},
    "padic": {"n_max": 1, "moduli": [3], "q": ["4"], "primes": [3], "level_max": 2, "padic_n_max": 1},
    "bad-q": {"q": ["1/0"]},
    "text-q": {"q": ["x"]},
    "negative-n": {"n_max": -1, "moduli": [3], "q": ["2"], "zeta_orders": [1]},
    "even-modulus": {"n_max": 1, "moduli": [2], "q": ["2"], "zeta_orders": [1]},
    "even-twist": {"n_max": 1, "moduli": [3], "q": ["2"], "zeta_orders": [2]},
    "not-a-list": {"moduli": 3},
    "not-an-object": [1, 2],
}


@pytest.fixture(scope="module")
def grid_specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("grids")
    specs = ["default", "bogus", "file:/nonexistent"]
    for name, doc in GRID_FILES.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        specs.append(f"file:{path}")
    broken = root / "broken.json"
    broken.write_text("{not json")
    specs.append(f"file:{broken}")
    return specs


def value(choices):
    """A valid value nine times in ten, else an invalid one, so that most
    draws get past parsing and some invalid value still shows up often."""
    valid, invalid = choices
    return st.integers(0, 9).flatmap(lambda i: st.sampled_from(invalid if i == 0 else valid))


def flags(required, optional):
    """Every required flag and some optional ones; leaving a required flag
    out is a plain argparse error, which the token-sequence test covers."""
    return st.fixed_dictionaries(
        {name: value(choices) for name, choices in required.items()},
        optional={name: value(choices) for name, choices in optional.items()},
    )


def argv_for(command, drawn):
    argv = [command]
    for name, value in drawn.items():
        flag = "--" + name.replace("_", "-")
        argv.extend([flag] if value is True else [flag, value])
    return argv


POINT_FLAGS = {"char": CHARS, "zeta_order": ZETA_ORDERS, "zeta_k": SMALL_INTS}
COMMANDS = {
    "classic": flags({"n": CLASSIC_N}, {"check_oracle": ((True,), (True,))}),
    "twisted": flags(
        {"q": RATIONALS, "d": MODULI, "n": INDEX_LISTS}, {**POINT_FLAGS, "format": FORMATS},
    ),
    "integral": flags(
        {"n": SMALL_INTS, "q": PADIC_Q, "p": PRIMES}, {"levels": LEVELS, "format": FORMATS},
    ),
    "lfun": flags(
        {"q": RATIONALS, "d": MODULI, "s": POINTS},
        {**POINT_FLAGS, "tol": TOLS, "max_terms": MAX_TERMS},
    ),
    "chars": flags({"d": MODULI}, {}),
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_documented_exit(argv):
    code, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(COMMANDS)).flatmap(lambda c: COMMANDS[c].map(lambda d: argv_for(c, d))))
def test_subcommands_exit_with_documented_codes(argv):
    assert_documented_exit(argv)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_check_exits_with_documented_codes(grid_specs, data):
    spec = data.draw(st.sampled_from(grid_specs))
    # the default grid takes seconds per relation; draw only the fast one there
    relation = "eq28-residual" if spec == "default" else data.draw(st.sampled_from(RELATIONS))
    assert_documented_exit(["check", "--relation", relation, "--grid", spec])


# The point flags' limits that a grid file's keys set too: a usage error naming the flag, as in the file.
SEAMS = [
    (["--q", "0", "--d", "5"], "argument --q"),
    (["--q", "-1", "--d", "5"], "argument --q"),
    (["--q", "2", "--d", "1", "--char", "quadratic"], "argument --char"),
    (["--q", "2", "--d", "9", "--char", "quadratic"], "argument --char"),
]


@pytest.mark.parametrize("command, tail", [("twisted", ["--n", "1"]), ("lfun", ["--s", "2"])])
@pytest.mark.parametrize("flags, named", SEAMS)
def test_point_limits_are_usage_errors(command, tail, flags, named):
    code, err = run([command, *flags, *tail])
    assert code == 2 and named in err, (code, err)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(("--q", "--n", "--d", "-1", "-1e9", "--", "x", "--s", "check", "twisted")), max_size=6))
def test_arbitrary_token_sequences(tokens):
    assert_documented_exit(tokens)
