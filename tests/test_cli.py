"""CLI contract: grammar, determinism, JSON round-trips, exit codes."""
import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from eulertwist import cli
from eulertwist.lfunction import LEvaluation
from eulertwist.polys import Poly
from eulertwist.rationals import parse_rational


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_classic_output_is_exact(capsys):
    code, out = run_cli(capsys, "classic", "--n", "3")
    assert code == 0
    assert out == '{"n":3,"coeffs":["1/1","4/1","1/1"]}\n'


def test_classic_oracle_flag(capsys):
    code, out = run_cli(capsys, "classic", "--n", "4", "--check-oracle")
    assert code == 0
    assert json.loads(out)["oracle_match"] is True


def test_classic_oracle_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "descent_oracle", lambda n: Poly.from_ints(9, 9))
    code, out = run_cli(capsys, "classic", "--n", "4", "--check-oracle")
    assert code == 1
    assert json.loads(out)["oracle_match"] is False


def test_chars_lists_all(capsys):
    code, out = run_cli(capsys, "chars", "--d", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["characters"]) == 2


def test_twisted_anchor_values(capsys):
    code, out = run_cli(
        capsys, "twisted", "--q", "2", "--d", "3", "--char", "quadratic",
        "--zeta-order", "1", "--zeta-k", "1", "--n", "0..2",
    )
    assert code == 0
    doc = json.loads(out)
    complexes = [row["complex"] for row in doc["values"]]
    assert complexes == [[-4.0, 0.0], [12.0, 0.0], [-12.0, 0.0]]
    rationals = [parse_rational(row["cyclotomic"]["coeffs"][0]) for row in doc["values"]]
    assert rationals == [F(-4), F(12), F(-12)]


def test_twisted_csv_format(capsys):
    code, out = run_cli(
        capsys, "twisted", "--q", "2", "--d", "1", "--n", "0,1", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,re,im,cyclotomic_order,cyclotomic_coeffs"
    assert len(lines) == 3


def test_integral_csv_anchor(capsys):
    code, out = run_cli(capsys, "integral", "--n", "1", "--q", "4", "--p", "3", "--levels", "1")
    assert code == 0
    assert out == "N,S_N,valuation\n0,0/1,0\n1,-2/13,1\n"


def test_integral_json_round_trip(capsys):
    code, out = run_cli(
        capsys, "integral", "--n", "0", "--q", "4", "--p", "3", "--levels", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert parse_rational(doc["exact"]) == F(1)
    assert all(level["valuation"] == "inf" for level in doc["levels"])


def test_lfun_output(capsys):
    code, out = run_cli(
        capsys, "lfun", "--q", "2", "--d", "3", "--char", "quadratic", "--s", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"][0] - (-4.0)) < 1e-9
    assert doc["value"][1] == 0.0
    assert doc["terms"] > 0
    assert doc["tail_bound"] < 1e-12


def test_float_round_trip_17_digits(capsys):
    _, out = run_cli(
        capsys, "lfun", "--q", "2", "--d", "3", "--char", "quadratic", "--s", "0.5,0.25",
    )
    doc = json.loads(out)
    # re-encoding the parsed floats reproduces the document exactly
    assert cli._dumps(doc) + "\n" == out


def test_character_file_flag(capsys, tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"modulus": 3, "order": 2, "values": {"0": None, "1": 0, "2": 1}}))
    code, out = run_cli(
        capsys, "twisted", "--q", "2", "--d", "3", "--char", f"file:{path}", "--n", "0",
    )
    assert code == 0
    assert json.loads(out)["values"][0]["complex"] == [-4.0, 0.0]


def test_character_file_modulus_mismatch(capsys, tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"modulus": 3, "order": 2, "values": {"0": None, "1": 0, "2": 1}}))
    code = cli.main(["twisted", "--q", "2", "--d", "5", "--char", f"file:{path}", "--n", "0"])
    assert code == 3


def test_determinism_in_process(capsys):
    argv = ["twisted", "--q", "5/2", "--d", "5", "--char", "index:1",
            "--zeta-order", "3", "--zeta-k", "1", "--n", "0..3"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_determinism_subprocess():
    argv = [sys.executable, "-m", "eulertwist", "check", "--relation", "eq22"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["classic"])  # missing --n
    assert excinfo.value.code == 2


def test_math_precondition_exit_code(capsys):
    code = cli.main(["twisted", "--q", "2", "--d", "9", "--char", "quadratic", "--n", "0"])
    assert code == 3  # 9 is not squarefree
    err = capsys.readouterr().err
    assert "NotSquarefree" in err


@pytest.mark.parametrize("s", ["1e300", "-200"])
def test_lfun_beyond_double_precision_exits_three(s):
    argv = [sys.executable, "-m", "eulertwist", "lfun", "--q", "2", "--d", "3", "--s", s]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert "NotConverged" in proc.stderr and "Traceback" not in proc.stderr


def math_exit(capsys, *argv):
    """The exit code and stderr of a run that must stop on a MathError."""
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lfun", "--q", str(10**400), "--d", "3", "--s", "1"],  # q itself
    ["twisted", "--q", str(10**180), "--d", "3", "--n", "0..3"],  # A_3 is about 1e540
])
def test_values_beyond_double_range_exit_three(capsys, argv):
    code, err = math_exit(capsys, *argv)
    assert code == 3 and "OutsideDoubleRange" in err


@pytest.mark.parametrize("relation", ["thm3", "thm6"])
def test_grid_q_beyond_double_range_exits_three(capsys, tmp_path, relation):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"q": [str(10**400)]}))
    code, err = math_exit(capsys, "check", "--relation", relation, "--grid", f"file:{path}")
    assert code == 3 and "OutsideDoubleRange" in err


def test_unknown_relation_is_usage_error(capsys):
    code = cli.main(["check", "--relation", "nonsense"])
    assert code == 2


def test_check_relation_pass(capsys):
    code, out = run_cli(capsys, "check", "--relation", "eq28-residual")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["pass"] > 0


def test_check_relation_alias(capsys):
    code, out = run_cli(capsys, "check", "--relation", "witt")
    assert code == 0
    assert json.loads(out)["relation"] == "eq15"


def test_check_grid_file(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"n_max": 2, "moduli": [1, 3], "q": ["2"], "zeta_orders": [1]}))
    code, out = run_cli(capsys, "check", "--relation", "thm2", "--grid", f"file:{path}")
    assert code == 0
    doc = json.loads(out)
    # 3 characters across moduli {1, 3}, one zeta, one q, n in 0..2
    assert doc["summary"] == {"pass": 9, "fail": 0, "skip": 0}


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = cli.main(["classic", "--n", "2", "--output", str(target)])
    assert code == 0
    assert json.loads(target.read_text()) == {"n": 2, "coeffs": ["1/1", "1/1"]}


def usage_exit(capsys, *argv):
    """The exit code of a run that must stop at the argparse boundary, and stderr."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    return excinfo.value.code, capsys.readouterr().err


def test_zero_denominator_q_is_usage_error(capsys):
    code, err = usage_exit(capsys, "twisted", "--q", "1/0", "--d", "3", "--n", "0")
    assert code == 2 and "--q" in err and "Traceback" not in err


def test_missing_grid_file_is_usage_error(capsys, tmp_path):
    code, err = usage_exit(capsys, "check", "--relation", "thm2", "--grid", f"file:{tmp_path / 'none.json'}")
    assert code == 2 and "--grid" in err


@pytest.mark.parametrize("indices", ["5..2", "-1"])
def test_empty_or_negative_index_list_is_usage_error(capsys, indices):
    code, err = usage_exit(capsys, "twisted", "--q", "2", "--d", "3", "--n", indices)
    assert code == 2 and "--n" in err


def test_negative_levels_is_usage_error(capsys):
    code, err = usage_exit(capsys, "integral", "--n", "1", "--q", "4", "--p", "3", "--levels", "-1")
    assert code == 2 and "--levels" in err


def test_max_terms_above_bound_is_rejected_before_summing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "l_eval", lambda params: pytest.fail("the series was started"))
    code, err = usage_exit(
        capsys, "lfun", "--q", "2", "--d", "3", "--s=-1e9", "--max-terms", str(cli.MAX_TERMS + 1),
    )
    assert code == 2 and "--max-terms" in err


def test_truncation_above_bound_is_rejected_before_summing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "padic_truncation", lambda *args: pytest.fail("the sums were started"))
    code = cli.main(["integral", "--levels", "20", "--q", "4", "--p", "3", "--n", "2"])
    assert code == 2
    assert str(cli.MAX_TRUNCATION_TERMS) in capsys.readouterr().err
    # a large level count is bounded without computing p^levels in full
    assert cli.main(["integral", "--levels", "1000000000", "--q", "4", "--p", "3", "--n", "2"]) == 2


@pytest.mark.parametrize("p", ["9", "2", "1", "-3", "1000000000000000000000000000057"])
def test_integral_p_outside_bounds_is_rejected_before_summing(capsys, monkeypatch, p):
    # the last value used to run trial division for as long as the run lasted
    monkeypatch.setattr(cli, "padic_truncation", lambda *args: pytest.fail("the sums were started"))
    code, err = usage_exit(capsys, "integral", "--n", "1", "--q", "4", "--p", p, "--levels", "0")
    assert code == 2 and "--p" in err and str(cli.MAX_TRUNCATION_TERMS) in err


def test_integral_at_a_large_q_and_p_is_exact_and_quick(capsys):
    # Inside every bound: a walk that updated all 41 sums at each of the
    # 19997 terms took 13 s here (2-vCPU VM).  The digest pins the stdout.
    start = time.monotonic()
    code, out = run_cli(capsys, "integral", "--n", "40", "--q", "19998", "--p", "19997", "--levels", "1")
    elapsed = time.monotonic() - start
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c7232cc2bfd3e72896b734895f66f17fb3932c56fcd20206e2779928418fb6dc"
    )
    assert elapsed < 5.0


def test_integral_p_bound_is_documented_in_help(capsys):
    with pytest.raises(SystemExit):
        cli.main(["integral", "--help"])
    assert f"odd prime, at most {cli.MAX_TRUNCATION_TERMS}" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command, bound", [
    ("lfun", "MAX_TERMS"), ("integral", "MAX_TRUNCATION_TERMS"),
    ("twisted", "MAX_INDEX"), ("classic", "MAX_INDEX"), ("integral", "MAX_INDEX"),
    ("twisted", "MAX_MODULUS"), ("twisted", "MAX_ZETA_ORDER"), ("twisted", "MAX_POINT_WORK"),
    ("lfun", "MAX_MODULUS"), ("lfun", "MAX_ZETA_ORDER"), ("lfun", "MAX_POINT_WORK"),
    ("check", "MAX_MODULUS"), ("check", "MAX_ZETA_ORDER"), ("check", "MAX_POINT_WORK"),
    ("check", "MAX_INDEX"), ("check", "MAX_TRUNCATION_TERMS"), ("check", "MAX_COR2_TERMS"),
    ("check", "MAX_RANDOM_TABLES"),
    ("chars", "MAX_CHARS_MODULUS"),
])
def test_bounds_are_documented_in_help(capsys, command, bound):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--help"])
    assert excinfo.value.code == 0
    assert str(getattr(cli, bound)) in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, expected", [("-1e9", complex(-1e9)), ("-0.5,3", complex(-0.5, 3)), ("-.5", complex(-0.5))]
)
def test_negative_s_values_parse(capsys, monkeypatch, text, expected):
    seen = []

    def fake_eval(params):
        seen.append(params.s)
        return LEvaluation(value=0j, terms_used=1, tail_bound=0.0)

    monkeypatch.setattr(cli, "l_eval", fake_eval)
    code, out = run_cli(capsys, "lfun", "--q", "2", "--d", "3", "--s", text)
    assert code == 0 and seen == [expected]
    assert json.loads(out)["s"] == [expected.real, expected.imag]


def test_unreadable_character_and_output_files_are_usage_errors(capsys, tmp_path):
    missing = tmp_path / "none" / "x.json"
    assert cli.main(["twisted", "--q", "2", "--d", "3", "--char", f"file:{missing}", "--n", "0"]) == 2
    assert cli.main(["classic", "--n", "3", "--output", str(missing)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, stub, argv", [
    ("twisted", "twisted_values", ["--q", "2", "--d", "3", "--n", "0,41"]),
    ("classic", "eulerian_recurrence", ["--n", "41"]),
    ("classic", "eulerian_recurrence", ["--n", "-1"]),
    ("integral", "padic_truncation", ["--q", "4", "--p", "3", "--levels", "2", "--n", "41"]),
])
def test_index_outside_bounds_is_rejected_before_computing(capsys, monkeypatch, command, stub, argv):
    monkeypatch.setattr(cli, stub, lambda *args: pytest.fail("the computation was started"))
    code, err = usage_exit(capsys, command, *argv)
    assert code == 2 and "--n" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_unmeetable_tolerance_is_rejected_before_summing(capsys, monkeypatch, tol):
    monkeypatch.setattr(cli, "l_eval", lambda params: pytest.fail("the series was started"))
    code, err = usage_exit(capsys, "lfun", "--q", "2", "--d", "3", "--s", "1", "--tol", tol)
    assert code == 2 and "--tol" in err


def test_rationals_longer_than_the_default_digit_limit_are_printed(capsys, monkeypatch):
    reports = []
    real = cli.padic_truncation
    monkeypatch.setattr(cli, "padic_truncation", lambda *args: reports.append(real(*args)) or reports[-1])
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "integral", "--n", "2", "--q", "4", "--p", "3", "--levels", "9")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # restored after the run
    printed = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert max(len(text) for text in printed) > limit
    sys.set_int_max_str_digits(0)  # parsing them back needs the limit lifted too
    try:
        parsed = [parse_rational(text) for text in printed]
    finally:
        sys.set_int_max_str_digits(limit)
    assert parsed == [lv.partial for lv in reports[0].levels]


def test_modulus_above_bound_is_rejected_before_computing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "twisted_values", lambda *args: pytest.fail("the computation was started"))
    code, err = usage_exit(capsys, "twisted", "--q", "2", "--d", str(cli.MAX_MODULUS + 2), "--n", "0")
    assert code == 2 and "--d" in err and str(cli.MAX_MODULUS) in err


def test_zeta_order_above_bound_is_rejected_before_computing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "l_eval", lambda params: pytest.fail("the series was started"))
    code, err = usage_exit(
        capsys, "lfun", "--q", "2", "--d", "3", "--zeta-order", str(cli.MAX_ZETA_ORDER + 2), "--s", "2",
    )
    assert code == 2 and "--zeta-order" in err and str(cli.MAX_ZETA_ORDER) in err


@pytest.mark.parametrize("command, extra", [("twisted", ["--n", "0"]), ("lfun", ["--s", "2"])])
def test_point_work_above_bound_is_rejected_before_any_field(capsys, monkeypatch, command, extra):
    from eulertwist import twisted

    monkeypatch.setattr(twisted, "cyclotomic_field", lambda order: pytest.fail("a field was built"))
    # cycle length lcm(2, 91, 11) = 2002 times the degree phi(11) = 10
    code = cli.main([command, "--q", "2", "--d", "91", "--zeta-order", "11", *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert "2002" in err and str(cli.MAX_POINT_WORK) in err and "Traceback" not in err


def test_point_work_counts_the_character_order(capsys, monkeypatch):
    from eulertwist import twisted

    monkeypatch.setattr(twisted, "cyclotomic_field", lambda order: pytest.fail("a field was built"))
    # index:1 mod 97 has order 96: cycle 582 times the degree phi(96) = 32 of Q(zeta_96)
    code = cli.main(["twisted", "--q", "2", "--d", "97", "--char", "index:1", "--zeta-order", "3", "--n", "0"])
    assert code == 2 and str(cli.MAX_POINT_WORK) in capsys.readouterr().err


GRID_BOUND_CASES = [
    ({"moduli": [cli.MAX_MODULUS + 2], "zeta_orders": [1]}, f"1..{cli.MAX_MODULUS}"),
    ({"moduli": [3], "zeta_orders": [cli.MAX_ZETA_ORDER + 2]}, f"1..{cli.MAX_ZETA_ORDER}"),
    ({"moduli": [4], "zeta_orders": [1]}, "must be odd"),
    ({"moduli": [3], "zeta_orders": [2]}, "must be odd"),
    ({"moduli": [91], "zeta_orders": [1, 11]}, f"exceeds {cli.MAX_POINT_WORK}"),  # 2002 * 10 at zeta order 11
    ({"n_max": -1}, "n_max must"),
    ({"n_max": cli.MAX_INDEX + 1}, "n_max must"),
    ({"padic_n_max": cli.MAX_INDEX + 1}, "padic_n_max must"),
    ({"primes": [9]}, "primes must"),
    ({"primes": [2]}, "primes must"),
    ({"primes": [101]}, "primes must"),
    ({"level_max": -1}, "level_max must"),
    ({"primes": [5], "level_max": 9}, "p^level_max = 5^9"),
    ({"primes": [97], "level_max": 2, "padic_n_max": 2}, "(padic_n_max + 1)"),
    ({"moduli": []}, "moduli must"),
    ({"q": []}, "q must"),
    ({"zeta_orders": []}, "zeta_orders must"),
    ({"primes": []}, "primes must"),
    ({"random_tables": -3}, "random_tables must"),
    ({"random_tables": cli.MAX_RANDOM_TABLES + 1}, "random_tables must"),
    ({"zeta_orders": [1, 9], "zeta_exponent": 3}, "zeta_exponent 3"),
    ({"moduli": [3, 3]}, "moduli lists 3 more than once"),
    ({"q": ["2", "4/2"]}, "q lists 2 more than once"),
    ({"q": [0]}, "q must avoid 0 and -1, got 0"),
    ({"q": ["2", "-1"]}, "q must avoid 0 and -1, got -1"),
    ({"zeta_orders": [1, 3, 3]}, "zeta_orders lists 3 more than once"),
    ({"primes": [3, 5, 3]}, "primes lists 3 more than once"),
]


@pytest.mark.parametrize("doc, message", GRID_BOUND_CASES, ids=[f"doc{i}" for i in range(len(GRID_BOUND_CASES))])
def test_grid_file_outside_bounds_is_rejected_before_checking(capsys, monkeypatch, tmp_path, doc, message):
    monkeypatch.setattr(cli.checks, "run_relation", lambda *args: pytest.fail("the check was started"))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    code, err = usage_exit(capsys, "check", "--relation", "thm2", "--grid", f"file:{path}")
    assert code == 2 and "--grid" in err and message in " ".join(err.split()) and "Traceback" not in err


def test_cor2_grid_at_the_walk_bound_is_accepted(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli.checks, "run_relation", lambda name, grid: cli.checks.CheckReport(name, ""))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"primes": [97], "level_max": 2, "padic_n_max": 1}))
    assert 2 * 2 * 97**2 <= cli.MAX_COR2_TERMS
    code, _ = run_cli(capsys, "check", "--relation", "cor2", "--grid", f"file:{path}")
    assert code == 0


@pytest.mark.parametrize("doc", [
    {"primes": [11], "level_max": 3, "padic_n_max": 14},
    {"primes": [17], "level_max": 2, "padic_n_max": 40},
])
def test_cor2_file_grid_passes_every_point(capsys, tmp_path, doc):
    # Corollary 2 bounds each valuation v_p(U_N - limit) below by N and says
    # nothing of their order across levels; these grids hold points whose
    # valuation at a low level is high by accident.
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "check", "--relation", "cor2", "--grid", f"file:{path}")
    assert code == 0
    assert json.loads(out)["summary"] == {"pass": 2 * (doc["padic_n_max"] + 1), "fail": 0, "skip": 0}


def test_reach_grid_is_within_bounds(capsys, monkeypatch, tmp_path):
    seen = []

    def fake_run(name, grid):
        seen.append(grid)
        return cli.checks.CheckReport(name, "")

    monkeypatch.setattr(cli.checks, "run_relation", fake_run)
    path = tmp_path / "grid.json"
    doc = {"n_max": 8, "moduli": [1, 3, 5, 7, 15], "zeta_orders": [1, 3, 9, 27], "q": ["2", "5/2"]}
    path.write_text(json.dumps(doc))
    code, _ = run_cli(capsys, "check", "--relation", "thm2", "--grid", f"file:{path}")
    assert code == 0 and seen[0].zeta_orders == (1, 3, 9, 27)


def test_chars_modulus_above_bound_is_rejected_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_characters", lambda d: pytest.fail("the enumeration was started"))
    code, err = usage_exit(capsys, "chars", "--d", "100003")
    assert code == 2 and "--d" in err and str(cli.MAX_CHARS_MODULUS) in err


@pytest.mark.parametrize("flag, argv", [
    ("--d", ["--d", "0"]),
    ("--d", ["--d", "-3"]),
    ("--d", ["--d", "4"]),
    ("--zeta-order", ["--d", "3", "--zeta-order", "2"]),
    ("--zeta-order", ["--d", "3", "--zeta-order", "0"]),
    ("--zeta-k", ["--d", "3", "--zeta-order", "3", "--zeta-k", "3"]),
    ("--char", ["--d", "3", "--char", "bogus"]),
    ("--char", ["--d", "3", "--char", "index:99"]),
    ("--char", ["--d", "3", "--char", "index:x"]),
])
def test_point_flag_usage_errors_exit_two(capsys, monkeypatch, flag, argv):
    monkeypatch.setattr(cli, "twisted_values", lambda *args: pytest.fail("the computation was started"))
    monkeypatch.setattr(cli, "enumerate_characters", lambda d: pytest.fail("the enumeration was started"))
    code, err = usage_exit(capsys, "twisted", "--q", "2", "--n", "0", *argv)
    assert code == 2 and flag in err and "Traceback" not in err
