"""CLI contract: grammar, determinism, JSON round-trips, exit codes."""
import hashlib
import json
import math
import random
import re
import subprocess
import sys
import time
from dataclasses import fields, replace
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from eulertwist import checks, cli
from eulertwist.cli import _exact_moments_s, _field_s, _float_sums_s, _height, _point_parts, _walk_s
from eulertwist.lfunction import LEvaluation, LParams
from eulertwist.ntheory import euler_phi
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
    monkeypatch.setattr(cli, "descent_oracle", lambda n: (9, 9))
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
    code = cli.main(["integral", "--n", "1", "--q", "2", "--p", "3"])
    assert code == 3  # q - 1 is not divisible by 3
    err = capsys.readouterr().err
    assert "NotPadicallyConvergent" in err


@pytest.mark.parametrize("s", ["-200"])
def test_lfun_beyond_double_precision_exits_three(s):
    argv = [sys.executable, "-m", "eulertwist", "lfun", "--q", "2", "--d", "3", "--s", s]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert "NotConverged" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("q, d, message", [
    ("2", "3", "term 7 overflows double precision"), ("100000000000000000000", "1", "non-finite value"),
])
def test_lfun_at_a_huge_im_s_is_not_converged(capsys, q, d, message):
    code, err = math_exit(capsys, "lfun", "--q", q, "--d", d, "--s", "0,1e308")
    assert code == 3 and err == f"error: NotConverged: {message}\n"


def test_lfun_at_a_huge_positive_re_s_sums_one_term():
    # every term past m = 1 is below 2^-1e300, and the prefactor 2 * 3^(1 - 1e300) rounds to 0
    argv = [sys.executable, "-m", "eulertwist", "lfun", "--q", "2", "--d", "3", "--s", "1e300"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout) == {"s": [1e300, 0], "value": [0, 0], "terms": 1, "tail_bound": 0}


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


def skipped_check(capsys, relation, grid, reason):
    """The check exits 1, every point a skip whose detail names `reason`."""
    code, out = run_cli(capsys, "check", "--relation", relation, "--grid", grid)
    points = json.loads(out)["points"]
    assert code == 1 and points
    assert all(p["verdict"] == "skip" and reason in p["detail"] for p in points), points


@pytest.mark.parametrize("relation", ["thm3", "thm6"])
def test_grid_q_beyond_double_range_exits_three(capsys, tmp_path, relation):
    # lfun at this q exits 3 (test_values_beyond_double_range_exit_three);
    # a check skips each such point with its reason instead, and exits 1
    # because no point passes.  One small point: around the default grid's
    # other points, thm2 at this q takes 80 s, over the work budget.
    grid = grid_file(tmp_path, {"q": [str(10**400)], "moduli": [3], "zeta_orders": [1], "n_max": 1})
    skipped_check(capsys, relation, grid, "OutsideDoubleRange: q exceeds double range")


# Above 1 exactly but 1.0 as a double, so no term of the series decays: the
# sum is NotConverged, not OutsideConvergence, and the work model of check
# prices it without dividing by ln q = 0.
Q_ROUNDING_TO_ONE = "10000000000000000001/10000000000000000000"


@pytest.mark.parametrize("argv", [
    ["lfun", "--q", Q_ROUNDING_TO_ONE, "--d", "1", "--s", "2"],
    ["check", "--relation", "thm6", "--grid",
     {"q": [Q_ROUNDING_TO_ONE], "moduli": [3], "zeta_orders": [1], "n_max": 1}],
])
def test_q_above_one_that_rounds_to_one_is_not_converged(capsys, tmp_path, argv):
    reason = "NotConverged: tail bound not reached within 200000 terms"
    if argv[0] == "check":  # each point is skipped with the reason lfun exits 3 with
        skipped_check(capsys, argv[2], grid_file(tmp_path, argv[-1]), reason)
    else:
        code, err = math_exit(capsys, *argv)
        assert code == 3 and reason in err


def test_thm3_and_thm6_skip_the_points_the_l_series_cannot_reach(capsys, tmp_path):
    # q = 1/2 lies outside the series' region of convergence; the q = 2 points still get verdicts.
    grid = grid_file(tmp_path, {"n_max": 3, "moduli": [1, 3], "q": ["1/2", "2"], "zeta_orders": [1]})
    for relation, passed, skipped in (("thm3", 12, 12), ("thm6", 11, 13)):
        code, out = run_cli(capsys, "check", "--relation", relation, "--grid", grid)
        doc = json.loads(out)
        assert code == 0 and doc["summary"] == {"pass": passed, "fail": 0, "skip": skipped}, relation
        half = [p for p in doc["points"] if " q=1/2 " in p["point"]]
        modulus_one = "series misses the index-0 term at modulus 1"  # thm6's skip at d = 1, n = 0, any q
        assert len(half) == 12 and all(
            p["verdict"] == "skip" and (p["detail"].startswith("OutsideConvergence: ") or p["detail"] == modulus_one)
            for p in half
        ), relation


def test_unknown_relation_is_usage_error(capsys, monkeypatch):
    # --relation is checked by argparse, before the grid file is read
    monkeypatch.setattr(cli, "_grid", lambda spec: pytest.fail("the grid file was read"))
    code, err = usage_exit(capsys, "check", "--relation", "nonsense", "--grid", "file:/nonexistent")
    assert code == 2 and "--relation" in err and "thm2" in err and "cor2" in err


def test_unknown_relation_lists_all(capsys):
    code, err = usage_exit(capsys, "check", "--relation", "every")
    assert code == 2 and "'all'" in err


def test_all_exits_one_when_one_report_fails(capsys, monkeypatch):
    def run(name, grid):
        report = passing_report(name)
        if name == "thm5-residual":
            report.points.append(checks.PointResult("bad", "fail"))
        return report

    monkeypatch.setattr(cli.checks, "run_relation", run)
    code, out = run_cli(capsys, "check", "--relation", "all")
    docs = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and [doc["relation"] for doc in docs] == list(checks.RELATIONS)
    assert [doc["summary"]["fail"] for doc in docs] == [token == "thm5-residual" for token in checks.RELATIONS]


def check_price(relation, grid) -> float:
    return cli.predicted_seconds(SimpleNamespace(command="check", relation=relation, grid=grid))


# A grid that the sum of the eleven relation prices (8.41 s) would refuse and the sweep (4.42 s) admits.
PROBE_GRID = {"n_max": 6, "moduli": list(range(1, 30, 2)), "zeta_orders": [1, 3, 5, 9], "q": ["2", "5/2", "-3/7"]}


def test_all_is_priced_at_most_the_sum_of_the_relations():
    """`all` counts each held quantity once, so no `all` run the sum of the prices admitted is refused."""
    rng = random.Random(20261020)
    for _ in range(300):
        grid = draw_grid(rng)
        assert 0 < check_price("all", grid) <= sum(check_price(token, grid) for token in checks.RELATIONS), grid


def test_the_probe_grid_all_run_is_admitted_and_passes(capsys, tmp_path):
    code, out = run_cli(capsys, "check", "--relation", "all", "--grid", grid_file(tmp_path, PROBE_GRID))
    assert code == 0 and [json.loads(line)["relation"] for line in out.splitlines()] == list(checks.RELATIONS)


def test_all_exits_two_when_its_sweep_is_over_the_budget(capsys, monkeypatch, tmp_path):
    # at n_max 8 the sweep prices 5.43 s, though each relation alone is admitted
    spec = grid_file(tmp_path, {**PROBE_GRID, "n_max": 8})
    grid = cli._grid(spec)
    assert all(check_price(token, grid) <= cli.MAX_WORK_S for token in checks.RELATIONS)
    no_work(monkeypatch)
    assert cli.main(["check", "--relation", "all", "--grid", spec]) == 2
    assert "work budget MAX_WORK_S" in capsys.readouterr().err


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


def test_check_that_checks_nothing_exits_one(capsys, tmp_path):
    # thm6 skips n = 0 at modulus 1, the only point of this grid
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"moduli": [1], "zeta_orders": [1], "q": ["2"], "n_max": 0}))
    code, out = run_cli(capsys, "check", "--relation", "thm6", "--grid", f"file:{path}")
    assert code == 1
    assert json.loads(out)["summary"] == {"pass": 0, "fail": 0, "skip": 1}


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


# One run per subcommand and format, and whether classic's oracle is patched to disagree (exit 1); GRID stands for
# a small grid file, and the thm6 one checks nothing (exit 1).
TWISTED_RUN = ["twisted", "--q", "5/2", "--d", "5", "--char", "quadratic", "--zeta-order", "3", "--n", "0..3"]
INTEGRAL_RUN = ["integral", "--n", "2", "--q", "4", "--p", "3", "--levels", "3"]
OUTPUT_RUNS = [
    pytest.param(["classic", "--n", "4"], False, id="classic"),
    pytest.param(["classic", "--n", "4", "--check-oracle"], False, id="classic-oracle"),
    pytest.param(["classic", "--n", "4", "--check-oracle"], True, id="classic-oracle-mismatch"),
    pytest.param(TWISTED_RUN, False, id="twisted-json"),
    pytest.param([*TWISTED_RUN, "--format", "csv"], False, id="twisted-csv"),
    pytest.param(INTEGRAL_RUN, False, id="integral-csv"),
    pytest.param([*INTEGRAL_RUN, "--format", "json"], False, id="integral-json"),
    pytest.param(["lfun", "--q", "2", "--d", "3", "--char", "quadratic", "--s", "0.5,1"], False, id="lfun"),
    pytest.param(["chars", "--d", "5"], False, id="chars"),
    pytest.param(["check", "--relation", "eq15"], False, id="check-eq15"),
    pytest.param(["check", "--relation", "all", "--grid", "GRID"], False, id="check-all"),
    pytest.param(["check", "--relation", "thm6", "--grid", "GRID"], False, id="check-nothing"),
]


@pytest.mark.parametrize("argv, mismatch", OUTPUT_RUNS)
def test_output_file_holds_the_bytes_of_stdout(capsys, monkeypatch, tmp_path, argv, mismatch):
    if mismatch:
        monkeypatch.setattr(cli, "descent_oracle", lambda n: (9, 9))
    doc = {"n_max": 0, "moduli": [1], "zeta_orders": [1], "q": ["2"]} if "thm6" in argv else \
        {"n_max": 1, "moduli": [1, 3], "zeta_orders": [1, 3], "q": ["2"], "primes": [3], "level_max": 2}
    argv = [grid_file(tmp_path, doc) if token == "GRID" else token for token in argv]
    code, out = run_cli(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--output", str(target)) == (code, "")
    assert target.read_bytes() == out.encode() and out.endswith("\n")
    assert code == (1 if mismatch or "thm6" in argv else 0)


def test_output_is_the_last_option_of_every_command(capsys):
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert {run.values[0][0] for run in OUTPUT_RUNS} == set(commands)
    for command in commands:
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        options = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
        assert options[-1] == "--output" and options.count("--output") == 1, command


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
    assert "MAX_WORK_S" in capsys.readouterr().err
    # a large level count is priced without computing p^levels
    assert cli.main(["integral", "--levels", "1000000000", "--q", "4", "--p", "3", "--n", "2"]) == 2


@pytest.mark.parametrize("p", ["9", "2", "1", "-3", "1000000000000000000000000000057"])
def test_integral_p_outside_bounds_is_rejected_before_summing(capsys, monkeypatch, p):
    # the last value used to run trial division for as long as the run lasted
    monkeypatch.setattr(cli, "padic_truncation", lambda *args: pytest.fail("the sums were started"))
    code, err = usage_exit(capsys, "integral", "--n", "1", "--q", "4", "--p", p, "--levels", "0")
    assert code == 2 and "--p" in err and str(cli.MAX_PRIME) in err


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
    assert f"odd prime, at most {cli.MAX_PRIME}" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command, bound", [
    ("lfun", "MAX_TERMS"), ("integral", "MAX_PRIME"), ("integral", "MAX_WORK_S"),
    ("twisted", "MAX_INDEX"), ("classic", "MAX_INDEX"), ("integral", "MAX_INDEX"),
    ("twisted", "MAX_MODULUS"), ("twisted", "MAX_ZETA_ORDER"), ("twisted", "MAX_WORK_S"),
    ("lfun", "MAX_MODULUS"), ("lfun", "MAX_ZETA_ORDER"), ("lfun", "MAX_WORK_S"),
    ("check", "MAX_MODULUS"), ("check", "MAX_ZETA_ORDER"), ("check", "MAX_WORK_S"),
    ("check", "MAX_INDEX"), ("check", "MAX_RANDOM_TABLES"),
    ("chars", "MAX_CHARS_MODULUS"),
])
def test_bounds_are_documented_in_help(capsys, command, bound):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--help"])
    assert excinfo.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert str(getattr(cli, bound)) in out
    if bound == "MAX_WORK_S":
        assert f"MAX_WORK_S = {cli.MAX_WORK_S} s" in out


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


@pytest.mark.parametrize("argv, owner, stub", [
    (["check", "--relation", "all"], checks, "run_relation"),
    (TWISTED_RUN, cli, "twisted_values"),
    (INTEGRAL_RUN, cli, "padic_truncation"),
], ids=["check", "twisted", "integral"])
def test_an_unwritable_output_exits_two_before_the_work(capsys, monkeypatch, tmp_path, argv, owner, stub):
    monkeypatch.setattr(owner, stub, lambda *args: pytest.fail("the computation was started"))
    assert cli.main([*argv, "--output", str(tmp_path / "none" / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "No such file or directory" in captured.err


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


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "5e-324", "1e-320"])
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


@pytest.mark.parametrize("command, extra", [
    # Q(zeta_7954), degree 3840: A_0 and A_1 took 33 s after the field
    ("twisted", ["--q", "2", "--d", "83", "--char", "index:1", "--zeta-order", "97", "--n", "1"]),
    # 9,649,962 float terms, all summed at d = 1: 5.3 to 6.2 s
    ("lfun", ["--q", "10001/10000", "--d", "1", "--s", "-30", "--max-terms", "10000000"]),
])
def test_point_work_above_bound_is_rejected_before_any_field(capsys, monkeypatch, command, extra):
    from eulertwist import twisted

    monkeypatch.setattr(twisted, "cyclotomic_field", lambda order: pytest.fail("a field was built"))
    code = cli.main([command, *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert "MAX_WORK_S" in err and "Traceback" not in err


def test_point_work_counts_the_character_order(capsys, monkeypatch):
    # Twist order 99 alone gives Q(zeta_99), degree 60; index:1 mod 97 has
    # order 96 and lifts the point into Q(zeta_3168), degree 960, where
    # A_0..A_2 take 6 s.
    argv = ["twisted", "--q", "2", "--d", "97", "--zeta-order", "99", "--n", "2"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    from eulertwist import twisted

    monkeypatch.setattr(twisted, "cyclotomic_field", lambda order: pytest.fail("a field was built"))
    assert cli.main([*argv, "--char", "index:1"]) == 2
    assert "MAX_WORK_S" in capsys.readouterr().err


GRID_BOUND_CASES = [
    ({"moduli": [cli.MAX_MODULUS + 2], "zeta_orders": [1]}, f"1..{cli.MAX_MODULUS}"),
    ({"moduli": [3], "zeta_orders": [cli.MAX_ZETA_ORDER + 2]}, f"1..{cli.MAX_ZETA_ORDER}"),
    ({"moduli": [4], "zeta_orders": [1]}, "must be odd"),
    ({"moduli": [3], "zeta_orders": [2]}, "must be odd"),
    ({"moduli": "35"}, "moduli takes a list, got '35'"),  # not moduli 3 and 5
    ({"n_max": -1}, "n_max must"),
    ({"n_max": cli.MAX_INDEX + 1}, "n_max must"),
    ({"padic_n_max": cli.MAX_INDEX + 1}, "padic_n_max must"),
    ({"primes": [9]}, "primes must"),
    ({"primes": [2]}, "primes must"),
    ({"primes": [101]}, "primes must"),
    ({"level_max": -1}, "level_max must"),
    ({"primes": "53"}, "primes takes a list, got '53'"),  # not primes 5 and 3
    ({"n_max": 2.9}, "n_max takes integers, got 2.9"),  # not n_max 2
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
    ({"modulus": [97]}, "unknown key 'modulus'"),  # not the default moduli
    ({"level_max": True}, "level_max takes integers, got True"),
    ({"moduli": [3, False]}, "moduli takes integers, got False"),
    ({"q": [2.5]}, "q takes integers or rational strings, got 2.5"),
    ({"n_max": [2]}, "n_max takes integers, got [2]"),
    # each message starts with its key
    ({"moduli": [cli.MAX_MODULUS + 2], "zeta_orders": [1]}, f"moduli must be odd and in 1..{cli.MAX_MODULUS}"),
    ({"moduli": [3], "zeta_orders": [4]}, f"zeta_orders must be odd and in 1..{cli.MAX_ZETA_ORDER}"),
    ({"q": ["abc"]}, "q invalid literal for int()"),
    ({"q": ["1/0"]}, "q has a zero denominator"),
    ({"q": ["2", "7" * 5000]}, "q Exceeds the limit"),  # the interpreter's int-to-string digit limit
]


@pytest.mark.parametrize("doc, message", GRID_BOUND_CASES, ids=[f"doc{i}" for i in range(len(GRID_BOUND_CASES))])
def test_grid_file_outside_bounds_is_rejected_before_checking(capsys, monkeypatch, tmp_path, doc, message):
    monkeypatch.setattr(cli.checks, "run_relation", lambda *args: pytest.fail("the check was started"))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    code, err = usage_exit(capsys, "check", "--relation", "thm2", "--grid", f"file:{path}")
    assert code == 2 and "--grid" in err and message in " ".join(err.split()) and "Traceback" not in err


def test_deeply_nested_grid_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, err = usage_exit(capsys, "check", "--relation", "thm2", "--grid", f"file:{path}")
    assert code == 2 and "nests too deeply" in err


def test_every_grid_field_has_one_key():
    rows = [(name, is_list) for name, is_list, _ in cli.GRID_KEYS.values()]
    assert sorted(rows) == sorted((f.name, isinstance(f.default, tuple)) for f in fields(checks.Grid))


def passing_report(name):
    """A stand-in report: one point, passed."""
    return checks.CheckReport(name, "", [checks.PointResult("stub", "pass")])


def test_cor2_grid_at_the_walk_bound_is_accepted(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli.checks, "run_relation", lambda name, grid: passing_report(name))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"primes": [97], "level_max": 2, "padic_n_max": 1}))
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
        return passing_report(name)

    monkeypatch.setattr(cli.checks, "run_relation", fake_run)
    path = tmp_path / "grid.json"
    for n_max in (8, 12):
        doc = {"n_max": n_max, "moduli": [1, 3, 5, 7, 15], "zeta_orders": [1, 3, 9, 27], "q": ["2", "5/2"]}
        path.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, "check", "--relation", "thm2", "--grid", f"file:{path}")
        assert code == 0 and seen[-1].zeta_orders == (1, 3, 9, 27) and seen[-1].n_max == n_max


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


def grid_file(tmp_path, doc) -> str:
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    return f"file:{path}"


def no_work(monkeypatch):
    """Make every computation an invocation could start fail the test."""
    from eulertwist import twisted

    def fail(*args):
        pytest.fail("the computation was started")

    monkeypatch.setattr(twisted, "cyclotomic_field", fail)
    for name in ("twisted_values", "padic_truncation", "l_eval"):
        monkeypatch.setattr(cli, name, fail)
    monkeypatch.setattr(cli.checks, "run_relation", fail)


OVER_BUDGET = [
    # each of these ran from 8 s to past a 120 s timeout under the former bounds
    ["twisted", "--q", "1001/997", "--d", "97", "--char", "quadratic", "--zeta-order", "7", "--n", "40"],
    ["twisted", "--q", "5/2", "--d", "97", "--char", "quadratic", "--zeta-order", "7", "--n", "40"],
    ["check", "--relation", "cor2", "--grid", {"primes": [89, 97], "level_max": 0, "padic_n_max": 40}],
    # 10 s (primes 3..47 at the same levels now take 2.2 s and are admitted)
    ["check", "--relation", "cor2", "--grid",
     {"primes": [53, 59, 61, 67, 71, 73, 79, 83, 89, 97], "level_max": 1, "padic_n_max": 40}],
    ["check", "--relation", "eq28-residual", "--grid",
     {"moduli": [99], "q": [str(q) for q in range(2, 12)], "random_tables": 1000}],
    ["integral", "--n", "40", "--q", "3000000000000000000000000000001", "--p", "3", "--levels", "9"],
    ["integral", "--n", "40", "--q", f"10/{3**8000 + 1}", "--p", "3", "--levels", "2"],
    ["check", "--relation", "cor2", "--grid", {"primes": [5], "level_max": 9}],  # a walk over 5^9 terms
    # 9,649,962 float terms, all summed at d = 1: 5.3 to 6.2 s
    ["lfun", "--q", "10001/10000", "--d", "1", "--s", "-30", "--max-terms", "10000000"],
]


@pytest.mark.parametrize("argv", OVER_BUDGET, ids=[f"run{i}" for i in range(len(OVER_BUDGET))])
def test_runs_over_the_work_budget_are_rejected_before_any_work(capsys, monkeypatch, tmp_path, argv):
    argv = [grid_file(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    no_work(monkeypatch)
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2 and "work budget MAX_WORK_S" in err and "Traceback" not in err


def test_unreachable_tail_bound_is_priced_as_no_sum(capsys):
    # no index up to 10^7 meets the tolerance, so the sum raises before its
    # first term: nothing is priced for it and the run exits 3 at once
    argv = ["lfun", "--q", "1000001/1000000", "--d", "3", "--s", "0", "--max-terms", "10000000"]
    args = cli.build_parser().parse_args(argv)
    args.character = cli._resolve_character(args.char, args.d)
    assert cli.predicted_seconds(args) < 0.01
    start = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert "tail bound not reached within 10000000 terms" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["integral", "--n", "40", "--q", "19998", "--p", "19997", "--levels", "1"],
    ["twisted", "--q", "2", "--d", "97", "--char", "quadratic", "--zeta-order", "7", "--n", "40"],
    ["twisted", "--q", "2", "--d", "91", "--zeta-order", "11", "--n", "0"],
    ["lfun", "--q", "2", "--d", "91", "--zeta-order", "11", "--s", "2"],
    ["lfun", "--q", "2", "--d", "83", "--char", "index:1", "--zeta-order", "97", "--s", "2"],  # Q(zeta_7954): 0.3 s
    ["twisted", "--q", "2", "--d", "97", "--char", "index:1", "--zeta-order", "99", "--n", "0"],  # Q(zeta_3168): 0.3 s
    ["check", "--relation", "cor2", "--grid", {"primes": [17], "level_max": 2, "padic_n_max": 40}],
    ["check", "--relation", "cor2", "--grid", {"primes": [11], "level_max": 3, "padic_n_max": 14}],
    ["check", "--relation", "thm2", "--grid", "default"],
    ["check", "--relation", "thm2", "--grid", {"primes": [5], "level_max": 9}],  # thm2 reads no prime
])
def test_runs_within_the_work_budget_are_admitted(tmp_path, argv):
    parser = cli.build_parser()
    args = parser.parse_args([grid_file(tmp_path, a) if isinstance(a, dict) else a for a in argv])
    if "zeta_k" in vars(args):
        args.character = cli._resolve_character(args.char, args.d)
    assert 0 < cli.predicted_seconds(args) <= cli.MAX_WORK_S


def test_prediction_never_falls_as_the_work_grows():
    rng = random.Random(20260418)
    parser = cli.build_parser()

    def twisted_s(n, q, d, char, z):
        args = parser.parse_args(["twisted", "--q", q, "--d", str(d), "--char", char, "--zeta-order", str(z),
                                  "--n", str(n)])
        args.character = cli._resolve_character(args.char, args.d)
        return cli.predicted_seconds(args)

    def integral_s(n, q, p, levels):
        return cli.predicted_seconds(parser.parse_args(
            ["integral", "--n", str(n), "--q", q, "--p", str(p), "--levels", str(levels)]))

    for _ in range(200):
        n, bits = rng.randint(0, 39), rng.randint(1, 400)
        d, z = rng.choice([1, 3, 5, 15, 45, 91, 97, 99]), rng.choice([1, 3, 7, 9, 11, 27, 99])
        char = rng.choice(["principal", "index:0"] + (["quadratic"] if d in (3, 5, 15, 91, 97) else []))
        q = f"{rng.getrandbits(bits) | 1 << (bits - 1)}/{rng.randint(1, 3)}"
        wider = f"{rng.getrandbits(bits + 5) | 1 << (bits + 4)}/3"
        assert twisted_s(n + 1, q, d, char, z) >= twisted_s(n, q, d, char, z)
        assert twisted_s(n, wider, d, char, z) >= twisted_s(n, q, d, char, z)
        p, levels = rng.choice([3, 5, 7, 97, 19997]), rng.randint(0, 12)
        padic_q = str(1 + p * rng.randint(1, 2**bits))
        assert integral_s(n + 1, padic_q, p, levels) >= integral_s(n, padic_q, p, levels)
        assert integral_s(n, padic_q, p, levels + 1) >= integral_s(n, padic_q, p, levels)
        assert integral_s(n, str(1 + p * (2**(bits + 5) + 1)), p, levels) >= integral_s(n, padic_q, p, levels)
        terms_h = rng.randint(1, 64)
        assert cli._walk_s(p, levels, terms_h, range(n + 2)) >= cli._walk_s(p, levels, terms_h, range(n + 1))

    for _ in range(40):
        grid, wider = draw_grid(rng), F(rng.randint(51, 99), 2)
        # each distinct price once: the configuration relations share one
        for price, token in {price: token for token, price in cli.RELATION_PRICES.items()}.items():
            total = price(grid)
            assert price(replace(grid, q_values=(*grid.q_values, wider))) >= total, token
            assert price(replace(grid, moduli=(*grid.moduli, 99))) >= total, token
            assert price(replace(grid, primes=(*grid.primes, 17))) >= total, token
            assert price(replace(grid, padic_n_max=grid.padic_n_max + 1)) >= total, token


def draw_grid(rng):
    """A small grid with every key a relation reads drawn at random."""
    return cli.checks.Grid(
        n_max=rng.randint(0, 12), moduli=tuple(rng.sample([1, 3, 5, 7, 15, 21, 45], 2)),
        q_values=tuple(F(rng.randint(2, 50), rng.randint(1, 7)) for _ in range(2)),
        zeta_orders=tuple(rng.sample([1, 3, 5, 9, 27], 2)), primes=tuple(rng.sample([3, 5, 7, 11, 13], 2)),
        level_max=rng.randint(0, 3), padic_n_max=rng.randint(0, 12),
    )


def whole_grid_s(grid) -> float:
    """The former price of every check, kept as the oracle of the per-relation prices: the grid's dearest family
    of points, whatever relation runs, plus every field a configuration builds."""
    n, families = grid.n_max, [0.0] * 6
    floats = {(d, q): _float_sums_s(range(0, -n - 1, -1), d, q, LParams.tol, LParams.max_terms)
              for d in grid.moduli for q in grid.q_values}
    orders = set()
    for d in grid.moduli:
        for _, char in checks.grid_characters(d):
            for z in grid.zeta_orders:
                orders.add(math.lcm(z, char.value_order))
                for q in grid.q_values:
                    values, series, residues = _point_parts(n, d, char.value_order, z, q)
                    families[0] += 1e-3 + values + max(series, residues, floats[d, q])
                values, _, residues = _point_parts(n, d, char.value_order, z, 1)
                families[1] += 1e-3 + values + residues
        families[2] += sum(5e-4 * (d + euler_phi(z)) for z in grid.zeta_orders)
        for q in grid.q_values:
            h = _height(q)
            families[3] += grid.random_tables * d * (3.5e-5 * (1 + math.log2(h) / 4) + 1.3e-13 * (d * h) ** 2)
    families[4] = sum(1e-3 + _exact_moments_s(8, _height(q)) for q in grid.q_values)
    for p in grid.primes:
        values, series, _ = _point_parts(grid.padic_n_max, p, 2, 1, 1 + p)
        walk = _walk_s(p, grid.level_max, _height(1 + p), range(grid.padic_n_max + 1))
        families[5] += 2 * (1e-3 + walk + values + series)
    return sum(map(_field_s, orders)) + max(families)


# every relation's price on the default grid, the reach grid of test_reach_grid.py and its cor2 grid; thm3 and thm6
# sum at s = 0, -1, ..., -n, so a stop rule that reads the sign of Re s leaves these prices as they were
PRICED_GRIDS = {
    "default": checks.default_grid(),
    "reach": checks.Grid(n_max=12, moduli=(1, 3, 5, 7, 15), zeta_orders=(1, 3, 9, 27), q_values=(F(2), F(5, 2))),
    "cor2-reach": checks.Grid(primes=(3, 5, 7, 11, 13), level_max=3, padic_n_max=12),
}
CONFIG_RELATIONS = ("thm2", "thm3", "thm6", "distribution", "thm1-residual", "thm5-residual")
PINNED_PRICES = {
    "default": {**dict.fromkeys(CONFIG_RELATIONS, 0.09263956549198217),
                "cor3": 0.03020159302561054, "eq15": 0.003001043082684374, "eq22": 0.027004270000000004,
                "eq28-residual": 0.0054651611117050485, "cor2-residual": 0.004352124797792007},
    "reach": {**dict.fromkeys(CONFIG_RELATIONS, 0.8587479640079752),
              "cor3": 0.24407114987729603, "eq15": 0.0020007245161650328, "eq22": 0.12953829,
              "eq28-residual": 0.012498298301438514, "cor2-residual": 0.004352124797792007},
    "cor2-reach": {**dict.fromkeys(CONFIG_RELATIONS, 0.09263956549198217),
                   "cor3": 0.03020159302561054, "eq15": 0.003001043082684374, "eq22": 0.027004270000000004,
                   "eq28-residual": 0.0054651611117050485, "cor2-residual": 0.026878597316621414},
}


@pytest.mark.parametrize("name", sorted(PRICED_GRIDS))
def test_grid_prices_are_pinned(name):
    grid = PRICED_GRIDS[name]
    assert {token: price(grid) for token, price in cli.RELATION_PRICES.items()} == PINNED_PRICES[name]


def test_float_sums_are_priced_at_the_signed_re_s(monkeypatch):
    parser, priced = cli.build_parser(), []

    def lfun_s(s):
        args = parser.parse_args(["lfun", "--q", "11/10", "--d", "3", "--s", s])
        args.character = cli._resolve_character(args.char, args.d)
        return cli.predicted_seconds(args)

    # at Re s = 8 the sum stops at 29 terms, at Re s = -8 at 1189, as both did before the sign was read
    assert lfun_s("8") < lfun_s("-8") == 0.0015153033333333336
    real = cli._float_sums_s
    monkeypatch.setattr(cli, "_float_sums_s", lambda sigmas, *rest: real(priced.append(list(sigmas)) or sigmas, *rest))
    grid = PRICED_GRIDS["reach"]
    cli.RELATION_PRICES["thm3"](grid)
    assert priced and all(sigmas == [-n for n in range(grid.n_max + 1)] for sigmas in priced)


def test_every_relation_is_priced():
    assert set(cli.RELATION_PRICES) == set(checks.RELATIONS)


def test_no_run_the_whole_grid_price_admitted_is_refused():
    rng = random.Random(20261019)
    for _ in range(300):
        grid = draw_grid(rng)
        whole = whole_grid_s(grid)
        for token in (*checks.RELATIONS, *checks.ALIASES):
            price = cli.predicted_seconds(SimpleNamespace(command="check", relation=token, grid=grid))
            assert 0 < price <= whole, (token, grid)


ROADMAP_GRID = {"n_max": 30, "moduli": [1, 3, 5, 7, 15, 21, 33, 35, 45], "zeta_orders": [1, 3, 9, 27],
                "q": ["2", "5/2", "1001/997"]}


def test_a_relation_is_priced_by_the_points_it_reads(capsys, monkeypatch, tmp_path):
    # the whole grid prices 369 s; each of these relations runs in at most 0.11 s and passes
    grid = grid_file(tmp_path, ROADMAP_GRID)
    for relation in ("eq15", "eq22", "eq28-residual", "cor2-residual"):
        assert cli.main(["check", "--relation", relation, "--grid", grid]) == 0, relation
    capsys.readouterr()
    # cor3 runs in 1.2 s; it is priced only
    args = cli.build_parser().parse_args(["check", "--relation", "cor3", "--grid", grid])
    assert 0 < cli.predicted_seconds(args) <= cli.MAX_WORK_S
    no_work(monkeypatch)
    assert cli.main(["check", "--relation", "thm2", "--grid", grid]) == 2
    assert "work budget MAX_WORK_S" in capsys.readouterr().err


CHAR_FILE_SHAPES = [
    json.dumps([3, 2, {"0": None, "1": 0, "2": 1}]).encode(),  # a list, not an object
    json.dumps({"order": 2, "values": {"0": None, "1": 0, "2": 1}}).encode(),  # no modulus
    json.dumps({"modulus": 3, "order": 2, "values": [None, 0, 1]}).encode(),  # values as a list
    b"[1,2",  # not JSON
    b"\xff\xfe[1, 2]",  # not UTF-8
    b'{"modulus": 1' + b"0" * 5000 + b', "order": 1, "values": {}}',  # an int over the default digit limit
    b"[" * 100_000 + b"]" * 100_000,  # nested too deeply for json.load
]


@pytest.mark.parametrize("text", CHAR_FILE_SHAPES,
                         ids=["list", "no-modulus", "values-list", "not-json", "not-utf8", "long-int", "deep"])
def test_malformed_character_file_is_an_invalid_character(capsys, tmp_path, text):
    path = tmp_path / "chi.json"
    path.write_bytes(text)
    code = cli.main(["twisted", "--q", "2", "--d", "3", "--char", f"file:{path}", "--n", "0"])
    err = capsys.readouterr().err
    assert code == 3 and "InvalidCharacter: a character file holds" in err and "Traceback" not in err


def test_character_file_modulus_is_compared_before_the_table_is_checked(capsys, monkeypatch, tmp_path):
    from eulertwist import characters

    monkeypatch.setattr(characters, "character_from_table", lambda *args: pytest.fail("the table was checked"))
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"modulus": 4001, "order": 1, "values": {str(a): 0 for a in range(4001)}}))
    code = cli.main(["twisted", "--q", "2", "--d", "3", "--char", f"file:{path}", "--n", "0"])
    assert code == 3 and "modulus 4001, expected 3" in capsys.readouterr().err
