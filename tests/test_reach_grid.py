"""The exact relations on a grid beyond the default one: moduli up to 15,
twist orders up to 27 (ambient fields up to Q(zeta_108), degree 36) and
n up to 12.  Every point must pass.

thm3 and thm6 are left out: they compare against double-precision
L-series sums, which lose all accuracy at some of these points and so give
false fails; they join this gate once the L-series carries a rounding
bound.

Each report is also pinned by the sha256 of its JSON, as the default-grid
stdout is in test_relation_outputs.py: the default grid's moduli have at
most four residue classes, so only this grid pins outputs at d = 7 and 15.
The same grid written as a grid file gives the same reports through
`cli.main`.  thm3 and thm6 read the L-series sums that one of them holds:
their reports are the same alone and after the relations before them.
"""
import hashlib
import json
from fractions import Fraction as F

import pytest

from eulertwist import checks, cli

REACH_GRID = checks.Grid(
    n_max=12, moduli=(1, 3, 5, 7, 15), zeta_orders=(1, 3, 9, 27), q_values=(F(2), F(5, 2))
)


DIGESTS = {
    "eq15": "9619df7a9288479d851829874c111479925477174bbe9502da25cca46b04053e",
    "thm2": "1d7f6098e6ec75215e567582e0e2cf59089cfa61803c32d483305677bf1eed62",
    "distribution": "cc3c6dcb29ea123e2dc994fc515df00b6a7b12efe38fd12afcfb4da61229e5cd",
    "thm1-residual": "fd4a905bc84450e7af3ff44aa23f9e8afbbc4f94a1d6b9e8a3670787f5d16723",
    "thm5-residual": "b495ee33066753fb72e98ff8572231367ffe57bd08d84b2df51292b529dc811b",
    "cor2-residual": "446eb2c985f4688221ec351e815081beec1d828d4c13c461e20a3227f06f3f05",
    "cor3": "471ec994d98fe8c7f20b7e230df858ce7439575f7174d354d465ca6a25bb3324",
    "eq22": "9086276103393a19d5a19f51dc4ed4f8f8a01108b2960d1ee38f75f69fdcd5b9",
    "eq28-residual": "60400d0dff8ad0381feb9509cf83ce04bacf0b5cdda94c66809ef058595d29bb",
}


def report_digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json()).encode()).hexdigest()


@pytest.mark.parametrize("relation", sorted(DIGESTS))
def test_exact_relations_pass_on_the_reach_grid(relation):
    report = checks.run_relation(relation, REACH_GRID)
    counts = report.counts
    assert counts["fail"] == 0, [p for p in report.points if p.verdict == "fail"][:5]
    assert counts["pass"] > 0
    assert report_digest(report) == DIGESTS[relation]


# cor2 reads only the primes, level_max and padic_n_max of a grid; these go
# past the default grid's primes (3, 5) and padic_n_max 4.
COR2_REACH_GRID = checks.Grid(primes=(3, 5, 7, 11, 13), level_max=3, padic_n_max=12)
COR2_DIGEST = "d4f9b99bd6bd62847ff54f68c871bf266584096f4d7993c39f079b9f416dcaef"


def test_cor2_passes_on_the_reach_primes():
    report = checks.run_relation("cor2-residual", COR2_REACH_GRID)
    assert report.counts == {"pass": 5 * 2 * 13, "fail": 0, "skip": 0}
    assert report_digest(report) == COR2_DIGEST


# At p 11 and 31, riemann_sums regroups levels 2 and 3 into 10 and 30 shifted copies of the level before,
# which the default grid's primes 3 and 5 never do; the digest was taken from the earlier pieced walk.
COR2_COPIES_GRID = '{"primes":[3,5,11,31],"level_max":3,"padic_n_max":4}'
COR2_COPIES_DIGEST = "a728e3320df0b844b08ba406b90ff44f9fec6e23e33ca624170e734cfe9070a9"


def test_cor2_stdout_is_pinned_where_levels_regroup_into_many_copies(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(COR2_COPIES_GRID)
    assert cli.main(["check", "--relation", "cor2", "--grid", f"file:{path}"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["summary"] == {"pass": 40, "fail": 0, "skip": 0}
    assert hashlib.sha256(out.encode()).hexdigest() == COR2_COPIES_DIGEST


@pytest.mark.parametrize("grid, digests", [(REACH_GRID, DIGESTS), (COR2_REACH_GRID, {"cor2-residual": COR2_DIGEST})])
def test_reach_grid_file_gives_the_pinned_digests(capsys, grid_spec, grid, digests):
    spec = grid_spec(grid)
    for relation, digest in digests.items():
        assert cli.main(["check", "--relation", relation, "--grid", spec]) == 0, relation
        doc = json.loads(capsys.readouterr().out)
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest, relation


# thm3 and thm6 skip and fail points here (ROADMAP item 1): q near 1 and n up to 26 at modulus 1.
FOUND_GRID = checks.Grid(n_max=26, moduli=(1,), q_values=(F(10001, 10000), F(158, 56)), zeta_orders=(5,))


@pytest.mark.parametrize("grid", [REACH_GRID, FOUND_GRID], ids=["reach", "found"])
def test_thm3_and_thm6_alone_equal_thm3_and_thm6_after_the_relations_before_them(grid):
    alone = {}
    for relation in ("thm3", "thm6"):
        checks._memo.cache_clear()
        alone[relation] = checks.run_relation(relation, grid).to_json()
    checks._memo.cache_clear()
    after = {}
    for relation in list(checks.RELATIONS)[: list(checks.RELATIONS).index("thm6") + 1]:
        after[relation] = checks.run_relation(relation, grid).to_json()
    assert json.dumps(alone["thm3"]) == json.dumps(after["thm3"])
    assert json.dumps(alone["thm6"]) == json.dumps(after["thm6"])
    if grid is FOUND_GRID:
        assert all(alone[r]["summary"]["skip"] and alone[r]["summary"]["fail"] for r in alone)


# eq22 at twist exponent 2 over twist orders 97 and 99 and fold counts 97 and 99: the largest folds and pivots
# 1 + zeta^-2d that a grid file allows, which no other pinned grid reaches.
EQ22_CORNER_GRID = '{"moduli":[1,97,99],"zeta_orders":[1,97,99],"zeta_exponent":2}'
EQ22_CORNER_DIGEST = "5f146cb66c341cdf011765972678fa4a083d3c891ae757350482ac4d98881d07"


def test_eq22_stdout_is_pinned_at_the_folds_largest_corner(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(EQ22_CORNER_GRID)
    assert cli.main(["check", "--relation", "eq22", "--grid", f"file:{path}"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["summary"] == {"pass": 9, "fail": 0, "skip": 0}
    assert hashlib.sha256(out.encode()).hexdigest() == EQ22_CORNER_DIGEST
