"""Golden outputs: the stdout of `check --relation R` on the default grid,
for every relation, pinned by its full sha256.

The package is exact, so a change to one output byte is a bug, never noise;
a refactor or speedup that is meant to keep the output must keep these
digests.  Each relation runs in process through `cli.main`, and so does
`check --relation all`, whose stdout is the eleven outputs in `RELATIONS`
order, and the default grid written as a grid file gives the same stdout.
"""
import hashlib

import pytest

from eulertwist import checks, cli
from eulertwist.checks import RELATIONS

DIGESTS = {
    "eq15": "3c0b3efbfe0242dba2f57fe224bc918909dcfdbd1062f873eb000986b37ab07b",
    "thm2": "4d1a22e372d416e90915304a6cadbba91ded79422b9b4c3c36be74c2a6face85",
    "thm3": "874e77fb6132279f198a799d45446560e00a79ad2c6bb8475fbcf6cc9e6d2696",
    "thm6": "6c2bab9730c831a9cc63e3fee9234dd3fc9aa49c9d5e796e9cf0c8b6e546c9ec",
    "distribution": "8c8ce3130f13a16ae21830d5fe9925bd4b6537482d3c5cbc314bf7bc5a0065cf",
    "thm1-residual": "834ba6843ec74a81ae70d075f3bdf053c26868bff75c687a97e5906b92251f82",
    "thm5-residual": "792a76103e7cc0504eb8767da01a4cf90a15a2ff3ad8a2904091ea2edd141c50",
    "cor2-residual": "7ccf3abc75fd7f620b5c0d9d95bad913e25d15be09b711b2003069797fe2a60a",
    "cor3": "0ea55c9ba7ac5fcd12674a1b9ea27646d124ad11c12bf084e1431698b7b1aaab",
    "eq22": "86c33b7063e47f440add1d55d9f77ac9ef874e8f3d800508f93141ed7a4a484e",
    "eq28-residual": "31b013469806f2dc94d64a702567013c1c3a0d3abc42e58a48656e429d79ff13",
}


def test_every_relation_is_pinned():
    assert set(DIGESTS) == set(RELATIONS)


@pytest.mark.parametrize("relation", sorted(DIGESTS))
def test_default_grid_output_is_unchanged(capsys, relation):
    code = cli.main(["check", "--relation", relation])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[relation]


def test_all_prints_every_relation_in_order(capsys):
    code = cli.main(["check", "--relation", "all"])
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert code == 0
    assert [hashlib.sha256(line.encode()).hexdigest() for line in lines] == [DIGESTS[r] for r in RELATIONS]


def test_default_grid_file_gives_the_pinned_outputs(capsys, grid_spec):
    code = cli.main(["check", "--relation", "all", "--grid", grid_spec(checks.default_grid())])
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert code == 0
    assert [hashlib.sha256(line.encode()).hexdigest() for line in lines] == [DIGESTS[r] for r in RELATIONS]
