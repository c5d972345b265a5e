import doctest

from eulertwist import checks, cyclotomic, eulerian, fermionic, lfunction, series, twisted


def test_checks_doctests():
    failures, tried = doctest.testmod(checks)
    assert failures == 0 and tried > 0


def test_cyclotomic_doctests():
    failures, tried = doctest.testmod(cyclotomic)
    assert failures == 0 and tried > 0


def test_eulerian_doctests():
    failures, tried = doctest.testmod(eulerian)
    assert failures == 0 and tried > 0


def test_fermionic_doctests():
    failures, tried = doctest.testmod(fermionic)
    assert failures == 0 and tried > 0


def test_series_doctests():
    failures, tried = doctest.testmod(series)
    assert failures == 0 and tried > 0


def test_lfunction_doctests():
    failures, _ = doctest.testmod(lfunction)
    assert failures == 0


def test_twisted_doctests():
    failures, tried = doctest.testmod(twisted)
    assert failures == 0 and tried > 0
