"""Shared fixtures for the test suite."""
import pytest

from eulertwist import checks


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts from an empty quantity memo, so a test that patches a
    lower layer sees its patch and no patched value outlives its test."""
    checks._memo.cache_clear()
