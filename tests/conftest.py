"""Shared fixtures for the test suite, and the call recorder."""
import contextlib
import json
import math
import sys
from fractions import Fraction

import pytest

from eulertwist import checks, cli
from eulertwist.cyclotomic import CyclotomicNumber, cyclotomic_polynomial
from eulertwist.series import power_moments


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts from an empty quantity memo, so a test that patches a
    lower layer sees its patch and no patched value outlives its test."""
    checks._memo.cache_clear()


@pytest.fixture
def grid_spec(tmp_path):
    """A function that writes a Grid as a grid file, one entry per row of
    cli.GRID_KEYS, and returns its --grid value."""

    def write(grid) -> str:
        doc = {}
        for key, (name, is_list, _) in cli.GRID_KEYS.items():
            value = getattr(grid, name)
            doc[key] = [str(v) if key == "q" else v for v in value] if is_list else value
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        return f"file:{path}"

    return write


@contextlib.contextmanager
def recording():
    """The code objects of every Python function called inside the block, as
    one set, recorded by sys.setprofile: a call event per call, and per
    resumption of a generator.  A function whose call an lru_cache answers
    runs no code, so it is not recorded."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield called
    finally:
        sys.setprofile(previous)


def field_element(field, coeffs):
    """The element of `field` with these rational coefficients, at most
    max(2D - 1, N) of them, reduced mod Phi_N over one common denominator."""
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in fracs))
    return field._reduce_ints([c.numerator * (den // c.denominator) for c in fracs], den)


def moment_values(field, terms, n_max):
    """`series.power_moments` as canonical field elements, one per moment."""
    rows, den = power_moments(field, terms, n_max)
    return [CyclotomicNumber(field, row, den) for row in rows]


def schoolbook_product(field, a, b):
    """a b mod Phi_N for integer vectors a and b of any length, as field.degree ints with no content
    divided out: the integer polynomial product, then its remainder by long division by the monic
    cyclotomic_polynomial(N).  It reads none of the field's tables."""
    phi = cyclotomic_polynomial(field.order)
    degree = len(phi) - 1
    prod = [0] * max(len(a) + len(b) - 1, degree)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(len(prod) - 1, degree - 1, -1):
        lead = prod[top]
        for i, c in enumerate(phi):
            prod[top - degree + i] -= lead * c
    return prod[:degree]
