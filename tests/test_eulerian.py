"""Classical Eulerian polynomials: recurrence vs descent counting vs the
explicit formula, plus the power-sum closed forms."""
import math
from fractions import Fraction as F

import pytest

from eulertwist import (
    TruncatedSeries,
    cyclotomic_field,
    descent_oracle,
    eulerian_at,
    eulerian_recurrence,
    power_sum_rational,
)
from eulertwist.cli import MAX_INDEX
from eulertwist.errors import OracleTooLarge, PoleAtOne
from eulertwist.eulerian import periodic_power_sum, periodic_power_sums


def test_base_case():
    assert eulerian_recurrence(0) == (1,)


def test_degree_two():
    assert eulerian_recurrence(2) == (1, 1)


def test_degree_three_against_oracle():
    assert eulerian_recurrence(3) == descent_oracle(3) == (1, 4, 1)


def test_oracle_small_cases():
    assert descent_oracle(1) == (1,)
    assert descent_oracle(2) == (1, 1)
    assert descent_oracle(4) == (1, 11, 11, 1)


def test_oracle_range_guard():
    # S_0 holds the one empty permutation, with no descent
    assert descent_oracle(0) == (1,) == eulerian_recurrence(0)
    for n in (-1, 10):
        with pytest.raises(OracleTooLarge):
            descent_oracle(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_recurrence_matches_descent_statistics(n):
    assert eulerian_recurrence(n) == descent_oracle(n)


@pytest.mark.parametrize("n", range(MAX_INDEX + 1))
def test_recurrence_matches_explicit_formula(n):
    # A(n, k) = sum_{j<=k} (-1)^j C(n+1, j) (k+1-j)^n, the number of
    # permutations of n with k descents, for k = 0..n-1 (A_0 = 1).
    explicit = [
        sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1)) for k in range(max(n, 1))
    ]
    assert eulerian_recurrence(n) == tuple(explicit)


@pytest.mark.parametrize("n", range(1, 9))
def test_coefficient_symmetry(n):
    coeffs = eulerian_recurrence(n)
    assert len(coeffs) == n and coeffs == coeffs[::-1]


@pytest.mark.parametrize("n", range(1, 9))
def test_value_at_one_is_factorial(n):
    assert eulerian_at(n, F(1)) == math.factorial(n)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
def test_horner_value_matches_the_power_sum(n):
    zeta = cyclotomic_field(9).zeta_power(1)
    for x in (F(0), F(-5, 2), F(7, 3), zeta + F(1, 2)):
        powers = [x * 0 + 1]  # x^k, one product each
        for _ in eulerian_recurrence(n)[1:]:
            powers.append(powers[-1] * x)
        assert eulerian_at(n, x) == sum((c * p for c, p in zip(eulerian_recurrence(n), powers)), 0 * x)


@pytest.mark.parametrize("n", range(7))
def test_worpitzky_expansion(n):
    # sum_m (m+1)^n t^m must agree with A_n(t)/(1-t)^(n+1) through t^30
    order = 31
    coeffs = eulerian_recurrence(n)
    a_series = TruncatedSeries(coeffs + (0,) * (order - len(coeffs)))
    denominator = TruncatedSeries((1, -1) + (0,) * (order - 2))
    expansion = a_series
    for _ in range(n + 1):
        expansion = expansion * denominator.inverse()
    expected = TruncatedSeries(tuple((m + 1) ** n for m in range(order)))
    assert expansion == expected


def horner_power_sum(j, w):
    """sum_{k>=0} k^j w^k as 1/(1-w) for j = 0 and w A_j(w) (1-w)^-(j+1) for j >= 1, Horner in Fractions:
    the oracle of the integer form of `power_sum_rational`."""
    inv = (1 - w) ** -1
    return inv if j == 0 else w * eulerian_at(j, w) * inv ** (j + 1)


class TestPowerSums:
    def test_geometric(self):
        assert power_sum_rational(0, F(1, 2)) == 2

    def test_linear_weights(self):
        assert power_sum_rational(1, F(1, 2)) == 2

    def test_quadratic_weights(self):
        assert power_sum_rational(2, F(1, 2)) == 6

    def test_pole_at_one(self):
        with pytest.raises(PoleAtOne):
            power_sum_rational(3, F(1))

    @pytest.mark.parametrize("w", [F(1, 2), F(-3, 7), F(5, 3), F(-1, 4) ** 5, F(-1, 3 * 10**30 + 1)])
    def test_integer_form_equals_the_horner_oracle(self, w):
        for j in range(13):
            assert power_sum_rational(j, w) == horner_power_sum(j, w)

    def test_refusals(self):
        with pytest.raises(ValueError):
            power_sum_rational(-1, F(1, 2))
        with pytest.raises(PoleAtOne):
            power_sum_rational(0, 1)

    @pytest.mark.parametrize("j", range(7))
    def test_tail_against_partial_sums(self, j):
        # closed form minus the K-term partial sum is the tail, which at
        # w = 1/2 is below 2^(-K + j*log2(K) + 4)
        K = 200
        w = F(1, 2)
        partial = sum(F(k) ** j * w**k for k in range(K + 1))
        tail = power_sum_rational(j, w) - partial
        bound = F(2) ** (-K + math.ceil(j * math.log2(K)) + 4)
        assert abs(tail) < bound

    def test_periodic_sum_refuses_a_node_outside_the_period(self):
        with pytest.raises(ValueError):
            periodic_power_sums(cyclotomic_field(1), [(1, 1, 0), (3, 1, 0)], 2, 0, F(1, 3))

    @pytest.mark.parametrize("z", [F(1, 3), F(-1, 4), F(7, 2), F(-5, 3), F(-1, 3 * 10**30 + 1)])
    def test_periodic_sums_equal_fraction_tails_times_literal_moments(self, z):
        # S_n = sum_k C(n,k) P^k T_k B_(n-k) with the Horner-oracle tails T_k at z^P and the residue
        # moments B_i = sum_l c(l) z^l l^i summed term by term: no common denominator, no power_moments
        field = cyclotomic_field(9)
        terms = [(m, F((-1) ** m * m, 7), 2 * m) for m in range(1, 10)] + [(3, F(2), 0), (5, F(-1), 4)]
        period, n_max = 9, 6
        tails = [horner_power_sum(k, z**period) * period**k for k in range(n_max + 1)]
        moments = [sum((field.zeta_power(e) * (r * z**m * m**i) for m, r, e in terms), field.zero)
                   for i in range(n_max + 1)]
        sums = periodic_power_sums(field, terms, period, n_max, z)
        for n in range(n_max + 1):
            assert sums[n] == sum((moments[n - k] * (math.comb(n, k) * tails[k]) for k in range(n + 1)), field.zero)

    def test_periodic_sum_against_partial_sums(self):
        rational, field = cyclotomic_field(1), cyclotomic_field(9)
        rational_cycle = [F(1), F(-2), F(0), F(3, 2), F(1), F(-1)]
        inputs = [  # (field, triples, cycle, zero, n_max): a rational cycle, a generic cyclotomic one
            (rational, [(m, c, 0) for m, c in enumerate(rational_cycle, 1)], rational_cycle, F(0), 3),
            (field, [t for m in range(1, 19) for t in ((m, (-1) ** m, 2 * m), (m, F(m, 7), 0))],
             [(-1) ** m * field.zeta_power(2 * m) + F(m, 7) for m in range(1, 19)], field.zero, 6),
        ]
        z = F(1, 3)
        for ambient, terms, cycle, zero, n_max in inputs:
            sums = periodic_power_sums(ambient, terms, len(cycle), n_max, z)
            assert len(sums) == n_max + 1
            for n in range(n_max + 1):
                closed = periodic_power_sum(cycle, n, z)
                assert sums[n] == closed
                partial = sum(
                    (cycle[(m - 1) % len(cycle)] * (F(m) ** n * z**m) for m in range(1, 151)), zero
                )
                gap = closed - partial
                assert max(abs(float(c)) for c in getattr(gap, "coeffs", (gap,))) < 1e-40
