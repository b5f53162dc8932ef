import pytest
from hypothesis import given, settings, strategies as st

from kseq import series
from kseq.counting import (
    Constraint,
    count_constrained,
    enumerate_oracle,
    gk_coefficients,
)
from kseq.series import partition_gf, product_form


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint(1)
    with pytest.raises(ValueError):
        Constraint(2, 0)
    with pytest.raises(ValueError):
        Constraint(2, None, -1)
    c = Constraint(3, None, 2)
    assert c.unbounded
    assert c.label() == "p[k=3,r=inf,>2]"


def test_no_two_sequence_small_values():
    table = gk_coefficients(2, 8)
    assert table[0] == 1 and table[1] == 1
    assert table[3] == 2  # {3}, {1,1,1}
    assert table[4] == 4
    assert table[3] == enumerate_oracle(Constraint(2), 3)
    assert table[4] == enumerate_oracle(Constraint(2), 4)


def test_rogers_ramanujan_point():
    table = count_constrained(Constraint(2, 1, 1), 8)
    assert table[7] == 2  # {7}, {5,2}


def test_andrews_67_point_matches_product():
    table = count_constrained(Constraint(2, 2, 1), 5)
    series = product_form([(6, -2, -1), (6, -3, -1), (6, -4, -1)], 5)
    assert table[5] == series.coeffs[5] == enumerate_oracle(Constraint(2, 2, 1), 5)


def test_vacuous_constraint_equals_unrestricted():
    table = gk_coefficients(40, 20)
    assert table.values == partition_gf(20).coeffs


def test_counts_nondecreasing_in_n():
    for k in (2, 3):
        values = gk_coefficients(k, 60).values
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_monotone_in_k_and_below_unrestricted():
    p_all = partition_gf(40).coeffs
    t2 = gk_coefficients(2, 40).values
    t3 = gk_coefficients(3, 40).values
    for n in range(41):
        assert t2[n] <= t3[n] <= p_all[n]


def test_oracle_guard():
    with pytest.raises(ValueError):
        enumerate_oracle(Constraint(2), 46)
    assert enumerate_oracle(Constraint(2), 0) == 1


@settings(deadline=None, max_examples=40)
@given(
    k=st.integers(min_value=2, max_value=6),
    r=st.sampled_from([1, 2, 3, None]),
    bound=st.integers(min_value=0, max_value=4),
    n_max=st.integers(min_value=0, max_value=28),
)
def test_dp_equals_enumeration(k, r, bound, n_max):
    # the whole table, so sizes above n_max/2 (empty tails) and B > 0 count
    c = Constraint(k, r, bound)
    table = count_constrained(c, n_max)
    assert list(table.values) == [enumerate_oracle(c, n) for n in range(n_max + 1)]


@pytest.mark.parametrize("k, limit", [(2, 0.55), (3, 0.40)])
def test_dp_multiply_work_budget(monkeypatch, k, limit):
    # entries the size-m multiply returns over a whole table: full-length
    # states give (k-1) n_max (n_max+1); tails starting at the first weight a
    # run can reach give about 0.50 of that for k = 2 and 0.374 for k = 3
    written = 0
    kernel = series._mul_multiplicities

    def counted(*args):
        nonlocal written
        out = kernel(*args)
        written += len(out)
        return out

    monkeypatch.setattr(series, "_mul_multiplicities", counted)
    n_max = 600
    count_constrained(Constraint(k), n_max)
    assert written <= limit * (k - 1) * n_max * (n_max + 1)
