import mpmath
import pytest
from hypothesis import given, strategies as st

from kseq.precision import working
from kseq.series import (
    TruncatedSeries,
    _mul_multiplicities,
    eval_at,
    partition_gf,
    product_form,
)

coefficients = st.integers(min_value=-50, max_value=50)


def coefficient_lists(n_max):
    return st.lists(coefficients, min_size=n_max + 1, max_size=n_max + 1)


def pair_of_series(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    a = draw(coefficient_lists(n))
    b = draw(coefficient_lists(n))
    return TruncatedSeries.from_coeffs(a), TruncatedSeries.from_coeffs(b)


series_pairs = st.composite(pair_of_series)()


def brute_mul(a, b):
    n = a.n_max
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return tuple(out)


def test_difference_of_squares():
    a = TruncatedSeries.from_coeffs([1, 1, 0])
    b = TruncatedSeries.from_coeffs([1, -1, 0])
    assert (a * b).coeffs == (1, 0, -1)


def test_multiplicative_identity():
    a = TruncatedSeries.from_coeffs([3, -2, 7, 0, 5])
    one = TruncatedSeries.one(4)
    assert (a * one).coeffs == a.coeffs


def test_geometric_square():
    geo = TruncatedSeries.from_coeffs([1] * 6)
    assert (geo * geo).coeffs == brute_mul(geo, geo) == (1, 2, 3, 4, 5, 6)


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries.one(3) * TruncatedSeries.one(4)


@given(series_pairs)
def test_mul_matches_convolution(pair):
    a, b = pair
    assert (a * b).coeffs == brute_mul(a, b)


@given(series_pairs, st.data())
def test_ring_axioms(pair, data):
    a, b = pair
    c = TruncatedSeries.from_coeffs(data.draw(coefficient_lists(a.n_max)))
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


def euler_partition_oracle(n_max):
    """p(n) by the pentagonal-number recurrence (independent of product_form)."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_partition_product():
    got = product_form([(1, 0, -1)], 42)
    assert list(got.coeffs) == euler_partition_oracle(42)
    assert got.coeffs[:11] == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_partition_counts_nondecreasing():
    coeffs = partition_gf(120).coeffs
    assert all(b >= a for a, b in zip(coeffs, coeffs[1:]))


def test_empty_product_is_one():
    assert product_form([], 7).coeffs == TruncatedSeries.one(7).coeffs


def test_rogers_ramanujan_product_coefficient():
    # parts congruent to 2 or 3 mod 5, exhaustive enumeration at n = 7
    series = product_form([(5, -3, -1), (5, -2, -1)], 7)
    parts = [m for m in range(1, 8) if m % 5 in (2, 3)]

    def count(n, parts):
        if n == 0:
            return 1
        if not parts or n < 0:
            return 0
        return count(n - parts[0], parts) + count(n, parts[1:])

    assert series.coeffs[7] == count(7, parts) == 2


def test_product_form_rejects_bad_factors():
    with pytest.raises(ValueError):
        product_form([(0, 1, -1)], 5)
    with pytest.raises(ValueError):
        product_form([(1, 0, 2)], 5)
    with pytest.raises(ValueError):
        product_form([(1, -1, -1)], 5)  # exponent q^0 at n=1


@given(st.data())
def test_multiplicities_kernel_matches_general_mul(data):
    # a * (q^m + ... + q^{rm}) for a zero below lo, with r=None the whole
    # q^m/(1-q^m); the kernel takes and returns tails ending at n_max.  The
    # draws reach m > n_max, r*m > n_max, lo = n_max + 1 (empty input) and
    # lo + m > n_max (empty product)
    n_max = data.draw(st.integers(min_value=0, max_value=30))
    lo = data.draw(st.integers(min_value=0, max_value=n_max + 1))
    m = data.draw(st.integers(min_value=1, max_value=n_max + 2))
    r = data.draw(st.sampled_from([1, 2, 3, None]))
    tail = data.draw(coefficient_lists(n_max - lo))
    top = n_max if r is None else r * m
    factor = TruncatedSeries.from_coeffs(
        [1 if i % m == 0 and 0 < i <= top else 0 for i in range(n_max + 1)]
    )
    expected = (TruncatedSeries.from_coeffs([0] * lo + tail, n_max) * factor).coeffs
    assert not any(expected[:lo + m])
    assert tuple(_mul_multiplicities(tail, m, r)) == expected[lo + m:]


def test_eval_constant_and_geometric():
    one = TruncatedSeries.one(3)
    with working(40):
        res = eval_at(one, mpmath.mpf("0.7"), digits=40)
        assert res.value == 1
        geo = TruncatedSeries.from_coeffs([1] * 400)
        s = mpmath.mpf("0.5")
        res = eval_at(geo, s, digits=40)
        closed = 1 / (1 - mpmath.exp(-s))
        rounding = abs(closed) * mpmath.mpf("1e-35")
        assert abs(res.value - closed) <= res.tail_bound + rounding


def test_eval_rejects_nonpositive_s():
    with pytest.raises(ValueError):
        eval_at(TruncatedSeries.one(2), 0)


def test_eval_tolerance_flag():
    geo = TruncatedSeries.from_coeffs([1] * 11)
    ok = eval_at(geo, 2.0, tol=1e-3)
    assert ok.within_tol is True
    bad = eval_at(geo, 0.01, tol=1e-30)
    assert bad.within_tol is False
