import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from kseq.counting import gk_coefficients
from kseq.precision import working
from kseq.series import (
    TruncatedSeries,
    _mul_packed,
    _slot_bits,
    eval_at,
    product_form,
    run_length_states,
    unpack,
)
from kseq.transfer import _mul_multiplicities

coefficients = st.integers(min_value=-50, max_value=50)


def truncated(coeffs):
    return TruncatedSeries(tuple(coeffs), len(coeffs) - 1)


def unit(n_max):
    return truncated([1] + [0] * n_max)


def coefficient_lists(n_max):
    return st.lists(coefficients, min_size=n_max + 1, max_size=n_max + 1)


def pair_of_series(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    a = draw(coefficient_lists(n))
    b = draw(coefficient_lists(n))
    return truncated(a), truncated(b)


series_pairs = st.composite(pair_of_series)()


def brute_mul(a, b):
    n = a.n_max
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return tuple(out)


def test_difference_of_squares():
    a = truncated([1, 1, 0])
    b = truncated([1, -1, 0])
    assert (a * b).coeffs == (1, 0, -1)


def test_multiplicative_identity():
    a = truncated([3, -2, 7, 0, 5])
    one = unit(4)
    assert (a * one).coeffs == a.coeffs


def test_geometric_square():
    geo = truncated([1] * 6)
    assert (geo * geo).coeffs == brute_mul(geo, geo) == (1, 2, 3, 4, 5, 6)


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        unit(3) * unit(4)


@given(st.data())
def test_mul_matches_convolution(data):
    # signed coefficients up to 2**200, all-zero factors, and a factor of
    # huge coefficients against one of small ones, the kind drawn per factor
    n_max = data.draw(st.integers(min_value=0, max_value=40))
    kinds = {
        "huge": st.integers(min_value=-2**200, max_value=2**200),
        "small": coefficients,
        "zero": st.just(0),
    }
    a, b = (
        truncated(data.draw(st.lists(kinds[data.draw(st.sampled_from(sorted(kinds)))],
                                     min_size=n_max + 1, max_size=n_max + 1)))
        for _ in range(2)
    )
    assert (a * b).coeffs == brute_mul(a, b)


@given(series_pairs, st.data())
def test_ring_axioms(pair, data):
    a, b = pair
    c = truncated(data.draw(coefficient_lists(a.n_max)))
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


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
    coeffs = product_form([(1, 0, -1)], 120).coeffs
    assert all(b >= a for a, b in zip(coeffs, coeffs[1:]))


def test_empty_product_is_one():
    assert product_form([], 7).coeffs == unit(7).coeffs


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


def loop_product_form(factors, n_max):
    """The per-coefficient expansion product_form replaced, kept as its
    reference: each factor (1 - q^m)^(+-1) by one pass over the list."""
    out = [1] + [0] * n_max
    for a, b, e in factors:
        for m in range(a + b, n_max + 1, a):
            if e == -1:
                for i in range(m, n_max + 1):
                    out[i] += out[i - m]
            else:
                for i in range(n_max, m - 1, -1):
                    out[i] -= out[i - m]
    return tuple(out)


@settings(deadline=None)
@given(st.data())
def test_product_form_matches_loop(data):
    # up to 5 triples of mixed signs; a repeated triple puts its sizes up to
    # 4 times among the divisors, the mu that sets the slot width
    n_max = data.draw(st.integers(min_value=0, max_value=80))
    triple = st.integers(min_value=1, max_value=6).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(min_value=1 - a, max_value=4),
                            st.sampled_from([-1, 1])))
    factors = data.draw(st.lists(triple, max_size=5))
    if factors:
        factors += [factors[0]] * data.draw(st.integers(min_value=0, max_value=3))
    assert product_form(factors, n_max).coeffs == loop_product_form(factors, n_max)


@pytest.mark.parametrize("mu", [1, 2, 3, 4])
def test_product_form_slot_width_holds_repeated_divisors(mu):
    # (q;q)^-mu has the largest coefficients any mu-fold divisor product can
    # have; a slot sized for n_max alone overflows from mu = 2 on
    n_max = 200
    p = euler_partition_oracle(n_max)
    expected = [1] + [0] * n_max
    for _ in range(mu):
        expected = [sum(expected[i] * p[w - i] for i in range(w + 1)) for w in range(n_max + 1)]
    assert list(product_form([(1, 0, -1)] * mu, n_max).coeffs) == expected


def test_product_form_rejects_bad_factors():
    with pytest.raises(ValueError):
        product_form([(0, 1, -1)], 5)
    with pytest.raises(ValueError):
        product_form([(1, 0, 2)], 5)
    with pytest.raises(ValueError):
        product_form([(1, -1, -1)], 5)  # exponent q^0 at n=1


@given(st.data())
def test_multiplicities_kernel_matches_general_mul(data):
    # a * q^m/(1-q^m) for a zero below lo; the kernel takes and returns tails
    # ending at n_max.  The draws reach m > n_max, lo = n_max + 1 (empty
    # input) and lo + m > n_max (empty product)
    n_max = data.draw(st.integers(min_value=0, max_value=30))
    lo = data.draw(st.integers(min_value=0, max_value=n_max + 1))
    m = data.draw(st.integers(min_value=1, max_value=n_max + 2))
    tail = data.draw(coefficient_lists(n_max - lo))
    factor = truncated([1 if i % m == 0 and i > 0 else 0 for i in range(n_max + 1)])
    expected = (truncated([0] * lo + tail) * factor).coeffs
    assert not any(expected[:lo + m])
    assert tuple(_mul_multiplicities(tail, m)) == expected[lo + m:]


@given(st.data())
def test_packed_kernel_matches_general_mul(data):
    # the packed multiply of run_length_states on a series zero below lo,
    # slot i holding the coefficient of q^(n_max - i); coefficients are drawn
    # up to the largest value whose sum over every slot still fits one.  The
    # draws reach m > n_max, r*m > n_max, lo = n_max + 1 (empty input) and
    # lo + m > n_max (empty product), and r on both sides of the switch from
    # the direct sum of r shifted copies (r <= 6 here) to the doubling
    n_max = data.draw(st.integers(min_value=0, max_value=30))
    lo = data.draw(st.integers(min_value=0, max_value=n_max + 1))
    m = data.draw(st.integers(min_value=1, max_value=n_max + 2))
    r = data.draw(st.sampled_from([1, 2, 3, 4, 5, 8, n_max + 3, None]))
    width = _slot_bits(n_max)
    top_coeff = (1 << width) // (n_max + 1) - 1
    tail = data.draw(st.lists(st.integers(min_value=0, max_value=top_coeff),
                              min_size=n_max + 1 - lo, max_size=n_max + 1 - lo))
    coeffs = [0] * lo + tail
    packed = sum(c << ((n_max - w) * width) for w, c in enumerate(coeffs))
    top = n_max if r is None else r * m
    factor = truncated(
        [1 if i % m == 0 and 0 < i <= top else 0 for i in range(n_max + 1)]
    )
    out = _mul_packed(packed, m * width, r)
    assert unpack(out, n_max) == (truncated(coeffs) * factor).coeffs
    # the product's slots start at weight lo + m
    assert out.bit_length() <= max(0, n_max + 1 - lo - m) * width


def loop_run_length_states(k, n_max, sizes, r=None):
    """The per-size sweep run_length_states replaced, kept as its reference:
    one step for every size, the top half included."""
    width = _slot_bits(n_max)
    states = [1 << (n_max * width)] + [0] * (k - 1)
    for m in sizes:
        used = [_mul_packed(x, m * width, r) for x in states[:-1]]
        states = [sum(states[1:]) + states[0]] + used
    return states


@settings(deadline=None)
@given(st.data())
def test_run_length_states_matches_full_sweep(data):
    # every state, not just their sum; the last size lies below, at or above
    # h = (n_max+1)//2, up to n_max + 1 (the N + 1 steps of c03) and beyond
    k = data.draw(st.integers(min_value=2, max_value=8))
    n_max = data.draw(st.integers(min_value=0, max_value=60))
    r = data.draw(st.sampled_from([1, 2, 3, 5, n_max + 3, None]))
    first = data.draw(st.integers(min_value=1, max_value=4))
    h = (n_max + 1) // 2
    last = data.draw(st.one_of(
        st.integers(min_value=first - 1, max_value=max(first - 1, h - 1)),
        st.sampled_from([h, h + 1, n_max, n_max + 1]),
        st.integers(min_value=h, max_value=n_max + 8),
    ))
    sizes = range(first, last + 1)
    assert run_length_states(k, n_max, sizes, r) == loop_run_length_states(k, n_max, sizes, r)


@pytest.mark.parametrize("top", [1, 2**7, 2**101, 2**199], ids=["1", "2**7", "2**101", "2**199"])
def test_kronecker_mul_at_its_slot_bound(top):
    # every coefficient +-top makes |c_n| = (n + 1) top^2, the slot bound
    # itself; over n_max <= 40 these tops put its bit length on a multiple of 8
    for n_max in range(41):
        a = truncated([top] * (n_max + 1))
        for b in (a, truncated([-top] * (n_max + 1))):
            assert (a * b).coeffs == brute_mul(a, b)


def test_eval_constant_and_geometric():
    one = unit(3)
    with working(40):
        res = eval_at(one, mpmath.mpf("0.7"), digits=40)
        assert res.value == 1
        geo = truncated([1] * 400)
        s = mpmath.mpf("0.5")
        res = eval_at(geo, s, digits=40)
        closed = 1 / (1 - mpmath.exp(-s))
        rounding = abs(closed) * mpmath.mpf("1e-35")
        assert abs(res.value - closed) <= res.tail_estimate + rounding


def test_eval_is_horner_bit_for_bit():
    series = gk_coefficients(3, 500).series()
    with working(50):
        res = eval_at(series, mpmath.mpf("0.1"), digits=50)
        q = mpmath.exp(-mpmath.mpf("0.1"))
        acc = mpmath.mpf(0)
        for c in reversed(series.coeffs):
            acc = acc * q + c
        assert res.value == acc


def test_eval_rejects_nonpositive_s():
    with pytest.raises(ValueError):
        eval_at(unit(2), 0)


def test_eval_tolerance_flag():
    geo = truncated([1] * 11)
    ok = eval_at(geo, 2.0, tol=1e-3)
    assert ok.within_tol is True
    bad = eval_at(geo, 0.01, tol=1e-30)
    assert bad.within_tol is False
