from itertools import islice

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from kseq.counting import gk_coefficients
from kseq.precision import working
from kseq.transfer import (
    _product_steps,
    gk_eval,
    convergence_trace,
    iterate_product,
    runup_config_count,
    runup_states,
    runup_vector,
    z_of,
)
from kseq.series import eval_at
from kseq.spectral import char_roots


def test_z_at_half_q():
    with working(40):
        assert abs(z_of(1, mpmath.log(2), 40) - 1) < mpmath.mpf("1e-45")


def test_z_small_ns_expansion():
    with working(40):
        s = mpmath.mpf("1e-6")
        z = z_of(1, s, 40)
        assert abs(z - (1 / s - mpmath.mpf(1) / 2)) < 1e-5


def test_z_decreasing_in_n():
    with working(30):
        vals = [z_of(n, 0.1, 30) for n in range(1, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_m_matrix_shape_k2():
    # the eigendecomposition at z(3) rebuilds m(3) = [[1, 1], [z, 0]]
    with working(40):
        z = z_of(3, 0.5, 40)
        m = char_roots(2, z, 40).reconstruct_m()
        tol = mpmath.mpf("1e-35")
        assert abs(m[0, 0] - 1) < tol and abs(m[0, 1] - 1) < tol
        assert abs(m[1, 0] - z) < tol * z and abs(m[1, 1]) < tol


def test_m_matrix_trace_and_det():
    with working(40):
        for k in (2, 3, 4):
            z = z_of(2, 0.3, 40)
            m = char_roots(k, z, 40).reconstruct_m()
            trace = mpmath.fsum(m[i, i] for i in range(k))
            assert abs(trace - 1) < mpmath.mpf("1e-35")
            det = mpmath.det(m)
            expected = (-1) ** (k + 1) * z ** (k - 1)
            assert abs(det - expected) < abs(expected) * mpmath.mpf("1e-35")


def test_single_step_state():
    sv = iterate_product(3, 1, s=0.4)
    with working(50):
        assert sv.entries[0] == 0
        assert abs(mpmath.exp(sv.entries[1]) - z_of(1, 0.4)) < mpmath.mpf("1e-45")
        assert sv.entries[2] == -mpmath.inf


def test_formal_entries_nonnegative():
    sv = iterate_product(3, 10, mode="formal", n_max=14)
    for entry in sv.entries:
        assert all(c >= 0 for c in entry.coeffs)


def test_first_row_sums_entries():
    # v_0(N+1) = sum_a v_a(N)
    n_max = 18
    sv = iterate_product(3, 6, mode="formal", n_max=n_max)
    sv_next = iterate_product(3, 7, mode="formal", n_max=n_max)
    total = tuple(map(sum, zip(*(e.coeffs for e in sv.entries))))
    assert total == sv_next.entries[0].coeffs


def test_formal_entry0_is_parts_strictly_below_N():
    # the N-step entry 0 is G_{k,N} (parts < N): it misses {N} at weight N
    k, N = 2, 12
    entry = iterate_product(k, N, mode="formal", n_max=N).entries[0]
    dp = gk_coefficients(k, N)
    assert entry.coeffs[:N] == dp.values[:N]
    assert dp[N] - entry.coeffs[N] == 1
    full = iterate_product(k, N + 1, mode="formal", n_max=N).entries[0]
    assert full.coeffs == dp.values


def test_iterate_argument_validation():
    with pytest.raises(ValueError):
        iterate_product(2, 0, s=0.1)
    with pytest.raises(ValueError):
        iterate_product(2, 3, mode="numeric")
    with pytest.raises(ValueError):
        iterate_product(2, 3, mode="formal")
    with pytest.raises(ValueError):
        iterate_product(2, 3, s=0.1, mode="sideways")
    with pytest.raises(MemoryError):
        iterate_product(2, 3, mode="formal", n_max=10**7)


def test_gk_eval_dominant_term_large_s():
    with working(40):
        val = mpmath.exp(gk_eval(2, 5, mpmath.mpf("1e-10"), 40).value.log())
        # next omitted term is 2 q^2 = 2 e^{-10}
        assert abs(val - (1 + mpmath.exp(mpmath.mpf(-5)))) < 3 * mpmath.exp(mpmath.mpf(-10))


def test_gk_eval_matches_formal_series():
    with working(50):
        s = mpmath.mpf("0.1")
        res = gk_eval(2, s, mpmath.mpf("1e-14"))
        table = gk_coefficients(2, 900)
        ev = eval_at(table.series(), s)
        gap = abs(res.value.log() - mpmath.log(ev.value))
        assert gap < mpmath.mpf("1e-12")


def test_gk_eval_monotone_in_k():
    with working(40):
        s = mpmath.mpf("0.2")
        g2 = gk_eval(2, s, 1e-10, 40).value.log()
        g3 = gk_eval(3, s, 1e-10, 40).value.log()
        g_all = -mpmath.log(mpmath.qp(mpmath.exp(-s)))
        assert g2 < g3 < g_all


def _log_uniform(lo, hi):
    return st.floats(min_value=0, max_value=1).map(
        lambda u: float(mpmath.mpf(lo) * (mpmath.mpf(hi) / lo) ** u))


@st.composite
def gk_eval_cases(draw):
    k = draw(st.integers(min_value=2, max_value=8))
    s = draw(_log_uniform(0.005, 2))
    digits = draw(st.sampled_from([15, 30, 50]))
    tol = draw(_log_uniform(max(1e-30, 10.0 ** -(digits - 5)), 1e-4))
    return k, s, tol, digits


@settings(deadline=None, max_examples=4)
@given(gk_eval_cases())
@example((2, 0.9, 3e-13, 50))
@example((2, 1.5, 1e-21, 50))
@example((2, 1e-3, 1e-12, 50))
def test_gk_eval_bound_dominates_longer_run(case):
    # v_0 increases to G_k, so the rise from N to 2N steps is at most the
    # relative bound gk_eval reports at N (up to rounding)
    k, s, tol, digits = case
    res = gk_eval(k, s, tol, digits)
    assert res.rel_bound < tol
    with working(digits):
        # log v_0 at N, then N steps on at 2N, from one pass of the product
        steps = _product_steps(k, s)
        at_n = next(islice(steps, res.n_used - 1, None))[1]
        at_2n = next(islice(steps, res.n_used - 1, None))[1]
        assert at_n == res.value.log()
        rise = at_2n - at_n
        assert rise <= mpmath.log1p(res.rel_bound) + mpmath.mpf(10) ** -digits


def test_gk_eval_unreachable_tolerance(monkeypatch):
    with pytest.raises(ArithmeticError):
        gk_eval(2, 0.1, 1e-80, digits=30)

    # a tolerance the bound cannot meet by the step cap raises before any step
    def no_steps(k, s):
        raise AssertionError("stepped towards an unreachable tolerance")
        yield

    monkeypatch.setattr("kseq.transfer._product_steps", no_steps)
    with pytest.raises(ArithmeticError):
        gk_eval(2, 1e-6)


def _shortenings(k, missing):
    # c_i = k - (n_i - n_{i-1}), with n_0 = 0: how much gap i closes below k
    return tuple(k - (hi - lo) for lo, hi in zip((0, *missing), missing))


def test_runup_state_structure():
    k, N = 3, 9
    states = list(runup_states(k, N))
    # n_i = k i - (c_1 + ... + c_i) for shortenings (1, 0, 2, 0)
    assert ((2, 5, 6, 9), 0) in states
    assert _shortenings(k, (2, 5, 6, 9)) == (1, 0, 2, 0)
    # every yielded pair is a valid configuration: no run of k present sizes
    # below the first missing size, between two, or above the last (of
    # length a), and M = (N + ell) // k missing sizes
    for k in range(2, 7):
        for N in range(1, 13):
            for missing, a in runup_states(k, N):
                bounds = (0, *missing, N + 1)
                assert all(1 <= hi - lo <= k for lo, hi in zip(bounds, bounds[1:]))
                assert a == N - bounds[-2] <= k - 1
                ell = sum(_shortenings(k, missing))
                assert len(missing) == (N + ell) // k


def test_runup_state_count_matches_subset_count():
    # distinct and as many as there are configurations: with the validity
    # check above, the enumeration is exactly the set of them
    for k in range(2, 7):
        for N in range(1, 13):
            states = list(runup_states(k, N))
            assert len(set(states)) == len(states) == runup_config_count(k, N)


def test_runup_entry_congruence_when_k_divides_N():
    for k in (2, 3):
        for N in (k, 2 * k, 3 * k):
            for missing, a in runup_states(k, N):
                assert sum(_shortenings(k, missing)) % k == a


def test_runup_guard_refuses_large_enumeration():
    with pytest.raises(ValueError):
        runup_vector(2, 400, s=0.1)


def test_runup_oracle_matches_product_entrywise():
    n_max = 15
    for k in (2, 3):
        for N in (2, 4, 5):
            oracle = runup_vector(k, N, mode="formal", n_max=n_max)
            product = iterate_product(k, N, mode="formal", n_max=n_max)
            for a in range(k):
                assert oracle.entries[a].coeffs == product.entries[a].coeffs


def test_runup_ell_zero_pattern():
    # with no shortenings, exactly every k-th part size is missing
    k, N = 3, 9
    states = [(m, a) for m, a in runup_states(k, N) if not any(_shortenings(k, m))]
    assert states == [((3, 6, 9), 0)]


def test_convergence_trace_rows():
    rows = convergence_trace(2, 0.2, 12)
    assert [r[0] for r in rows] == list(range(1, 13))
    assert all(len(r) == 3 for r in rows)
