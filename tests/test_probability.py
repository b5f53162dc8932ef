import itertools
import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from kseq.precision import working
from kseq.probability import (
    ModelParams,
    exact_prob,
    simulate,
    simulation_report,
    truncation_index,
)
from kseq.transfer import iterate_product


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 0.3, 10**4, 1)
    with pytest.raises(ValueError):
        ModelParams(2, 1.2, 10**4, 1)
    with pytest.raises(ValueError):
        ModelParams(2, 0.3, 500, 1)
    with pytest.raises(ValueError):
        ModelParams(2, 0.3, 10**4, 1, trunc_eps=0.1)
    # Philox keys lie in [0, 2**128)
    for seed in (-1, 2**128):
        with pytest.raises(ValueError):
            ModelParams(2, 0.3, 10**4, seed)
    # the truncation index 1001506 lies above its cap, refused before any draw
    with pytest.raises(ValueError, match="truncation index 1001506"):
        ModelParams(2, 1e-5, 10**4, 1)


def test_params_refuse_truncation_width_above_cap():
    # the index is 1 at k = 10^8, but simulate would draw 10^8 columns per
    # trial; the width n + k - 1 is held to the index's cap, and no draw made
    assert truncation_index(10**8, 0.3, 1e-4) == 1
    with pytest.raises(ValueError, match="truncation width 100000000"):
        ModelParams(10**8, 0.3, 1000, 1)
    assert ModelParams(10**6, 0.3, 1000, 1).k == 10**6  # width 10^6, the cap
    with pytest.raises(ValueError, match="truncation width 1000001"):
        ModelParams(10**6 + 1, 0.3, 1000, 1)


def test_params_refuse_s_below_float_resolution():
    # 1 - e^{-ks} is 0.0 in floats: the cap's ValueError, not ZeroDivisionError
    with pytest.raises(ValueError, match="above the cap"):
        ModelParams(2, 1e-17, 1000, 1)
    with pytest.raises(ValueError, match="above the cap"):
        truncation_index(2, 1e-17, 1e-4)


def test_largest_seed_simulates():
    assert simulate(ModelParams(2, 0.5, 1000, 2**128 - 1)).trials == 1000


def test_chunk_budget_leaves_draws_unchanged(monkeypatch):
    # Philox fills chunks row by row, so 2-row chunks (36 cells at width 18)
    # draw the same numbers for every trial as one 1000-row chunk
    params = ModelParams(2, 0.3, 1000, 5)
    whole = simulate(params)
    monkeypatch.setattr("kseq.probability._CHUNK_CELLS", 40)
    assert simulate(params) == whole


def test_truncation_index_meets_budget():
    for k, s, eps in ((2, 0.3, 1e-44), (3, 0.1, 1e-5), (2, 0.05, 1e-6)):
        n = truncation_index(k, s, eps)
        tail_from_n = math.exp(-k * s * n - s * k * (k - 1) / 2) / (1 - math.exp(-k * s))
        assert tail_from_n < eps
        assert n >= 1


def test_simulation_deterministic_under_seed():
    params = ModelParams(2, 0.4, 5000, seed=1234)
    assert simulate(params) == simulate(params)
    shifted = simulate(ModelParams(2, 0.4, 5000, seed=1235))
    assert shifted.estimate != simulate(params).estimate


def test_simulation_vacuous_when_k_exceeds_window():
    # truncation keeps so few indices that no k-run can realistically fail
    params = ModelParams(12, 0.5, 2000, seed=7)
    res = simulate(params)
    assert res.estimate == 1.0
    # no trial failed, and the standard error is that of one failure in 2000
    assert res.stderr == pytest.approx(math.sqrt(1 / 2000 * (1 - 1 / 2000) / 2000))


def test_simulation_close_to_exact():
    params = ModelParams(2, 0.5, 10**5, seed=42)
    res = simulate(params)
    exact = exact_prob(2, 0.5, 1e-10, 40)
    assert res.against(float(exact.value))[2]


def test_simulation_seed_stability():
    # at least 9 of 10 seeds land within 3 sigma + bias
    exact = float(exact_prob(3, 0.3, 1e-10, 40).value)
    hits = 0
    for seed in range(10):
        res = simulate(ModelParams(3, 0.3, 10**4, seed=seed))
        hits += res.against(exact)[2]
    assert hits >= 9


def test_exact_prob_in_unit_interval_and_monotone_in_k():
    # up to P = 1 too: 1 - P_s(A_8) is 8.5e-15 at s = 0.9, far below tol
    for s in (0.25, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
        probs = [exact_prob(k, s) for k in range(2, 9)]
        with working(50):
            values = [p.value for p in probs]
            assert 0 < values[0] and values[-1] < 1
            assert all(a < b for a, b in zip(values, values[1:]))
            assert all(p.rel_bound < 1e-10 for p in probs)


@pytest.mark.parametrize("k", [2, 3])
def test_event_chain_equals_outcome_sum(k):
    # v_0(N) prod_{n<N} (1 - q^n) is the chance that no k consecutive events
    # among C_1..C_{N-1} all fail: the sum over every outcome of those events
    with working(50):
        s = mpmath.mpf("0.3")
        q = mpmath.exp(-s)
        for N in range(1, 11):
            total = mpmath.fsum(
                mpmath.fprod(q**n if fail == "1" else 1 - q**n
                             for n, fail in enumerate(outcome, start=1))
                for outcome in map("".join, itertools.product("01", repeat=N - 1))
                if "1" * k not in outcome)
            chain = (mpmath.exp(iterate_product(k, N, s=s).entries[0])
                     * mpmath.fprod(1 - q**n for n in range(1, N)))
            assert abs(chain - total) < mpmath.mpf(10) ** -45


@st.composite
def exact_prob_cases(draw):
    k = draw(st.integers(min_value=2, max_value=8))
    s = 0.05 * (0.999 / 0.05) ** draw(st.floats(min_value=0, max_value=1))
    digits = draw(st.sampled_from([15, 50, 100]))
    u = draw(st.floats(min_value=0, max_value=1))
    with working(digits):  # from gk_eval's floor 10^-(digits-5) up to 1e-3
        floor = mpmath.mpf(10) ** (5 - digits)
        tol = floor * (mpmath.mpf("1e-3") / floor) ** u
    return k, s, tol, digits


@settings(deadline=None, max_examples=4)
@given(exact_prob_cases())
@example((8, 0.9, mpmath.mpf("1e-10"), 50))
@example((7, 0.95, mpmath.mpf("1e-10"), 50))
def test_exact_prob_within_bound_of_finer_run(case):
    # both runs exceed P_s(A_k) by at most their rel_bound, so their ratio
    # lies within the two bounds, up to rounding at `digits`
    k, s, tol, digits = case
    res = exact_prob(k, s, tol, digits)
    with working(2 * digits):
        ref = exact_prob(k, s, mpmath.mpf(tol) ** 2, 2 * digits)
        assert 0 < res.value < 1
        assert res.rel_bound < tol
        gap = res.value / ref.value - 1
        slack = mpmath.mpf(10) ** -digits
        assert -ref.rel_bound - slack <= gap <= res.rel_bound + slack


def test_exact_prob_times_g_equals_gk():
    with working(40):
        p = exact_prob(2, 0.2, 1e-10, 40)
        assert abs(mpmath.log(p.value) + p.log_g - p.log_gk) < mpmath.mpf("1e-40")


def test_exact_prob_rejects_bad_domain():
    with pytest.raises(ValueError):
        exact_prob(2, 0)
    with pytest.raises(ValueError):
        exact_prob(2, 1.0)


def test_hlr_log_rate_trend():
    # s log P_s(A_k) -> -pi^2/(3k(k+1)); the gap shrinks as s decreases
    with working(40):
        k = 2
        target = -mpmath.pi**2 / 18
        gaps = []
        for s in ("0.2", "0.1", "0.05"):
            s = mpmath.mpf(s)
            p = exact_prob(k, s, 1e-10, 40)
            gaps.append(abs(s * (p.log_gk - p.log_g) - target))
        assert gaps[-1] < gaps[0]


def test_simulation_report_record():
    params = ModelParams(2, 0.5, 2000, seed=5)
    record = simulation_report(params, 1e-8, 40)
    for key in ("k", "s", "trials", "seed", "N", "estimate", "stderr",
                "bias_bound", "exact", "sigma_distance"):
        assert key in record
    assert record["trials"] == 2000
