import math

import mpmath
import pytest

from kseq.precision import working
from kseq.probability import (
    ModelParams,
    exact_prob,
    simulate,
    simulation_report,
    truncation_index,
)


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


def test_largest_seed_simulates():
    assert simulate(ModelParams(2, 0.5, 1000, 2**128 - 1)).trials == 1000


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


def test_simulation_close_to_exact():
    params = ModelParams(2, 0.5, 10**5, seed=42)
    res = simulate(params)
    exact = exact_prob(2, 0.5, 1e-10, 40)
    assert abs(res.estimate - float(exact.value)) <= 3 * res.stderr + res.bias_bound


def test_simulation_seed_stability():
    # at least 9 of 10 seeds land within 3 sigma + bias
    exact = float(exact_prob(3, 0.3, 1e-10, 40).value)
    hits = 0
    for seed in range(10):
        res = simulate(ModelParams(3, 0.3, 10**4, seed=seed))
        if abs(res.estimate - exact) <= 3 * res.stderr + res.bias_bound:
            hits += 1
    assert hits >= 9


def test_exact_prob_in_unit_interval_and_monotone_in_k():
    with working(40):
        p2 = exact_prob(2, 0.25, 1e-10, 40)
        p3 = exact_prob(3, 0.25, 1e-10, 40)
        assert 0 < p2.value < p3.value < 1
        assert p2.rel_bound < 1e-10


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
