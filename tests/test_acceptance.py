"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with `pytest -s`) and asserts the
criterion at its stated tolerance and time budget.  Run:

    pytest tests/test_acceptance.py -v -s
"""
import time

from kseq import verify


def report(num, passed, detail=""):
    line = f"criterion {num:02d}: {'PASS' if passed else 'FAIL'} {detail}"
    print(line)
    return passed


def test_c01_oracle_equivalence():
    started = time.monotonic()
    result = verify.oracle_equivalence(
        k_values=(2, 3, 4), r_values=(1, 2, None), b_values=(0, 1), n_limit=36
    )
    elapsed = time.monotonic() - started
    ok = result["passed"] and elapsed < 60
    assert report(1, ok, f"DP = enumeration on {result['combinations']} constraints, "
                         f"n <= 36 [{elapsed:.1f}s]")


def test_c02_identity_suite():
    started = time.monotonic()
    result = verify.identities_check(n_max=300)
    elapsed = time.monotonic() - started
    names = [c["name"] for c in result["cases"]]
    ok = result["passed"] and len(names) == 5 and elapsed < 10
    assert report(2, ok, f"five identities exact to q^300 [{elapsed:.1f}s]")


def test_c03_transfer_matrix_equals_dp():
    result = verify.transfer_matches_dp(k_values=(2, 3, 4), N=30)
    assert report(3, result["passed"], "formal product entry 0 = DP, k <= 4, n <= 30")


def test_c04_runup_oracle():
    result = verify.runup_matches_product(
        k_values=(2, 3, 4), n_values=tuple(range(1, 9))
    )
    assert report(
        4,
        result["passed"],
        f"shortening enumeration = product, k <= 4, N <= 8 "
        f"(worst numeric log gap {result['worst_numeric_log_gap']})",
    )


# the quadrature of g_k over [0, x_tail], and its distance to pi^2/(3k(k+1)),
# which is the omitted tail
C05_ROWS = {
    2: ("0.54831135561574377488", "3.32e-13"),
    3: ("0.27415567780791571883", "1.22e-13"),
    4: ("0.16449340668477777575", "4.49e-14"),
    5: ("0.10966227112319861446", "1.65e-14"),
    6: ("0.07833019365943330873", "6.05e-15"),
}


def test_c05_gk_integral():
    started = time.monotonic()
    result = verify.gk_integral_check(k_values=(2, 3, 4, 5, 6), tol=1e-8)
    elapsed = time.monotonic() - started
    rows = {row["k"]: (row["value"], row["error"]) for row in result["rows"]}
    ok = result["passed"] and rows == C05_ROWS and elapsed < 30
    assert report(5, ok, f"integral g_k = pi^2/(3k(k+1)) within 1e-8, k = 2..6 [{elapsed:.1f}s]")


def test_c06_fk_lambda_identity():
    started = time.monotonic()
    result = verify.fk_lambda_identity(
        k_values=(2, 3, 4), n_points=20, threshold=1e-20, digits=50
    )
    elapsed = time.monotonic() - started
    ok = result["passed"] and elapsed < 10
    assert report(6, ok, f"|f_k - x_1 q^n| worst {result['worst']} < 1e-20 [{elapsed:.1f}s]")


def test_c07_spectral_invariants():
    result = verify.spectral_invariants(k_values=(2, 3, 4, 5), points_per_k=50, digits=50)
    ok = result["passed"] and result["grid_points"] == 200
    assert report(7, ok, f"roots/Vieta/ADA^-1/T on 200 points, worst {result['worst']}")


def test_c08_eigen_sum_residual_bounded():
    started = time.monotonic()
    r2 = verify.eigen_sum_residuals(2, (0.2, 0.1, 0.05, 0.02, 0.01))
    r3 = verify.eigen_sum_residuals(3, (0.2, 0.1, 0.05, 0.02, 0.01))
    elapsed = time.monotonic() - started
    ok = r2["passed"] and r3["passed"] and elapsed < 300
    assert report(8, ok, f"R(s)/s^(1/k) bounded, slopes {r2['loglog_slope']} / "
                         f"{r3['loglog_slope']} [{elapsed:.1f}s]")


def test_c09_gk_main_term_and_probability_constant():
    started = time.monotonic()
    result = verify.gk_main_term_check((0.1, 0.05, 0.02, 0.01), prob_tolerance=0.10)
    elapsed = time.monotonic() - started
    ok = result["passed"] and elapsed < 600
    assert report(
        9, ok,
        f"log-error decreasing {result['log_errors']}; scaled P within "
        f"{result['relative_gap']} of sqrt(pi/2) [{elapsed:.1f}s]",
    )


def test_c10_three_factor_assembly():
    result = verify.three_factor_assembly(2, (0.1, 0.05, 0.02, 0.01))
    residuals = [row["residual"] for row in result["rows"]]
    assert report(10, result["passed"], f"assembly residuals shrink: {residuals}")


def test_c11_monte_carlo():
    started = time.monotonic()
    result = verify.monte_carlo_check(k=2, s=0.3, trials=10**6, seed=20260809)
    elapsed = time.monotonic() - started
    ok = result["passed"] and elapsed < 60
    assert report(
        11, ok,
        f"1e6 trials: |est-exact| = {result['gap']:.2e} <= "
        f"{result['budget_3sigma_plus_bias']:.2e}, deterministic [{elapsed:.1f}s]",
    )


def test_c12_coefficient_main_term_ratios():
    started = time.monotonic()
    result = verify.coefficient_ratio_check((500, 1000, 2000, 4000))
    elapsed = time.monotonic() - started
    gaps = [row["gap"] for row in result["rows"]]
    ok = result["passed"] and elapsed < 120
    assert report(12, ok, f"p_2(n)/main term gaps strictly improve: {gaps} [{elapsed:.1f}s]")


def test_c13_conjecture_fit():
    started = time.monotonic()
    result = verify.conjecture_fit_check(k=2, s_lo=0.01, s_hi=0.1, points=6)
    elapsed = time.monotonic() - started
    ok = result["passed"] and elapsed < 600
    assert report(
        13, ok,
        f"fitted c = {result['fitted_c1']} vs sqrt(2/(9 pi)) = {result['target']} "
        f"(band 0.8..1.2) [{elapsed:.1f}s]",
    )
