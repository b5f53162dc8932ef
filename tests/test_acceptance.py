"""Acceptance criteria c01-c13: ``verify.check_table``'s full list at the
default run configuration, one test per criterion through one gate.

Only the gate lives here: criterion numbers, time budgets and three assertions
beyond a report's ``passed``.  Each test prints ``criterion NN: PASS|FAIL
<report names> [elapsed]``; run ``pytest tests/test_acceptance.py -v -s``.
"""
import time

from kseq import verify
from kseq.cli import RunConfig
from kseq.precision import DEFAULT_DIGITS

FULL = [(check, kwargs)
        for check, _, kwargs in verify.check_table(DEFAULT_DIGITS, RunConfig().seed)]

# criterion number of each entry, keyed by check name (c08 is both k = 2 and 3);
# an entry missing here fails every test
CRITERION = {
    "oracle_equivalence": 1, "identities_check": 2, "transfer_matches_dp": 3,
    "runup_matches_product": 4, "gk_integral_check": 5, "fk_lambda_identity": 6,
    "spectral_invariants": 7, "eigen_sum_residuals": 8, "gk_main_term_check": 9,
    "three_factor_assembly": 10, "monte_carlo_check": 11,
    "coefficient_ratio_check": 12, "conjecture_fit_check": 13,
}

# time budget in seconds of each criterion that has one, its entries together
BUDGET = {1: 60, 2: 10, 5: 30, 6: 10, 8: 300, 9: 600, 11: 60, 12: 120, 13: 600}

# the quadrature of g_k over [0, x_tail], and its distance to pi^2/(3k(k+1)),
# which is the omitted tail
C05_ROWS = {
    2: ("0.54831135561574377488", "3.32e-13"),
    3: ("0.27415567780791571883", "1.22e-13"),
    4: ("0.16449340668477777575", "4.49e-14"),
    5: ("0.10966227112319861446", "1.65e-14"),
    6: ("0.07833019365943330873", "6.05e-15"),
}

# what a criterion asserts of its report beyond ``passed``
EXTRA = {
    2: lambda report: len(report["cases"]) == 5,
    5: lambda report: {row["k"]: (row["value"], row["error"])
                       for row in report["rows"]} == C05_ROWS,
    7: lambda report: report["grid_points"] == 200,
}


def gate(num):
    entries = [(check, kwargs) for check, kwargs in FULL if CRITERION[check.__name__] == num]
    assert entries, f"criterion {num:02d} has no check_table entry"
    started = time.monotonic()
    reports = [check(**kwargs) for check, kwargs in entries]
    elapsed = time.monotonic() - started
    extra = EXTRA.get(num, lambda report: True)
    ok = (all(r["passed"] and extra(r) for r in reports)
          and elapsed < BUDGET.get(num, float("inf")))
    names = ", ".join(r["name"] for r in reports)
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {names} [{elapsed:.1f}s]")
    assert ok


def test_c01_oracle_equivalence():
    gate(1)


def test_c02_identity_suite():
    gate(2)


def test_c03_transfer_matrix_equals_dp():
    gate(3)


def test_c04_runup_oracle():
    gate(4)


def test_c05_gk_integral():
    gate(5)


def test_c06_fk_lambda_identity():
    gate(6)


def test_c07_spectral_invariants():
    gate(7)


def test_c08_eigen_sum_residual_bounded():
    gate(8)


def test_c09_gk_main_term_and_probability_constant():
    gate(9)


def test_c10_three_factor_assembly():
    gate(10)


def test_c11_monte_carlo():
    gate(11)


def test_c12_coefficient_main_term_ratios():
    gate(12)


def test_c13_conjecture_fit():
    gate(13)
