import json

import pytest

from kseq.counting import Constraint, count_constrained, enumerate_oracle
from kseq.identities import (
    DEFAULT_NMAX_CAP,
    IDENTITY_CASES,
    IdentityCase,
    check_all,
    check_identity,
    rhs_series,
    times_chi,
)
from kseq.series import TruncatedSeries


def test_chi_constant_term_and_integrality():
    chi = times_chi(TruncatedSeries((1,) + (0,) * 60, 60))
    assert chi.coeffs[0] == 1
    assert all(isinstance(c, int) for c in chi.coeffs)


def test_chi_prefactor_identity_against_counts():
    # prod (1+q^{3n})/(1-q^{2n}) * chi(q) = sum p_2(n) q^n, up to the cap
    # perfbench's exact_counts reaches
    case = IDENTITY_CASES["chi_mock_theta"]
    for n_max in (120, DEFAULT_NMAX_CAP):
        rhs = rhs_series(case, n_max)
        lhs = count_constrained(Constraint(2), n_max)
        assert rhs.coeffs == lhs.values
    # spot-check a few coefficients against raw enumeration
    for n in (5, 9, 14):
        assert rhs.coeffs[n] == enumerate_oracle(Constraint(2), n)


def test_all_identities_pass_to_300():
    reports = check_all(300)
    assert [r.name for r in reports] == [
        "rogers_ramanujan",
        "andrews_67",
        "macmahon",
        "andrews_lewis",
        "chi_mock_theta",
    ]
    assert all(r.passed for r in reports)
    assert all(r.first_discrepancy is None for r in reports)


def test_rogers_ramanujan_coefficient_seven():
    report = check_identity("rogers_ramanujan", 200)
    assert report.passed
    assert report.lhs[7] == 2


def test_mutated_product_fails_with_index():
    broken = IdentityCase(
        "broken",
        Constraint(2, 1, 1),
        ((5, -3, -1), (5, -1, -1)),  # wrong residue class
    )
    report = check_identity(broken, 60)
    assert not report.passed
    assert report.first_discrepancy == 3  # {3} is counted on the left only
    assert report.lhs[report.first_discrepancy] != report.rhs[report.first_discrepancy]


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        check_identity("zagier")


def test_nmax_cap_enforced():
    with pytest.raises(ValueError):
        check_identity("macmahon", 501)


def test_chi_and_andrews_lewis_consistent_with_counts():
    n_max = 150
    via_product = rhs_series(IDENTITY_CASES["andrews_lewis"], n_max)
    table = count_constrained(Constraint(2, None, 1), n_max)
    assert via_product.coeffs == table.values
    p2 = count_constrained(Constraint(2), n_max)
    assert all(a <= b for a, b in zip(table.values, p2.values))


def test_report_serializations():
    reports = check_all(40)
    parsed = json.loads(json.dumps([r.to_json_dict() for r in reports]))
    assert len(parsed) == 5 and all(p["passed"] for p in parsed)
