"""Coefficient-exact verification of the classical identities.

Each case pairs a constrained partition count (computed by the dynamic
program) with an independent product/series recipe (expanded by the exact
series layer); a check compares the two coefficient lists and reports the
first discrepancy.  Recipes are data, so adding an identity means adding an
entry, not code.
"""
from __future__ import annotations

from .counting import Constraint, count_constrained
from .precision import record
from .series import TruncatedSeries, product_form

DEFAULT_NMAX_CAP = 500


@record
class IdentityCase:
    """Left side: a counting constraint.  Right side: (1-q^{an+b})^e factors,
    optionally multiplied by the third-order mock theta series chi(q)."""

    name: str
    constraint: Constraint
    factors: tuple
    with_chi: bool = False


IDENTITY_CASES = {
    # distinct parts, no two consecutive sizes, parts >= 2  <->  parts = 2,3 mod 5
    "rogers_ramanujan": IdentityCase(
        "rogers_ramanujan",
        Constraint(2, 1, 1),
        ((5, -3, -1), (5, -2, -1)),
    ),
    # parts at most twice, no 2-sequence, parts >= 2  <->  parts = 2,3,4 mod 6
    "andrews_67": IdentityCase(
        "andrews_67",
        Constraint(2, 2, 1),
        ((6, -2, -1), (6, -3, -1), (6, -4, -1)),
    ),
    "macmahon": IdentityCase(
        "macmahon",
        Constraint(2, 2, 0),
        ((6, -3, 1), (6, -3, 1), (6, 0, 1), (1, 0, -1)),
    ),
    "andrews_lewis": IdentityCase(
        "andrews_lewis",
        Constraint(2, None, 1),
        ((6, 0, -1), (6, -2, -1), (6, -3, -1), (6, -4, -1)),
    ),
    # G_2(q) = prod (1+q^{3n})/(1-q^{2n}) * chi(q); the prefactor rewrites as
    # prod (1-q^{6n}) / ((1-q^{3n})(1-q^{2n}))
    "chi_mock_theta": IdentityCase(
        "chi_mock_theta",
        Constraint(2, None, 0),
        ((6, 0, 1), (3, 0, -1), (2, 0, -1)),
        with_chi=True,
    ),
}


def times_chi(series: TruncatedSeries) -> TruncatedSeries:
    """series * chi(q), exact, for the third-order mock theta series
    chi(q) = sum_{n>=0} q^{n^2} prod_{m=1}^{n} (1+q^m)/(1+q^{3m}).

    chi's recurrence, run on ``series``' coefficients in place of 1: the
    running product and the sum both start as ``series``.  Each step
    multiplies by a power series (1 + q^n, 1/(1 + q^{3n}), q^{n^2}), and
    power series commute, so every summand, and the sum, is ``series`` times
    its value in chi's own recurrence; no series multiply is needed, and the
    truncation at n_max drops only weights past it.  Each quotient has unit
    constant term, so the expansion stays integral; summands with n^2 > n_max
    are skipped.
    """
    n_max = series.n_max
    total = list(series.coeffs)  # n = 0 summand
    prod = list(series.coeffs)
    n = 1
    while n * n <= n_max:
        # multiply running product by (1 + q^n)
        for i in range(n_max, n - 1, -1):
            prod[i] += prod[i - n]
        # divide by (1 + q^{3n}):  b[i] = a[i] - b[i - 3n]
        m = 3 * n
        for i in range(m, n_max + 1):
            prod[i] -= prod[i - m]
        shift = n * n
        for i in range(shift, n_max + 1):
            total[i] += prod[i - shift]
        n += 1
    return TruncatedSeries(tuple(total), n_max)


@record
class IdentityReport:
    name: str
    n_max: int
    passed: bool
    first_discrepancy: int | None
    lhs: tuple
    rhs: tuple

    def to_json_dict(self) -> dict:
        record = {
            "name": self.name,
            "n_max": self.n_max,
            "passed": self.passed,
            "first_discrepancy": self.first_discrepancy,
        }
        if not self.passed:
            record["lhs"] = [str(c) for c in self.lhs]
            record["rhs"] = [str(c) for c in self.rhs]
        return record


def rhs_series(case: IdentityCase, n_max: int) -> TruncatedSeries:
    rhs = product_form(case.factors, n_max)
    return times_chi(rhs) if case.with_chi else rhs


def check_identity(case: IdentityCase | str, n_max: int = 300) -> IdentityReport:
    """Exact coefficient comparison over 0..n_max; on failure the report
    carries both coefficient lists and the first mismatched index."""
    if isinstance(case, str):
        try:
            case = IDENTITY_CASES[case]
        except KeyError:
            raise ValueError(f"unknown identity {case!r}") from None
    if n_max > DEFAULT_NMAX_CAP:
        raise ValueError(f"n_max exceeds the configured cap {DEFAULT_NMAX_CAP}")
    lhs = count_constrained(case.constraint, n_max).values
    rhs = rhs_series(case, n_max).coeffs
    first = next((i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)
    return IdentityReport(case.name, n_max, first is None, first, lhs, rhs)


def check_all(n_max: int = 300) -> list:
    return [check_identity(case, n_max) for case in IDENTITY_CASES.values()]
