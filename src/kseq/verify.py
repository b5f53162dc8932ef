"""Composite checks tying the modules together.

Each function returns a JSON-ready dict with a ``passed`` flag and the
numbers behind it.  ``check_table`` is the one list of the checks and their
grid arguments: ``kseq verify-all`` runs its quick or full list, and the
acceptance tests (criteria c01-c13) run its full list at the default run
configuration, so a criterion has exactly one implementation and one set of
arguments.  The table hands each check the run's ``digits`` and ``seed``.
"""
from __future__ import annotations

import mpmath

from .asymptotics import (
    _check_fit_design,
    conjecture_fit,
    f_k,
    gk_growth_rate,
    gk_integral,
    lambda_k,
    main_term_gk,
    main_term_pk,
    main_term_psk,
)
from .counting import Constraint, count_constrained, enumerate_oracle, gk_coefficients
from .identities import check_all
from .precision import DEFAULT_DIGITS, working
from .probability import ModelParams, exact_prob, simulate
from .spectral import (
    _inversion_gap,
    char_roots,
    eigen_cut_for,
    eigen_product_log,
    primary_root,
    spectral_chain,
    transition_matrix,
    transition_tail_product,
)
from .transfer import gk_eval, iterate_product, runup_vector, z_of

# the tolerances the checks hand gk_eval and exact_prob, as mpf strings; the
# CLI's precision pre-check and scripts/ read them too
GK_TOL = "1e-12"
PROB_TOL = "1e-10"


def _nstr(x, d=12):
    return mpmath.nstr(mpmath.mpf(x), d)


def oracle_equivalence(n_limit: int = 36) -> dict:
    """DP versus exhaustive enumeration, exact, over the full grid."""
    mismatches = []
    combos = 0
    for k in (2, 3, 4):
        for r in (1, 2, None):
            for b in (0, 1):
                c = Constraint(k, r, b)
                combos += 1
                table = count_constrained(c, n_limit)
                for n in range(n_limit + 1):
                    expected = enumerate_oracle(c, n)
                    if table[n] != expected:
                        mismatches.append(
                            {"constraint": c.label(), "n": n,
                             "dp": str(table[n]), "oracle": str(expected)}
                        )
    return {
        "name": "oracle_equivalence",
        "passed": not mismatches,
        "combinations": combos,
        "n_limit": n_limit,
        "mismatches": mismatches,
    }


def identities_check(n_max: int = 300) -> dict:
    reports = check_all(n_max)
    return {
        "name": "identity_suite",
        "passed": all(r.passed for r in reports),
        "n_max": n_max,
        "cases": [r.to_json_dict() for r in reports],
    }


def transfer_matches_dp(N: int = 30) -> dict:
    """Formal-mode product entry 0 equals the DP coefficients, exactly.

    Both sides run the same kernel, ``series.run_length_states``, so this
    checks the step/size indexing: entry 0 after N+1 steps counts partitions
    with parts <= N (the N-step entry is the paper's G_{k,N}, parts strictly
    below N), so N+1 steps make the coefficients agree with p_k(n) for every
    n <= N.  The kernel itself is checked independently against enumeration
    (``oracle_equivalence``) and the run-up sums (``runup_matches_product``).
    """
    k_values = (2, 3, 4)
    failures = []
    for k in k_values:
        product_entry = iterate_product(k, N + 1, mode="formal", n_max=N).entries[0]
        dp = gk_coefficients(k, N)
        if tuple(product_entry.coeffs) != tuple(dp.values):
            failures.append(k)
    return {
        "name": "transfer_matrix_equals_dp",
        "passed": not failures,
        "k_values": list(k_values),
        "N": N,
        "failures": failures,
    }


def runup_numeric_gap(k: int, N: int, s, digits: int = DEFAULT_DIGITS) -> tuple:
    """(run-up vector, product vector, worst |log gap|) for numeric v(N) by
    shortening-sequence enumeration and by the matrix product.  An entry zero
    on both sides is skipped; one zero on a single side is an infinite gap."""
    with working(digits):
        via_runup = runup_vector(k, N, s=s, mode="numeric", digits=digits)
        via_product = iterate_product(k, N, s=s, mode="numeric", digits=digits)
        worst = mpmath.mpf(0)
        for log1, log2 in zip(via_runup.entries, via_product.entries):
            if log1 == log2 == -mpmath.inf:
                continue
            worst = max(worst, abs(log1 - log2))
    return via_runup, via_product, worst


def runup_verdict(worst, digits: int) -> tuple:
    """The run-up numeric rule as (passed, tolerance): the worst |log gap| of
    ``runup_numeric_gap`` passes below 10^-(digits-10).  Runs at the caller's
    working precision."""
    tol = mpmath.mpf(10) ** (-(digits - 10))
    return worst < tol, tol


def runup_matches_product(
    n_values=(1, 2, 3, 4, 5, 6, 7, 8), digits: int = DEFAULT_DIGITS
) -> dict:
    """Shortening-sequence enumeration equals the matrix product: exact in
    formal mode, to working precision in numeric mode (``runup_numeric_gap``).

    The formal comparison sets two distinct kernels against each other: the
    packed run-length DP (``series.run_length_states``) against run-up sums
    built from coefficient lists (``transfer._mul_multiplicities``)."""
    worst_log_gap = mpmath.mpf(0)
    formal_failures = []
    with working(digits):
        for k in (2, 3, 4):
            for N in n_values:
                n_max = N * (N + 1) // 2
                via_runup = runup_vector(k, N, mode="formal", n_max=n_max)
                via_product = iterate_product(k, N, mode="formal", n_max=n_max)
                for a in range(k):
                    if via_runup.entries[a].coeffs != via_product.entries[a].coeffs:
                        formal_failures.append((k, N, a))
                worst_log_gap = max(worst_log_gap, runup_numeric_gap(k, N, 0.3, digits)[2])
        numeric_passed, tol = runup_verdict(worst_log_gap, digits)
    return {
        "name": "runup_oracle",
        "passed": not formal_failures and numeric_passed,
        "formal_failures": formal_failures,
        "worst_numeric_log_gap": _nstr(worst_log_gap, 3),
        "tolerance": _nstr(tol, 3),
    }


def gk_integral_check(k_values=(2, 3, 4, 5, 6), digits: int = DEFAULT_DIGITS) -> dict:
    """integral of g_k against pi^2/(3k(k+1)); target and error at ``digits``."""
    tol = 1e-8
    rows = []
    passed = True
    with working(digits):
        for k in k_values:
            value = gk_integral(k, mpmath.mpf(tol) / 10)
            target = lambda_k(k)
            err = abs(value - target)
            ok = err < tol
            passed = passed and ok
            rows.append({"k": k, "value": _nstr(value, 20), "error": _nstr(err, 3), "ok": ok})
    return {"name": "gk_integral", "passed": passed, "tol": tol, "rows": rows}


def fk_lambda_identity(n_points: int = 20, digits: int = DEFAULT_DIGITS) -> dict:
    """|f_k(e^{-ns}) - x_1(n) e^{-ns}| below threshold across the grid."""
    threshold = 1e-20
    worst = mpmath.mpf(0)
    with working(digits):
        s = mpmath.mpf(0.05)
        for k in (2, 3, 4):
            for n in range(1, n_points + 1):
                y = mpmath.exp(-n * s)
                lhs = f_k(y, k, digits)
                lam = primary_root(k, z_of(n, s, digits), digits)
                worst = max(worst, abs(lhs - lam * y))
    return {
        "name": "fk_lambda_identity",
        "passed": bool(worst < mpmath.mpf(threshold)),
        "worst": _nstr(worst, 3),
        "threshold": _nstr(mpmath.mpf(threshold), 3),
    }


def spectral_invariants(points_per_k: int = 50, digits: int = DEFAULT_DIGITS) -> dict:
    """Root residuals, Vieta sums, eigendecomposition reconstruction, and the
    closed-form transition matrix against direct inversion, on a z-grid."""
    tol_roots = mpmath.mpf(10) ** (-(digits - 8))
    tol = mpmath.mpf(10) ** (-(digits - 10))
    worst = {"residual": mpmath.mpf(0), "vieta_sum": mpmath.mpf(0),
             "vieta_prod": mpmath.mpf(0), "reconstruction": mpmath.mpf(0),
             "transition": mpmath.mpf(0)}
    count = 0
    with working(digits):
        for k in (2, 3, 4, 5):
            grid = _log_grid(mpmath.mpf("0.001"), mpmath.mpf(1000), points_per_k, "points_per_k")
            for z in grid:
                count += 1
                point = char_roots(k, z, digits)
                worst["residual"] = max(worst["residual"], max(point.residuals()))
                w = 1 / point.z
                vsum = abs(mpmath.fsum(point.roots) - w) / w
                sign = 1 if (k + 1) % 2 == 0 else -1
                vprod = abs(mpmath.fprod(point.roots) - sign * w) / w
                worst["vieta_sum"] = max(worst["vieta_sum"], vsum)
                worst["vieta_prod"] = max(worst["vieta_prod"], vprod)
                recon = point.reconstruct_m()
                err = mpmath.mpf(0)
                for i in range(k):
                    for j in range(k):
                        target = 1 if i == 0 else (point.z if j == i - 1 else 0)
                        err = max(err, abs(recon[i, j] - target))
                scale = max(mpmath.mpf(1), point.z)
                worst["reconstruction"] = max(worst["reconstruction"], err / scale)
        # transition closed form vs direct inversion along short chains
        for k in (2, 3, 4, 5):
            prev = None
            for n, point in spectral_chain(k, 0.05, 5, 10, digits):
                if prev is not None:
                    gap = _inversion_gap(prev, point, transition_matrix(prev, point, digits))
                    worst["transition"] = max(worst["transition"], gap)
                prev = point
    passed = (
        worst["residual"] < tol_roots
        and all(worst[key] < tol for key in ("vieta_sum", "vieta_prod", "reconstruction", "transition"))
    )
    return {
        "name": "spectral_invariants",
        "passed": bool(passed),
        "grid_points": count,
        "worst": {key: _nstr(val, 3) for key, val in worst.items()},
        "tol_roots": _nstr(tol_roots, 3),
        "tol": _nstr(tol, 3),
    }


def _log_grid(lo, hi, points, name):
    """``points`` values from lo to hi in equal ratios; ``name`` is the
    argument that set ``points``, named in the ValueError when it is below 2."""
    if points < 2:
        raise ValueError(f"{name} must be >= 2, got {points}")
    ratio = (hi / lo) ** (mpmath.mpf(1) / (points - 1))
    return [lo * ratio**i for i in range(points)]


def eigen_sum_residuals(k: int, s_grid=(0.2, 0.1, 0.05, 0.02, 0.01), digits: int = DEFAULT_DIGITS) -> dict:
    """R(s) = |sum log(x_1 z) - closed form|; R(s)/s^{1/k} must not grow as
    s decreases, and the log-log slope of R (``mpmath.qr_solve`` on the
    columns [1, log s], R floored at 1e-80) is no flatter than 1/k minus slack."""
    rows = []
    residuals = []
    ratios = []
    roots = {}  # one root table for the grid: 0.2 = 2 * 0.1 = 4 * 0.05 share roots
    with working(digits):
        rate = gk_growth_rate(k)
        grid = [mpmath.mpf(s) for s in s_grid]
        if len(set(grid)) < 2:  # the slope is fitted across the grid
            raise ValueError(f"s_grid needs two distinct values, got {tuple(s_grid)}")
        for s in grid:
            cut = eigen_cut_for(k, s, mpmath.mpf("1e-12"), digits)
            total = eigen_product_log(k, s, cut, digits, roots=roots)
            closed = (
                rate / s
                + mpmath.mpf(k - 1) / (2 * k) * mpmath.log(s)
                - mpmath.mpf(k - 1) / (2 * k) * mpmath.log(2 * mpmath.pi)
            )
            resid = abs(total.value - closed)
            residuals.append(resid)
            ratios.append(resid / s ** (mpmath.mpf(1) / k))
            rows.append(
                {
                    "s": float(s),
                    "residual": _nstr(resid, 8),
                    "ratio": _nstr(ratios[-1], 8),
                    "tail_bound": _nstr(total.tail_bound, 3),
                }
            )
        floored = [mpmath.log(max(r, mpmath.mpf("1e-80"))) for r in residuals]
        slope = mpmath.qr_solve([[1, mpmath.log(s)] for s in grid], floored)[0][1]
        bounded = bool(max(ratios) <= 4 * ratios[0] and slope > mpmath.mpf(1) / k - mpmath.mpf("0.35"))
    return {
        "name": f"eigen_sum_closed_form_k{k}",
        "passed": bounded,
        "rows": rows,
        "loglog_slope": _nstr(slope, 6),
        "expected_slope": _nstr(mpmath.mpf(1) / k, 6),
    }


def gk_main_term_check(
    s_grid=(0.1, 0.05, 0.02, 0.01), digits: int = DEFAULT_DIGITS
) -> dict:
    """k=2 main terms: |log G_2 - main_term_gk| decreasing on the grid, and
    P_s(A_2) within 10% of main_term_psk at the smallest s, reported as
    sqrt(s) e^{lambda_2/s} P_s(A_2) against C_2 = sqrt(2 pi)/2.  At that s,
    exact_prob's G_2 run, at GK_TOL, also gives log G_2."""
    errors = []
    with working(digits):
        s_min = mpmath.mpf(min(s_grid))
        prob = exact_prob(2, s_min, mpmath.mpf(GK_TOL), digits)
        for s in s_grid:
            s = mpmath.mpf(s)
            log_gk = prob.log_gk if s == s_min else gk_eval(2, s, mpmath.mpf(GK_TOL), digits).value.log()
            errors.append(abs(log_gk - main_term_gk(2, s, digits)))
        decreasing = all(b < a for a, b in zip(errors, errors[1:]))
        ratio = mpmath.exp(prob.log_gk - prob.log_g - main_term_psk(2, s_min, digits))
        target = mpmath.sqrt(2 * mpmath.pi) / 2
        scaled = ratio * target
        rel = abs(ratio - 1)
    return {
        "name": "gk_main_term_trend_k2",
        "passed": bool(decreasing and rel < 0.10),
        "log_errors": [_nstr(e, 8) for e in errors],
        "monotone_decreasing": bool(decreasing),
        "scaled_probability": _nstr(scaled, 10),
        "target": _nstr(target, 10),
        "relative_gap": _nstr(rel, 4),
    }


def three_factor_terms(k: int, s, digits: int, roots: dict) -> tuple:
    """(N, log G_k, assembled) of the three-factor decomposition at one s, with
    N = max(2, floor(s^{-3/(2k+3)})) and

        assembled = sum_{n>N} log(x_1 z) + log prod_{n>=N} T^{1,1} + log v_0(N)

    The eigenvalue factor starts at N+1: the factor at n = N is already inside
    v_0(N), and only this indexing makes log G_k - assembled vanish as s -> 0.
    ``roots`` is a primary-root table for the two chain factors, which a
    caller may share across an s-grid."""
    with working(digits):
        s = mpmath.mpf(s)
        N = max(int(mpmath.floor(s ** (-mpmath.mpf(3) / (2 * k + 3)))), 2)
        cut = eigen_cut_for(k, s, mpmath.mpf("1e-12"), digits)
        log_gk = gk_eval(k, s, mpmath.mpf(GK_TOL), digits).value.log()
        log_v0 = iterate_product(k, N, s=s, digits=digits).entries[0]
        eigen = eigen_product_log(k, s, cut, digits, start=N + 1, roots=roots)
        ttail = transition_tail_product(k, s, N, max(cut, N + 8), digits, roots=roots)
        return N, log_gk, eigen.value + ttail.log_product + log_v0


def three_factor_assembly(k: int = 2, s_grid=(0.1, 0.05, 0.02, 0.01), digits: int = DEFAULT_DIGITS) -> dict:
    """|log G_k - assembled| (``three_factor_terms``) shrinking along the grid."""
    residuals = []
    rows = []
    roots = {}  # shared by both chain factors and every s of the grid
    with working(digits):
        for s in s_grid:
            N, log_gk, assembled = three_factor_terms(k, s, digits, roots)
            resid = abs(log_gk - assembled)
            residuals.append(resid)
            rows.append({"s": float(s), "N": N, "residual": _nstr(resid, 8)})
        shrinking = all(b < a for a, b in zip(residuals, residuals[1:]))
    return {
        "name": f"three_factor_assembly_k{k}",
        "passed": bool(shrinking),
        "rows": rows,
    }


def monte_carlo_check(
    trials: int = 10**6, seed: int = 20260809, digits: int = DEFAULT_DIGITS
) -> dict:
    """Estimate at k = 2, s = 0.3 within 3 sigma + bias of the exact ratio,
    and bit-for-bit reproducible under the fixed seed."""
    params = ModelParams(2, 0.3, trials, seed)
    first = simulate(params)
    second = simulate(params)
    deterministic = first == second
    exact = exact_prob(2, 0.3, mpmath.mpf(PROB_TOL), digits)
    gap, budget, within = first.against(float(exact.value))
    return {
        "name": "monte_carlo",
        "passed": bool(deterministic and within),
        "estimate": first.estimate,
        "exact": float(exact.value),
        "gap": gap,
        "budget_3sigma_plus_bias": budget,
        "deterministic": bool(deterministic),
        "truncation_index": first.truncation_index,
    }


def coefficient_ratio_check(n_values=(500, 1000, 2000, 4000), digits: int = DEFAULT_DIGITS) -> dict:
    """p_2(n) over its closed-form main term approaches 1, strictly improving."""
    table = gk_coefficients(2, max(n_values))
    gaps = []
    rows = []
    with working(digits):
        for n in n_values:
            exact_log = mpmath.log(mpmath.mpf(table[n]))
            ratio = mpmath.exp(exact_log - main_term_pk(2, n, digits))
            gap = abs(ratio - 1)
            gaps.append(gap)
            rows.append({"n": n, "ratio": _nstr(ratio, 10), "gap": _nstr(gap, 4)})
        improving = all(b < a for a, b in zip(gaps, gaps[1:]))
    return {
        "name": "coefficient_ratio_k2",
        "passed": bool(improving),
        "rows": rows,
    }


def conjecture_fit_check(
    k: int = 2, s_lo: float = 0.01, s_hi: float = 0.1, points: int = 6,
    digits: int = DEFAULT_DIGITS,
) -> dict:
    """Fit of the s^{1/k} correction; for k=2 the coefficient must fall in
    the stated band around sqrt(2/(9 pi)).  At other k the two-term fit is
    an estimate that decides nothing: it reports ``band`` null and passes."""
    band = (0.8, 1.2)
    with working(digits):
        grid = _log_grid(mpmath.mpf(s_lo), mpmath.mpf(s_hi), points, "points")
        _check_fit_design(grid)  # before paying for any gk_eval
        samples = []
        for s in grid:
            samples.append((s, gk_eval(k, s, mpmath.mpf(GK_TOL), digits).value.log()))
        fit = conjecture_fit(k, samples, two_term=True, digits=digits)
        target = mpmath.sqrt(mpmath.mpf(2) / (9 * mpmath.pi))
        ok = k != 2 or band[0] * target <= fit.c1 <= band[1] * target
    return {
        "name": f"conjecture_fit_k{k}",
        "passed": bool(ok),
        "fitted_c1": _nstr(fit.c1, 10),
        "fitted_c2": _nstr(fit.c2, 10) if fit.c2 is not None else None,
        "target": _nstr(target, 10),
        "residual_norm": _nstr(fit.residual_norm, 4),
        "band": list(band) if k == 2 else None,
    }


def check_table(digits: int, seed: int) -> tuple:
    """verify-all's checks in report order, one (check, quick kwargs, full
    kwargs) entry each; quick kwargs are None for a check only the full list
    runs.  Every argument a check receives is written here: its grid
    arguments, the run's ``digits`` for each check that takes them, and the
    run's ``seed`` for ``monte_carlo_check``."""
    d = {"digits": digits}
    return (
        (oracle_equivalence, {"n_limit": 16}, {}),
        (identities_check, {"n_max": 80}, {}),
        (transfer_matches_dp, {"N": 16}, {}),
        (runup_matches_product, {"n_values": (1, 2, 3, 4, 5, 6), **d}, d),
        (gk_integral_check, {"k_values": (2, 3), **d}, d),
        (fk_lambda_identity, {"n_points": 8, **d}, d),
        (spectral_invariants, {"points_per_k": 6, **d}, d),
        (eigen_sum_residuals, {"k": 2, "s_grid": (0.2, 0.1, 0.05), **d}, {"k": 2, **d}),
        (eigen_sum_residuals, None, {"k": 3, **d}),
        (gk_main_term_check, None, d),
        (three_factor_assembly, None, {"k": 2, **d}),
        (monte_carlo_check, {"trials": 10**5, "seed": seed, **d}, {"seed": seed, **d}),
        (coefficient_ratio_check, {"n_values": (500, 1000), **d}, d),
        (conjecture_fit_check, None, d),
    )
