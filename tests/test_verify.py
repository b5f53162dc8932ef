import ast
import functools
import inspect
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest

from kseq import probability, spectral, verify
from kseq.precision import working
from kseq.spectral import eigen_cut_for, eigen_sum
from kseq.transfer import iterate_product


def test_eigen_product_comparison_gap_shrinks_with_s():
    # log[v_0(N) / prod x_1 z] approaches ((k-1)/(2k)) log N + log(k^{-3/2} (2pi)^{(k-1)/(2k)})
    def gap(k, s, multiplier=8.0):
        lo = multiplier * s ** (-mpmath.mpf(1) / (k + 1)) * mpmath.log(1 / s) ** (
            mpmath.mpf(k) / (k + 1)
        )
        N = int(mpmath.ceil(lo / k)) * k
        log_v0 = iterate_product(k, N, s=s, digits=40).entries[0]
        predicted = (
            mpmath.mpf(k - 1) / (2 * k) * mpmath.log(N)
            - mpmath.mpf(3) / 2 * mpmath.log(k)
            + mpmath.mpf(k - 1) / (2 * k) * mpmath.log(2 * mpmath.pi)
        )
        return abs(log_v0 - eigen_sum(k, s, 1, N, 40) - predicted)

    with working(40):
        gaps = [gap(2, mpmath.mpf(s)) for s in ("0.02", "0.01", "0.005")]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_quick_grid_wrappers_pass():
    assert verify.oracle_equivalence(n_limit=12)["passed"]
    assert verify.transfer_matches_dp(N=10)["passed"]
    assert verify.runup_matches_product(n_values=(1, 2, 3))["passed"]
    assert verify.fk_lambda_identity(n_points=4)["passed"]


def test_spectral_invariants_report_shape():
    result = verify.spectral_invariants(points_per_k=4, digits=40)
    assert result["passed"]
    assert result["grid_points"] == 16  # k = 2..5
    assert set(result["worst"]) == {
        "residual", "vieta_sum", "vieta_prod", "reconstruction", "transition"
    }


def test_three_factor_assembly_solves_each_root_once(monkeypatch):
    # both chain factors at s = 0.1 and 0.05 = 0.1 / 2 read one root table,
    # so x_1 is solved once per distinct product n s
    calls = 0
    solve = spectral.primary_root

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(spectral, "primary_root", counted)
    grid = (0.1, 0.05)
    assert verify.three_factor_assembly(2, grid)["passed"]
    products = set()
    with working(50):
        for s in grid:
            s = mpmath.mpf(s)
            N = max(int(mpmath.floor(s ** (-mpmath.mpf(3) / 7))), 2)
            cut = eigen_cut_for(2, s, mpmath.mpf("1e-12"))
            products |= {n * s for n in range(N, max(cut, N + 8) + 2)}
    assert calls == len(products)


def test_gk_main_term_check_runs_g2_once_per_grid_point(monkeypatch):
    # at the smallest s, exact_prob's G_2 run also gives c09's log G_2
    calls = []

    def counted(gk_eval):
        def wrapper(k, s, *args, **kwargs):
            calls.append(float(s))
            return gk_eval(k, s, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "gk_eval", counted(verify.gk_eval))
    monkeypatch.setattr(probability, "gk_eval", counted(probability.gk_eval))
    report = verify.gk_main_term_check(s_grid=(0.1, 0.05))
    assert sorted(calls) == [0.05, 0.1]
    assert report["monotone_decreasing"]


def test_conjecture_fit_band_gates_k2_only(monkeypatch):
    # log G_k = main term + (target / 2) s^{1/k}: a c1 at half the target,
    # outside the band, which decides pass or fail at k = 2 only
    target = mpmath.sqrt(mpmath.mpf(2) / (9 * mpmath.pi))

    def fake_gk_eval(k, s, tol, digits):
        log_gk = verify.main_term_gk(k, s, digits) + target / 2 * s ** (mpmath.mpf(1) / k)
        return SimpleNamespace(value=SimpleNamespace(log=lambda: log_gk))

    monkeypatch.setattr(verify, "gk_eval", fake_gk_eval)
    k2 = verify.conjecture_fit_check(k=2)
    assert not k2["passed"]
    assert k2["band"] == [0.8, 1.2]
    k3 = verify.conjecture_fit_check(k=3)
    assert k3["passed"]
    assert k3["band"] is None
    for report in (k2, k3):
        assert abs(mpmath.mpf(report["fitted_c1"]) / target - mpmath.mpf("0.5")) < 1e-9


@pytest.mark.parametrize("digits, seed", [(16, 1), (30, 7), (50, 20260809)])
def test_check_table_hands_every_check_the_run_settings(digits, seed, monkeypatch):
    def assert_settings():
        for check, quick, full in verify.check_table(digits, seed):
            params = inspect.signature(check).parameters  # follows __wrapped__
            for kwargs in (quick, full):
                if kwargs is None:
                    continue
                assert kwargs.get("digits") == (digits if "digits" in params else None)
                assert kwargs.get("seed") == (seed if "seed" in params else None)

    assert_settings()
    # each check behind two functools.wraps wrappers taking (*args, **kwargs),
    # as the benchmark's tracer installs them: the table keeps the wrapper and
    # still reads the settings off the function it wraps
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)
        return wrapper

    for check in {check for check, _, _ in verify.check_table(digits, seed)}:
        monkeypatch.setattr(verify, check.__name__, wrap(wrap(check)))
    assert all(check.__wrapped__.__wrapped__
               for check, _, _ in verify.check_table(digits, seed))
    assert_settings()


@pytest.mark.parametrize("check, kwargs, name", [
    (verify.spectral_invariants, {"points_per_k": 1}, "points_per_k"),
    (verify.eigen_sum_residuals, {"k": 2, "s_grid": (0.2,)}, "s_grid"),
    (verify.eigen_sum_residuals, {"k": 2, "s_grid": (0.2, 0.2)}, "s_grid"),
    (verify.conjecture_fit_check, {"points": 1}, "points"),
], ids=["one-point-per-k", "one-s", "one-distinct-s", "one-fit-point"])
def test_degenerate_grid_is_a_value_error(check, kwargs, name):
    # one grid point leaves no ratio to step by and no slope to fit
    with pytest.raises(ValueError, match=name):
        check(**kwargs)


def test_benchmark_quick_checks_follow_the_table():
    # perfbench times verify.check_s.<name> for each name it lists: a check
    # renamed in the table alone would read 0 s there
    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "run.py").read_text())
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["QUICK_CHECKS"])
    assert list(listed) == [check.__name__ for check, quick, _ in verify.check_table(50, 1)
                            if quick is not None]
