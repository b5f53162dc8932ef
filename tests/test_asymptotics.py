import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from kseq import asymptotics, spectral
from kseq.asymptotics import (
    ToleranceError,
    conjecture_fit,
    f_k,
    g_k,
    gk_growth_rate,
    gk_integral,
    gk_tail_bound,
    lambda_k,
    main_term_gk,
    main_term_pk,
    main_term_psk,
)
from kseq.precision import working
from kseq.spectral import SpectralError


def test_fk_fixed_point():
    with working(40):
        for k in (2, 3, 5):
            fstar = mpmath.mpf(k) / (k + 1)
            assert f_k(fstar, k, 40) == fstar


def test_fk_quadratic_oracle():
    # f^3 - f^2 = 0.9^3 - 0.9^2 factors as (f - 0.9)(f^2 - 0.1 f - 0.09)
    with working(50):
        got = f_k(mpmath.mpf("0.9"), 2)
        expected = (mpmath.mpf("0.1") + mpmath.sqrt(mpmath.mpf("0.37"))) / 2
        assert abs(got - expected) < mpmath.mpf("1e-60")


def test_fk_defining_equation_residual_on_grid():
    with working(50):
        worst = mpmath.mpf(0)
        for k in (2, 3, 4):
            for i in range(1, 1000, 3):
                y = mpmath.mpf(i) / 1000
                f = f_k(y, k)
                worst = max(worst, abs(f ** (k + 1) - f**k - (y ** (k + 1) - y**k)))
        assert worst < mpmath.mpf("1e-42")


def test_fk_conjugate_branch_and_monotonicity():
    # decreasing in y, hence increasing in x along y = e^{-x}; conjugate side
    with working(40):
        for k in (2, 3):
            fstar = mpmath.mpf(k) / (k + 1)
            values = [f_k(mpmath.mpf(i) / 24, k, 40) for i in range(1, 24)]
            assert all(b < a for a, b in zip(values, values[1:]))
            assert f_k(fstar / 2, k, 40) > fstar
            assert f_k((1 + fstar) / 2, k, 40) < fstar


def test_fk_rejects_bad_y():
    with pytest.raises(ValueError):
        f_k(0, 2)
    with pytest.raises(ValueError):
        f_k(1, 2)
    with pytest.raises(ValueError):
        f_k(0.5, 1)


@settings(deadline=None, max_examples=80)
@given(
    k=st.integers(min_value=2, max_value=8),
    y_frac=st.floats(min_value=1e-9, max_value=1 - 1e-9),
    near=st.one_of(st.none(), st.floats(min_value=-10, max_value=-1)),
    side=st.sampled_from((-1, 1)),
    digits=st.sampled_from((15, 50, 100)),
)
def test_fk_property(k, y_frac, near, side, digits):
    # y either anywhere in (0, 1) or within 10^near of the double point
    with working(digits):
        fstar = mpmath.mpf(k) / (k + 1)
        y = mpmath.mpf(y_frac) if near is None else fstar + side * mpmath.mpf(10) ** near
        f = f_k(y, k, digits)
        assert (f - fstar) * (y - fstar) < 0  # the branch opposite to y

        def phi(t):
            return t**k * (t - 1)

        # first-order distance to the exact root, relative to f
        slope = k * f ** (k - 1) * (f - 1) + f**k
        assert abs(phi(f) - phi(y)) / abs(slope) <= mpmath.mpf(10) ** -digits * f


@settings(deadline=None, max_examples=30)
@given(
    k=st.integers(min_value=2, max_value=8),
    log_x=st.floats(min_value=-400, max_value=-300),
    digits=st.sampled_from((15, 50, 100)),
)
def test_gk_below_float_range(k, log_x, digits):
    # e^{-x} rounds to 1, and x_1 ~ x^{1/k} is found from e^x - 1 ~ x
    with working(digits):
        x = mpmath.mpf(10) ** log_x
        g = g_k(x, k, digits)
        expected = -mpmath.log(x) / k
        assert mpmath.isfinite(g)
        assert abs(g - expected) <= expected / 100
        # at y = x, t = y^k (1 - y) underflows a float, so f_k is seeded in
        # mpmath; its root 1 - ~y^k is 1 to working precision
        f = f_k(x, k, digits)
        assert mpmath.mpf(k) / (k + 1) < f <= 1
        assert abs(f ** (k + 1) - f**k - (x ** (k + 1) - x**k)) <= mpmath.mpf(10) ** -digits


def test_fk_step_cap_raises(monkeypatch):
    monkeypatch.setattr(asymptotics, "_CONJUGATE_MAX_STEPS", 1)
    with pytest.raises(ToleranceError):
        f_k(mpmath.mpf("0.3"), 2)
    # g_k reads x_1 from the primary-root solver, under that solver's cap
    monkeypatch.setattr(spectral, "_ROOT_MAX_STEPS", 1)
    with pytest.raises(SpectralError):
        g_k(mpmath.mpf("0.3"), 2)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("offset", ["1e-20", "1e-30", "1e-40", "-1e-40", "1e-3"])
def test_fk_full_digits_at_the_double_point(k, offset):
    # the wanted root of f^{k+1} - f^k = y^{k+1} - y^k is nearly double as y
    # nears k/(k+1); solving the deflated equation keeps every working digit
    with working(50):
        y = mpmath.mpf(k) / (k + 1) + mpmath.mpf(offset)
    got = f_k(y, k, 50)
    ref = f_k(y, k, 200)
    with working(200):
        assert abs(got - ref) <= mpmath.mpf("1e-45") * ref


def test_fk_never_solves_for_x1(monkeypatch):
    # f_k(e^{-ns}) = x_1(n) e^{-ns} holds two routes against each other only
    # if f_k does not read x_1 from the primary-root solver
    def refuse(*_):
        raise AssertionError("primary_root called")

    for module in (spectral, asymptotics):
        monkeypatch.setattr(module, "primary_root", refuse)
    with pytest.raises(AssertionError):
        g_k(mpmath.mpf("0.3"), 2)  # the patch reaches the solver g_k uses
    for k in (2, 3, 5):
        fstar = mpmath.mpf(k) / (k + 1)
        for i in range(1, 40):
            y = mpmath.mpf(i) / 40
            assert (f_k(y, k) - fstar) * (y - fstar) <= 0


def test_fk_evaluation_budget(monkeypatch):
    calls = 0
    solve = asymptotics._newton_in_bracket

    def counted(fn, *rest):
        def fn_counted(t):
            nonlocal calls
            calls += 1
            return fn(t)

        return solve(fn_counted, *rest)

    monkeypatch.setattr(asymptotics, "_newton_in_bracket", counted)
    ys = [mpmath.mpf(i) / 50 for i in range(1, 50)]
    for k in (2, 3, 5, 8):
        for y in ys:
            f_k(y, k)
    assert calls <= 4 * 4 * len(ys)


def test_gk_positive_and_decreasing_to_zero():
    with working(40):
        for k in (2, 3):
            xs = [mpmath.mpf(i) / 8 for i in range(1, 80)]
            vals = [g_k(x, k, 40) for x in xs]
            assert all(v > 0 for v in vals)
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert vals[-1] < gk_tail_bound(xs[-1], k)


def test_gk_small_x_expansion_rate():
    # g_k(x) = -(1/k) log x - (1/k) x^{1/k} + O(x^{2/k}); the sign of the
    # x^{1/k} term follows from x_1 q^n = f_k and the large-z root expansion
    with working(50):
        for k in (2, 3):
            prev = None
            for x in ("0.01", "0.001", "0.0001"):
                x = mpmath.mpf(x)
                resid = g_k(x, k) + mpmath.log(x) / k + x ** (mpmath.mpf(1) / k) / k
                scaled = abs(resid) / x ** (mpmath.mpf(2) / k)
                if prev is not None:
                    assert scaled < 3 * prev + 1
                prev = scaled
            assert prev < 2


def test_gk_integral_closed_forms():
    with working(30):
        for k, denom in ((2, 18), (3, 36), (6, 126)):
            value = gk_integral(k, 1e-9)
            assert abs(value - mpmath.pi**2 / denom) < 1e-8


def test_gk_integral_solve_budget(monkeypatch):
    # the quadrature runs along u = x_1, so it solves for a root only to map
    # x_tail to u, not at its nodes, and f_k's solver is never reached
    calls = 0
    solve = spectral.primary_root

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    def refuse(*_):
        raise AssertionError("f_k solve in gk_integral")

    monkeypatch.setattr(asymptotics, "primary_root", counted)
    monkeypatch.setattr(asymptotics, "_solve_conjugate", refuse)
    for k in range(2, 9):
        calls = 0
        gk_integral(k, 1e-9)
        assert calls == 1, (k, calls)


@settings(deadline=None, max_examples=80)
@given(
    k=st.integers(min_value=2, max_value=8),
    log10_u=st.floats(min_value=-6, max_value=6),
    digits=st.sampled_from((15, 50, 100)),
)
@example(k=2, log10_u=1e-38, digits=50)
def test_gk_along_u_parametrisation(k, log10_u, digits):
    # e^{-x} = P(u)/Q(u) at u = x_1, so g_k(x) = x - log u.  With
    # z = 1/(e^x - 1) = P/u^k: u -> 0 is z -> inf, where g_k ~ -log u; u -> inf
    # is z -> 0, where g_k ~ u^{-k} and x - log u cancels to it, hence the
    # extra digits; u = 1 is z = k, the double point
    with working(digits + 60):
        u = mpmath.mpf(10) ** log10_u
        p = mpmath.fsum(u**j for j in range(k))
        x = mpmath.log1p(u**k / p)
        expected = x - mpmath.log(u)
    g = g_k(x, k, digits)
    with working(digits + 60):
        assert abs(g - expected) <= mpmath.mpf(10) ** -(digits - 5) * expected


def test_gk_integral_unreachable_tolerance(monkeypatch):
    # a quadrature whose error estimate alone exceeds tol
    quad = mpmath.quad

    def rough(*args, **kwargs):
        value, _ = quad(*args, **kwargs)
        return value, mpmath.mpf("1e-9")

    monkeypatch.setattr(mpmath, "quad", rough)
    with pytest.raises(ToleranceError) as err:
        gk_integral(2, 1e-10)
    assert err.value.achieved > 2e-9


def test_model_constants():
    with working(50):
        assert abs(lambda_k(2) - mpmath.pi**2 / 18) < mpmath.mpf("1e-60")
        assert abs(gk_growth_rate(2) - mpmath.pi**2 / 9) < mpmath.mpf("1e-60")
        assert abs(lambda_k(3) - mpmath.pi**2 / 36) < mpmath.mpf("1e-60")
        assert float(lambda_k(3)) == pytest.approx(0.27415567780803774)
        # the probability and generating-function rates differ by the eta rate
        assert abs(lambda_k(3) - (mpmath.pi**2 / 6 - gk_growth_rate(3))) < mpmath.mpf("1e-60")
        # C_2 = sqrt(pi/2), read off main_term_psk(2, s) + log(s)/2 + lambda_2/s
        for s in ("0.1", "0.01"):
            s = mpmath.mpf(s)
            prefactor = mpmath.exp(main_term_psk(2, s) + mpmath.log(s) / 2 + lambda_k(2) / s)
            assert abs(prefactor - mpmath.sqrt(mpmath.pi / 2)) < mpmath.mpf("1e-45")
        assert float(prefactor) == pytest.approx(1.2533141373155003)
        # the rates keep their expressions bit for bit, an int or an mpf k alike
        for k in range(2, 9):
            kk = mpmath.mpf(k)
            assert lambda_k(k) == lambda_k(kk) == mpmath.pi**2 / (3 * kk * (kk + 1))
            assert gk_growth_rate(k) == mpmath.pi**2 / 6 * (1 - 2 / (kk * (kk + 1)))


@pytest.mark.parametrize("fn, args", [
    (lambda_k, ()), (gk_growth_rate, ()), (main_term_gk, (0.1,)),
    (main_term_psk, (0.1,)), (main_term_pk, (100,)),
], ids=["lambda_k", "gk_growth_rate", "main_term_gk", "main_term_psk", "main_term_pk"])
def test_rates_and_main_terms_refuse_k_below_2(fn, args):
    with pytest.raises(ValueError, match="k must be >= 2"):
        fn(1, *args)


def test_main_term_consistency_identity():
    # Psk * G_eta = Gk * e^{-s/24}: the log s and 2 pi pieces cancel exactly
    with working(50):
        for k in (2, 3):
            for s in ("0.1", "0.03"):
                s = mpmath.mpf(s)
                # log G(e^{-s}) by the eta expansion, exact up to O(s^M)
                log_g = (mpmath.pi**2 / (6 * s) + mpmath.log(s) / 2
                         - mpmath.log(2 * mpmath.pi) / 2 - s / 24)
                lhs = main_term_psk(k, s) + log_g
                rhs = main_term_gk(k, s) - s / 24
                assert abs(lhs - rhs) < mpmath.mpf("1e-40")


def test_conjecture_fit_recovers_synthetic_coefficient():
    c1, c2 = mpmath.mpf("0.26596"), mpmath.mpf("-0.04")
    for k in (2, 3, 5):
        with working(50):
            svals = [mpmath.mpf("0.01") * 10 ** (mpmath.mpf(i) / 5) for i in range(6)]
            basis = [s ** (mpmath.mpf(1) / k) for s in svals]
            r = [c1 * b + c2 * b**2 for b in basis]
            samples = [(s, main_term_gk(k, s) + y) for s, y in zip(svals, r)]
            fit = conjecture_fit(k, samples, two_term=True)
            assert abs(fit.c1 - c1) < mpmath.mpf("1e-40")
            assert abs(fit.c2 - c2) < mpmath.mpf("1e-40")
            assert fit.residual_norm < mpmath.mpf("1e-40")
            # one term: the projection <b, r> / <b, b> of r on the s^{1/k} column
            one = conjecture_fit(k, samples, two_term=False)
            projection = (mpmath.fsum(b * y for b, y in zip(basis, r))
                          / mpmath.fsum(b * b for b in basis))
            assert one.c2 is None
            assert abs(one.c1 - projection) < mpmath.mpf("1e-40")


def test_conjecture_fit_rejects_degenerate_design():
    with pytest.raises(ValueError):
        conjecture_fit(2, [(0.01, 1), (0.011, 1), (0.012, 1), (0.013, 1)])
    with pytest.raises(ValueError):
        conjecture_fit(2, [(0.01, 1), (0.1, 2)])
