"""Special functions and closed-form main terms behind the asymptotics.

f_k(y) is the root of f^{k+1} - f^k = y^{k+1} - y^k conjugate to y across the
double-root point k/(k+1): for y above it the root below, and vice versa.
This is the unique branch with f_k(e^{-ns}) = x_1(n) q^n (x_1 the primary
characteristic root), which makes x -> f_k(e^{-x}) increasing and
g_k = -log f_k positive and decreasing, with integral pi^2 / (3k(k+1)).

The module also carries the eta expansion of the unrestricted partition
generating function, an Euler-Maclaurin-style summation identity, the main
terms of the probability/generating-function/coefficient asymptotics, the
Tauberian (Ingham) parameter map, and the least-squares fit for the
conjectured s^{1/k} correction term.
"""
from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .precision import DEFAULT_DIGITS, LogValue, _float_newton, _newton_in_bracket, working

# Newton steps allowed per f_k solve before it is reported unconverged
_CONJUGATE_MAX_STEPS = 400


class ToleranceError(ArithmeticError):
    def __init__(self, message, achieved, value):
        super().__init__(message)
        self.achieved = achieved
        self.value = value


def _branch_seed(t, k: int, below: bool, one):
    """Four fixed-point rounds for f^k (1 - f) = t below or above k/(k+1), in
    the arithmetic of ``one`` (1.0 or mpf 1)."""
    if below:
        f = t ** (one / k)
        for _ in range(4):
            f = (t / (1 - f)) ** (one / k)
        return f
    eps_ = t
    for _ in range(4):
        eps_ = t / (1 - eps_) ** k
    return 1 - eps_


def _solve_conjugate(y, k: int, t=None) -> mpf:
    """Root of f^{k+1} - f^k = y^{k+1} - y^k on the branch opposite to y.

    ``t = y^k (1 - y)`` may be passed when 1 - y is known better than y: at
    y = e^{-x} with x below the working precision y rounds to 1, and the root
    ~ x^{1/k} is only found from t.  Newton starts from the root in floats,
    or from the branch seed if t underflows a float or the float solve fails.
    """
    fstar = mpmath.mpf(k) / (k + 1)
    if y == fstar:
        return fstar
    if t is None:
        t = y**k - y ** (k + 1)      # y^k (1 - y) > 0
    below = y > fstar
    lo, hi = (mpmath.mpf(0), fstar) if below else (fstar, mpmath.mpf(1))
    # phi(f) = f^{k+1} - f^k falls on (0, fstar) and rises on (fstar, 1),
    # so -(phi(f) + t) below and phi(f) + t above increase through the root
    if below:
        fn = lambda f, t: -(f ** (k + 1) - f**k + t)
        dfn = lambda f: -((k + 1) * f**k - k * f ** (k - 1))
    else:
        fn = lambda f, t: f ** (k + 1) - f**k + t
        dfn = lambda f: (k + 1) * f**k - k * f ** (k - 1)
    tf = float(t)
    f = _float_newton(lambda f: fn(f, tf), dfn, float(lo), float(hi),
                      _branch_seed(tf, k, below, 1.0)) if tf > 1e-290 else None
    if f is None or not lo < f < hi:
        f = _branch_seed(t, k, below, mpmath.mpf(1))
    if not lo < f < hi:
        f = (lo + hi) / 2
    return _newton_in_bracket(
        lambda f: fn(f, t), dfn, lo, hi, mpmath.mpf(f), _CONJUGATE_MAX_STEPS,
        lambda last, width: ToleranceError(
            f"f_k (k={k}, y={mpmath.nstr(y, 12)}) not converged in "
            f"{_CONJUGATE_MAX_STEPS} steps", width, last),
    )


def f_k(y, k: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """The conjugate-branch solution of f^{k+1} - f^k = y^{k+1} - y^k.

    Decreasing in y on (0, 1) with fixed point at k/(k+1); equivalently
    x -> f_k(e^{-x}) is the increasing solution used by the eigenvalue
    identity f_k(e^{-ns}) = x_1(n) e^{-ns}.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    with working(digits):
        y = mpmath.mpf(y)
        if not 0 < y < 1:
            raise ValueError("y must lie in (0, 1)")
        return _solve_conjugate(y, k)


def fk_derivative(y, k: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """d f_k/dy = phi'(y) / phi'(f_k(y)) with phi(t) = t^{k+1} - t^k."""
    with working(digits):
        y = mpmath.mpf(y)
        f = f_k(y, k, digits)
        num = (k + 1) * y**k - k * y ** (k - 1)
        den = (k + 1) * f**k - k * f ** (k - 1)
        return num / den


def g_k(x, k: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """g_k(x) = -log f_k(e^{-x}); positive, decreasing, ~ -(1/k) log x at 0."""
    with working(digits):
        x = mpmath.mpf(x)
        if x <= 0:
            raise ValueError("x must be positive")
        y = mpmath.exp(-x)
        return -mpmath.log(_solve_conjugate(y, k, -(y**k) * mpmath.expm1(-x)))


def gk_derivative(x, k: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """g_k'(x) = y f_k'(y)/f_k(y) at y = e^{-x} (negative everywhere)."""
    with working(digits):
        x = mpmath.mpf(x)
        y = mpmath.exp(-x)
        f = _solve_conjugate(y, k, -(y**k) * mpmath.expm1(-x))
        num = (k + 1) * y**k - k * y ** (k - 1)
        den = (k + 1) * f**k - k * f ** (k - 1)
        return y * (num / den) / f


def gk_tail_bound(x, k: int) -> mpf:
    """Analytic bound g_k(x) <= 4.08 e^{-kx}, valid once e^{-x} < k/(k+1)."""
    return mpmath.mpf("4.08") * mpmath.exp(-k * mpmath.mpf(x))


def gk_integral(k: int, tol=mpf("1e-10"), digits: int | None = None) -> mpf:
    """integral_0^inf g_k = pi^2 / (3 k (k+1)), by adaptive quadrature.

    The log singularity at 0 is handled by the tanh-sinh rule; the exponential
    tail is cut where the analytic bound is far below tol and added to the
    reported error.  Raises ToleranceError when the combined error estimate
    exceeds tol.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    tol = mpmath.mpf(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if digits is None:
        digits = max(25, int(-mpmath.log10(tol)) + 12)
    with working(digits):
        x_tail = (mpmath.log(mpmath.mpf("4.08") * 100 / (tol * k))) / k + 1
        tail_bound = gk_tail_bound(x_tail, k) / k
        f = lambda x: g_k(x, k, digits) if x > 0 else mpmath.mpf(0)
        value, quad_err = mpmath.quad(
            f, [0, mpmath.mpf(1) / 2, 2, x_tail], error=True
        )
        achieved = quad_err + tail_bound
        if achieved > tol:
            raise ToleranceError(
                f"gk_integral error estimate {mpmath.nstr(achieved, 3)} exceeds tol",
                achieved,
                value,
            )
        return value


def partition_asymptotic(s, digits: int = DEFAULT_DIGITS) -> mpf:
    """log G(e^{-s}) from the eta expansion:

        pi^2/(6s) + (1/2) log s - (1/2) log(2 pi) - s/24

    i.e. the negative of sum_n log(1 - q^n); the remaining error is O(s^M)
    for every M.
    """
    with working(digits):
        s = mpmath.mpf(s)
        if not 0 < s < 1:
            raise ValueError("s must lie in (0, 1)")
        return (
            mpmath.pi**2 / (6 * s)
            + mpmath.log(s) / 2
            - mpmath.log(2 * mpmath.pi) / 2
            - s / 24
        )


def sawtooth_integral(g, a, b, digits: int = DEFAULT_DIGITS) -> mpf:
    """integral_a^b ([x] - x + 1/2) g(x) dx, split at the integers."""
    with working(digits):
        a = mpmath.mpf(a)
        b = mpmath.mpf(b)
        total = mpmath.mpf(0)
        left = a
        while left < b:
            right = min(mpmath.floor(left) + 1, b)
            m = mpmath.floor(left)
            # the integrand is analytic on each unit interval
            piece = mpmath.quad(lambda x: (m - x + mpmath.mpf(1) / 2) * g(x), [left, right],
                                method="gauss-legendre")
            total += piece
            left = right
        return total


def euler_maclaurin_sum(
    h,
    dh=None,
    d2h=None,
    n_range=(1, 10),
    digits: int = DEFAULT_DIGITS,
) -> mpf:
    """sum_{n=a}^{b} h(n) via the bracket-correction identity

        h(n) = int_{n-1/2}^{n+1/2} h - int h'(x) ([x]-x+1/2) dx
             = int_{n-1/2}^{n+1/2} h - (1/2) int h''(x) ([x]-x+1/2)^2 dx

    using whichever derivative is supplied (first preferred).  h must be C^1
    (resp. C^2) without non-integrable singularities on [a-1/2, b+1/2].
    """
    a, b = n_range
    if a > b or a != int(a) or b != int(b):
        raise ValueError("n_range must be integers with a <= b")
    if dh is None and d2h is None:
        raise ValueError("supply h' or h''")
    with working(digits):
        lo = mpmath.mpf(a) - mpmath.mpf(1) / 2
        hi = mpmath.mpf(b) + mpmath.mpf(1) / 2
        main = mpmath.quad(h, mpmath.linspace(lo, hi, int(b - a) + 2))
        if dh is not None:
            corr = sawtooth_integral(dh, lo, hi, digits)
        else:
            def weighted(x):
                m = mpmath.floor(x)
                return d2h(x) * (m - x + mpmath.mpf(1) / 2) ** 2
            corr = mpmath.mpf(0)
            left = lo
            while left < hi:
                right = min(mpmath.floor(left) + 1, hi)
                corr += mpmath.quad(weighted, [left, right])
                left = right
            corr /= 2
        total = main - corr
        if not mpmath.isfinite(total):
            raise ValueError("integrand is not integrable on the range")
        return total


@dataclass
class AsymptoticModel:
    """Closed-form parameters of the three asymptotic statements for one k.

    rate:           lambda_k = pi^2 / (3k(k+1))        (probability decay)
    prefactor:      C_k = sqrt(2 pi) / k
    gk_rate:        (pi^2/6)(1 - 2/(k(k+1)))            (log G_k growth)
    gk_prefactor:   1/k
    delta:          1 - 2/(k(k+1))
    error_exponent: 1/(2k+3)
    ingham:         (amplitude, alpha, A) feeding the coefficient asymptotic
    """

    k: int
    digits: int = DEFAULT_DIGITS

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        with working(self.digits):
            k = mpmath.mpf(self.k)
            self.rate = mpmath.pi**2 / (3 * k * (k + 1))
            self.prefactor = mpmath.sqrt(2 * mpmath.pi) / k
            self.delta = 1 - 2 / (k * (k + 1))
            self.gk_rate = mpmath.pi**2 / 6 * self.delta
            self.gk_prefactor = 1 / k
            self.error_exponent = 1 / (2 * k + 3)
            self.ingham = (self.gk_prefactor, mpmath.mpf(1), self.gk_rate)


def main_term_gk(k: int, s, digits: int = DEFAULT_DIGITS) -> LogValue:
    """(1/k) exp(gk_rate / s), the G_k(e^{-s}) main term."""
    model = AsymptoticModel(k, digits)
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        return LogValue.from_log(model.gk_rate / s - mpmath.log(k))


def main_term_psk(k: int, s, digits: int = DEFAULT_DIGITS) -> LogValue:
    """(sqrt(2 pi)/k) s^{-1/2} exp(-lambda_k / s), the P_s(A_k) main term."""
    model = AsymptoticModel(k, digits)
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        return LogValue.from_log(
            mpmath.log(model.prefactor) - mpmath.log(s) / 2 - model.rate / s
        )


def main_term_pk(k: int, n: int, digits: int = DEFAULT_DIGITS) -> LogValue:
    """(1/(2k)) (delta/6)^{1/4} n^{-3/4} exp(pi sqrt(2 delta n / 3))."""
    model = AsymptoticModel(k, digits)
    with working(digits):
        if n < 1:
            raise ValueError("n must be >= 1")
        n = mpmath.mpf(n)
        log_val = (
            -mpmath.log(2 * mpmath.mpf(k))
            + mpmath.log(model.delta / 6) / 4
            - mpmath.mpf(3) / 4 * mpmath.log(n)
            + mpmath.pi * mpmath.sqrt(2 * model.delta * n / 3)
        )
        return LogValue.from_log(log_val)


@dataclass(frozen=True)
class InghamAsymptotic:
    """Partial-sum asymptotic sum_{m<=n} a(m) ~ C n^p exp(g sqrt(n))."""

    coefficient: mpf
    n_power: mpf
    growth: mpf

    def log_at(self, n) -> mpf:
        n = mpmath.mpf(n)
        return (
            mpmath.log(self.coefficient)
            + self.n_power * mpmath.log(n)
            + self.growth * mpmath.sqrt(n)
        )


def ingham_map(amplitude, alpha, growth_rate, digits: int = DEFAULT_DIGITS) -> InghamAsymptotic:
    """Tauberian map: if f(z) ~ amplitude (-log z)^alpha exp(-A/log z) with
    nonnegative coefficients, the partial sums obey

        sum_{m<=n} a(m) ~ (amplitude / (2 sqrt(pi))) A^{alpha/2 - 1/4}
                           n^{-alpha/2 - 1/4} exp(2 sqrt(A n)).
    """
    with working(digits):
        amplitude = mpmath.mpf(amplitude)
        alpha = mpmath.mpf(alpha)
        a_rate = mpmath.mpf(growth_rate)
        if a_rate <= 0:
            raise ValueError("growth rate A must be positive")
        coeff = amplitude / (2 * mpmath.sqrt(mpmath.pi)) * a_rate ** (alpha / 2 - mpmath.mpf(1) / 4)
        return InghamAsymptotic(
            coeff, -(alpha / 2 + mpmath.mpf(1) / 4), 2 * mpmath.sqrt(a_rate)
        )


@dataclass(frozen=True)
class FitResult:
    c1: mpf
    c2: mpf | None
    residual_norm: mpf


def conjecture_fit(
    k: int,
    samples,
    two_term: bool = True,
    digits: int = DEFAULT_DIGITS,
) -> FitResult:
    """Least squares for r(s) = log(k G_k(e^{-s})) - gk_rate/s against
    c1 s^{1/k} (optionally + c2 s^{2/k}).

    ``samples`` is a sequence of (s, log G_k(e^{-s})) pairs covering at least
    a decade in s; the conjectured c1 is sqrt(2/(9 pi)) for every k.
    """
    samples = list(samples)
    if len(samples) < 4:
        raise ValueError("need at least 4 samples")
    model = AsymptoticModel(k, digits)
    with working(digits):
        svals = [mpmath.mpf(s) for s, _ in samples]
        if max(svals) / min(svals) < 8:
            raise ValueError("samples must span about a decade of s")
        rows = []
        rhs = []
        for (s, log_gk), sv in zip(samples, svals):
            r = mpmath.mpf(log_gk) + mpmath.log(k) - model.gk_rate / sv
            basis = [sv ** (mpmath.mpf(1) / k)]
            if two_term:
                basis.append(sv ** (mpmath.mpf(2) / k))
            rows.append(basis)
            rhs.append(r)
        cols = len(rows[0])
        ata = mpmath.matrix(cols, cols)
        atb = mpmath.matrix(cols, 1)
        for row, y in zip(rows, rhs):
            for i in range(cols):
                atb[i] += row[i] * y
                for j in range(cols):
                    ata[i, j] += row[i] * row[j]
        sol = mpmath.lu_solve(ata, atb)
        resid_sq = mpmath.mpf(0)
        for row, y in zip(rows, rhs):
            pred = mpmath.fsum(sol[i] * row[i] for i in range(cols))
            resid_sq += (y - pred) ** 2
        return FitResult(
            sol[0],
            sol[1] if two_term else None,
            mpmath.sqrt(resid_sq),
        )
