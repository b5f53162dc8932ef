"""Special functions and closed-form main terms behind the asymptotics.

f_k(y) is the root of f^{k+1} - f^k = y^{k+1} - y^k conjugate to y across the
double-root point k/(k+1): for y above it the root below, and vice versa.
This is the unique branch with f_k(e^{-ns}) = x_1(n) q^n (x_1 the primary
characteristic root), which makes x -> f_k(e^{-x}) increasing and
g_k = -log f_k positive and decreasing, with integral lambda_k = pi^2/(3k(k+1)).

Along y = e^{-x} the ratio u = f_k(y)/y, which is x_1, parametrises the
curve explicitly: f = u y in the defining equation gives y = P(u)/Q(u), with
P = 1 + u + ... + u^{k-1} and Q = P + u^k = 1 + u P.  So x = log1p(u^k/P),
g_k = x - log u = log1p(1/(u P)), and u runs over (0, inf) as x does, with
u = 1 at the double point.  That is z u^k = P(u) at z = 1/(e^x - 1), so g_k
reads u from spectral.primary_root, the chains' x_1 solver, and evaluates
the closed form, which keeps it good relative to itself where f_k(y) rounds
to 1 and at the double point; the integral of g_k is taken in u, where the
integrand is elementary and no quadrature node needs a root solve.  f_k never
calls that solver, so holding f_k(e^{-ns}) against x_1(n) e^{-ns} compares
two routes.

The module also carries the analytic tail bound and integral of g_k, the
paper's rates lambda_k and gk_growth_rate as plain functions of k, the
closed-form main terms built on them, and the least-squares fit for the
conjectured s^{1/k} correction term.
"""
from __future__ import annotations

import mpmath
from mpmath import mpf

from .precision import DEFAULT_DIGITS, _float_newton, _newton_in_bracket, record, working
from .spectral import primary_root

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


def _deflated(a) -> tuple:
    """S(f) = f^k - a_0 f^{k-1} - ... - a_{k-1} and S'(f), k = len(a) >= 2,
    by Horner in the arithmetic of the coefficients ``a`` (floats or mpf)."""
    k = len(a)
    da = [(k - 1 - i) * c for i, c in enumerate(a[:-1])]

    def fn(f):
        acc = f - a[0]
        for c in a[1:]:
            acc = acc * f - c
        return acc

    def dfn(f):
        acc = k * f - da[0]
        for c in da[1:]:
            acc = acc * f - c
        return acc

    return fn, dfn


def _solve_conjugate(y, k: int) -> mpf:
    """Root of f^{k+1} - f^k = y^{k+1} - y^k on the branch opposite to y.

    With phi(f) = f^{k+1} - f^k, it is the root of the deflated S(f) =
    (phi(f) - phi(y))/(f - y) = f^k - (1 - y) sum_{i<k} y^i f^{k-1-i}, which
    is simple at every y, the double point k/(k+1) included, where
    phi(f) - phi(y) has a double root.  S(y) = phi'(y), so S rises through
    its root on (0, y) for y above k/(k+1) and on (y, 1) below it.  Newton
    starts from the root in floats, or from the branch seed if
    t = y^k (1 - y) underflows a float or the float solve fails.
    """
    fstar = mpmath.mpf(k) / (k + 1)
    if y == fstar:
        return fstar
    below = y > fstar
    lo, hi = (mpmath.mpf(0), y) if below else (y, mpmath.mpf(1))
    a = [1 - y]
    for _ in range(k - 1):
        a.append(a[-1] * y)      # a_i = (1 - y) y^i
    t = a[-1] * y
    tf = float(t)
    f = _float_newton(*_deflated([float(c) for c in a]), float(lo), float(hi),
                      _branch_seed(tf, k, below, 1.0)) if tf > 1e-290 else None
    if f is None or not lo < f < hi:
        f = _branch_seed(t, k, below, mpmath.mpf(1))
    if not lo <= f <= hi:  # an edge is a fine start: the root may round to 1
        f = (lo + hi) / 2
    fn, dfn = _deflated(a)
    return _newton_in_bracket(
        fn, dfn, lo, hi, mpmath.mpf(f), _CONJUGATE_MAX_STEPS,
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


def _curve(u, k: int) -> tuple:
    """(g_k, dx/du) at u = x_1 on the curve e^{-x} = P(u)/Q(u), Q = 1 + u P:
    g_k = log1p(1/(u P)) and dx/du = Q'/Q - P'/P = u^{k-1} R/(P Q), with
    R = k P - u P' = k + (k-1) u + ... + u^{k-1}, in which no term cancels."""
    p = r = mpmath.mpf(0)
    for c in range(1, k + 1):  # P and R by Horner
        p = p * u + 1
        r = r * u + c
    up = u * p
    return mpmath.log1p(1 / up), u ** (k - 1) * r / (p * (1 + up))


def g_k(x, k: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """g_k(x) = -log f_k(e^{-x}); positive, decreasing, ~ -(1/k) log x at 0.

    Computed as log1p(1/(u P(u))) at u = x_1 = f_k(e^{-x}) e^x, the primary
    root at z = 1/(e^x - 1), good relative to g_k at every x: -log f_k(e^{-x})
    itself loses it where f_k rounds to 1 (large x)."""
    with working(digits):
        x = mpmath.mpf(x)
        if x <= 0:
            raise ValueError("x must be positive")
        return _curve(primary_root(k, 1 / mpmath.expm1(x), digits), k)[0]


def gk_tail_bound(x, k: int) -> mpf:
    """Analytic bound g_k(x) <= 4.08 e^{-kx}, valid once e^{-x} < k/(k+1)."""
    return mpmath.mpf("4.08") * mpmath.exp(-k * mpmath.mpf(x))


def gk_integral(k: int, tol=mpf("1e-10")) -> mpf:
    """integral_0^inf g_k = pi^2 / (3 k (k+1)), by adaptive quadrature in u.

    The integral over [0, x_tail] is taken along u = x_1 (module docstring):
    g_k dx/du over u in [0, 1], where the tanh-sinh rule handles the log
    singularity at u = 0, then g_k u dx/du over log u in [0, log u(x_tail)].
    Mapping x_tail to u is the one root solve.  The exponential tail past
    x_tail is cut where the analytic bound is far below tol and added to the
    reported error, as is a floor of a few ulps: on this smooth integrand the
    quadrature's own estimate can fall below the working precision, which is
    12 digits past tol's (25 at least).  Raises ToleranceError when the
    combined error exceeds tol.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    tol = mpmath.mpf(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    digits = max(25, int(-mpmath.log10(tol)) + 12)
    with working(digits):
        x_tail = (mpmath.log(mpmath.mpf("4.08") * 100 / (tol * k))) / k + 1
        tail_bound = gk_tail_bound(x_tail, k) / k
        u_tail = primary_root(k, 1 / mpmath.expm1(x_tail), digits)

        def on_u(u):  # tanh-sinh never samples the endpoint u = 0
            g, dx_du = _curve(u, k)
            return g * dx_du

        def on_log_u(v):
            u = mpmath.exp(v)
            g, dx_du = _curve(u, k)
            return g * dx_du * u

        below, below_err = mpmath.quad(on_u, [0, 1], error=True)
        above, above_err = mpmath.quad(on_log_u, [0, mpmath.log(u_tail)], error=True)
        value = below + above
        achieved = below_err + above_err + tail_bound + 8 * mpmath.eps
        if achieved > tol:
            raise ToleranceError(
                f"gk_integral error estimate {mpmath.nstr(achieved, 3)} exceeds tol",
                achieved,
                value,
            )
        return value


def lambda_k(k: int) -> mpf:
    """lambda_k = pi^2 / (3k(k+1)) at the caller's working precision: the
    decay rate of P_s(A_k) in 1/s, and the integral of g_k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return mpmath.pi**2 / (3 * k * (k + 1))


def _delta(k: int) -> mpf:
    """delta_k = 1 - 2/(k(k+1)) at the caller's working precision."""
    if k < 2:
        raise ValueError("k must be >= 2")
    k = mpmath.mpf(k)
    return 1 - 2 / (k * (k + 1))


def gk_growth_rate(k: int) -> mpf:
    """(pi^2/6) delta_k at the caller's working precision: log G_k's rate in 1/s."""
    return mpmath.pi**2 / 6 * _delta(k)


def main_term_gk(k: int, s, digits: int = DEFAULT_DIGITS) -> mpf:
    """log of (1/k) exp(gk_growth_rate / s), the G_k(e^{-s}) main term."""
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        return gk_growth_rate(k) / s - mpmath.log(k)


def main_term_psk(k: int, s, digits: int = DEFAULT_DIGITS) -> mpf:
    """log of (sqrt(2 pi)/k) s^{-1/2} exp(-lambda_k / s), the P_s(A_k) main term."""
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        return mpmath.log(mpmath.sqrt(2 * mpmath.pi) / k) - mpmath.log(s) / 2 - lambda_k(k) / s


def main_term_pk(k: int, n: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """log of (1/(2k)) (delta_k/6)^{1/4} n^{-3/4} exp(pi sqrt(2 delta_k n / 3))."""
    with working(digits):
        delta = _delta(k)
        if n < 1:
            raise ValueError("n must be >= 1")
        n = mpmath.mpf(n)
        return (
            -mpmath.log(2 * mpmath.mpf(k))
            + mpmath.log(delta / 6) / 4
            - mpmath.mpf(3) / 4 * mpmath.log(n)
            + mpmath.pi * mpmath.sqrt(2 * delta * n / 3)
        )


def _check_fit_design(svals) -> None:
    """The fit's design: at least 4 sample points s, spanning about a decade."""
    if len(svals) < 4:
        raise ValueError("need at least 4 samples")
    if max(svals) / min(svals) < 8:
        raise ValueError("samples must span about a decade of s")


@record
class FitResult:
    c1: mpf
    c2: mpf | None
    residual_norm: mpf


def conjecture_fit(k: int, samples, two_term: bool = True,
                   digits: int = DEFAULT_DIGITS) -> FitResult:
    """Least squares for r(s) = log G_k(e^{-s}) - main_term_gk(k, s) against
    c1 s^{1/k} (optionally + c2 s^{2/k}), by ``mpmath.qr_solve`` on the
    design matrix of s^{j/k} columns.

    ``samples`` is a sequence of (s, log G_k(e^{-s})) pairs covering at least
    a decade in s; the conjectured c1 is sqrt(2/(9 pi)) for every k.
    """
    samples = list(samples)
    with working(digits):
        svals = [mpmath.mpf(s) for s, _ in samples]
        _check_fit_design(svals)
        powers = (1, 2) if two_term else (1,)
        design = [[sv ** (mpmath.mpf(j) / k) for j in powers] for sv in svals]
        rhs = [mpmath.mpf(log_gk) - main_term_gk(k, sv, digits)
               for (_, log_gk), sv in zip(samples, svals)]
        sol, residual_norm = mpmath.qr_solve(design, rhs)
        return FitResult(sol[0], sol[1] if two_term else None, residual_norm)
