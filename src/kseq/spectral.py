"""Spectral data of the transfer matrices.

m(n)/z(n) has characteristic polynomial P(x, z) = x^k - z^{-1}(x^{k-1}+...+1),
whose roots are simple for every z > 0.  x_1 denotes the unique positive real
root; the remaining roots are labeled by the sector of the k-th root of unity
they are asymptotic to as z grows (the discrete stand-in for the analytic
continuation that defines the labeling).  Eigenvectors are inverse-power
columns, giving m(n) = A D A^{-1}, and the change of eigenbasis between
consecutive indices has the Lagrange-interpolation closed form used here;
its (1,1) entry needs only the two primary roots (transition_tail_product
and chain_trace).

Everything runs in mpmath complex arithmetic at the caller's precision plus
guard; double precision only seeds the primary-root Newton solve.  Every
point is solved cold from the asymptotic seeds, so points at different n are
independent; the chain helpers add a cheap sequential label-consistency pass
on top.

The primary-root chains (eigen_sum, eigen_product_log, transition_tail_product)
read x_1(n) through a root table: a plain dict, passed by the caller, keyed by
k, digits and the mpf product n s.  x_1(n) depends on n and s only through
z(n) = 1/(e^{ns} - 1), and n s is the very value handed to expm1, so a hit is
bit-identical to solving again.  A check passes one table to all its chains,
and grid points at integer ratios (0.2 = 2 * 0.1 = 4 * 0.05 in binary) share
the coarser chain's roots.  There is no global cache.
"""
from __future__ import annotations

import mpmath
from mpmath import mpf

from .precision import DEFAULT_DIGITS, _eps, _float_newton, _newton_in_bracket, record, working
from .transfer import z_of

# Newton steps allowed per primary root before it is reported unconverged
_ROOT_MAX_STEPS = 300
# Aberth sweeps allowed for the other roots before char_roots gives up
_ABERTH_MAX_STEPS = 200
_ONE = mpmath.mpf(1)  # exact at every precision


class SpectralError(ArithmeticError):
    pass


@record
class CharPoly:
    """P(x, z) = x^k - z^{-1}(x^{k-1} + ... + x + 1) for fixed z > 0."""

    k: int
    z: mpf

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not self.z > 0:
            raise ValueError("z must be positive")
        # derived, outside the fields: w = 1/z and the coefficients
        # k, (k-1)w, ..., w of P' (signs +, -, ..., -)
        w = 1 / self.z
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "dcoeffs", (mpmath.mpf(self.k),) + tuple(
            j * w for j in range(self.k - 1, 0, -1)))

    def value(self, x):
        w = self.w
        acc = _ONE
        for _ in range(self.k):
            acc = acc * x - w
        return acc

    def derivative(self, x):
        acc, *rest = self.dcoeffs
        for c in rest:
            acc = acc * x - c
        return acc

    def scaled(self, x):
        """z P(x) and z P'(x) by Horner on z x^k - (x^{k-1} + ... + 1), whose
        intermediates stay O(1) near the unit circle however small z is (the
        form of ``value`` carries terms of size 1/z that must cancel there)."""
        p, d = self.z, mpmath.mpf(0)
        for _ in range(self.k):
            d = d * x + p
            p = p * x - 1
        return p, d

    def magnitude(self, x):
        """|x|^k + z^{-1} sum |x|^t, the natural residual scale at x."""
        w = self.w
        ax = abs(x)
        acc = mpmath.mpf(1)
        for _ in range(self.k):
            acc = acc * ax + w
        return acc


def _float_root(k: int, z):
    """x_1 = 1/u in floats from w (u + ... + u^k) = 1, increasing and convex
    in u > 0, by Newton from the bound min(1/w, w^{-1/k}) > u; None if z is
    outside 1e-290..1e290, where floats could overflow, or the solve fails."""
    if not 1e-290 < z < 1e290:
        return None
    w = 1 / float(z)

    def fn(u):
        acc = 0.0
        for _ in range(k):
            acc = (acc + 1) * u
        return w * acc - 1

    def dfn(u):
        acc = 0.0
        for j in range(k, 0, -1):
            acc = acc * u + j
        return w * acc

    hi = min(1 / w, w ** (-1 / k))
    u = _float_newton(fn, dfn, 0.0, hi, hi)
    return None if u is None else 1 / mpmath.mpf(u)


def primary_root(k: int, z, digits: int = DEFAULT_DIGITS) -> mpf:
    """The unique positive real root of P(., z), by Newton inside a sign
    bracket from its double-precision value.  Valid for every z > 0; raises
    SpectralError, with the final bracket width, if _ROOT_MAX_STEPS steps do
    not converge."""
    with working(digits):
        z = mpmath.mpf(z)
        poly = CharPoly(k, z)
        w = poly.w
        # P(0) < 0 and P increases through its single positive root x_1,
        # which is below 1 + w since x_1 - 1 = w (1 - x_1^{-k}); at 2(1 + w)
        # every Horner partial value acc x - w stays above 1, so P > 0 there
        lo, hi = mpmath.mpf(0), 2 * (1 + w)
        x = _float_root(k, z)
        if x is None and z >= 1:
            r = w ** (mpmath.mpf(1) / k)
            x = r * (1 + r / k)
        elif x is None:
            x = w + 1
        if not lo < x < hi:
            x = (lo + hi) / 2
        return _newton_in_bracket(
            poly.value, poly.derivative, lo, hi, x, _ROOT_MAX_STEPS,
            lambda _, width: SpectralError(
                f"primary root (k={k}, z={mpmath.nstr(z, 8)}) not converged in "
                f"{_ROOT_MAX_STEPS} steps, bracket width {mpmath.nstr(width, 3)}"),
        )


def _chain_root(k: int, s: mpf, n: int, digits: int, roots: dict):
    """(e^{ns} - 1, x_1(n)) at z(n) = 1/(e^{ns} - 1), read from or stored in the
    root table ``roots``.  x_1(n) depends on n and s only through the product
    n s, the very mpf that expm1 receives, so chains at s and m s share their
    roots bit for bit; k and digits complete the key."""
    ns = n * s
    key = (k, digits, ns)
    pair = roots.get(key)
    if pair is None:
        e = mpmath.expm1(ns)
        pair = roots[key] = e, primary_root(k, 1 / e, digits)
    return pair


@record
class SpectralPoint:
    """Labeled roots x_j and eigenvector matrix A."""

    k: int
    z: mpf
    roots: tuple
    A: mpmath.matrix

    def a_inverse(self) -> mpmath.matrix:
        return mpmath.inverse(self.A)

    def reconstruct_m(self) -> mpmath.matrix:
        """A D A^{-1} with D = diag(z x_j); must reproduce the transfer matrix
        at this z.  Runs at the caller's working precision."""
        d = mpmath.matrix(self.k, self.k)
        for j, x in enumerate(self.roots):
            d[j, j] = self.z * x
        return self.A * d * self.a_inverse()

    def residuals(self) -> list:
        poly = CharPoly(self.k, self.z)
        return [abs(poly.value(x)) / poly.magnitude(x) for x in self.roots]


def _unit_roots(k: int) -> list:
    """e^{2 pi i j / k} for j = 1..k-1, the sectors of the non-primary roots."""
    return [mpmath.exp(2j * mpmath.pi * j / k) for j in range(1, k)]


def _aberth(poly: CharPoly, seeds: list):
    k = poly.k
    xs = [mpmath.mpc(s) for s in seeds]
    eps = _eps(mpmath.mp.prec)
    for _ in range(_ABERTH_MAX_STEPS):
        worst = mpmath.mpf(0)
        for i in range(k):
            xi = xs[i]
            pv, dpv = poly.scaled(xi)
            corr = mpmath.mpc(0)
            for j in range(k):
                if j != i:
                    corr += 1 / (xi - xs[j])
            denom = dpv - pv * corr
            if denom == 0:
                continue
            delta = pv / denom
            xs[i] = xi - delta
            rel = abs(delta) / max(abs(xs[i]), mpmath.mpf(1e-100))
            worst = max(worst, rel)
        if worst < eps:
            return xs
    residuals = [mpmath.nstr(abs(poly.value(x)) / poly.magnitude(x), 3) for x in xs]
    raise SpectralError(
        f"root iteration failed to converge (k={k}, z={mpmath.nstr(poly.z, 8)}); "
        f"residuals {residuals}"
    )


def _label_by_sector(k: int, roots: list) -> list:
    """Order roots so index j sits in the sector of e^{2 pi i j / k}: root x
    takes label round(arg(x) k / 2 pi) mod k, and no label is taken twice
    (the positive real root takes 0)."""
    labeled = [None] * k
    for x in roots:
        j = int(mpmath.nint(mpmath.arg(x) * k / (2 * mpmath.pi))) % k
        if labeled[j] is not None:
            raise SpectralError("could not assign root labels by sector")
        labeled[j] = x
    return labeled


def char_roots(k: int, z, digits: int = DEFAULT_DIGITS) -> SpectralPoint:
    """All k roots of P(., z) with the continuation-consistent labeling.

    Simultaneous (Aberth) iteration seeded by the positive real root from
    the dedicated bracketed solve (which finally replaces its iterate) and,
    for the other k - 1 roots, by the asymptotic seeds of the large-z and
    small-z regimes.
    """
    with working(digits):
        z = mpmath.mpf(z)
        poly = CharPoly(k, z)
        lam1 = mpmath.mpc(primary_root(k, z, digits))
        units = _unit_roots(k)
        if z >= 1:
            r = poly.w ** (mpmath.mpf(1) / k)
            seeds = [u * r * (1 + u * r / k) for u in units]
        else:
            seeds = [u * (1 + mpmath.mpc(0, 1e-3)) for u in units]
        xs = _aberth(poly, [lam1] + seeds)
        # a couple of Newton polish steps on z P, which has the same roots
        for i, x in enumerate(xs):
            for _ in range(2):
                p, d = poly.scaled(x)
                if d != 0:
                    x = x - p / d
            xs[i] = x
        labeled = _label_by_sector(k, xs)
        labeled[0] = lam1
        point = SpectralPoint(k, z, tuple(labeled), _eigenvector_matrix(k, labeled))
        _validate_point(point, digits)
        return point


def _eigenvector_matrix(k: int, roots: list) -> mpmath.matrix:
    a = mpmath.matrix(k, k)
    for j, lam in enumerate(roots):
        inv = 1 / lam
        val = mpmath.mpc(1)
        for i in range(k):
            a[i, j] = val
            val *= inv
    return a


def _validate_point(point: SpectralPoint, digits: int):
    tol = mpmath.mpf(10) ** (-(digits - 8))
    res = point.residuals()
    if max(res) > tol:
        raise SpectralError(
            f"root residuals too large: {[mpmath.nstr(r, 3) for r in res]}"
        )
    # no repeated roots for z > 0: each pair separated well above solver tol,
    # relative to the larger of the two (x_1 ~ 1/z dwarfs the rest at small z)
    eps = _eps(mpmath.mp.prec)
    roots = point.roots
    for i in range(point.k):
        for j in range(i + 1, point.k):
            if not abs(roots[i] - roots[j]) > 10 * eps * max(abs(roots[i]), abs(roots[j])):
                raise SpectralError("near-coincident roots: numerical breakdown")


def transition_matrix(
    point_n: SpectralPoint,
    point_n1: SpectralPoint,
    digits: int = DEFAULT_DIGITS,
    validate: bool = False,
) -> mpmath.matrix:
    """Closed-form change of eigenbasis T(n) = A(n+1)^{-1} A(n) between
    consecutive indices:

        T^{i,j} = prod_{m != i} ((mu_j - x_m) / (x_i - x_m)) * (x_i / mu_j)^{k-1}

    with mu the roots at n and x the roots at n+1; the full k x k form, which
    ``_transition_entry11`` reduces at (1, 1) to the primary roots alone.
    ``validate=True`` additionally raises SpectralError when the closed form
    misses direct inversion (``_inversion_gap``) by more than 10^-(digits-10).
    """
    if point_n.k != point_n1.k:
        raise ValueError("points must share k")
    k = point_n.k
    with working(digits):
        mu = point_n.roots
        lam = point_n1.roots
        t = mpmath.matrix(k, k)
        for i in range(k):
            for j in range(k):
                acc = mpmath.mpc(1)
                ratio = lam[i] / mu[j]
                for m in range(k):
                    if m == i:
                        continue
                    acc *= (mu[j] - lam[m]) / (lam[i] - lam[m]) * ratio
                t[i, j] = acc
        if validate:
            gap = _inversion_gap(point_n, point_n1, t)
            if not gap <= mpmath.mpf(10) ** (-(digits - 10)):
                raise SpectralError(
                    f"closed form vs direct inversion mismatch: {mpmath.nstr(gap, 3)}"
                )
        return t


def _inversion_gap(point_n: SpectralPoint, point_n1: SpectralPoint,
                   t: mpmath.matrix) -> mpf:
    """max |A(n+1)^{-1} A(n) - T| / max |A(n+1)^{-1} A(n)|: the closed-form
    T(n) against direct inversion, at the caller's working precision."""
    k = point_n.k
    direct = point_n1.a_inverse() * point_n.A
    scale = max(abs(direct[i, j]) for i in range(k) for j in range(k))
    err = max(abs(direct[i, j] - t[i, j]) for i in range(k) for j in range(k))
    return err / scale


def spectral_chain(k: int, s, n_start: int, n_end: int, digits: int = DEFAULT_DIGITS):
    """SpectralPoints for n = n_start..n_end, each solved cold by
    ``char_roots``, with a label-continuation check (a label swap between
    steps raises)."""
    prev = None
    with working(digits):
        for n in range(n_start, n_end + 1):
            point = char_roots(k, z_of(n, s, digits), digits)
            if prev is not None:
                _check_continuation(prev, point)
            yield n, point
            prev = point


def _check_continuation(a: SpectralPoint, b: SpectralPoint):
    for j in range(a.k):
        dists = [abs(a.roots[j] - b.roots[m]) for m in range(a.k)]
        if min(range(a.k), key=lambda m: dists[m]) != j:
            raise SpectralError(f"label swap between consecutive points at label {j+1}")


@record
class TailProductResult:
    """log prod_{n=N}^{M} T(n)^{1,1}, tail estimate beyond M, and the
    closed-form prediction (1/2) log k - ((k-1)/(2k)) log(Ns)."""

    log_product: mpf
    tail_estimate: mpf
    prediction: mpf
    residual: mpf


def _transition_entry11(k: int, mu1, x1, z1) -> mpf:
    """T(n)^{1,1} from the primary roots mu1 = x_1(n) and x1 = x_1(n+1) alone:
    the Lagrange form at (1, 1) is Q(mu1) / Q(x1) * (x1 / mu1)^{k-1} with
    Q = P(., z(n+1)) / (y - x1).  Q's coefficients b come from synthetic
    division, so nothing cancels as mu1 -> x1, and Q(x1) = P'(x1) > 0."""
    w = 1 / z1
    b = q_mu = q_x = mpmath.mpf(1)
    for _ in range(k - 1):
        b = b * x1 - w
        q_mu = q_mu * mu1 + b
        q_x = q_x * x1 + b
    return q_mu / q_x * (x1 / mu1) ** (k - 1)


def transition_tail_product(
    k: int,
    s,
    N: int,
    M: int,
    digits: int = DEFAULT_DIGITS,
    *,
    roots: dict | None = None,
) -> TailProductResult:
    """Numeric log prod_{n=N..M} T(n)^{1,1} along one chain of primary roots
    (``_transition_entry11``), each root used at n and n + 1 and read through
    the root table ``roots`` when given.

    ``tail_estimate`` extrapolates the observed geometric decay of
    |log T^{1,1}| beyond M.  It is an estimate, not a bound, and decides no
    pass/fail.
    """
    if N < 2 or M < N:
        raise ValueError("need 2 <= N <= M")
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        roots = {} if roots is None else roots
        total = mpmath.mpf(0)
        before = last = None  # the last two |log T^{1,1}|
        mu1 = _chain_root(k, s, N, digits, roots)[1]
        for n in range(N, M + 1):
            e, x1 = _chain_root(k, s, n + 1, digits, roots)
            term = mpmath.log(_transition_entry11(k, mu1, x1, 1 / e))
            total += term
            before, last = last, abs(term)
            mu1 = x1
        tail = mpmath.mpf("inf")
        if before:
            ratio = last / before
            if ratio < 1:
                # geometric extrapolation of the observed decay, doubled as a
                # safety margin; meaningful once M sits in the e^{-ns} regime
                tail = 2 * last * ratio / (1 - ratio)
        prediction = mpmath.log(k) / 2 - mpmath.mpf(k - 1) / (2 * k) * mpmath.log(N * s)
        return TailProductResult(total, tail, prediction, total - prediction)


@record
class EigenProductResult:
    """sum_{n=start}^{n_cut} log(x_1(n) z(n)) plus an analytic tail bound."""

    value: mpf
    tail_bound: mpf
    n_cut: int


def eigen_cut_for(k: int, s, tol, digits: int = DEFAULT_DIGITS) -> int:
    """Smallest usable n_cut with the analytic tail bound below tol."""
    with working(digits):
        s = mpmath.mpf(s)
        tol = mpmath.mpf(tol)
        c = mpmath.mpf("5.6")
        n = int(mpmath.ceil(mpmath.log(c / (tol * (1 - mpmath.exp(-s)))) / s))
        return max(n, int(mpmath.ceil(mpmath.mpf("1.2") / s)) + 1, 4)


def eigen_sum(k: int, s, n_from: int, n_to: int, digits: int = DEFAULT_DIGITS,
              *, roots: dict | None = None) -> mpf:
    """Plain partial sum of log(x_1(n) z(n)) over n = n_from..n_to, with the
    roots read through the root table ``roots`` when given."""
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        roots = {} if roots is None else roots
        total = mpmath.mpf(0)
        for n in range(n_from, n_to + 1):
            e, x1 = _chain_root(k, s, n, digits, roots)  # e = 1/z(n)
            total += mpmath.log(x1) - mpmath.log(e)
        return total


def eigen_product_log(
    k: int,
    s,
    n_cut: int,
    digits: int = DEFAULT_DIGITS,
    start: int = 1,
    *,
    roots: dict | None = None,
) -> EigenProductResult:
    """sum log(x_1(n) z(n)) for n = start..n_cut, with a certified tail.

    Each term splits as log(x_1 q^n) - log(1 - q^n) = -g_k(ns) - log(1-e^{-ns});
    the first piece is below 4.08 e^{-kns} and the second below 1.5 e^{-ns}
    once e^{-ns} < min(k/(k+1), 1/3), so the tail beyond n_cut is bounded by
    the two geometric sums.  (n_cut+1) s >= 1.2 is enforced so the bound holds.
    """
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        if (n_cut + 1) * s < mpmath.mpf("1.2"):
            raise ValueError("n_cut too small for the analytic tail bound")
        total = eigen_sum(k, s, start, n_cut, digits, roots=roots)
        tail = mpmath.mpf("4.08") * mpmath.exp(-k * s * (n_cut + 1)) / (
            1 - mpmath.exp(-k * s)
        ) + mpmath.mpf("1.5") * mpmath.exp(-s * (n_cut + 1)) / (1 - mpmath.exp(-s))
        return EigenProductResult(total, tail, n_cut)


def chain_trace(k: int, s, n_start: int, n_end: int, digits: int = DEFAULT_DIGITS) -> list:
    """Diagnostic rows (n, Re/Im of each root, T(n)^{1,1}), with T^{1,1} from
    the primary roots at n and n + 1 (``_transition_entry11``); the last row
    has no T^{1,1}."""
    rows = []
    prev = None
    with working(digits):
        for n, point in spectral_chain(k, s, n_start, n_end, digits):
            if prev is not None:
                t11 = _transition_entry11(k, prev.roots[0].real, point.roots[0].real, point.z)
                rows[-1] = rows[-1] + (t11,)
            row = (n,)
            for root in point.roots:
                row += (root.real, root.imag)
            rows.append(row)
            prev = point
    return rows
