"""Spectral data of the transfer matrices.

m(n)/z(n) has characteristic polynomial P(x, z) = x^k - z^{-1}(x^{k-1}+...+1),
whose roots are simple for every z > 0.  x_1 denotes the unique positive real
root; the remaining roots are labeled by the sector of the k-th root of unity
they are asymptotic to as z grows (the discrete stand-in for the analytic
continuation that defines the labeling).  Eigenvectors are inverse-power
columns, giving m(n) = A D A^{-1}, and the change of eigenbasis between
consecutive indices has the Lagrange-interpolation closed form used here;
its (1,1) entry needs only the two primary roots (transition_tail_product).

Everything runs in mpmath complex arithmetic at the caller's precision plus
guard; no double-precision fallback is used anywhere.  Points at different n
are independent; the chain helpers add a cheap sequential label-consistency
pass on top.
"""
from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .precision import DEFAULT_DIGITS, _newton_in_bracket, working
from .transfer import z_of

# Newton steps allowed per primary root before it is reported unconverged
_ROOT_MAX_STEPS = 300


class SpectralError(ArithmeticError):
    pass


@dataclass(frozen=True)
class CharPoly:
    """P(x, z) = x^k - z^{-1}(x^{k-1} + ... + x + 1) for fixed z > 0."""

    k: int
    z: mpf

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not self.z > 0:
            raise ValueError("z must be positive")

    def value(self, x):
        w = 1 / self.z
        acc = mpmath.mpf(1)
        for _ in range(self.k):
            acc = acc * x - w
        return acc

    def derivative(self, x):
        w = 1 / self.z
        # coefficients of P': k, -(k-1)w, ..., -w
        acc = self.k * mpmath.mpf(1)
        for j in range(self.k - 1, 0, -1):
            acc = acc * x - j * w
        return acc

    def second_derivative(self, x):
        w = 1 / self.z
        acc = self.k * (self.k - 1) * mpmath.mpf(1)
        for j in range(self.k - 1, 1, -1):
            acc = acc * x - j * (j - 1) * w
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
        w = 1 / self.z
        ax = abs(x)
        acc = mpmath.mpf(1)
        for _ in range(self.k):
            acc = acc * ax + w
        return acc


def primary_root(k: int, z, digits: int = DEFAULT_DIGITS, seed=None) -> mpf:
    """The unique positive real root of P(., z), by Newton inside a sign
    bracket.  Valid for every z > 0; raises SpectralError, with the final
    bracket width, if _ROOT_MAX_STEPS steps do not converge."""
    with working(digits):
        z = mpmath.mpf(z)
        poly = CharPoly(k, z)
        w = 1 / z
        # P(0) < 0 and P increases through its single positive root
        lo = mpmath.mpf(0)
        hi = max(mpmath.mpf(1), w ** (mpmath.mpf(1) / k), w) * 2
        while poly.value(hi) <= 0:
            hi *= 2
        if seed is not None and lo < seed < hi:
            x = mpmath.mpf(seed)
        elif z >= 1:
            r = w ** (mpmath.mpf(1) / k)
            x = r * (1 + r / k)
        else:
            x = w + 1
        if not lo < x < hi:
            x = (lo + hi) / 2
        return _newton_in_bracket(
            poly.value, poly.derivative, lo, hi, x, _ROOT_MAX_STEPS,
            lambda _, width: SpectralError(
                f"primary root (k={k}, z={mpmath.nstr(z, 8)}) not converged in "
                f"{_ROOT_MAX_STEPS} steps, bracket width {mpmath.nstr(width, 3)}"),
        )


@dataclass(frozen=True)
class SpectralPoint:
    """Labeled roots, eigenvector matrix A, and diagonal D = diag(z x_j)."""

    k: int
    z: mpf
    roots: tuple
    A: mpmath.matrix
    D: tuple

    @property
    def primary(self) -> mpf:
        return self.roots[0].real

    def a_inverse(self) -> mpmath.matrix:
        return mpmath.inverse(self.A)

    def reconstruct_m(self) -> mpmath.matrix:
        """A D A^{-1}; must reproduce the transfer matrix at this z."""
        d = mpmath.matrix(self.k, self.k)
        for j in range(self.k):
            d[j, j] = self.D[j]
        return self.A * d * self.a_inverse()

    def residuals(self) -> list:
        poly = CharPoly(self.k, self.z)
        return [abs(poly.value(x)) / poly.magnitude(x) for x in self.roots]


def _unit_roots(k: int) -> list:
    return [mpmath.exp(2j * mpmath.pi * j / k) for j in range(k)]


def _aberth(poly: CharPoly, seeds: list, maxiter: int = 200):
    k = poly.k
    xs = [mpmath.mpc(s) for s in seeds]
    eps = mpmath.mpf(10) ** (-(mpmath.mp.dps - 3))
    for _ in range(maxiter):
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


def _label_by_sector(k: int, roots: list, lam1) -> list:
    """Order roots so index j sits in the sector of e^{2 pi i j / k}; the
    positive real root is pinned at index 0."""
    remaining = list(roots)
    # pull out the root that is the positive real one
    best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - lam1))
    remaining.pop(best)
    two_pi = 2 * mpmath.pi
    targets = [two_pi * j / k for j in range(1, k)]

    def circ_dist(a, b):
        d = abs(a - b) % two_pi
        return min(d, two_pi - d)

    angles = [mpmath.arg(r) % two_pi for r in remaining]
    order = [None] * (k - 1)
    used = set()
    # greedy nearest-sector assignment; fall back to permutations on collision
    pairs = sorted(
        ((circ_dist(angles[i], targets[j]), i, j)
         for i in range(k - 1) for j in range(k - 1)),
        key=lambda t: t[0],
    )
    placed = set()
    for _, i, j in pairs:
        if i in placed or j in used:
            continue
        order[j] = remaining[i]
        placed.add(i)
        used.add(j)
    if any(o is None for o in order):
        raise SpectralError("could not assign root labels by sector")
    return [mpmath.mpc(lam1)] + order


def char_roots(
    k: int, z, digits: int = DEFAULT_DIGITS, seeds: list | None = None
) -> SpectralPoint:
    """All k roots of P(., z) with the continuation-consistent labeling.

    Simultaneous (Aberth) iteration from the asymptotic seeds of the large-z
    and small-z regimes (or caller-provided warm seeds); the positive real
    root is then replaced by the dedicated bracketed solve.
    """
    with working(digits):
        z = mpmath.mpf(z)
        poly = CharPoly(k, z)
        lam1 = primary_root(k, z, digits)
        if seeds is None:
            w = 1 / z
            units = _unit_roots(k)
            if z >= 1:
                r = w ** (mpmath.mpf(1) / k)
                seeds = [u * r * (1 + u * r / k) for u in units]
            else:
                seeds = [mpmath.mpc(w + 1)] + [
                    u * (1 + mpmath.mpc(0, 1e-3)) for u in units[1:]
                ]
            seeds[0] = mpmath.mpc(lam1)
        xs = _aberth(poly, seeds)
        # a couple of Newton polish steps on z P, which has the same roots
        for i, x in enumerate(xs):
            for _ in range(2):
                p, d = poly.scaled(x)
                if d != 0:
                    x = x - p / d
            xs[i] = x
        labeled = _label_by_sector(k, xs, lam1)
        labeled[0] = mpmath.mpc(lam1)
        point = SpectralPoint(
            k,
            z,
            tuple(labeled),
            _eigenvector_matrix(k, labeled),
            tuple(z * x for x in labeled),
        )
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
    eps = mpmath.mpf(10) ** (-(mpmath.mp.dps - 3))
    roots = point.roots
    for i in range(point.k):
        for j in range(i + 1, point.k):
            if not abs(roots[i] - roots[j]) > 10 * eps * max(abs(roots[i]), abs(roots[j])):
                raise SpectralError("near-coincident roots: numerical breakdown")


@dataclass(frozen=True)
class TransitionMatrix:
    """T(n) = A(n+1)^{-1} A(n) in the Lagrange closed form."""

    k: int
    T: mpmath.matrix

    @property
    def entry11(self) -> mpf:
        t = self.T[0, 0]
        return t.real if isinstance(t, mpmath.mpc) else t


def transition_matrix(
    point_n: SpectralPoint,
    point_n1: SpectralPoint,
    digits: int = DEFAULT_DIGITS,
    validate: bool = False,
) -> TransitionMatrix:
    """Closed-form change of eigenbasis between consecutive indices:

        T^{i,j} = prod_{m != i} ((mu_j - x_m) / (x_i - x_m)) * (x_i / mu_j)^{k-1}

    with mu the roots at n and x the roots at n+1.  ``validate=True``
    additionally inverts A(n+1) directly and compares entrywise.
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
        result = TransitionMatrix(k, t)
        if validate:
            direct = point_n1.a_inverse() * point_n.A
            tol = mpmath.mpf(10) ** (-(digits - 10))
            scale = max(abs(direct[i, j]) for i in range(k) for j in range(k))
            err = max(abs(direct[i, j] - t[i, j]) for i in range(k) for j in range(k))
            if not err <= tol * scale:
                raise SpectralError(
                    f"closed form vs direct inversion mismatch: {mpmath.nstr(err / scale, 3)}"
                )
        return result


def spectral_chain(k: int, s, n_start: int, n_end: int, digits: int = DEFAULT_DIGITS):
    """SpectralPoints for n = n_start..n_end with warm-started roots and a
    label-continuation check (a label swap between steps raises)."""
    prev = None
    with working(digits):
        for n in range(n_start, n_end + 1):
            z = z_of(n, s, digits)
            seeds = list(prev.roots) if prev is not None else None
            point = char_roots(k, z, digits, seeds=seeds)
            if prev is not None:
                _check_continuation(prev, point)
            yield n, point
            prev = point


def _check_continuation(a: SpectralPoint, b: SpectralPoint):
    for j in range(a.k):
        dists = [abs(a.roots[j] - b.roots[m]) for m in range(a.k)]
        if min(range(a.k), key=lambda m: dists[m]) != j:
            raise SpectralError(f"label swap between consecutive points at label {j+1}")


def lambda1_derivatives(k: int, z, digits: int = DEFAULT_DIGITS):
    """(d/dz) x_1 and (d^2/dz^2) x_1 by implicit differentiation of
    P = x^k - w S(x), w = 1/z, S = x^{k-1} + ... + 1, over P_x > 0:
    x' = -w^2 S / P_x and x'' = -(P_xx x'^2 + 2 w^2 S' x' - 2 w^3 S) / P_x."""
    with working(digits):
        z = mpmath.mpf(z)
        lam = primary_root(k, z, digits)
        poly = CharPoly(k, z)
        w = 1 / z
        s_val = mpmath.fsum(lam**t for t in range(k))
        s_der = mpmath.fsum(t * lam ** (t - 1) for t in range(1, k))
        p_x = poly.derivative(lam)
        d1 = -(w**2) * s_val / p_x
        d2 = -(poly.second_derivative(lam) * d1**2 + 2 * w**2 * s_der * d1
               - 2 * w**3 * s_val) / p_x
        return d1, d2


def rk_q(k: int, lam, digits: int = DEFAULT_DIGITS, z=None):
    """R_k = Q'/Q and Q(x) = x^{2k-2} + 2 x^{2k-3} + ... + k x^{k-1}.

    When z is supplied (the value for which lam is the positive root) the
    identity R_k = P_xx / P_x at (lam, z) is verified as a cross-check.
    """
    with working(digits):
        lam = mpmath.mpf(lam)
        if lam <= 0:
            raise ValueError("lambda must be positive")
        q_val = mpmath.fsum(j * lam ** (2 * k - 1 - j) for j in range(1, k + 1))
        q_deriv = mpmath.fsum(
            j * (2 * k - 1 - j) * lam ** (2 * k - 2 - j) for j in range(1, k + 1)
        )
        r = q_deriv / q_val
        if z is not None:
            poly = CharPoly(k, mpmath.mpf(z))
            alt = poly.second_derivative(lam) / poly.derivative(lam)
            tol = mpmath.mpf(10) ** (-(digits - 10))
            if not abs(alt - r) <= tol * abs(r):
                raise SpectralError("R_k closed form disagrees with P''/P' at the root")
        return r, q_val


@dataclass(frozen=True)
class TailProductResult:
    """log prod_{n=N}^{M} T(n)^{1,1}, tail estimate beyond M, and the
    closed-form prediction (1/2) log k - ((k-1)/(2k)) log(Ns)."""

    log_product: mpf
    tail_estimate: mpf
    prediction: mpf
    residual: mpf
    flagged: bool


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
    tail_tol=None,
) -> TailProductResult:
    """Numeric log prod_{n=N..M} T(n)^{1,1} along one warm-started chain of
    primary roots (``_transition_entry11``).

    The tail beyond M is estimated from the observed geometric decay of
    |log T^{1,1}|; it is compared against ``tail_tol`` when given and the
    result flagged if above.
    """
    if N < 2 or M < N:
        raise ValueError("need 2 <= N <= M")
    with working(digits):
        total = mpmath.mpf(0)
        before = last = None  # the last two |log T^{1,1}|
        mu1 = primary_root(k, z_of(N, s, digits), digits)
        for n in range(N, M + 1):
            z1 = z_of(n + 1, s, digits)
            x1 = primary_root(k, z1, digits, seed=mu1)
            term = mpmath.log(_transition_entry11(k, mu1, x1, z1))
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
        prediction = mpmath.log(k) / 2 - mpmath.mpf(k - 1) / (2 * k) * mpmath.log(N * mpmath.mpf(s))
        flagged = bool(tail_tol is not None and not tail <= mpmath.mpf(tail_tol))
        return TailProductResult(total, tail, prediction, total - prediction, flagged)


@dataclass(frozen=True)
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


def eigen_sum(k: int, s, n_from: int, n_to: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """Plain partial sum of log(x_1(n) z(n)) over n = n_from..n_to, roots
    warm-started along the chain."""
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        total = mpmath.mpf(0)
        seed = None
        for n in range(n_from, n_to + 1):
            z = 1 / mpmath.expm1(n * s)
            lam = primary_root(k, z, digits, seed=seed)
            seed = lam
            total += mpmath.log(lam) - mpmath.log(mpmath.expm1(n * s))
        return total


def eigen_product_log(
    k: int,
    s,
    n_cut: int,
    digits: int = DEFAULT_DIGITS,
    start: int = 1,
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
        total = eigen_sum(k, s, start, n_cut, digits)
        tail = mpmath.mpf("4.08") * mpmath.exp(-k * s * (n_cut + 1)) / (
            1 - mpmath.exp(-k * s)
        ) + mpmath.mpf("1.5") * mpmath.exp(-s * (n_cut + 1)) / (1 - mpmath.exp(-s))
        return EigenProductResult(total, tail, n_cut)


def chain_trace(k: int, s, n_start: int, n_end: int, digits: int = DEFAULT_DIGITS) -> list:
    """Diagnostic rows (n, Re/Im of each root, T(n)^{1,1})."""
    rows = []
    prev = None
    for n, point in spectral_chain(k, s, n_start, n_end, digits):
        t11 = None
        if prev is not None:
            t11 = transition_matrix(prev, point, digits).entry11
            rows[-1] = rows[-1] + (t11,)
        row = (n,)
        for root in point.roots:
            row += (root.real, root.imag)
        rows.append(row)
        prev = point
    return rows
