"""Truncated formal power series in q with exact integer coefficients.

This is the shared exact layer: generating functions are carried as plain
big-integer coefficient vectors up to an explicit truncation order, so identity
checks are bit-exact.  Evaluation at q = e^(-s) converts to mpmath floats at
the boundary and reports a truncation-tail estimate.

Series are immutable; every operation returns a fresh object.  The module
also holds the one run-length recurrence (``run_length_states``) that both the
constrained-count DP and the formal transfer-matrix product are built on.  It
carries each state as a tail, the coefficients from the first weight the state
can reach up to n_max, so a multiply by q^m + ... + q^{rm} writes only the
entries from that weight plus m on.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub
from typing import Iterable

import mpmath

from .precision import DEFAULT_DIGITS, working


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients of 1, q, ..., q^n_max as exact integers."""

    coeffs: tuple
    n_max: int

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if len(self.coeffs) != self.n_max + 1:
            raise ValueError("coeffs length must be n_max + 1")
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def _check_match(self, other: "TruncatedSeries"):
        if self.n_max != other.n_max:
            raise ValueError(
                f"truncation orders differ: {self.n_max} != {other.n_max}"
            )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Convolution truncated at n_max, exact integer arithmetic."""
        self._check_match(other)
        n = self.n_max
        out = [0] * (n + 1)
        b = other.coeffs
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += a * bj
        return TruncatedSeries(tuple(out), n)


def run_length_states(k: int, n_max: int, sizes: Iterable[int], r: int | None = None) -> list:
    """The run-length recurrence behind A_k, over the part sizes in ``sizes``.

    Returns k coefficient lists (weights 0..n_max): entry j counts the
    partitions into the sizes processed so far, each used at most r times
    (r=None: unbounded), in which no k consecutive sizes all occur and the run
    of consecutive sizes present up to the last one processed has length j.
    A size is either skipped (the run resets to 0) or used (the run grows by
    one, and reaching k is forbidden).  Over sizes 1..N this is the formal
    transfer-matrix product prod m(n) e_1, whose subdiagonal z(n) multiplies
    by q^n/(1-q^n).

    Inside the loop each state is carried as its tail: the list of its
    coefficients from the first weight that can be nonzero up to n_max, so
    its length says where it starts.  State 0 holds the empty partition and
    is always full length; using size m moves a state's start up by m, so
    over consecutive sizes state j >= 1 after size m starts at weight
    m + (m-1) + ... + (m-j+1), and is empty once that passes n_max.
    """
    states = [[1] + [0] * n_max] + [[] for _ in range(k - 1)]
    for m in sizes:
        used = [_mul_multiplicities(tail, m, r) for tail in states[:-1]]
        skipped = states[0]
        for tail in states[1:]:
            _add_tail(skipped, tail)
        states = [skipped] + used
    return [[0] * (n_max + 1 - len(tail)) + tail for tail in states]


def _add_tail(acc: list, tail: list) -> None:
    # acc += tail in place, where tail holds the last len(tail) coefficients
    lo = len(acc) - len(tail)
    acc[lo:] = map(add, acc[lo:], tail)


def _mul_multiplicities(tail: list, m: int, r: int | None) -> list:
    # tail * (q^m + q^{2m} + ... + q^{rm}), every way to use size m; r=None
    # is tail * q^m/(1-q^m).  Input and product are tails ending at n_max: a
    # tail starting at weight lo gives a product starting at lo + m, so m
    # entries shorter.  Block j of the product tail (entries j*m .. j*m+m-1)
    # is the running zip-sum of blocks 0..j of the input tail.
    n = len(tail) - m
    if n <= 0:
        return []
    out = tail[:n]
    for start in range(m, n, m):
        out[start:start + m] = map(add, out[start - m:start], out[start:start + m])
    if r is not None and r * m < n:
        cut = r * m
        out[cut:] = map(sub, out[cut:], out[: n - cut])
    return out


def product_form(
    factors: Iterable[tuple], n_max: int
) -> TruncatedSeries:
    """Expand prod_{n>=1} (1 - q^{a n + b})^e exactly, truncated at n_max.

    ``factors`` is an iterable of (period a, residue b, exponent e) with
    a >= 1 and e in {-1, +1}.  Only indices with a*n + b <= n_max contribute.
    The empty list gives the constant series 1.
    """
    out = [0] * (n_max + 1)
    out[0] = 1
    for a, b, e in factors:
        if a < 1:
            raise ValueError(f"period must be >= 1, got {a}")
        if e not in (-1, 1):
            raise ValueError(f"exponent must be -1 or +1, got {e}")
        n = 1
        while True:
            m = a * n + b
            if m > n_max:
                break
            if m < 1:
                raise ValueError(f"factor ({a}, {b}, {e}) hits exponent {m} < 1")
            if e == -1:
                for i in range(m, n_max + 1):
                    out[i] += out[i - m]
            else:
                for i in range(n_max, m - 1, -1):
                    out[i] -= out[i - m]
            n += 1
    return TruncatedSeries(tuple(out), n_max)


@dataclass(frozen=True)
class EvalResult:
    """Value of a truncated series at q = e^(-s) plus a tail estimate.

    ``tail_bound`` estimates |sum_{n > n_max} c_n q^n| from the growth of the
    last retained coefficients; ``within_tol`` records whether it met the
    caller's tolerance (None when no tolerance was requested or the growth
    ratio made the geometric estimate diverge).
    """

    value: mpmath.mpf
    tail_bound: mpmath.mpf
    within_tol: bool | None


def eval_at(
    series: TruncatedSeries,
    s,
    digits: int = DEFAULT_DIGITS,
    tol=None,
) -> EvalResult:
    """Evaluate sum_n c_n e^(-n s) for s > 0 by Horner's rule."""
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        q = mpmath.exp(-s)
        acc = mpmath.mpf(0)
        for c in reversed(series.coeffs):
            acc = acc * q + c
        tail = _tail_estimate(series, q)
        ok = None if tol is None else bool(tail <= mpmath.mpf(tol))
        return EvalResult(acc, tail, ok)


def _tail_estimate(series: TruncatedSeries, q) -> mpmath.mpf:
    # Geometric continuation of the coefficient growth seen near the cutoff:
    # |tail| <= |c_last| * rho * q^{n_max+1} / (1 - rho q), rho the largest
    # recent ratio of consecutive nonzero coefficients.
    coeffs = series.coeffs
    nz = [(i, abs(c)) for i, c in enumerate(coeffs) if c != 0]
    if not nz:
        return mpmath.mpf(0)
    last_i, last_c = nz[-1]
    rho = mpmath.mpf(1)
    window = nz[-8:]
    for (i0, c0), (i1, c1) in zip(window, window[1:]):
        r = (mpmath.mpf(c1) / c0) ** (mpmath.mpf(1) / (i1 - i0))
        rho = max(rho, r)
    growth = rho * q
    lead = mpmath.mpf(last_c) * rho ** (series.n_max + 1 - last_i) * q ** (series.n_max + 1)
    if growth >= 1:
        return mpmath.mpf("inf")
    return lead / (1 - growth)
