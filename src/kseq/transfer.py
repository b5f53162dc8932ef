"""The transfer-matrix recursion for partitions without k-sequences.

The k x k matrix m(n) has first row all ones and subdiagonal z(n) with
z(n) = q^n / (1 - q^n); the product prod_{n=1..N} m(n) e_1 collects the
generating functions v_a(N) of no-k-sequence partitions with parts <= N
classified by their largest missing part (N - a).  Entry 0 converges to
G_k(q) as N grows.

Two evaluation modes are provided: ``formal`` (exact integer coefficient
vectors truncated at n_max, computed by the run-length recurrence
``series.run_length_states`` over sizes 1..N on one packed big integer per
entry) and ``numeric`` (log-domain at configurable precision; the state is
rescaled by its first entry every step so no intermediate ever overflows).  A
completely independent enumeration reproduces the same vector as its oracle:
``runup_states`` yields the missing sizes of each no-k-sequence configuration
of sizes 1..N, which adds prod z(n) over its present sizes n to its entry.
Its formal mode forms that product on coefficient lists with its own kernel
(``_mul_multiplicities``, one factor q^n/(1-q^n) a call), not the packed one.
"""
from __future__ import annotations

from itertools import accumulate, islice
from operator import add
from typing import Iterator

import mpmath
from mpmath import mpf

from .precision import DEFAULT_DIGITS, LogValue, record, working
from .series import TruncatedSeries, run_length_states, unpack

# bounds the k packed formal states, about (n_max + 1) * slot width bits each
FORMAL_NMAX_GUARD = 10**6
RUNUP_CONFIG_GUARD = 10**7


def z_of(n: int, s, digits: int = DEFAULT_DIGITS) -> mpf:
    """z(n) = q^n / (1 - q^n) = 1 / (e^{ns} - 1) at q = e^{-s}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        return 1 / mpmath.expm1(n * s)


@record
class StateVector:
    """v(N) = prod_{n<=N} m(n) e_1; entries indexed by residue a = 0..k-1.

    In ``numeric`` mode each entry is log v_a(N), a plain mpf natural log, and
    -inf for a zero entry; in ``formal`` mode it is a TruncatedSeries.
    """

    k: int
    n_steps: int
    mode: str
    entries: tuple


def _product_steps(k: int, s) -> Iterator[tuple]:
    """The numeric product, one step per item: after step n it yields
    (q^n, log v_0(n), [v_a(n) / v_0(n) for a = 1..k-1]).

    Keeping ratios plus one log is the per-step log-domain rescaling: ratios
    stay O(sqrt(z)) while v_0 reaches e^{+-10^4}.  Runs at the precision of
    the context that advances it.
    """
    q = mpmath.exp(-mpmath.mpf(s))
    qn = mpmath.mpf(1)
    log_v0 = mpmath.mpf(0)
    ratios = [mpmath.mpf(0)] * (k - 1)
    while True:
        qn *= q
        z = qn / (1 - qn)
        denom = 1 + mpmath.fsum(ratios)
        ratios = [z / denom] + [z * u / denom for u in ratios[:-1]]
        log_v0 += mpmath.log(denom)
        yield qn, log_v0, ratios


def _entry_logs(log_v0, ratios) -> tuple:
    """(log v_0, ..., log v_{k-1}) from one step of ``_product_steps``; a zero
    ratio gives -inf."""
    return (log_v0, *(log_v0 + mpmath.log(u) for u in ratios))


def iterate_product(
    k: int,
    N: int,
    s=None,
    mode: str = "numeric",
    n_max: int | None = None,
    digits: int = DEFAULT_DIGITS,
) -> StateVector:
    """Apply m(N) ... m(1) to e_1.

    ``numeric`` mode needs s and returns entries as plain mpf natural logs,
    -inf for a zero entry; ``formal`` mode needs a truncation order and
    returns exact TruncatedSeries entries.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    if mode == "numeric":
        if s is None:
            raise ValueError("numeric mode requires s")
        with working(digits):
            _, log_v0, ratios = next(islice(_product_steps(k, s), N - 1, None))
            return StateVector(k, N, "numeric", _entry_logs(log_v0, ratios))
    if mode == "formal":
        if n_max is None:
            raise ValueError("formal mode requires n_max")
        if (n_max + 1) * k > FORMAL_NMAX_GUARD:
            raise MemoryError("formal mode truncation order too large")
        entries = run_length_states(k, n_max, range(1, N + 1))
        return StateVector(
            k, N, "formal",
            tuple(TruncatedSeries(unpack(e, n_max), n_max) for e in entries),
        )
    raise ValueError(f"unknown mode {mode!r}")


@record
class GkEvalResult:
    """log G_k(e^{-s}) with the truncation level used and its tail bound."""

    value: LogValue
    n_used: int
    rel_bound: mpf


_N_CAP = 10**7  # steps allowed to gk_eval, and so to exact_prob, which reads its N


def _log_g_tail(q, qm) -> mpf:
    """Bound on sum_{n>=M} -log(1 - q^n) at qm = q^M: each term is at most
    q^n / (1 - q^M), and the geometric sum gives q^M / ((1-q)(1-q^M))."""
    return qm / ((1 - q) * (1 - qm))


def _reaches(s, tol) -> bool:
    """Whether gk_eval's bound at its step cap lies below tol at q = e^{-s}
    (s and tol mpf at the caller's precision); gk_eval refuses where not."""
    return mpmath.expm1(_log_g_tail(mpmath.exp(-s), mpmath.exp(-_N_CAP * s))) < tol


def _tol_floor(digits: int) -> mpf:
    """10^-(digits-5) at the caller's precision: gk_eval certifies no tol below it."""
    return mpmath.mpf(10) ** (-(digits - 5))


def gk_eval(k: int, s, tol=mpf("1e-12"), digits: int = DEFAULT_DIGITS) -> GkEvalResult:
    """Numeric log G_k(e^{-s}) = log v_0(N), with N grown until the proven
    bound G_k/v_0(N) - 1 <= expm1(q^N / ((1-q)(1-q^N))) drops below ``tol``;
    ``rel_bound`` is that bound at the N used."""
    if k < 2:
        raise ValueError("k must be >= 2")
    with working(digits):
        s = mpmath.mpf(s)
        tol = mpmath.mpf(tol)
        if s <= 0:
            raise ValueError("s must be positive")
        if tol <= 0:
            raise ValueError("tol must be positive")
        if tol < _tol_floor(digits):
            raise ArithmeticError(
                f"tol {mpmath.nstr(tol, 5)} below what {digits} digits can certify"
            )
        if not _reaches(s, tol):
            raise ArithmeticError(
                f"gk_eval cannot meet tol={mpmath.nstr(tol, 5)} by N={_N_CAP}"
            )
        # A partition in A_k splits injectively into its parts < N, again in
        # A_k and counted by v_0(N), and a partition into parts >= N.  So
        # G_k/v_0(N) - 1 <= prod_{n>=N} (1-q^n)^{-1} - 1, whose log is the
        # tail of log G from M = N, bounded at qn = q^N by _log_g_tail.
        q = mpmath.exp(-s)
        chunk = max(32, int(1 / s))
        for n, (qn, log_v0, _) in enumerate(_product_steps(k, s), start=1):
            if n % chunk == 0:
                rel = mpmath.expm1(_log_g_tail(q, qn))
                if rel < tol:
                    return GkEvalResult(LogValue(log_v0), n, rel)


def convergence_trace(k: int, s, N: int, digits: int = DEFAULT_DIGITS) -> list:
    """Rows (n, log v_0(n), ..., log v_{k-1}(n)) for n = 1..N, for convergence
    diagnostics."""
    with working(digits):
        steps = zip(range(1, N + 1), _product_steps(k, s))
        return [(n, *_entry_logs(log_v0, ratios)) for n, (_, log_v0, ratios) in steps]


# ---------------------------------------------------------------------------
# Run-up enumeration: v_a(N) as a sum over run-shortening sequences.
# ---------------------------------------------------------------------------


def runup_config_count(k: int, N: int) -> int:
    """Number of no-k-sequence subsets of {1..N} (k-step Fibonacci)."""
    # window[j] = subsets whose run of trailing consecutive elements has length j
    window = [1] + [0] * (k - 1)
    for _ in range(N):
        window = [sum(window)] + window[:-1]
    return sum(window)


def runup_states(k: int, N: int) -> Iterator[tuple]:
    """Every no-k-sequence configuration of part sizes in {1..N}, as the pair
    (missing sizes n_1 < ... < n_M, entry a).

    A configuration with ell = c_1 + ... + c_M has M = (N + ell) // k missing
    sizes and is fixed by its shortenings c_i in 0..k-1, how much gap i
    closes below the maximal spacing k: n_i = k*i - (c_1 + ... + c_i).  It
    feeds entry a = N - n_M (a = N when nothing is missing), the length of
    the run of present sizes above the last missing one.  Ordered by ell,
    then by (c_1..c_M) lexicographically.
    """
    if k < 2 or N < 1:
        raise ValueError("need k >= 2 and N >= 1")
    for ell in range(0, (k - 1) * N + 1):
        for counts in _compositions(ell, (N + ell) // k, k - 1):
            missing = tuple(k * i - c for i, c in enumerate(accumulate(counts), start=1))
            yield missing, N - missing[-1] if missing else N


def _compositions(total: int, parts: int, cap: int) -> Iterator[tuple]:
    # tuples of `parts` entries in 0..cap summing to total, lexicographically;
    # `first` starts where the rest can still make up total
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(max(0, total - (parts - 1) * cap), min(cap, total) + 1):
        for rest in _compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def _add_tail(acc: list, tail: list) -> None:
    # acc += tail in place, where tail holds the last len(tail) coefficients
    lo = len(acc) - len(tail)
    acc[lo:] = map(add, acc[lo:], tail)


def _mul_multiplicities(tail: list, m: int) -> list:
    # tail * q^m/(1-q^m), every way to use size m at least once.  Input and
    # product are tails ending at n_max: a tail starting at weight lo gives a
    # product starting at lo + m, so m entries shorter.  Block j of the
    # product tail (entries j*m .. j*m+m-1) is the running zip-sum of blocks
    # 0..j of the input tail.
    n = len(tail) - m
    if n <= 0:
        return []
    out = tail[:n]
    for start in range(m, n, m):
        out[start:start + m] = map(add, out[start - m:start], out[start:start + m])
    return out


def runup_vector(
    k: int,
    N: int,
    s=None,
    mode: str = "numeric",
    n_max: int | None = None,
    digits: int = DEFAULT_DIGITS,
) -> StateVector:
    """v(N) computed by explicit enumeration over shortening sequences.

    Independent of the matrix product; used as its oracle.  Refuses when the
    configuration count exceeds the guard.
    """
    count = runup_config_count(k, N)
    if count > RUNUP_CONFIG_GUARD:
        raise ValueError(
            f"run-up enumeration needs {count} configurations (> {RUNUP_CONFIG_GUARD})"
        )
    if mode == "numeric":
        if s is None:
            raise ValueError("numeric mode requires s")
        with working(digits):
            s = mpmath.mpf(s)
            z = [mpmath.mpf(0)] * (N + 1)
            log_prefix = mpmath.mpf(0)
            for n in range(1, N + 1):
                z[n] = 1 / mpmath.expm1(n * s)
                log_prefix += mpmath.log(z[n])
            sums = [mpmath.mpf(0)] * k
            for missing, a in runup_states(k, N):
                term = mpmath.mpf(1)
                for n_i in missing:
                    term /= z[n_i]
                sums[a] += term
            # log 0 = -inf for an entry no configuration reaches
            entries = tuple(log_prefix + mpmath.log(total) for total in sums)
            return StateVector(k, N, "numeric", entries)
    if mode == "formal":
        if n_max is None:
            raise ValueError("formal mode requires n_max")
        acc = [[0] * (n_max + 1) for _ in range(k)]
        for missing, a in runup_states(k, N):
            # prod_{n<=N} z(n) * prod_i z(n_i)^{-1} = prod over present sizes
            present = [n for n in range(1, N + 1) if n not in missing]
            if sum(present) > n_max:
                continue
            term = [1] + [0] * n_max
            for n in present:
                term = _mul_multiplicities(term, n)
            _add_tail(acc[a], term)
        return StateVector(
            k, N, "formal",
            tuple(TruncatedSeries(tuple(e), n_max) for e in acc),
        )
    raise ValueError(f"unknown mode {mode!r}")
