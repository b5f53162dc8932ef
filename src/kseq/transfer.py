"""The transfer-matrix recursion for partitions without k-sequences.

The k x k matrix m(n) has first row all ones and subdiagonal z(n) with
z(n) = q^n / (1 - q^n); the product prod_{n=1..N} m(n) e_1 collects the
generating functions v_a(N) of no-k-sequence partitions with parts <= N
classified by their largest missing part (N - a).  Entry 0 converges to
G_k(q) as N grows.

Two evaluation modes are provided: ``formal`` (exact integer coefficient
vectors truncated at n_max, computed by the run-length recurrence
``series.run_length_states`` over sizes 1..N, which works on each entry's tail
from the first weight it can reach; the formal run-up sums multiply tails the
same way) and ``numeric`` (log-domain at
configurable precision; the state is rescaled by its first entry every step so
no intermediate ever overflows).  A completely independent enumeration over
run-shortening sequences reproduces the same vector and serves as an oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import mpmath
from mpmath import mpf

from .precision import DEFAULT_DIGITS, LogValue, working
from .series import TruncatedSeries, _add_tail, _mul_multiplicities, run_length_states

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


def m_matrix(n: int, s, k: int, digits: int = DEFAULT_DIGITS):
    """The k x k transfer matrix: ones across the first row, z(n) on the
    subdiagonal, zero elsewhere."""
    if k < 2:
        raise ValueError("k must be >= 2")
    z = z_of(n, s, digits)
    with working(digits):
        m = mpmath.matrix(k, k)
        for j in range(k):
            m[0, j] = mpmath.mpf(1)
        for i in range(1, k):
            m[i, i - 1] = z
        return m


@dataclass(frozen=True)
class StateVector:
    """v(N) = prod_{n<=N} m(n) e_1; entries indexed by residue a = 0..k-1."""

    k: int
    n_steps: int
    mode: str
    entries: tuple


class _NumericProduct:
    """Running numeric state (log v_0, ratios v_a / v_0).

    Keeping ratios plus one log magnitude is the per-step log-domain rescaling:
    ratios stay O(sqrt(z)) while magnitudes reach e^{+-10^4}.
    """

    def __init__(self, k: int, s):
        self.k = k
        self.s = mpmath.mpf(s)
        self.q = mpmath.exp(-self.s)
        self.qn = mpmath.mpf(1)
        self.log_v0 = mpmath.mpf(0)
        self.ratios = [mpmath.mpf(0)] * (k - 1)
        self.n = 0

    def step(self):
        self.n += 1
        self.qn *= self.q
        z = self.qn / (1 - self.qn)
        denom = 1 + mpmath.fsum(self.ratios)
        new_ratios = [z / denom]
        for u in self.ratios[:-1]:
            new_ratios.append(z * u / denom)
        self.ratios = new_ratios
        self.log_v0 += mpmath.log(denom)

    def entry_logs(self) -> list:
        out = [LogValue.from_log(self.log_v0)]
        for u in self.ratios:
            if u == 0:
                out.append(LogValue.ZERO)
            else:
                out.append(LogValue.from_log(self.log_v0 + mpmath.log(u)))
        return out

    def state_vector(self) -> StateVector:
        return StateVector(self.k, self.n, "numeric", tuple(self.entry_logs()))


def iterate_product(
    k: int,
    N: int,
    s=None,
    mode: str = "numeric",
    n_max: int | None = None,
    digits: int = DEFAULT_DIGITS,
) -> StateVector:
    """Apply m(N) ... m(1) to e_1.

    ``numeric`` mode needs s and returns LogValue entries; ``formal`` mode
    needs a truncation order and returns exact TruncatedSeries entries.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    if mode == "numeric":
        if s is None:
            raise ValueError("numeric mode requires s")
        with working(digits):
            state = _NumericProduct(k, s)
            for _ in range(N):
                state.step()
            return state.state_vector()
    if mode == "formal":
        if n_max is None:
            raise ValueError("formal mode requires n_max")
        if (n_max + 1) * k > FORMAL_NMAX_GUARD:
            raise MemoryError("formal mode truncation order too large")
        entries = run_length_states(k, n_max, range(1, N + 1))
        return StateVector(
            k, N, "formal",
            tuple(TruncatedSeries(tuple(e), n_max) for e in entries),
        )
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class GkEvalResult:
    """log G_k(e^{-s}) with the truncation level used and its tail bound."""

    value: LogValue
    n_used: int
    rel_bound: mpf


def log_unrestricted_gf(s, tol, digits: int = DEFAULT_DIGITS):
    """log G(e^{-s}) = -sum log(1 - q^n), truncated with a geometric tail
    bound below ``tol`` (relative).  Returns (log value, bound, N used)."""
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        q = mpmath.exp(-s)
        total = mpmath.mpf(0)
        qn = mpmath.mpf(1)
        n = 0
        while True:
            n += 1
            qn *= q
            total -= mpmath.log1p(-qn)
            if n % 32 == 0 or qn < 1e-6:
                tail = qn * q / ((1 - q) * (1 - qn * q))
                if tail < tol:
                    return total, tail, n
            if n > 10**7:
                raise ArithmeticError("tolerance unreachable for log G")


def gk_eval(k: int, s, tol=mpf("1e-12"), digits: int = DEFAULT_DIGITS) -> GkEvalResult:
    """Numeric log G_k(e^{-s}), with N grown until the rigorous tail bound
    G(q) (prod_{n>N} (1-q^n)^{-1} - 1) drops below ``tol`` relative."""
    if k < 2:
        raise ValueError("k must be >= 2")
    with working(digits):
        s = mpmath.mpf(s)
        tol = mpmath.mpf(tol)
        if s <= 0:
            raise ValueError("s must be positive")
        if tol <= 0:
            raise ValueError("tol must be positive")
        floor = mpmath.mpf(10) ** (-(digits - 5))
        if tol < floor:
            raise ArithmeticError(
                f"tol {mpmath.nstr(tol, 5)} below what {digits} digits can certify"
            )
        state = _NumericProduct(k, s)
        log_g = mpmath.mpf(0)  # running -sum log(1 - q^n)
        chunk = max(32, int(1 / s))
        n_cap = 10**7
        while True:
            for _ in range(chunk):
                state.step()
                log_g -= mpmath.log1p(-state.qn)
            # bound on sum_{n>N} -log(1-q^n)
            tail = state.qn * state.q / ((1 - state.q) * (1 - state.qn * state.q))
            if tail < 1:
                log_bound = (log_g + tail) + mpmath.log(mpmath.expm1(tail))
                rel = mpmath.exp(log_bound - state.log_v0)
                if rel < tol:
                    return GkEvalResult(
                        LogValue.from_log(state.log_v0), state.n, rel
                    )
            if state.n >= n_cap:
                raise ArithmeticError(
                    f"gk_eval did not meet tol={mpmath.nstr(tol, 5)} by N={state.n}"
                )


def convergence_trace(
    k: int, s, N: int, stride: int = 1, digits: int = DEFAULT_DIGITS
) -> list:
    """Rows (n, log v_0(n), ..., log v_{k-1}(n)) for convergence diagnostics."""
    with working(digits):
        state = _NumericProduct(k, s)
        rows = []
        for n in range(1, N + 1):
            state.step()
            if n % stride == 0 or n == N:
                logs = [
                    lv.log_mag if lv.sign != 0 else mpmath.mpf("-inf")
                    for lv in state.entry_logs()
                ]
                rows.append((n, *logs))
        return rows


# ---------------------------------------------------------------------------
# Run-up enumeration: v_a(N) as a sum over run-shortening sequences.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunupState:
    """One no-k-sequence configuration of part sizes in {1..N}.

    ``missing`` lists the absent sizes n_1 < ... < n_M; the shortenings t_j
    (how much each gap closes below the maximal spacing k) determine them via
    n_i = k*i - #{j : t_j <= i}.  ``ell`` = sum of shortenings, and the entry
    the configuration contributes to is a = (N + ell) mod k, the length of the
    run of present sizes above the last missing one.
    """

    k: int
    N: int
    ell: int
    t: tuple
    M: int
    missing: tuple
    a: int

    @staticmethod
    def from_shortenings(k: int, N: int, counts: tuple) -> "RunupState":
        """Build from (c_1..c_M), c_i = multiplicity of value i among the t_j."""
        ell = sum(counts)
        M = (N + ell) // k
        if len(counts) != M:
            raise ValueError("counts must have one entry per missing part")
        t = []
        missing = []
        seen = 0
        for i, c in enumerate(counts, start=1):
            if not 0 <= c <= k - 1:
                raise ValueError("shortenings at one gap must lie in 0..k-1")
            t.extend([i] * c)
            seen += c
            missing.append(k * i - seen)
        state = RunupState(k, N, ell, tuple(t), M, tuple(missing), (N + ell) % k)
        state.validate()
        return state

    def validate(self):
        prev = 0
        count_le = 0
        ti = 0
        for i, n_i in enumerate(self.missing, start=1):
            while ti < len(self.t) and self.t[ti] <= i:
                ti += 1
                count_le += 1
            if n_i != self.k * i - count_le:
                raise AssertionError("missing parts inconsistent with shortenings")
            if n_i <= prev:
                raise AssertionError("missing parts must increase")
            prev = n_i
        if self.ell > (self.k - 1) * self.N:
            raise AssertionError("total shortening exceeds (k-1)N")
        if self.missing and self.missing[-1] > self.N:
            raise AssertionError("missing part beyond N")


def runup_config_count(k: int, N: int) -> int:
    """Number of no-k-sequence subsets of {1..N} (k-step Fibonacci)."""
    # window[j] = subsets whose run of trailing consecutive elements has length j
    window = [1] + [0] * (k - 1)
    for _ in range(N):
        window = [sum(window)] + window[:-1]
    return sum(window)


def runup_states(k: int, N: int) -> Iterator[RunupState]:
    """All run-shortening configurations for parts in {1..N}, every entry a."""
    if k < 2 or N < 1:
        raise ValueError("need k >= 2 and N >= 1")
    for ell in range(0, (k - 1) * N + 1):
        M = (N + ell) // k
        if M == 0:
            if ell == 0:
                yield RunupState(k, N, 0, (), 0, (), N % k)
            continue
        for counts in _compositions(ell, M, k - 1):
            yield RunupState.from_shortenings(k, N, counts)


def _compositions(total: int, parts: int, cap: int) -> Iterator[tuple]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if total > parts * cap:
        return
    if parts == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for first in range(min(cap, total) + 1):
        for rest in _compositions(total - first, parts - 1, cap):
            yield (first,) + rest


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
            for state in runup_states(k, N):
                term = mpmath.mpf(1)
                for n_i in state.missing:
                    term /= z[n_i]
                sums[state.a] += term
            entries = []
            for total in sums:
                if total == 0:
                    entries.append(LogValue.ZERO)
                else:
                    entries.append(LogValue.from_log(log_prefix + mpmath.log(total)))
            return StateVector(k, N, "numeric", tuple(entries))
    if mode == "formal":
        if n_max is None:
            raise ValueError("formal mode requires n_max")
        acc = [[0] * (n_max + 1) for _ in range(k)]
        for state in runup_states(k, N):
            missing = set(state.missing)
            # prod_{n<=N} z(n) * prod_i z(n_i)^{-1} = prod over present sizes
            present = [n for n in range(1, N + 1) if n not in missing]
            if sum(present) > n_max:
                continue
            term = [1] + [0] * n_max
            for n in present:
                term = _mul_multiplicities(term, n, None)
            _add_tail(acc[state.a], term)
        return StateVector(
            k, N, "formal",
            tuple(TruncatedSeries(tuple(e), n_max) for e in acc),
        )
    raise ValueError(f"unknown mode {mode!r}")


def runup_oracle(
    k: int,
    N: int,
    a: int,
    s=None,
    mode: str = "numeric",
    n_max: int | None = None,
    digits: int = DEFAULT_DIGITS,
):
    """Entry a of the enumerated state vector (LogValue or TruncatedSeries)."""
    if not 0 <= a < k:
        raise ValueError("entry index a must lie in 0..k-1")
    return runup_vector(k, N, s=s, mode=mode, n_max=n_max, digits=digits).entries[a]


@dataclass(frozen=True)
class RunupAsymptotic:
    """Main term of the run-up vector entry and its predicted error scale."""

    value: LogValue
    predicted_error: mpf
    in_window: bool


def runup_asymptotic(
    k: int,
    s,
    N: int,
    a: int,
    digits: int = DEFAULT_DIGITS,
    window_multiplier: float = 8.0,
) -> RunupAsymptotic:
    """Closed-form main term for v_a(N):

        (sN)^{-a/k - N(k-1)/k} e^{N(k-1)/k} k^{-3/2} exp(s^{1/k} N^{(k+1)/k}/(k+1))

    (the exponential factor combines the e^N of prod z(n) with the e^{-N/k}
    from Stirling; the exact product pins the sign of the exponent), valid for
    k | N inside the window
    multiplier * s^{-1/(k+1)} log(1/s)^{k/(k+1)} < N < s^{-2/(k+2)}.
    Outside the window the value is still computed and flagged.
    """
    if N % k != 0:
        raise ValueError("the main term requires k | N")
    if not 0 <= a < k:
        raise ValueError("entry index a must lie in 0..k-1")
    with working(digits):
        s = mpmath.mpf(s)
        if not 0 < s < 1:
            raise ValueError("s must lie in (0, 1)")
        kk = mpmath.mpf(k)
        lo = window_multiplier * s ** (-1 / (kk + 1)) * mpmath.log(1 / s) ** (kk / (kk + 1))
        hi = s ** (-2 / (kk + 2))
        in_window = bool(lo < N < hi)
        log_main = (
            (-mpmath.mpf(a) / k - mpmath.mpf(N) * (k - 1) / k) * mpmath.log(s * N)
            + mpmath.mpf(N) * (k - 1) / k
            - mpmath.mpf(3) / 2 * mpmath.log(kk)
            + s ** (mpmath.mpf(1) / k) * mpmath.mpf(N) ** ((kk + 1) / k) / (k + 1)
        )
        err = s * N**2 + s ** (mpmath.mpf(2) / k) * mpmath.mpf(N) ** ((kk + 2) / k)
        return RunupAsymptotic(LogValue.from_log(log_main), err, in_window)
