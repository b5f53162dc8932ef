"""The independent-events model behind the partition asymptotics.

Events C_1, C_2, ... occur independently with P_s(C_n) = 1 - e^{-ns}; A_k is
the event that no k consecutive C_i all fail.  At q = e^{-s}, P_s(A_k) =
(q;q)_inf G_k(q) = G_k(q)/G(q).  The exact route reads it off one run of the
numeric transfer product: after N steps, v_0(N) (q;q)_{N-1} is the chance
that no k consecutive events among C_1..C_{N-1} all fail, and the truncation
bound of ``transfer.gk_eval`` bounds its distance to P_s(A_k).  A truncated
Monte Carlo simulator provides the statistical cross-check.
"""
from __future__ import annotations

import math

import mpmath
from mpmath import mpf

from .precision import DEFAULT_DIGITS, record, working
from .transfer import gk_eval

TRUNCATION_CAP = 10**6
SEED_LIMIT = 2**128
# cells (trials x truncation width) drawn per chunk: 128 MiB of doubles and
# 16 MiB of flags
_CHUNK_CELLS = 1 << 24


@record
class ModelParams:
    """Simulation configuration; trunc_eps is the tail probability budget
    spent on ignoring failure windows beyond the truncation index."""

    k: int
    s: float
    trials: int
    seed: int
    trunc_eps: float = 1e-4

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not 0 < self.s < 1:
            raise ValueError("s must lie in (0, 1)")
        if self.trials < 10**3:
            raise ValueError("trials must be >= 1000")
        if not 0 < self.trunc_eps <= 1e-3:
            raise ValueError("trunc_eps must lie in (0, 1e-3]")
        if not 0 <= self.seed < SEED_LIMIT:  # Philox takes keys below 2**128
            raise ValueError("seed must lie in [0, 2**128)")
        # truncation_index raises above its cap; simulate draws C_1..C_width
        width = truncation_index(self.k, self.s, self.trunc_eps) + self.k - 1
        if width > TRUNCATION_CAP:
            raise ValueError(
                f"k = {self.k} needs truncation width {width}, above the cap {TRUNCATION_CAP}")


def truncation_index(k: int, s: float, eps: float) -> int:
    """Smallest N with sum_{i>N} prod_{j<k} e^{-(i+j)s} < eps (geometric);
    ValueError when N lies above TRUNCATION_CAP."""
    # tail of windows starting at i >= N is e^{-ksN - sk(k-1)/2} / (1 - e^{-ks})
    if math.exp(-k * s) == 1:  # then N, about log(1/(eps k s)) / (k s), is past 10^16
        raise ValueError(f"s = {s} needs a truncation index above the cap {TRUNCATION_CAP} "
                         f"for trunc_eps = {eps}")
    num = math.log(1 / (eps * (1 - math.exp(-k * s)))) - s * k * (k - 1) / 2
    n = max(1, math.ceil(num / (k * s)))
    while _window_tail(k, s, n - 1) >= eps:
        n += 1
    while n > 1 and _window_tail(k, s, n - 2) < eps:
        n -= 1
    if n > TRUNCATION_CAP:
        raise ValueError(
            f"s = {s} needs truncation index {n} for trunc_eps = {eps}, "
            f"above the cap {TRUNCATION_CAP}")
    return n


def _window_tail(k: int, s: float, n: int) -> float:
    return math.exp(-k * s * (n + 1) - s * k * (k - 1) / 2) / (1 - math.exp(-k * s))


@record
class SimulationResult:
    estimate: float
    stderr: float
    bias_bound: float
    truncation_index: int
    trials: int
    seed: int

    def against(self, exact: float) -> tuple:
        """The simulator's pass rule as (gap, budget, passed): the estimate
        passes within budget = 3 stderr + bias_bound of the exact value."""
        gap = abs(self.estimate - exact)
        budget = 3 * self.stderr + self.bias_bound
        return gap, budget, gap <= budget


def simulate(params: ModelParams) -> SimulationResult:
    """Monte Carlo estimate of P_s(A_k) over failure windows starting at
    i <= N, N the truncation index for the configured budget.

    Randomness comes from a counter-based generator (Philox) keyed by the
    seed, drawn in a fixed chunk layout, so a given seed reproduces the
    estimate bit for bit regardless of platform scheduling.
    """
    # imported here: at module level it adds about 90 ms and 12 MB to every
    # kseq command's start-up
    import numpy as np

    k, s = params.k, params.s
    n_win = truncation_index(k, s, params.trunc_eps)
    width = n_win + k - 1
    fail_probs = np.exp(-s * np.arange(1, width + 1))
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    remaining = params.trials
    successes = 0
    # Philox fills each chunk row by row, so the chunk size leaves every
    # trial's draws unchanged
    chunk_rows = max(1, min(1 << 16, params.trials, _CHUNK_CELLS // width))
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        u = rng.random((rows, width))
        fails = u < fail_probs
        run = np.zeros(rows, dtype=np.int32)
        ok = np.ones(rows, dtype=bool)
        for col in range(width):
            run = (run + 1) * fails[:, col]
            if col >= k - 1:
                ok &= run < k
        successes += int(ok.sum())
        remaining -= rows
    n = params.trials
    est = successes / n
    # when every trial agrees (est 0 or 1) the sample variance is 0; the
    # variance with one trial of n differing stands in for it
    p = min(max(est, 1 / n), 1 - 1 / n)
    stderr = math.sqrt(p * (1 - p) / n)
    return SimulationResult(
        est, stderr, _window_tail(k, s, n_win), n_win, n, params.seed
    )


@record
class ExactProbability:
    value: mpf
    rel_bound: mpf
    log_gk: mpf
    log_g: mpf
    n_used: int


def exact_prob(k: int, s, tol=mpf("1e-10"), digits: int = DEFAULT_DIGITS) -> ExactProbability:
    """P_s(A_k) with relative error bound ``rel_bound`` < tol.

    With N = n_used of ``gk_eval(k, s, tol)``, value = v_0(N) (q;q)_{N-1},
    the chance that no k consecutive events among C_1..C_{N-1} all fail, and
    ``log_g`` = -log (q;q)_{N-1}.  Then
    - P_s(A_k) <= value, because value has fewer constraints;
    - value (q^N;q)_inf <= P_s(A_k), because when every C_n with n >= N
      occurs, no run of failures can straddle N.
    So 0 <= value/P_s(A_k) - 1 <= 1/(q^N;q)_inf - 1, which is at most the
    ``rel_bound`` that gk_eval reports at N.
    """
    with working(digits):
        s = mpmath.mpf(s)
        if not 0 < s < 1:
            raise ValueError("the probability model needs s in (0, 1)")
        gk = gk_eval(k, s, tol, digits)
        q = mpmath.exp(-s)
        qn = mpmath.mpf(1)
        survive = mpmath.mpf(1)  # (q;q)_{N-1}, every C_n with n < N occurs
        for _ in range(gk.n_used - 1):
            qn *= q
            survive *= 1 - qn
        log_gk, log_g = gk.value.log(), -mpmath.log(survive)
        return ExactProbability(
            mpmath.exp(log_gk - log_g), gk.rel_bound, log_gk, log_g, gk.n_used)


def simulation_report(params: ModelParams, tol=mpf("1e-10"), digits: int = DEFAULT_DIGITS) -> dict:
    """JSON-ready record comparing the simulator against the exact ratio."""
    sim = simulate(params)
    exact = exact_prob(params.k, params.s, tol, digits)
    gap, _, within = sim.against(float(exact.value))
    record = {
        "k": params.k,
        "s": params.s,
        "trials": params.trials,
        "seed": params.seed,
        "N": sim.truncation_index,
        "estimate": sim.estimate,
        "stderr": sim.stderr,
        "bias_bound": sim.bias_bound,
        "exact": float(exact.value),
        "sigma_distance": gap / sim.stderr,
        "within_3sigma_plus_bias": within,
    }
    return record
