"""The independent-events model behind the partition asymptotics.

Events C_1, C_2, ... occur independently with P_s(C_n) = 1 - e^{-ns}; A_k is
the event that no k consecutive C_i all fail.  P_s(A_k) equals the ratio
G_k(q)/G(q) of generating functions at q = e^{-s}, which gives the exact
route; a truncated Monte Carlo simulator provides the statistical cross-check.
"""
from __future__ import annotations

import math

import mpmath
from mpmath import mpf

from .precision import DEFAULT_DIGITS, record, working
from .transfer import gk_eval, log_unrestricted_gf

TRUNCATION_CAP = 10**6
SEED_LIMIT = 2**128


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


def truncation_index(k: int, s: float, eps: float) -> int:
    """Smallest N with sum_{i>N} prod_{j<k} e^{-(i+j)s} < eps (geometric)."""
    # tail of windows starting at i >= N is e^{-ksN - sk(k-1)/2} / (1 - e^{-ks})
    num = math.log(1 / (eps * (1 - math.exp(-k * s)))) - s * k * (k - 1) / 2
    n = max(1, math.ceil(num / (k * s)))
    while _window_tail(k, s, n - 1) >= eps:
        n += 1
        if n > TRUNCATION_CAP:
            raise ValueError("truncation budget unattainable below the index cap")
    while n > 1 and _window_tail(k, s, n - 2) < eps:
        n -= 1
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
    chunk_rows = max(1, min(1 << 16, params.trials))
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
    est = successes / params.trials
    stderr = math.sqrt(max(est * (1 - est), 1e-300) / params.trials)
    return SimulationResult(
        est, stderr, _window_tail(k, s, n_win), n_win, params.trials, params.seed
    )


@record
class ExactProbability:
    value: mpf
    rel_bound: mpf
    log_gk: mpf
    log_g: mpf
    n_used: int


def exact_prob(k: int, s, tol=mpf("1e-10"), digits: int = DEFAULT_DIGITS) -> ExactProbability:
    """P_s(A_k) = G_k(q)/G(q) with a combined relative error bound <= tol."""
    with working(digits):
        s = mpmath.mpf(s)
        tol = mpmath.mpf(tol)
        if not 0 < s < 1:
            raise ValueError("the probability model needs s in (0, 1)")
        gk = gk_eval(k, s, tol / 3, digits)
        log_g, g_tail, _ = log_unrestricted_gf(s, tol / 3, digits)
        value = mpmath.exp(gk.value.log() - log_g)
        bound = gk.rel_bound + g_tail
        if bound > tol:
            raise ArithmeticError(
                f"combined bound {mpmath.nstr(bound, 3)} exceeds tol"
            )
        if not 0 < value < 1:
            raise ArithmeticError("probability escaped (0, 1): inconsistent inputs")
        return ExactProbability(value, bound, gk.value.log(), log_g, gk.n_used)


def simulation_report(params: ModelParams, tol=mpf("1e-10"), digits: int = DEFAULT_DIGITS) -> dict:
    """JSON-ready record comparing the simulator against the exact ratio."""
    sim = simulate(params)
    exact = exact_prob(params.k, params.s, tol, digits)
    sigma_distance = abs(sim.estimate - float(exact.value)) / sim.stderr
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
        "sigma_distance": sigma_distance,
    }
    return record
