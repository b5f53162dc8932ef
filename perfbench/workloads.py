"""Seeded workloads: task generators, the calls into ``kseq``, and the check
of every result against its independent route.

Each entry of :data:`WORKLOADS` is a pair of functions.  ``plan`` turns the
seed into a list of task parameters; the library only ever sees those
parameters.  ``run`` executes one task and raises :class:`CheckFailed` when
the result disagrees with its independent route.  It returns the task's
result values, which feed the result digest, and adds the size of the
artifacts it reads to ``computed``.

Parameters are drawn by stratified sampling: the range of a continuous
parameter is cut into equal strata (in log scale for ``s``) and each stratum
gets an antithetic pair of draws (offsets u and 1 - u).  Every draw is still
log-uniform over the range, but the total work of a pass hardly depends on
the seed, so run-to-run spread measures the code rather than the draw.
Discrete parameters (k, r, B, digits) follow a fixed balanced design so that
each pass covers every combination in the same proportions.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
from collections import Counter
from contextlib import redirect_stdout

import mpmath
from mpmath import mpf

from kseq import asymptotics, cli, counting, identities, probability, series, spectral, transfer
from kseq.precision import working


class CheckFailed(AssertionError):
    """A result disagreed with its independent route."""


def _stratified(rng, lo: float, hi: float, strata: int) -> list:
    """Antithetic pairs of log-uniform draws, one pair per stratum."""
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / strata
    out = []
    for i in range(strata):
        u = rng.random()
        out.append(math.exp(a + (i + u) * width))
        out.append(math.exp(a + (i + 1 - u) * width))
    return out


def _nstr(x) -> str:
    return mpmath.nstr(x, 30)


def _table_digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# spectral_chain: warm-started root chains and transition products
# ---------------------------------------------------------------------------

SPECTRAL_DIGITS = 50
SPECTRAL_TOL = mpf("1e-12")
SPECTRAL_S_RANGE = (0.02, 0.2)
SPECTRAL_STRATA = 10
# roots per task: a warm-started SEGMENT of the chain n = 1..eigen_cut_for,
# summed by eigen_sum (the kernel of eigen_product_log) and placed by a
# stratified draw, so that a pass covers small n (z(n) >= 1) and the tail
# (z(n) tiny) in the proportions whole chains have; a whole chain, 150 to 1700
# roots, would make a pass far too long to repeat
SEGMENT = 24
TRANSITION_STEPS = 6


def plan_spectral_chain(rng, seed: int) -> list:
    # segment position as a fraction of the chain: the strata of [0, 1) are
    # dealt out to the s strata, an antithetic pair for each, so that each k
    # gets one position in every stratum
    order = list(range(SPECTRAL_STRATA))
    rng.shuffle(order)
    positions = []
    for j in order:
        u = rng.random()
        positions += [(j + u) / SPECTRAL_STRATA, (j + 1 - u) / SPECTRAL_STRATA]
    tasks = []
    for i, s in enumerate(_stratified(rng, *SPECTRAL_S_RANGE, SPECTRAL_STRATA)):
        k = 2 + (i + (i // 2)) % 2  # each stratum holds one k = 2 and one k = 3 task
        n_transition = rng.randint(2, math.ceil(1.2 / s))
        tasks.append({
            "k": k,
            "s": s,
            "position": positions[i],
            "n_pairing": rng.randint(1, math.ceil(2 / s)),
            "n_transition": n_transition,
            "n_validate": rng.randint(n_transition, n_transition + TRANSITION_STEPS - 1),
        })
    return tasks


def run_spectral_chain(task: dict, computed: Counter, out_dir: str) -> dict:
    k, s, d = task["k"], task["s"], SPECTRAL_DIGITS
    cut = spectral.eigen_cut_for(k, s, SPECTRAL_TOL, d)
    start = 1 + int(task["position"] * (cut - SEGMENT + 1))
    segment = spectral.eigen_sum(k, s, start, start + SEGMENT - 1, d)
    # the segment against the f_k route: log(x_1 z) = log f_k(y) - log(1 - y)
    with working(d):
        ys = [mpmath.exp(-n * mpf(s)) for n in range(start, start + SEGMENT)]
        expected = mpmath.fsum(mpmath.log(asymptotics.f_k(y, k, d)) - mpmath.log1p(-y) for y in ys)
        gap = abs(segment - expected)
        if not gap <= mpf(10) ** (30 - d) * SEGMENT * max(1, abs(expected)):
            raise CheckFailed(f"eigen segment off the f_k route by {_nstr(gap)} at n={start}")
    # the certified tail beyond the cut (a one-term product ending at the cut)
    eigen = spectral.eigen_product_log(k, s, cut, d, start=cut)
    if not eigen.tail_bound < SPECTRAL_TOL:
        raise CheckFailed(f"eigen tail bound {_nstr(eigen.tail_bound)} >= tol")

    n0 = task["n_transition"]
    tail = spectral.transition_tail_product(k, s, n0, n0 + TRANSITION_STEPS, d)

    # c06 pairing: f_k(e^{-ns}) = x_1(n) e^{-ns}
    n = task["n_pairing"]
    with working(d):
        y = mpmath.exp(-n * mpmath.mpf(s))
        lhs = asymptotics.f_k(y, k, d)
        lam = spectral.primary_root(k, transfer.z_of(n, s, d), d)
        gap = abs(lhs - lam * y) / lhs
        if not gap <= mpf(10) ** (30 - d):
            raise CheckFailed(f"f_k pairing gap {_nstr(gap)} at n={n}")

    # c07: closed-form transition matrix against direct inversion
    n = task["n_validate"]
    before = spectral.char_roots(k, transfer.z_of(n, s, d), d)
    after = spectral.char_roots(k, transfer.z_of(n + 1, s, d), d)
    spectral.transition_matrix(before, after, d, validate=True)

    return {"eigen_log": _nstr(segment), "transition_log": _nstr(tail.log_product)}


# ---------------------------------------------------------------------------
# exact_counts: big-integer DP, formal transfer product, identities
# ---------------------------------------------------------------------------

COUNT_N_RANGE = (700, 1200)
ORACLE_MAX_N = 32
IDENTITY_N_RANGE = (300, 500)  # identities.DEFAULT_NMAX_CAP is 500


def plan_exact_counts(rng, seed: int) -> list:
    lo, hi = COUNT_N_RANGE
    rb = [(r, b) for r in (1, 2, None) for b in (0, 1)]
    rng.shuffle(rb)
    tasks = []
    for k in (2, 3, 4):
        u = rng.random()
        for n_max in (lo + u * (hi - lo), hi - u * (hi - lo)):
            r, b = rb.pop()
            tasks.append({
                "kind": "count", "k": k, "r": r, "b": b, "n_max": round(n_max),
                "oracle_n": sorted(rng.sample(range(ORACLE_MAX_N + 1), 3)),
            })
    names = list(identities.IDENTITY_CASES)
    rng.shuffle(names)
    u = rng.random()
    lo, hi = IDENTITY_N_RANGE
    for i, name in enumerate(names):
        n_max = round(lo + (i + u) * (hi - lo) / len(names))
        tasks.append({"kind": "identity", "name": name, "n_max": n_max})
    rng.shuffle(tasks)
    return tasks


def run_exact_counts(task: dict, computed: Counter, out_dir: str) -> dict:
    if task["kind"] == "identity":
        report = identities.check_identity(task["name"], task["n_max"])
        if not report.passed:
            raise CheckFailed(f"{report.name}: first discrepancy at q^{report.first_discrepancy}")
        return {"lhs": _table_digest(report.lhs)}

    constraint = counting.Constraint(task["k"], task["r"], task["b"])
    n_max = task["n_max"]
    table = counting.count_constrained(constraint, n_max)
    for n in task["oracle_n"]:
        expected = counting.enumerate_oracle(constraint, n)
        if table[n] != expected:
            raise CheckFailed(f"{constraint.label()} n={n}: dp {table[n]} != oracle {expected}")
    if constraint.unbounded and constraint.min_part_bound == 0:
        # c03: entry 0 after n_max + 1 formal steps counts parts <= n_max
        entry = transfer.iterate_product(constraint.k, n_max + 1, mode="formal", n_max=n_max).entries[0]
        if entry.coeffs != table.values:
            raise CheckFailed(f"{constraint.label()}: formal product != dp")
    return {"counts": _table_digest(table.values)}


# ---------------------------------------------------------------------------
# numeric_eval: log-domain transfer products, quadrature, simulation
# ---------------------------------------------------------------------------

# [0.006, 0.1) and [0.1, 0.5] are stratified separately so that the s >= 0.1
# cross-check always covers the same number of tasks
NUMERIC_S_STRATA = ((0.006, 0.1, 4), (0.1, 0.5, 2))
NUMERIC_DIGITS = (30, 50, 100)
GK_TOL = mpf("1e-12")
PROB_TOL = mpf("1e-10")
SERIES_CHECK_S = 0.1
SERIES_TOL = mpf("1e-10")
SIM_CHECK_S = 0.2
SIM_TRIALS = 10**5
# The simulator is checked on a new seed in every run, so a 3 sigma band
# (c11's, at one fixed seed) would fail about one task in 400 by chance alone;
# 5 sigma keeps the chance false alarm below 1e-6 per task.
SIM_SIGMAS = 5
INTEGRAL_TOL = mpf("1e-8")
# each pass integrates g_k for two of these, about 0.7 s apiece
INTEGRAL_K = (2, 3, 4, 5, 6)


def _series_order(s: float) -> int:
    """Smallest n with s n - pi sqrt(2n/3) >= 30: since p_k(n) <= p(n) <
    e^{pi sqrt(2n/3)}, the dropped terms of G_k(e^{-s}) sum to about e^{-30}
    times 1/(1 - e^{-s/2}), far below SERIES_TOL relative."""
    x = (math.pi * math.sqrt(2 / 3) + math.sqrt(2 * math.pi**2 / 3 + 120 * s)) / (2 * s)
    return math.ceil(x * x)


def plan_numeric_eval(rng, seed: int) -> list:
    tasks = []
    draws = [s for lo, hi, strata in NUMERIC_S_STRATA for s in _stratified(rng, lo, hi, strata)]
    for j, s in enumerate(draws):
        # 12 slots cover each (k, digits) pair of {2..5} x {30, 50, 100} once
        tasks.append({
            "kind": "eval", "k": 2 + j % 4, "s": s, "digits": NUMERIC_DIGITS[j % 3],
            "sim_seed": rng.getrandbits(32),
        })
    tasks += [{"kind": "integral", "k": k} for k in rng.sample(INTEGRAL_K, 2)]
    rng.shuffle(tasks)
    return tasks


def run_numeric_eval(task: dict, computed: Counter, out_dir: str) -> dict:
    k = task["k"]
    if task["kind"] == "integral":
        value = asymptotics.gk_integral(k, INTEGRAL_TOL / 10)
        with working(30):
            err = abs(value - mpmath.pi**2 / (3 * k * (k + 1)))
        if not err < INTEGRAL_TOL:
            raise CheckFailed(f"gk_integral k={k} off by {_nstr(err)}")
        return {"integral": _nstr(value)}

    s, d = task["s"], task["digits"]
    gk = transfer.gk_eval(k, s, GK_TOL, d)
    prob = probability.exact_prob(k, s, PROB_TOL, d)
    out = {"log_gk": _nstr(gk.value.log()), "prob": _nstr(prob.value)}
    with working(d):
        gap = abs(prob.log_gk - gk.value.log())
        if not gap <= PROB_TOL:
            raise CheckFailed(f"exact_prob log G_k differs from gk_eval by {_nstr(gap)}")
        if s >= SERIES_CHECK_S:
            table = counting.gk_coefficients(k, _series_order(s))
            horner = series.eval_at(table.series(), s, d)
            gap = abs(mpmath.log(horner.value) - gk.value.log())
            if not gap <= SERIES_TOL:
                raise CheckFailed(f"Horner sum differs from gk_eval by {_nstr(gap)}")
    if s >= SIM_CHECK_S:
        sim = probability.simulate(probability.ModelParams(k, s, SIM_TRIALS, task["sim_seed"]))
        gap = abs(sim.estimate - float(prob.value))
        budget = SIM_SIGMAS * sim.stderr + sim.bias_bound
        if not gap <= budget:
            raise CheckFailed(f"simulation off by {gap:.3g} > {budget:.3g}")
        out["sim"] = repr(sim.estimate)
    return out


# ---------------------------------------------------------------------------
# verify_quick: the command users run
# ---------------------------------------------------------------------------


def plan_verify_quick(rng, seed: int) -> list:
    return [{"cli_seed": seed}]


def run_verify_quick(task: dict, computed: Counter, out_dir: str) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify-all", "--quick", "--seed", str(task["cli_seed"]), "--out", out_dir])
    lines = buf.getvalue().splitlines()
    if code != 0:
        raise CheckFailed(f"verify-all exited {code}: {lines}")
    if not lines or not all(line.startswith("PASS ") for line in lines):
        raise CheckFailed(f"not all PASS: {lines}")
    path = os.path.join(out_dir, "verify_all.json")
    with open(path) as fh:
        artifact = json.load(fh)
    computed["cli.artifact_bytes"] += os.path.getsize(path)
    checks = artifact["results"]["checks"]
    if not (artifact["passed"] and all(c["passed"] for c in checks)):
        raise CheckFailed("artifact reports a failure")
    results = json.dumps(artifact["results"], sort_keys=True).encode()
    return {"results": hashlib.sha256(results).hexdigest()[:16]}


# name -> (plan(rng, seed) -> tasks, run(task, computed, out_dir) -> result values)
WORKLOADS = {
    "spectral_chain": (plan_spectral_chain, run_spectral_chain),
    "exact_counts": (plan_exact_counts, run_exact_counts),
    "numeric_eval": (plan_numeric_eval, run_numeric_eval),
    "verify_quick": (plan_verify_quick, run_verify_quick),
}
