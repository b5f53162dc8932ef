"""Benchmark of the kseq toolkit: seeded workloads, each result verified.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree that holds ``src/kseq``.  Workloads:
``spectral_chain``, ``exact_counts``, ``numeric_eval`` and ``verify_quick``
(see ``workloads.py``).  Each pass of the workload's task list runs in a
fresh interpreter (``worker.py``), one after another on one thread, because
a user pays mpmath's lazy caches once per process.  Passes repeat until
``--seconds`` have gone by.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones: ``wall_s`` (median time for the task list,
checks included), ``setup_s`` (median time from interpreter start until kseq
and its dependencies are imported, over several set-ups) and ``peak_rss_mb``
(median peak resident memory of a pass, MiB).  With ``--trace 1``
untraced and traced passes alternate, and the metrics are per layer: self
time and call counts per module, exact work counters, and the tracing
overhead.  ``correct`` is false if any task raised or disagreed with its
independent route, if the result digest differs between passes of one seed,
or, traced, if an exact work counter differs between two passes.

The line before it is a report: run context (source LOC, Python, mpmath,
numpy, mpmath backend, CPU, nproc), every pass, the result digest and the
failures.  Traced passes write their spans, one JSON line per span, to
``.perfbench-trace/<workload>-<seed>-<pass>.jsonl`` under the tree root,
which is left in place; artifacts go to a temporary directory that is removed.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import COMPUTED_COUNTS, LAYERS  # noqa: E402

# the keys of workloads.WORKLOADS, named here because the runner never
# imports kseq itself
WORKLOADS = ("spectral_chain", "exact_counts", "numeric_eval", "verify_quick")

# import-only interpreters started before each pass, so that set-up time is
# sampled across the whole run
SETUP_PROBES_PER_PASS = 1
# a pass still running this long after --seconds is killed, so that a run
# with --seconds 55 ends inside three minutes even when the tree under test hangs
DEADLINE_MARGIN_S = 110
# traced spans, kept after the run
SPANS_DIR = ".perfbench-trace"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
QUICK_CHECKS = (
    "oracle_equivalence", "identities_check", "transfer_matches_dp",
    "runup_matches_product", "gk_integral_check", "fk_lambda_identity",
    "spectral_invariants", "eigen_sum_residuals", "monte_carlo_check",
    "coefficient_ratio_check",
)


class PassFailed(RuntimeError):
    pass


def run_pass(root: str, tmp: str, env: dict, workload: str, seed: int, deadline: float,
             spans: str | None = None, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", tmp]
    if spans is not None:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(env, PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise PassFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_context(root: str, versions: dict) -> dict:
    src = os.path.join(root, "src", "kseq")
    loc = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                loc += sum(1 for _ in fh)
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "src_kseq_loc": loc,
        **versions,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics: medians over traced passes, exact counts from the
    first (the self-check has made sure they repeat)."""
    med = statistics.median
    first = traced[0]["trace"]
    counters = first["counters"]
    calls = first["calls"]
    computed = traced[0]["computed"]
    layer_calls = {layer: sum(n for name, n in calls.items() if name.split(".")[0] == layer)
                   for layer in LAYERS}
    m = {}
    for layer in LAYERS + ("bench",):
        if layer != "precision":
            m[f"{layer}.self_s"] = (med([p["trace"]["self_s"].get(layer, 0.0) for p in traced]), "s")
    roots = calls.get("spectral.primary_root", 0)
    m["spectral.root_solves"] = (roots, "count")
    m["spectral.poly_evals"] = (counters.get("spectral.poly_evals", 0), "count")
    m["spectral.evals_per_root"] = (
        counters.get("spectral.root_poly_evals", 0) / roots if roots else 0.0, "evals/root")
    m["spectral.char_roots_calls"] = (calls.get("spectral.char_roots", 0), "count")
    m["spectral.transition_calls"] = (calls.get("spectral.transition_matrix", 0), "count")
    m["counting.calls"] = (layer_calls["counting"], "count")
    m["series.calls"] = (layer_calls["series"], "count")
    m["counting.table_bytes"] = (counters.get("counting.table_bytes", 0), "bytes")
    m["transfer.formal_steps"] = (counters.get("transfer.formal_steps", 0), "count")
    m["transfer.numeric_steps"] = (counters.get("transfer.numeric_steps", 0), "count")
    m["precision.logvalue_ops"] = (counters.get("precision.logvalue_ops", 0), "count")
    m["asymptotics.gk_evals"] = (counters.get("asymptotics.gk_evals", 0), "count")
    m["asymptotics.fk_calls"] = (counters.get("asymptotics.fk_calls", 0), "count")
    m["probability.trial_cells"] = (counters.get("probability.trial_cells", 0), "count")
    for check in QUICK_CHECKS:
        m[f"verify.check_s.{check}"] = (
            med([p["trace"]["inclusive_s"].get(f"verify.{check}", 0.0) for p in traced]), "s")
    m["cli.artifact_bytes"] = (computed.get("cli.artifact_bytes", 0), "bytes")
    m["trace.overhead_frac"] = (
        med([p["wall_s"] for p in traced]) / med([p["wall_s"] for p in untraced]) - 1, "ratio")
    m["trace.spans"] = (first["spans"], "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def trace_signature(p: dict) -> dict:
    """Exact work counts of one traced pass, which must repeat across passes.
    The artifact size is left out: the artifact records its own wall time."""
    t = p["trace"]
    sig = dict(t["counters"])
    sig.update({f"calls.{name}": n for name, n in t["calls"].items()})
    return sig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running pass is killed and awaited and
    # the temporary directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kseq", "__init__.py")):
        print("perfbench: run from the root of a tree that holds src/kseq", file=sys.stderr)
        return 2
    # byte-compile once so that no set-up measurement pays for compilation
    compileall.compile_dir(os.path.join(root, "src", "kseq"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    env = {k: v for k, v in os.environ.items() if k not in ("KSEQ_CONFIG", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"

    spans_dir = os.path.join(root, SPANS_DIR)
    spans_prefix = f"{args.workload}-{args.seed}-"
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
        for name in os.listdir(spans_dir):
            if name.startswith(spans_prefix):
                os.remove(os.path.join(spans_dir, name))
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root)
    passes = []
    try:
        probes = []
        cycles = []  # seconds per pass, its set-up probes included
        started = time.monotonic()
        deadline = started + args.seconds + DEADLINE_MARGIN_S
        while True:
            traced = [p for p in passes if "trace" in p]
            untraced = [p for p in passes if "trace" not in p]
            elapsed = time.monotonic() - started
            enough = len(untraced) >= (1 if args.trace else 2) and len(traced) >= 2 * args.trace
            # stop when the next pass would end after --seconds
            if enough and elapsed + statistics.median(cycles) > args.seconds:
                break
            # traced runs alternate, starting traced: T U T U ...
            trace = args.trace and len(traced) <= len(untraced)
            spans = os.path.join(spans_dir, f"{spans_prefix}{len(passes)}.jsonl") if trace else None
            probes += [run_pass(root, tmp, env, args.workload, args.seed, deadline,
                                setup_only=True)
                       for _ in range(SETUP_PROBES_PER_PASS)]
            passes.append(run_pass(root, tmp, env, args.workload, args.seed, deadline, spans))
            cycles.append(time.monotonic() - started - elapsed)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    traced = [p for p in passes if "trace" in p]
    untraced = [p for p in passes if "trace" not in p]
    setups = [p["setup_s"] for p in probes + passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = sorted({p["digest"] for p in passes})
    problems = []
    if len(digests) > 1:
        problems.append(f"result digest differs between passes: {digests}")
    if traced:
        signatures = [trace_signature(p) for p in traced]
        if any(sig != signatures[0] for sig in signatures[1:]):
            diff = sorted(k for k in signatures[0] if any(s.get(k) != signatures[0][k] for s in signatures))
            problems.append(f"exact work counters differ between traced passes: {diff}")

    if args.trace:
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "context": run_context(root, probes[0]["versions"]),
        "digest": digests[0] if len(digests) == 1 else digests,
        "fail_frac": failed / attempted,
        "computed_counts": sorted(key for key, _ in COMPUTED_COUNTS.values()) if args.trace else [],
        "problems": problems,
        "failures": [f for p in passes for f in p["failures"]][:5],
        "setup_s": setups,
        "passes": [
            {key: p[key] for key in ("setup_s", "wall_s", "peak_rss_mb", "attempted", "failed")}
            | {"traced": "trace" in p}
            for p in passes
        ],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
