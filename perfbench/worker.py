"""One pass of a workload in a fresh interpreter; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --tmp DIR [--spans FILE]

The parent puts its monotonic clock reading at spawn time into
``PERFBENCH_SPAWN_NS``, so set-up time runs from interpreter start until
``kseq`` and its dependencies are imported.  The pass then runs the
workload's task list in a closed loop and prints one JSON line: set-up and
task wall time, peak RSS, tasks attempted and failed, the result digest and,
with ``--spans``, per-layer self times and work counters; the traced spans
then go to FILE, one JSON line each.
"""
import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback
from collections import Counter


def import_kseq(src: str):
    """Import kseq and every module of it from ``src``; returns the package
    and the seconds since the parent spawned this interpreter."""
    sys.path.insert(0, src)
    import kseq
    import kseq.cli  # noqa: F401  (imports every module of the package)

    return kseq, (time.monotonic_ns() - int(os.environ["PERFBENCH_SPAWN_NS"])) / 1e9


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    kseq, setup_s = import_kseq(src)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True, help="directory for artifacts")
    parser.add_argument("--spans", help="trace the pass and write its spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if os.path.dirname(os.path.abspath(kseq.__file__)) != os.path.join(src, "kseq"):
        print(f"kseq imported from {kseq.__file__}, not from {src}", file=sys.stderr)
        return 3
    if args.setup_only:
        import mpmath
        import numpy

        print(json.dumps({
            "setup_s": setup_s,
            "versions": {
                "python": sys.version.split()[0],
                "mpmath": mpmath.__version__,
                "mpmath_backend": mpmath.libmp.BACKEND,
                "numpy": numpy.__version__,
            },
        }))
        return 0

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads

    plan, run = workloads.WORKLOADS[args.workload]
    tasks = plan(random.Random(f"{args.workload}/{args.seed}"), args.seed)
    out_dir = os.path.join(args.tmp, "artifacts")
    computed = Counter()
    digest = hashlib.sha256()
    failures = []

    started = time.perf_counter()
    for task_id, task in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = task_id
            tracer.enter("bench.task", "bench")
        try:
            values = run(task, computed, out_dir)
            digest.update(json.dumps([task, values], sort_keys=True).encode())
        except Exception:  # any raise is a failed task, reported with its traceback
            failures.append({"task": task, "error": traceback.format_exc(limit=3)})
        finally:
            if tracer is not None:
                tracer.exit()
    wall_s = time.perf_counter() - started

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(tasks),
        "failed": len(failures),
        "failures": failures,
        "digest": digest.hexdigest()[:16],
        "computed": dict(computed),
    }
    if tracer is not None:
        tracer.dump(args.spans)
        result["trace"] = {
            "self_s": dict(tracer.self_s),
            "inclusive_s": dict(tracer.inclusive_s),
            "calls": dict(tracer.calls),
            "counters": dict(tracer.counters),
            "spans": len(tracer.spans),
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
