#!/usr/bin/env python3
"""Run perfbench on two source trees in alternating pairs and write a
BENCH_<n>.json file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload exact_counts --seeds 1 10 --seconds 55 --out BENCH_19.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in the parent tree and once in the change tree, each from its
own root, on one seed; the side that runs first alternates from pair to pair,
starting with the parent.  The runs of one invocation form one set.  When
``--out`` exists, the set is added to its runs, so later invocations add more
sets or workloads; the file is rewritten after every pair.

The file holds every pair, and for each set a summary per end-to-end metric:
each side's median and quartiles (inclusive method) over its runs, in how
many pairs the change read lower, the parent's IQR, the gap between the
medians, and whether a gain holds (lower in at least 9/10 of the pairs, by a
median gap larger than the parent's IQR).  ``pooled`` summarises, per workload run in
more than one set, all its pairs together.  It also records the machine and,
per set and tree: ``wc -l src/kseq/*.py``; as ``check_s`` and
``check_s_quick``, the seconds per check of ``verify.check_table``'s full and
quick lists (the quick list is what ``verify_quick`` runs), each list run
serially three times in one fresh interpreter, keeping each check's best; and,
as ``verify_all_rss_mb``, the peak RSS of ``kseq verify-all --quick`` in a
fresh interpreter, of its parent process (``RUSAGE_SELF``, what perfbench's
``peak_rss_mb`` reads) and of its largest worker (``RUSAGE_CHILDREN``): three
probes per tree, the tree that goes first alternating, parent first, with
every reading and each field's median.
"""
import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import mpmath

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


def run_perfbench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one perfbench run in ``tree``, with its
    ``correct`` flag and failed-task count."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = {name: result["metrics"][name]["value"] for name in METRICS}
    record.update(correct=result["correct"], failed=result["failed"])
    return record


# run by a fresh interpreter in a tree's root: prints {report name: best
# seconds of 3} for the checks of verify.check_table's full list, or its
# quick list when the argument "quick" follows, run serially
CHECK_TIMER = """
import json, sys, time
from kseq import verify
from kseq.cli import RunConfig
cfg, best = RunConfig(), {}
column = 1 if sys.argv[1:] == ["quick"] else 2
for _ in range(3):
    for row in verify.check_table(cfg.precision, cfg.seed):
        check, kwargs = row[0], row[column]
        if kwargs is None:
            continue
        start = time.perf_counter()
        name = check(**kwargs)["name"]
        best[name] = min(best.get(name, float("inf")), time.perf_counter() - start)
print(json.dumps({name: round(seconds, 4) for name, seconds in best.items()}))
"""


def check_seconds(tree: str, quick: bool = False) -> dict:
    """Seconds per check of ``verify.check_table``'s full (or quick) list in
    ``tree``, best of 3, from one fresh interpreter that imports the tree's
    own ``src``."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(os.path.join(tree, "src"))}
    cmd = [sys.executable, "-c", CHECK_TIMER] + (["quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# run by a fresh interpreter in a tree's root: runs `kseq verify-all --quick`
# with artifacts in the directory given as argument, then prints the peak RSS
# in MB of this process and of its largest reaped child (0 with none)
RSS_PROBE = """
import json, resource, sys
from kseq.cli import main
if main(["verify-all", "--quick", "--out", sys.argv[1]]):
    sys.exit("verify-all --quick failed")
print(json.dumps({name: resource.getrusage(who).ru_maxrss / 1024 for name, who in (
    ("parent", resource.RUSAGE_SELF), ("largest_worker", resource.RUSAGE_CHILDREN))}))
"""


def verify_all_rss(tree: str) -> dict:
    """Peak RSS in MB of one ``kseq verify-all --quick`` run from ``tree``'s
    own ``src`` in a fresh interpreter: its parent process and its largest
    worker."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(os.path.join(tree, "src"))}
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-c", RSS_PROBE, out], cwd=tree, env=env,
                              capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


RSS_PROBES = 3


def verify_all_rss_probes(trees: dict) -> dict:
    """Per side, every reading of ``RSS_PROBES`` rounds of ``verify_all_rss``
    on each of ``trees``, the side that goes first alternating from round to
    round, starting with the parent, and the median of each field."""
    readings = {side: [] for side in SIDES}
    for i in range(RSS_PROBES):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            readings[side].append(verify_all_rss(trees[side]))
    return {side: {"readings": rows,
                   "median": {field: statistics.median(row[field] for row in rows)
                              for field in rows[0]}}
            for side, rows in readings.items()}


def summarize(pairs: list) -> dict:
    """Per metric: median and quartiles of each side, the number of pairs in
    which the change read lower (ties count for neither side), the parent's
    IQR (q3 - q1), the median gap (parent median - change median), and
    whether a gain holds: the change lower in at least 9 of 10 pairs and
    the gap larger than the parent's IQR.  Figures are rounded to 4 places;
    the rule is applied before rounding."""
    summary = {}
    for name in METRICS:
        entry, stats = {}, {}
        for side in SIDES:
            values = [pair[side][name] for pair in pairs]
            stats[side] = (statistics.quantiles(values, n=4, method="inclusive")
                           if len(values) > 1 else values * 3)
            q1, median, q3 = stats[side]
            entry[side] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
        lower = sum(pair["change"][name] < pair["parent"][name] for pair in pairs)
        iqr = stats["parent"][2] - stats["parent"][0]
        gap = stats["parent"][1] - stats["change"][1]
        entry["change_lower_in"] = f"{lower}/{len(pairs)}"
        entry["parent_iqr"] = round(iqr, 4)
        entry["median_gap"] = round(gap, 4)
        entry["gain_holds"] = 10 * lower >= 9 * len(pairs) and gap > iqr
        summary[name] = entry
    return summary


def pooled(runs: list) -> list:
    """One summary over all pairs of each workload run in more than one set."""
    out = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        sets = [run for run in runs if run["workload"] == workload]
        if len(sets) > 1:
            pairs = [pair for run in sets for pair in run["pairs"]]
            out.append({"workload": workload, "sets": [run["set"] for run in sets],
                        "pairs": len(pairs), "summary": summarize(pairs)})
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def source_lines(tree: str) -> dict:
    counts = {}
    for path in sorted(glob.glob(os.path.join(tree, "src", "kseq", "*.py"))):
        with open(path) as f:
            counts[os.path.relpath(path, tree)] = sum(1 for _ in f)
    counts["total"] = sum(counts.values())
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent tree")
    ap.add_argument("--change", required=True, help="root of the change tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"),
                    help="one pair per seed, FIRST..LAST inclusive")
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write or extend")
    ap.add_argument("--parent-commit", default="the parent commit")
    ap.add_argument("--change-commit", default="the commit that adds this file")
    args = ap.parse_args()

    if os.path.exists(args.out):
        with open(args.out) as f:
            bench = json.load(f)
    else:
        bench = {
            "what": "End-to-end benchmark metrics of the parent commit and this change, "
                    "from perfbench/run.py; a data file, read by no code.",
            "commits": {"parent": args.parent_commit, "change": args.change_commit},
            "machine": machine(),
            "method": f"python3 perfbench/run.py --workload W --seed S --seconds "
                      f"{args.seconds:g} --trace 0 by scripts/bench_pairs.py, run in the "
                      "parent and the change tree; one seed per pair, the side that runs "
                      "first alternating, parent first; each metric is the run's median "
                      "over its passes, and a set's summary gives median and quartiles "
                      "(inclusive method) over the runs of a side",
            "runs": [],
        }
    trees = {side: getattr(args, side) for side in SIDES}
    run = {"set": 1 + max((r["set"] for r in bench["runs"]), default=0),
           "workload": args.workload, "seconds": args.seconds,
           "src_kseq_wc_l": {side: source_lines(tree) for side, tree in trees.items()},
           "check_s": {side: check_seconds(tree) for side, tree in trees.items()},
           "check_s_quick": {side: check_seconds(tree, quick=True)
                             for side, tree in trees.items()},
           "verify_all_rss_mb": verify_all_rss_probes(trees),
           "seeds": [], "summary": {}, "pairs": []}
    bench["runs"].append(run)
    for i, seed in enumerate(range(args.seeds[0], args.seeds[1] + 1)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_perfbench(trees[side], args.workload, seed, args.seconds)
        run["seeds"].append(seed)
        run["pairs"].append(pair)
        run["summary"] = summarize(run["pairs"])
        bench["pooled"] = pooled(bench["runs"])
        with open(args.out, "w") as f:
            json.dump(bench, f, indent=1)
            f.write("\n")
        print(json.dumps(pair), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
