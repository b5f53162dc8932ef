"""Smoke runs of the scripts under ``scripts/``, which import the library
but are not part of it: each must exit 0 and print its rows."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kseq import verify

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, lines",
    [
        # CSV header and one row per s
        (["theorem_residuals.py", "--k", "2", "--s", "0.2", "0.1"], 3),
        # the conjectured coefficient and one fit line per k
        (["conjecture_scan.py", "--k", "2", "--points", "4",
          "--s-lo", "0.05", "--s-hi", "0.5"], 2),
    ],
    ids=["theorem_residuals", "conjecture_scan"],
)
def test_script_runs(argv, lines):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == lines


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _script("bench_pairs")


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("conjecture_scan", ["--points", "1"], "--points must be >= 2"),
        ("conjecture_scan", ["--points", "2"], "need at least 4 samples"),
        ("conjecture_scan", ["--points", "3"], "need at least 4 samples"),
        ("conjecture_scan", ["--s-lo", "0.05"], "a decade of s"),
        ("theorem_residuals", ["--s", "0.2"], "two distinct values"),
        ("theorem_residuals", ["--s", "0", "0.1"], "argument --s: must be > 0"),
        ("theorem_residuals", ["--s", "-0.1", "0.1"], "argument --s: must be > 0"),
        ("theorem_residuals", ["--s", "1e-9", "0.1"], "too small for gk_eval"),
        ("theorem_residuals", ["--k", "2", "1"], "argument --k: must be >= 2"),
        ("theorem_residuals", ["--precision", "0"], "argument --precision: must be >= 1"),
        ("theorem_residuals", ["--precision", "16"], "--precision 16 certifies no tolerance"),
        ("conjecture_scan", ["--s-lo", "0"], "argument --s-lo: must be > 0"),
        ("conjecture_scan", ["--s-lo", "1e-9", "--s-hi", "1e-7"], "too small for gk_eval"),
        ("conjecture_scan", ["--k", "1"], "argument --k: must be >= 2"),
        ("conjecture_scan", ["--precision", "10"], "--precision 10 certifies no tolerance"),
    ],
    ids=["conjecture_scan-points-1", "conjecture_scan-points-2",
         "conjecture_scan-points-3", "conjecture_scan-under-a-decade",
         "theorem_residuals-one-s", "theorem_residuals-s-zero", "theorem_residuals-s-negative",
         "theorem_residuals-s-below-step-cap", "theorem_residuals-k-1",
         "theorem_residuals-precision-0", "theorem_residuals-precision-16",
         "conjecture_scan-s-lo-zero", "conjecture_scan-s-below-step-cap",
         "conjecture_scan-k-1", "conjecture_scan-precision-10"],
)
def test_script_degenerate_grid_is_usage_error(monkeypatch, capsys, script, argv, message):
    # a grid or flag value the script cannot use exits 2 with a usage
    # message, as kseq's own commands do, before any G_k evaluation or eigen
    # chain is paid for
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the usage error")

    module = _script(script)
    for name in ("gk_eval", "three_factor_terms"):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, no_work)
    monkeypatch.setattr(verify, "eigen_product_log", no_work)
    monkeypatch.setattr(verify, "gk_eval", no_work)
    monkeypatch.setattr(sys, "argv", [script, *argv])
    with pytest.raises(SystemExit) as err:
        module.main()
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_bench_pairs_summary():
    # quartiles by the inclusive method; a tie counts for neither side
    parent = [5.0, 1.0, 3.0, 2.0, 4.0]
    change = [5.0, 0.5, 2.5, 2.0, 4.5]
    pairs = [{side: {"wall_s": w, "setup_s": 0.25, "peak_rss_mb": 24.0 + i}
              for side, w in (("parent", p), ("change", c))}
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = _bench_pairs().summarize(pairs)
    assert summary["wall_s"] == {
        "parent": {"median": 3.0, "q1": 2.0, "q3": 4.0},
        "change": {"median": 2.5, "q1": 2.0, "q3": 4.5},
        "change_lower_in": "2/5",
        "parent_iqr": 2.0,
        "median_gap": 0.5,
        "gain_holds": False,
    }
    assert summary["setup_s"]["change_lower_in"] == "0/5"
    assert summary["peak_rss_mb"]["parent"] == {"median": 26.0, "q1": 25.0, "q3": 27.0}
    # one pair: every statistic is its value
    assert _bench_pairs().summarize(pairs[:1])["wall_s"]["parent"] == {
        "median": 5.0, "q1": 5.0, "q3": 5.0}


@pytest.mark.parametrize("lower, shift, holds", [
    (10, 2.0, True),   # lower in 10/10, gap 2.0 above the parent's IQR of 1.0
    (9, 2.0, True),    # 9/10 is enough
    (8, 2.0, False),   # 8/10 is not
    (10, 0.5, False),  # a gap below the parent's IQR is not
])
def test_bench_pairs_gain_rule(lower, shift, holds):
    # parent wall_s 10 + i/4.5, i = 0..9: inclusive quartiles 10.5 and 11.5,
    # an IQR of 1; the change reads `shift` below it in the first `lower` pairs
    parent = [10 + i / 4.5 for i in range(10)]
    change = [p - shift if i < lower else p + 0.5 for i, p in enumerate(parent)]
    pairs = [{"parent": {"wall_s": p, "setup_s": 0.1, "peak_rss_mb": 20.0},
              "change": {"wall_s": c, "setup_s": 0.1, "peak_rss_mb": 20.0}}
             for p, c in zip(parent, change)]
    entry = _bench_pairs().summarize(pairs)["wall_s"]
    assert entry["parent_iqr"] == 1.0
    assert entry["change_lower_in"] == f"{lower}/10"
    assert entry["gain_holds"] is holds


def test_bench_pairs_records_the_usable_cpus():
    # the CPUs this process may run on, as perfbench's run_context records
    assert _bench_pairs().machine()["nproc"] == len(os.sched_getaffinity(0))


def test_bench_pairs_pools_workloads_run_in_several_sets():
    pair = {side: {"wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 20.0} for side in ("parent", "change")}
    runs = [{"set": 1, "workload": "exact_counts", "pairs": [pair]},
            {"set": 2, "workload": "verify_quick", "pairs": [pair]},
            {"set": 3, "workload": "exact_counts", "pairs": [pair, pair]}]
    (pooled,) = _bench_pairs().pooled(runs)
    assert (pooled["workload"], pooled["sets"], pooled["pairs"]) == ("exact_counts", [1, 3], 3)


def test_bench_pairs_check_seconds(monkeypatch, capsys):
    # the timer runs the full list, or with the argument "quick" the quick
    # list, serially three times and keeps each report's best ...
    bench = _bench_pairs()
    calls = []

    def check(**kwargs):
        calls.append(kwargs)
        return {"name": f"check_k{kwargs['k']}"}

    monkeypatch.setattr(verify, "check_table", lambda digits, seed: (
        (check, None, {"k": 2}), (check, {"k": 4}, {"k": 3})))
    monkeypatch.setattr(sys, "argv", ["-c"])
    exec(bench.CHECK_TIMER, {})
    assert calls == [{"k": 2}, {"k": 3}] * 3
    printed = capsys.readouterr().out
    assert set(json.loads(printed)) == {"check_k2", "check_k3"}
    calls.clear()
    monkeypatch.setattr(sys, "argv", ["-c", "quick"])
    exec(bench.CHECK_TIMER, {})
    assert calls == [{"k": 4}] * 3
    printed_quick = capsys.readouterr().out
    assert set(json.loads(printed_quick)) == {"check_k4"}

    # ... in one fresh interpreter per tree and list, on the tree's own source
    seen = []

    def run(cmd, cwd, env, **kwargs):
        seen.append((cmd, cwd, env["PYTHONPATH"]))
        out = printed_quick if cmd[-1] == "quick" else printed
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", run)
    assert bench.check_seconds("tree") == json.loads(printed)
    assert bench.check_seconds("tree", quick=True) == json.loads(printed_quick)
    src = os.path.abspath(os.path.join("tree", "src"))
    assert seen == [([sys.executable, "-c", bench.CHECK_TIMER], "tree", src),
                    ([sys.executable, "-c", bench.CHECK_TIMER, "quick"], "tree", src)]


def test_bench_pairs_keeps_each_sets_figures(tmp_path, monkeypatch, capsys):
    # two invocations extending one file: each set keeps the line counts,
    # check timings and verify-all peak RSS measured when it ran
    bench = _bench_pairs()
    invocation = {}

    def figures(tree, **kwargs):
        return {"invocation": invocation["n"], "tree": tree, **kwargs}

    for name in ("source_lines", "check_seconds", "verify_all_rss"):
        monkeypatch.setattr(bench, name, figures)
    monkeypatch.setattr(bench, "run_perfbench", lambda tree, workload, seed, seconds: {
        "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 20.0, "correct": True, "failed": 0})
    out = tmp_path / "BENCH.json"
    for n, workload in ((1, "exact_counts"), (2, "verify_quick")):
        invocation["n"] = n
        monkeypatch.setattr(sys, "argv", [
            "bench_pairs.py", "--parent", "p", "--change", "c", "--workload", workload,
            "--seeds", "1", "2", "--seconds", "1", "--out", str(out)])
        assert bench.main() == 0
    runs = json.loads(out.read_text())["runs"]
    assert [(run["set"], run["workload"]) for run in runs] == [
        (1, "exact_counts"), (2, "verify_quick")]
    for n, run in enumerate(runs, 1):
        trees = {"parent": "p", "change": "c"}
        for key, extra in (("src_kseq_wc_l", {}), ("check_s", {}),
                           ("check_s_quick", {"quick": True}), ("verify_all_rss_mb", {})):
            assert run[key] == {side: {"invocation": n, "tree": tree, **extra}
                                for side, tree in trees.items()}


def test_bench_pairs_verify_all_rss():
    # one `kseq verify-all --quick` of this tree in a fresh interpreter: the
    # peak RSS of its parent, and of its largest worker, which it forks only
    # with two or more usable CPUs
    rss = _bench_pairs().verify_all_rss(str(ROOT))
    assert set(rss) == {"parent", "largest_worker"}
    assert rss["parent"] > 0
    assert (rss["largest_worker"] > 0) == (len(os.sched_getaffinity(0)) > 1)
