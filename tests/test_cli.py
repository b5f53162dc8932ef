import json
import marshal
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import mpmath
import pytest

from kseq import verify
from kseq.cli import main
from kseq.transfer import StateVector, runup_vector

GOLDEN = Path(__file__).parent / "golden" / "quick_suite.json"
PRINTING_PATHS = Path(__file__).parent / "golden" / "printing_paths.json"
GK_TRACE = Path(__file__).parent / "golden" / "gk_trace_k3_s0.05.csv"
ROOT = Path(__file__).resolve().parent.parent


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(["--out", str(out), *argv])
    return code, out


def load(out_dir, name):
    with open(out_dir / f"{name}.json") as fh:
        return json.load(fh)


def assert_no_child_left():
    # every worker verify-all forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_artifact_schema_and_exit_code(tmp_path):
    code, out = run(tmp_path, "count", "--k", "2", "--nmax", "12")
    assert code == 0
    payload = load(out, "count")
    assert payload["schema_version"] == 1
    assert payload["tool"] == "kseq"
    assert payload["config"]["precision"] == 50
    assert payload["passed"] is True
    assert "wall_time_s" in payload
    assert payload["results"]["counts"][4] == "4"


def test_artifact_bytes_do_not_depend_on_out_dir(tmp_path):
    # the same run into two directories whose paths differ in length
    payloads = []
    for out in (tmp_path / "a", tmp_path / "longer" / "path"):
        assert main(["--out", str(out), "gk-eval", "--k", "2", "--s", "0.3"]) == 0
        payload = load(out, "gk_eval")
        del payload["wall_time_s"]
        payloads.append(json.dumps(payload, indent=2, sort_keys=True))
    assert payloads[0] == payloads[1]
    assert "out_dir" not in json.loads(payloads[0])["config"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_flag_override_propagates(tmp_path):
    code, out = run(tmp_path, "--precision", "30", "gk-eval", "--k", "2", "--s", "0.3")
    assert code == 0
    payload = load(out, "gk_eval")
    assert payload["config"]["precision"] == 30


def test_config_file_and_env(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"precision": 35, "seed": 99}))
    monkeypatch.setenv("KSEQ_CONFIG", str(cfg))
    code, out = run(tmp_path, "count", "--k", "2", "--nmax", "6")
    assert code == 0
    payload = load(out, "count")
    assert payload["config"]["precision"] == 35
    assert payload["config"]["seed"] == 99


def test_bad_config_is_usage_error(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    monkeypatch.setenv("KSEQ_CONFIG", str(cfg))
    with pytest.raises(SystemExit) as err:
        main(["count", "--k", "2", "--nmax", "4"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "bad", [["--r", "0"], ["--k", "1"], ["--b", "-1"]], ids=["r=0", "k=1", "b=-1"]
)
def test_bad_constraint_is_usage_error(tmp_path, capsys, bad):
    # the last --k wins, so ["--k", "1"] overrides the valid one
    with pytest.raises(SystemExit) as err:
        run(tmp_path, "count", "--k", "2", "--nmax", "4", *bad)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("kseq: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["count", "--k", "2", "--nmax", "-1"], "--nmax"),
        (["gk-eval", "--k", "2", "--s", "0"], "--s"),
        (["runup", "--k", "2", "--n", "0", "--s", "0.1"], "--n"),
        (["spectrum", "--k", "2", "--z", "0"], "--z"),
        (["transition", "--k", "2", "--s", "0.1", "--n", "1", "--m", "3"], "--n"),
        (["transition", "--k", "2", "--s", "0.1", "--n", "5", "--m", "3"], "--m"),
        (["simulate", "--k", "2", "--s", "1.5"], "s must lie"),
        (["simulate", "--k", "2", "--s", "1e-7"], "too small for gk_eval"),
        (["simulate", "--k", "2", "--s", "1e-5"], "truncation index 1001506"),
        (["simulate", "--k", "100000000", "--s", "0.3", "--trials", "1000"],
         "truncation width 100000000"),
        (["gk-eval", "--k", "2", "--s", "1e-9"], "too small for gk_eval"),
        (["fit-conjecture", "--s-lo", "1e-9", "--s-hi", "1e-7"], "too small for gk_eval"),
        (["asymptotics", "--s-grid", "1e-6,1e-5"], "too small for gk_eval"),
        (["fit-conjecture", "--k", "1"], "--k"),
        (["fit-conjecture", "--points", "3"], "need at least 4 samples"),
        (["fit-conjecture", "--s-lo", "0"], "--s-lo"),
        (["fit-conjecture", "--s-lo", "0.05"], "a decade of s"),
        (["asymptotics", "--k", "1"], "--k"),
        (["asymptotics", "--s-grid", "0.1,-1"], "--s-grid"),
        (["asymptotics", "--s-grid", "0.1"], "--s-grid"),
        (["fgk", "--k", "2", "--x-lo", "0"], "--x-lo"),
        (["fgk", "--k", "2", "--points", "2", "--x-lo", "1e-70", "--x-hi", "1"], "--x-lo 1e-70"),
        (["fgk", "--k", "2", "--points", "2", "--x-lo", "1", "--x-hi", "1e-70"], "--x-hi 1e-70"),
        (["runup", "--k", "2", "--n", "100"], "run-up enumeration needs"),
        (["runup", "--k", "3", "--n", "8", "--s", "1e-26"], "--s"),
        (["runup", "--k", "3", "--n", "8", "--s", "1e-300"], "--s"),
        (["asymptotics", "--k", "2", "--s-grid", "5,10"], "--s-grid"),
        (["count", "--k", "2", "--nmax", "60", "--oracle", "--oracle-limit", "100"],
         "enumeration oracle is limited"),
        (["count", "--k", "2", "--nmax", "8", "--oracle", "--oracle-limit", "-5"],
         "--oracle-limit"),
        (["identities", "--nmax", "501"], "--nmax"),
        (["series", "--factors", "0,1,1"], "period"),
        (["series", "--factors", "1,0,2"], "exponent"),
        (["series", "--factors", "1,2"], "--factors"),
        (["series", "--factors", "2,-5,1"], "hits exponent"),
        (["--precision", "-3", "spectrum", "--k", "2", "--z", "1"], "--precision"),
        (["--precision", "12", "gk-eval", "--k", "2", "--s", "0.3"], "--precision"),
        (["--precision", "14", "simulate", "--k", "2", "--s", "0.3"], "--precision"),
        (["--precision", "16", "verify-all"], "--precision"),
        (["--precision", "14", "verify-all", "--quick"], "--precision"),
        (["--precision", "16", "asymptotics"], "--precision"),
        (["--precision", "16", "fit-conjecture"], "--precision"),
        (["--tol", "-1", "gk-eval", "--k", "2", "--s", "0.3"], "--tol"),
        (["--tol", "-1", "series", "--s", "0.5"], "--tol"),
        (["--tol", "0", "simulate", "--k", "2", "--s", "0.3"], "--tol"),
        (["--seed", "-1", "simulate", "--k", "2", "--s", "0.3"], "--seed"),
        (["--seed", str(2**128), "simulate", "--k", "2", "--s", "0.3"], "--seed"),
        (["--seed", str(2**128), "verify-all", "--quick"], "--seed"),
        (["fgk", "--k", "2", "--points", "0"], "--points"),
        (["fgk", "--k", "2", "--points", "-1"], "--points"),
        (["gk-eval", "--k", "2", "--s", "0.3", "--trace", "-5"], "--trace"),
        (["transition", "--k", "2", "--s", "0.1", "--n", "2", "--m", "3", "--trace", "-5"],
         "--trace"),
        (["spectrum", "--k", "2", "--z", "inf"], "--z"),
        (["runup", "--k", "2", "--n", "4", "--s", "nan"], "--s"),
        (["series", "--s", "nan"], "--s"),
        (["--tol", "nan", "gk-eval", "--k", "2", "--s", "0.3"], "--tol"),
        (["fgk", "--k", "2", "--x-hi", "inf"], "--x-hi"),
        (["asymptotics", "--s-grid", "0.1,nan"], "--s-grid"),
    ],
    ids=["count-nmax", "gk-eval-s", "runup-n", "spectrum-z", "transition-n",
         "transition-m-below-n", "simulate-s", "simulate-s-below-step-cap",
         "simulate-s-above-truncation-cap", "simulate-k-above-truncation-cap",
         "gk-eval-s-below-step-cap",
         "fit-conjecture-s-below-step-cap", "asymptotics-s-below-step-cap",
         "fit-conjecture-k", "fit-conjecture-points",
         "fit-conjecture-s-lo", "fit-conjecture-decade", "asymptotics-k",
         "asymptotics-s-grid", "asymptotics-s-grid-one-point", "fgk-x-lo",
         "fgk-x-lo-exp-rounds-to-1", "fgk-x-hi-exp-rounds-to-1",
         "runup-n-above-enumeration-guard", "runup-s-below-1e-20", "runup-s-1e-300",
         "asymptotics-k2-s-grid-not-below-1",
         "count-oracle-limit-above-cap", "count-oracle-limit-negative",
         "identities-nmax-above-cap",
         "series-factors-period", "series-factors-exponent", "series-factors-malformed",
         "series-factors-below-one", "precision-negative", "gk-eval-precision-12",
         "simulate-precision-14", "verify-all-precision-16",
         "verify-all-quick-precision-14", "asymptotics-precision-16",
         "fit-conjecture-precision-16", "gk-eval-tol-negative", "series-tol-negative",
         "simulate-tol-zero", "simulate-seed-negative", "simulate-seed-2**128",
         "verify-all-quick-seed-2**128", "fgk-points-zero",
         "fgk-points-negative", "gk-eval-trace-negative", "transition-trace-negative",
         "spectrum-z-inf", "runup-s-nan", "series-s-nan", "gk-eval-tol-nan", "fgk-x-hi-inf",
         "asymptotics-s-grid-nan"],
)
def test_bad_numeric_flag_is_usage_error(tmp_path, capsys, monkeypatch, argv, flag):
    # a usage error is found before any G_k evaluation, eigen chain,
    # simulation, f_k, g_k or quadrature is paid for
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the usage error")

    for name in ("verify.gk_eval", "verify.eigen_product_log", "probability.simulate",
                 "cli.f_k", "cli.g_k", "cli.gk_integral"):
        monkeypatch.setattr(f"kseq.{name}", no_work)
    with pytest.raises(SystemExit) as err:
        run(tmp_path, *argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "kseq" in stderr and flag in stderr and "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("precision", [12, "30"])
def test_precision_from_config_is_checked(tmp_path, capsys, monkeypatch, precision):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"precision": precision}))
    monkeypatch.setenv("KSEQ_CONFIG", str(cfg))
    with pytest.raises(SystemExit) as err:
        run(tmp_path, "gk-eval", "--k", "2", "--s", "0.3")
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("kseq: --precision ")
    assert not (tmp_path / "out").exists()


COUNT = ["count", "--k", "2", "--nmax", "4"]
SIMULATE = ["simulate", "--k", "2", "--s", "0.3", "--trials", "1000"]


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ({"tol": "1e-8"}, ["gk-eval", "--k", "2", "--s", "0.3"], "--tol from config key 'tol'"),
        ({"tol": -1}, ["series", "--s", "0.5"], "--tol from config key 'tol'"),
        ({"seed": "abc"}, SIMULATE, "--seed from config key 'seed'"),
        ({"seed": -1}, SIMULATE, "--seed from config key 'seed'"),
        ({"seed": 2**128}, SIMULATE, "--seed from config key 'seed'"),
        ({"out_format": "xml"}, COUNT, "--format from config key 'out_format'"),
        ({"out_dir": 3}, COUNT, "--out from config key 'out_dir'"),
        ({"precision": 0}, COUNT, "--precision from config key 'precision'"),
        ({"precision": 30.5}, COUNT, "--precision from config key 'precision'"),
        ({"precision": True}, COUNT, "--precision from config key 'precision'"),
        ([35], COUNT, "not a JSON object"),
        ({"tol": float("nan")}, ["series", "--s", "0.5"], "--tol from config key 'tol'"),
        ({"tol": 10**400}, ["series", "--s", "0.5"], "--tol from config key 'tol'"),
    ],
    ids=["tol-string", "tol-negative", "seed-string", "seed-negative", "seed-2**128", "out-format-xml",
         "out-dir-number", "precision-zero", "precision-float", "precision-bool",
         "not-an-object", "tol-nan", "tol-int-above-float-range"],
)
def test_bad_config_value_is_usage_error(tmp_path, capsys, monkeypatch, config, argv, message):
    # a config-file value passes its flag's type and range check; json.dumps
    # writes float("nan") as NaN, which json.load reads back
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setenv("KSEQ_CONFIG", str(cfg))
    with pytest.raises(SystemExit) as err:
        run(tmp_path, *argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("kseq: ") and message in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, config",
    [(["--out", "a_file"], None), (["--out", "a_file/out"], None), ([], {"out_dir": ""}),
     ([], None)],
    ids=["flag-existing-file", "flag-below-a-file", "config-empty", "default-existing-file"],
)
def test_bad_out_dir_is_usage_error(tmp_path, capsys, monkeypatch, argv, config):
    # refused when parsed, not when the artifact is written after the work,
    # the default ./out (no flag, no config) too; main directly, since run()
    # passes an --out of its own
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the usage error")

    monkeypatch.setattr("kseq.cli.count_constrained", no_work)
    monkeypatch.delenv("KSEQ_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("kept")
    (tmp_path / "out").write_text("kept")
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        monkeypatch.setenv("KSEQ_CONFIG", "cfg.json")
    with pytest.raises(SystemExit) as err:
        main([*argv, *COUNT])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "--out" in stderr and "Traceback" not in stderr
    assert {p.name for p in tmp_path.iterdir()} <= {"a_file", "out", "cfg.json"}
    assert (tmp_path / "a_file").read_text() == (tmp_path / "out").read_text() == "kept"


def test_precision_reaches_the_checks(tmp_path):
    # c04's tolerance is 10^-(digits-10) at the run's digits, not at 50
    code, out = run(tmp_path, "--precision", "30", "verify-all", "--quick")
    assert code == 0
    checks = {r["name"]: r for r in load(out, "verify_all")["results"]["checks"]}
    assert checks["runup_oracle"]["tolerance"] == "1.0e-20"


def test_check_failure_exit_code(tmp_path, monkeypatch):
    # one numeric run-up entry zeroed: zero on one side only is an infinite
    # gap, for the shared comparison, for c04 and for `kseq runup`
    def zero_entry_1(*args, **kwargs):
        vec = runup_vector(*args, **kwargs)
        if vec.mode != "numeric":
            return vec
        entries = list(vec.entries)
        entries[1] = -mpmath.inf
        return StateVector(vec.k, vec.n_steps, vec.mode, tuple(entries))

    monkeypatch.setattr("kseq.verify.runup_vector", zero_entry_1)
    assert verify.runup_numeric_gap(3, 5, 0.3)[2] == mpmath.inf
    assert verify.runup_matches_product(n_values=(5,))["passed"] is False
    code, out = run(tmp_path, "runup", "--k", "3", "--n", "5")
    assert code == 1
    payload = load(out, "runup")
    assert payload["passed"] is False
    assert payload["results"]["worst_log_gap"] == "+inf"


def test_transition_tail_estimate_does_not_gate(tmp_path):
    # an extrapolated tail far above --tol is reported, not failed on
    code, out = run(
        tmp_path, "--tol", "1e-30",
        "transition", "--k", "2", "--s", "0.2", "--n", "4", "--m", "30",
    )
    assert code == 0
    payload = load(out, "transition")
    assert payload["passed"] is True
    assert "tail_flagged" not in payload["results"]
    assert float(payload["results"]["tail_estimate"]) > 1e-30


def test_csv_format_artifact(tmp_path):
    code, out = run(tmp_path, "--format", "csv", "count", "--k", "2", "--nmax", "8")
    assert code == 0
    lines = (out / "count.csv").read_text().strip().splitlines()
    assert lines[0] == "n,count"
    assert len(lines) == 10


def test_rerun_reproduces_results_bit_for_bit(tmp_path):
    _, out1 = run(tmp_path / "a", "--seed", "7", "simulate", "--k", "2", "--s", "0.5", "--trials", "5000")
    _, out2 = run(tmp_path / "b", "--seed", "7", "simulate", "--k", "2", "--s", "0.5", "--trials", "5000")
    p1, p2 = load(out1, "simulate"), load(out2, "simulate")
    assert p1["results"] == p2["results"]
    _, out3 = run(tmp_path / "c", "gk-eval", "--k", "3", "--s", "0.2")
    _, out4 = run(tmp_path / "d", "gk-eval", "--k", "3", "--s", "0.2")
    assert load(out3, "gk_eval")["results"] == load(out4, "gk_eval")["results"]


@pytest.mark.parametrize("k", [7, 8])
def test_simulate_where_probability_nears_one(tmp_path, k):
    # 1 - P_s(A_k) lies far below the default tol (8.5e-15 at k = 8), and the
    # exact value still lies in (0, 1)
    code, out = run(tmp_path, "simulate", "--k", str(k), "--s", "0.9", "--trials", "1000")
    assert code == 0
    assert 0 < load(out, "simulate")["results"]["exact"] < 1


def test_golden_quick_suite(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    _, out = run(tmp_path, "identities", "--nmax", "80")
    assert load(out, "identities")["results"] == golden["identities"]["results"]
    _, out = run(tmp_path, "count", "--k", "2", "--r", "2", "--b", "1",
                 "--nmax", "40", "--oracle", "--oracle-limit", "20")
    assert load(out, "count")["results"] == golden["count"]["results"]
    _, out = run(tmp_path, "gk-eval", "--k", "2", "--s", "0.125")
    assert load(out, "gk_eval")["results"] == golden["gk_eval"]["results"]
    _, out = run(tmp_path, "--seed", "13579", "simulate", "--k", "2", "--s", "0.5",
                 "--trials", "20000")
    assert load(out, "simulate")["results"] == golden["simulate"]["results"]
    _, out = run(tmp_path, "verify-all", "--quick")
    assert load(out, "verify_all")["results"] == golden["verify_all"]["results"]


@pytest.mark.parametrize(
    "command",
    ["runup --k 4 --n 2", "runup --k 3 --n 6", "gk-eval --k 3 --s 0.05 --trace 40"],
    ids=["runup-zero-entry", "runup-k3-n6", "gk-eval-trace"],
)
def test_golden_printing_paths(tmp_path, command):
    # printed log values, a zero entry's None, and a trace CSV with -inf
    # entries, all bit for bit
    golden = json.loads(PRINTING_PATHS.read_text())[command]
    code, out = run(tmp_path, *command.split())
    assert code == 0
    name = command.split()[0].replace("-", "_")
    assert load(out, name)["results"] == golden
    if "--trace" in command:
        assert (out / "gk_trace.csv").read_bytes() == GK_TRACE.read_bytes()


@pytest.mark.parametrize("cause", ["one_cpu", "other_thread"])
def test_golden_quick_suite_in_process(tmp_path, monkeypatch, cause):
    # one usable CPU, or another thread that a fork would not carry: the
    # checks run one after another in this process, which the call recorded
    # here (a forked worker's would be lost) shows
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0} if cause == "one_cpu" else {0, 1})
    calls = []
    original = verify.oracle_equivalence

    def oracle_equivalence(**kwargs):
        calls.append(kwargs)
        return original(**kwargs)

    monkeypatch.setattr(verify, "oracle_equivalence", oracle_equivalence)
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    done = threading.Event()
    waiter = threading.Thread(target=done.wait)
    if cause == "other_thread":
        waiter.start()
    try:
        code, out = run(tmp_path, "verify-all", "--quick")
    finally:
        done.set()
        if waiter.is_alive():
            waiter.join(timeout=10)
    assert code == 0
    assert calls == [{"n_limit": 16}]
    assert load(out, "verify_all")["results"] == golden["verify_all"]["results"]


def test_verify_all_check_failure_through_pool(tmp_path, capsys, monkeypatch):
    # two usable CPUs, so the pool runs the checks on any box
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def fk_lambda_identity(**kwargs):
        return {"name": "fk_lambda_identity", "passed": False, "pid": os.getpid()}

    monkeypatch.setattr(verify, "fk_lambda_identity", fk_lambda_identity)
    code, out = run(tmp_path, "verify-all", "--quick")
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    names = [r["name"] for r in json.loads(GOLDEN.read_text())["verify_all"]["results"]["checks"]]
    assert lines[:-1] == [("FAIL " if name == "fk_lambda_identity" else "PASS ") + name
                          for name in names]
    assert lines[-1].startswith("FAIL verify-all")
    payload = load(out, "verify_all")
    assert payload["passed"] is False
    assert payload["results"]["checks"][names.index("fk_lambda_identity")]["pid"] != os.getpid()
    assert_no_child_left()


def test_verify_all_check_exception_through_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def transfer_matches_dp(**kwargs):
        raise RuntimeError(f"check broke in process {os.getpid()}")

    monkeypatch.setattr(verify, "transfer_matches_dp", transfer_matches_dp)
    with pytest.raises(RuntimeError, match="check broke in process") as err:
        run(tmp_path, "verify-all", "--quick")
    assert not str(err.value).endswith(f" {os.getpid()}")  # raised in a worker
    assert_no_child_left()


def test_verify_all_names_a_check_whose_worker_died(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    test_pid = os.getpid()

    def fk_lambda_identity(**kwargs):
        assert os.getpid() != test_pid, "the check ran in the test process"
        os._exit(3)

    monkeypatch.setattr(verify, "fk_lambda_identity", fk_lambda_identity)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="died without reporting fk_lambda_identity$"):
        run(tmp_path, "verify-all", "--quick")
    assert time.monotonic() - started < 30
    assert_no_child_left()


@pytest.mark.parametrize("names", [
    ("fk_lambda_identity",),
    ("fk_lambda_identity", "gk_integral_check"),
], ids=["one_check", "two_checks"])
def test_verify_all_report_larger_than_a_pipe_buffer(tmp_path, monkeypatch, names):
    # the parent drains one worker's pipe at a time: a worker whose pipe is
    # full waits its turn, and every report arrives whole
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    blobs = {name: os.urandom(2**20).hex() for name in names}  # 2 MiB, far above a pipe's buffer

    for name in names:
        def check(name=name, **kwargs):
            return {"name": name, "passed": True, "blob": blobs[name], "pid": os.getpid()}

        monkeypatch.setattr(verify, name, check)
    code, out = run(tmp_path, "verify-all", "--quick")
    assert code == 0
    reports = {r["name"]: r for r in load(out, "verify_all")["results"]["checks"]}
    for name, blob in blobs.items():
        assert reports[name]["blob"] == blob and reports[name]["pid"] != os.getpid()
    assert_no_child_left()


def test_verify_all_names_a_check_whose_report_marshal_cannot_encode(tmp_path, monkeypatch):
    # an mpf left in a report: the worker sends an exception naming the
    # check, not a record cut short that would read as a worker's death
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def fk_lambda_identity(**kwargs):
        return {"name": "fk_lambda_identity", "passed": True, "x": mpmath.mpf(1)}

    monkeypatch.setattr(verify, "fk_lambda_identity", fk_lambda_identity)
    with pytest.raises(ValueError, match="^fk_lambda_identity returned a report marshal "
                                         "cannot encode$"):
        run(tmp_path, "verify-all", "--quick")
    assert_no_child_left()


def test_verify_all_names_a_check_whose_record_was_cut_short(tmp_path, monkeypatch):
    # a worker that dies halfway through writing a record: the parent reads
    # that pipe's earlier records and names the check whose record was cut
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    test_pid = os.getpid()
    dump = marshal.dump

    def dump_half_then_die(record, file):
        assert os.getpid() != test_pid, "the record was written in the test process"
        if record[1]["name"] != "fk_lambda_identity":
            return dump(record, file)
        data = marshal.dumps(record)
        file.write(data[:len(data) // 2])
        file.flush()
        os._exit(3)

    monkeypatch.setattr(marshal, "dump", dump_half_then_die)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="died without reporting fk_lambda_identity$"):
        run(tmp_path, "verify-all", "--quick")
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_verify_all_interrupted_kills_its_workers(tmp_path, monkeypatch):
    # an interrupt while the parent waits on its workers' pipes: the worker
    # stuck in a check is killed, not waited for, and every worker reaped
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(verify, "oracle_equivalence", lambda **kwargs: time.sleep(60))

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(marshal, "load", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run(tmp_path, "verify-all", "--quick")
    assert time.monotonic() - started < 30
    assert_no_child_left()
    assert signal.SIGKILL == 9  # the number verify-all kills its workers by


def test_verify_all_failed_fork_closes_its_pipes(tmp_path, monkeypatch):
    # the second fork fails as at a process limit: the error reaches the
    # caller, the first worker is reaped and no pipe end stays open
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    fds = set(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        run(tmp_path, "verify-all", "--quick")
    assert set(os.listdir("/proc/self/fd")) == fds
    assert_no_child_left()


def test_verify_all_parent_imports_nothing_after_its_parser(tmp_path):
    # two usable CPUs, so verify-all forks its workers on any box; it does so
    # without multiprocessing or concurrent.futures, a run whose checks all
    # report sends them by marshal (no pickle), and workers are killed by
    # SIGKILL's number (no signal), so once the parser is built (argparse's
    # gettext loads locale then) a passing run's parent adds no module
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys\n"
         "os.sched_getaffinity = lambda pid: {0, 1}\n"
         "from kseq.cli import build_parser, main\n"
         "build_parser()\n"
         "before = set(sys.modules)\n"
         f"code = main(['verify-all', '--quick', '--out', {str(tmp_path)!r}])\n"
         "print(code, sorted(set(sys.modules) - before))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    golden = json.loads(GOLDEN.read_text())["verify_all"]["results"]
    assert load(tmp_path, "verify_all")["results"] == golden


def test_cli_import_leaves_the_pool_and_numpy_unimported():
    # verify-all imports pickle only when a forked check raises, write_csv
    # imports csv only when it writes, and the simulator imports numpy only
    # when it runs, so that every other command starts without them; the
    # package's data classes come from precision.record, which needs
    # neither dataclasses nor inspect
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, kseq.cli; "
         "print(sorted(m for m in "
         "('multiprocessing', 'concurrent.futures', 'pickle', 'select', 'csv', "
         "'numpy', 'dataclasses', 'inspect') "
         "if m in sys.modules))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runup_subcommand(tmp_path):
    code, out = run(tmp_path, "runup", "--k", "2", "--n", "6", "--s", "0.25")
    assert code == 0
    results = load(out, "runup")["results"]
    assert len(results["entries"]) == 2
    # the run-up entries and their gap, and no main term
    assert set(results) == {"k", "N", "s", "entries", "worst_log_gap"}


def test_fgk_subcommand(tmp_path):
    code, out = run(tmp_path, "--tol", "1e-10", "fgk", "--k", "3")
    assert code == 0
    payload = load(out, "fgk")
    assert payload["passed"] is True
    assert float(payload["results"]["integral_error"]) < 1e-10


def test_spectrum_and_series_subcommands(tmp_path):
    code, out = run(tmp_path, "spectrum", "--k", "3", "--z", "2.0")
    assert code == 0
    assert len(load(out, "spectrum")["results"]["roots"]) == 3
    code, out = run(tmp_path, "series", "--factors", "1,0,-1", "--nmax", "10")
    assert code == 0
    assert load(out, "series")["results"]["coefficients"][10] == "42"
