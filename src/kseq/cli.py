"""Batch driver: every verification as a subcommand with JSON/CSV artifacts.

Artifacts embed the run configuration, precision, package version and wall
time; the numeric payload under "results" is bit-for-bit reproducible for a
fixed configuration (fixed seeds, deterministic reductions; verify-all's
checks run in parallel in forked workers, but each check whole in one process).
Exit code 0 means every requested check passed its declared tolerance, 1 a
check failure, 2 a usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import threading
import time

import mpmath

from . import __version__, verify
from .asymptotics import f_k, g_k, gk_integral, lambda_k
from .counting import Constraint, count_constrained, enumerate_oracle
from .identities import DEFAULT_NMAX_CAP, check_all
from .precision import DEFAULT_DIGITS, record, working
from .probability import SEED_LIMIT, ModelParams, simulation_report
from .series import eval_at, product_form
from .spectral import chain_trace, char_roots, transition_tail_product
from .transfer import _N_CAP, _reaches, _tol_floor, convergence_trace, gk_eval

SCHEMA_VERSION = 1


@record
class RunConfig:
    precision: int = DEFAULT_DIGITS
    tol: float = 1e-10
    out_dir: str = "out"
    out_format: str = "json"
    seed: int = 20260809

    @staticmethod
    def load(path: str | None, flags: dict) -> "RunConfig":
        """Defaults, overridden by a JSON config file (flag or KSEQ_CONFIG),
        then by ``flags`` (RunConfig field -> value from its flag); ValueError
        for a bad file, key or value, or an ``out_dir`` default a file blocks."""
        settings = {}
        path = path or os.environ.get("KSEQ_CONFIG")
        if path:
            try:
                with open(path) as fh:
                    overrides = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ValueError(f"bad config {path}: {exc}") from None
            if not isinstance(overrides, dict):
                raise ValueError(f"bad config {path}: not a JSON object")
            for key, value in overrides.items():
                if key not in _SETTINGS:
                    raise ValueError(f"unknown config key {key!r}")
                settings[key] = _config_value(key, value)
        if "out_dir" not in settings | flags:  # the default passes its flag's check too
            try:
                _out_dir(RunConfig.out_dir)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"--out default: {exc}") from None
        return RunConfig(**{**settings, **flags})


def write_artifact(cfg: RunConfig, name: str, results, passed: bool, started: float) -> str:
    """Write ``<out_dir>/<name>.json``; its config leaves out ``out_dir``, the
    directory the artifact sits in, so its bytes do not depend on that path."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    config = {key: value for key, value in vars(cfg).items() if key != "out_dir"}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": "kseq",
        "version": __version__,
        "config": config,
        "passed": passed,
        "results": results,
        "wall_time_s": round(time.time() - started, 3),
    }
    path = os.path.join(cfg.out_dir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def write_csv(cfg: RunConfig, name: str, header, rows) -> str:
    import csv  # here, so a command that writes no CSV never loads it

    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"{name}.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def _nstr(x, digits=30):
    return mpmath.nstr(x, digits)


def _bounded(cast, low, strict=False, below=None):
    """argparse type: ``cast(text)`` that must be >= low (> low if strict),
    < below if given, and finite if a float (NaN passes every comparison), so
    a bad value is a usage error (exit 2), not a traceback."""
    def parse(text):
        value = cast(text)
        if cast is float and not math.isfinite(value):  # an int may exceed any float
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be < {below}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


_K = _bounded(int, 2)
_NONNEGATIVE_INT = _bounded(int, 0)
_POSITIVE_FLOAT = _bounded(float, 0, strict=True)


def _out_format(text):
    """argparse type: an artifact format."""
    if text not in ("json", "csv"):
        raise argparse.ArgumentTypeError(f"must be json or csv, got {text}")
    return text


def _out_dir(text):
    """argparse type: an artifact directory, refused before any work if empty
    or if a file stands where it, or a directory above it, would be made."""
    path = os.path.abspath(text)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not text or not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"must name a directory, got {text!r}")
    return text


# RunConfig field -> (its flag, the JSON type a config-file value must have,
# the flag's argparse type, its help), so both sources of a setting pass one
# check
_SETTINGS = {
    "precision": ("--precision", int, _bounded(int, 1), "decimal digits (default 50)"),
    "tol": ("--tol", (int, float), _POSITIVE_FLOAT, "default tolerance"),
    "out_dir": ("--out", str, _out_dir, "artifact directory (default ./out)"),
    "out_format": ("--format", str, _out_format, "artifact format, json or csv"),
    "seed": ("--seed", int, _bounded(int, 0, below=SEED_LIMIT), "seed for randomized subcommands"),
}


def _config_value(key: str, value):
    """A config-file value held to its flag's check; ValueError naming the
    flag and the key (bool is no JSON number, though Python counts it an int,
    and an int past the float range overflows a float flag's cast)."""
    flag, json_type, parse, _ = _SETTINGS[key]
    try:
        if isinstance(value, bool) or not isinstance(value, json_type):
            kind = {int: "an integer", str: "a string"}.get(json_type, "a number")
            raise argparse.ArgumentTypeError(f"must be {kind}, got {value!r}")
        return parse(value)
    except (argparse.ArgumentTypeError, OverflowError) as exc:
        raise ValueError(f"{flag} from config key {key!r}: {exc}") from None


def _s_grid(text):
    """argparse type: comma-separated s values, each > 0, two of them distinct
    (the residual slope is fitted across the grid)."""
    grid = tuple(_POSITIVE_FLOAT(x) for x in text.split(","))
    if len(set(grid)) < 2:
        raise argparse.ArgumentTypeError(f"needs two distinct values, got {text}")
    return grid


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _usage_checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), whose ValueError (a bad flag) is a usage error, exit 2."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        print(f"kseq: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def cmd_count(cfg: RunConfig, args) -> tuple:
    c = _usage_checked(Constraint, args.k, args.r, args.b)
    table = count_constrained(c, args.nmax)
    results = {
        "constraint": c.label(),
        "counts": [str(v) for v in table.values],
    }
    passed = True
    if args.oracle:
        limit = min(args.nmax, args.oracle_limit)
        # largest n first, so one beyond the enumeration cap is a usage error
        # before any enumeration runs
        mism = [
            n for n in range(limit, -1, -1)
            if _usage_checked(enumerate_oracle, c, n) != table[n]
        ][::-1]
        results["oracle_checked_to"] = limit
        results["oracle_mismatches"] = mism
        passed = not mism
    if cfg.out_format == "csv":
        write_csv(cfg, "count", ["n", "count"], list(enumerate(str(v) for v in table.values)))
    return results, passed


def _parse_factors(text: str) -> list:
    factors = []
    for chunk in text.split(";"):
        try:
            a, b, e = (int(x) for x in chunk.split(","))
        except ValueError:
            raise ValueError(f"--factors takes a,b,e integer triples, got {chunk!r}") from None
        factors.append((a, b, e))
    return factors


def cmd_series(cfg: RunConfig, args) -> tuple:
    factors = _usage_checked(_parse_factors, args.factors) if args.factors else []
    series = _usage_checked(product_form, factors, args.nmax)
    results = {"factors": factors, "coefficients": [str(c) for c in series.coeffs]}
    if args.s is not None:
        ev = eval_at(series, args.s, cfg.precision, tol=cfg.tol)
        results["value_at_s"] = _nstr(ev.value, cfg.precision)
        results["tail_estimate"] = _nstr(ev.tail_estimate, 8)
        results["within_tol"] = ev.within_tol
    if cfg.out_format == "csv":
        write_csv(cfg, "series", ["n", "coefficient"],
                  list(enumerate(str(c) for c in series.coeffs)))
    return results, True


def cmd_gk_eval(cfg: RunConfig, args) -> tuple:
    res = gk_eval(args.k, args.s, cfg.tol, cfg.precision)
    results = {
        "k": args.k,
        "s": args.s,
        "log_gk": _nstr(res.value.log(), cfg.precision),
        "n_used": res.n_used,
        "rel_bound": _nstr(res.rel_bound, 6),
    }
    if args.trace:
        rows = convergence_trace(args.k, args.s, min(res.n_used, args.trace), digits=cfg.precision)
        write_csv(cfg, "gk_trace", ["n"] + [f"log_v{a}" for a in range(args.k)],
                  [tuple(_nstr(x, 20) if not isinstance(x, int) else x for x in row) for row in rows])
    return results, True


def cmd_spectrum(cfg: RunConfig, args) -> tuple:
    point = char_roots(args.k, args.z, cfg.precision)
    results = {
        "k": args.k,
        "z": args.z,
        "roots": [[_nstr(r.real, cfg.precision), _nstr(r.imag, cfg.precision)]
                  for r in point.roots],
        "residuals": [_nstr(r, 6) for r in point.residuals()],
    }
    return results, True


def cmd_transition(cfg: RunConfig, args) -> tuple:
    res = transition_tail_product(args.k, args.s, args.N, args.M, cfg.precision)
    results = {
        "k": args.k, "s": args.s, "N": args.N, "M": args.M,
        "log_product": _nstr(res.log_product, cfg.precision),
        "tail_estimate": _nstr(res.tail_estimate, 6),
        "prediction": _nstr(res.prediction, cfg.precision),
        "residual": _nstr(res.residual, 8),
    }
    if args.trace:
        rows = chain_trace(args.k, args.s, args.N, min(args.M, args.N + args.trace), cfg.precision)
        header = ["n"]
        for j in range(args.k):
            header += [f"re_lambda{j+1}", f"im_lambda{j+1}"]
        header.append("T11")
        write_csv(cfg, "spectral_trace", header,
                  [tuple(_nstr(x, 20) if not isinstance(x, int) else x for x in row) for row in rows])
    return results, True


def cmd_runup(cfg: RunConfig, args) -> tuple:
    vec, prod, worst = _usage_checked(verify.runup_numeric_gap, args.k, args.N, args.s,
                                      cfg.precision)
    rows = []
    with working(cfg.precision):
        for a, logs in enumerate(zip(vec.entries, prod.entries)):
            # None for a zero entry, whose log is -inf
            log_oracle, log_product = (
                _nstr(x, cfg.precision) if x > -mpmath.inf else None for x in logs)
            rows.append({"a": a, "log_oracle": log_oracle, "log_product": log_product})
        passed, _ = verify.runup_verdict(worst, cfg.precision)
        results = {"k": args.k, "N": args.N, "s": args.s, "entries": rows,
                   "worst_log_gap": _nstr(worst, 6)}
    return results, bool(passed)


def cmd_fgk(cfg: RunConfig, args) -> tuple:
    with working(cfg.precision):
        xs = [args.x_lo * (args.x_hi / args.x_lo) ** (i / max(args.points - 1, 1))
              for i in range(args.points)]
        ys = [mpmath.exp(-mpmath.mpf(x)) for x in xs]
        if max(ys) >= 1:  # at the grid's smallest x, before any f_k, g_k or quadrature
            flag, x = "--x-lo", args.x_lo
            if args.points > 1 and args.x_hi < args.x_lo:
                flag, x = "--x-hi", args.x_hi
            print(f"kseq: {flag} {x}: e^-x rounds to 1 at precision {cfg.precision}, "
                  "and f_k(y) needs y < 1", file=sys.stderr)
            raise SystemExit(2)
        rows = [{
            "x": x,
            "f_k": _nstr(f_k(y, args.k, cfg.precision), cfg.precision),
            "g_k": _nstr(g_k(x, args.k, cfg.precision), cfg.precision),
        } for x, y in zip(xs, ys)]
        integral = gk_integral(args.k, cfg.tol)
        target = lambda_k(args.k)
        results = {
            "k": args.k,
            "grid": rows,
            "gk_integral": _nstr(integral, cfg.precision),
            "integral_target": _nstr(target, cfg.precision),
            "integral_error": _nstr(abs(integral - target), 6),
        }
        passed = bool(abs(integral - target) < cfg.tol)
    return results, passed


def cmd_asymptotics(cfg: RunConfig, args) -> tuple:
    reports = [
        verify.eigen_sum_residuals(args.k, args.s_grid, cfg.precision),
        verify.gk_main_term_check(args.s_grid, digits=cfg.precision) if args.k == 2 else None,
        verify.three_factor_assembly(args.k, args.s_grid, cfg.precision),
    ]
    reports = [r for r in reports if r is not None]
    return {"reports": reports}, all(r["passed"] for r in reports)


def cmd_simulate(cfg: RunConfig, args) -> tuple:
    params = _usage_checked(ModelParams, args.k, args.s, args.trials, cfg.seed, args.eps)
    record = simulation_report(params, cfg.tol, cfg.precision)
    return record, record["within_3sigma_plus_bias"]


def cmd_identities(cfg: RunConfig, args) -> tuple:
    reports = check_all(args.nmax)
    if cfg.out_format == "csv":
        write_csv(cfg, "identities", ["name", "passed", "first_discrepancy"],
                  [(r.name, r.passed, r.first_discrepancy) for r in reports])
    cases = [r.to_json_dict() for r in reports]
    return {"cases": cases, "n_max": args.nmax}, all(r.passed for r in reports)


def cmd_fit_conjecture(cfg: RunConfig, args) -> tuple:
    # the fit's own design checks (4 samples, a decade of s) decide these
    # flags, before any gk_eval
    report = _usage_checked(verify.conjecture_fit_check, args.k, args.s_lo, args.s_hi,
                            args.points, digits=cfg.precision)
    return report, report["passed"]


def _run_checks(quick: bool, digits: int, seed: int) -> list:
    """The reports of ``verify.check_table``'s quick or full list, in report
    order; each check runs whole in one process, so the reports are the same
    however the checks are spread.

    With more than one usable CPU (``os.sched_getaffinity``) the checks run
    in workers forked here, one per usable CPU and at most one per check,
    that pull check indices from one shared pipe (so no long check holds up
    the rest), write one ``marshal`` record per check to a pipe of their own,
    ``(index, report, None)``, or ``(index, None, pickled exception)`` for a
    check that raised or returned a report ``marshal`` cannot encode, and
    leave by ``os._exit``; ``pickle`` is imported only for such an
    exception, and workers are killed by SIGKILL's number, 9, not through
    ``signal``, so a passing run's parent imports no module once its parser
    is built.  The parent reads one worker's pipe to its end, then the next:
    a worker whose pipe fills waits its turn while the others take the
    remaining checks.  With one usable CPU, without ``fork``, or in a process
    running other threads (a lock one of them holds would stay locked in a
    forked worker) they run here, one after another.  The first exception a check raises, in report order, reaches
    the caller (from workers, once every check has run), a RuntimeError names
    any check whose worker died without its report, and no worker is left
    running or unreaped, nor any pipe open, when this returns or raises (a
    failed ``fork`` too).
    """
    checks = [(check, quick_kwargs if quick else full_kwargs)
              for check, quick_kwargs, full_kwargs in verify.check_table(digits, seed)
              if not quick or quick_kwargs is not None]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(checks))
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return [check(**kwargs) for check, kwargs in checks]
    import marshal  # built in: it costs no import

    tasks, feed = os.pipe()
    os.write(feed, bytes(range(len(checks))))  # one byte per check index
    os.close(feed)
    streams, pids, reports = [], [], {}  # result pipes, worker pids, index -> report
    try:
        for _ in range(workers):
            pipe, write = os.pipe()
            streams.append(open(pipe, "rb"))  # buffered: a raw read may stop short of a record
            try:
                pids.append(os.fork())
            except BaseException:  # e.g. BlockingIOError at a process limit
                os.close(write)
                raise
            if pids[-1] == 0:  # a worker: run checks until the task pipe is empty
                try:
                    with open(write, "wb") as out:
                        while task := os.read(tasks, 1):
                            check, kwargs = checks[task[0]]
                            try:
                                report = check(**kwargs)
                                try:
                                    marshal.dump((task[0], report, None), out)
                                except ValueError as exc:  # raised before it writes
                                    raise ValueError(f"{check.__name__} returned a report "
                                                     "marshal cannot encode") from exc
                            except Exception as exc:
                                import pickle  # only when a check fails
                                import traceback
                                traceback.print_exc()  # the parent re-raises exc without it
                                marshal.dump((task[0], None, pickle.dumps(exc)), out)
                            out.flush()
                finally:
                    os._exit(0)
            os.close(write)
        for stream in streams:
            # to the pipe's end, or to a record cut short by its worker's death
            with contextlib.suppress(EOFError):
                while True:
                    index, report, error = marshal.load(stream)
                    if error is not None:
                        import pickle  # only when a check failed
                        report = pickle.loads(error)
                    reports[index] = report
    finally:
        for pid in pids:
            # a worker at its pipe's end is done; one still running was interrupted.
            # 9 is SIGKILL wherever os.fork exists; the signal module would be
            # the only module a passing run's parent loads after its parser
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        os.close(tasks)
        for stream in streams:
            stream.close()
    lost = RuntimeError("a verify-all worker died without reporting " + ", ".join(
        check.__name__ for index, (check, _) in enumerate(checks) if index not in reports))
    ordered = [reports.get(index, lost) for index in range(len(checks))]
    for report in ordered:
        if isinstance(report, BaseException):
            raise report
    return ordered


def cmd_verify_all(cfg: RunConfig, args) -> tuple:
    """``verify.check_table``'s quick or full list, run by ``_run_checks``
    (in forked workers when more than one CPU is usable); one PASS/FAIL line per
    check, printed in report order once every check has run."""
    checks = _run_checks(args.quick, cfg.precision, cfg.seed)
    for report in checks:
        status = "PASS" if report["passed"] else "FAIL"
        print(f"{status} {report['name']}")
    return {"checks": checks}, all(c["passed"] for c in checks)


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted on either side of the subcommand; SUPPRESS
    # keeps unset subcommand-side copies from clobbering main-side values
    common = argparse.ArgumentParser(add_help=False)
    for field, (flag, _, parse, help_text) in _SETTINGS.items():
        common.add_argument(flag, dest=field, type=parse, default=argparse.SUPPRESS,
                            help=help_text)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config path (or KSEQ_CONFIG env var)")
    p = argparse.ArgumentParser(
        prog="kseq",
        description="exact and asymptotic toolkit for partitions without k-sequences",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    sp = add_parser("count", help="exact constrained partition counts")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", type=int, default=None, help="multiplicity cap (omit for unbounded)")
    sp.add_argument("--b", type=int, default=0, help="minimum part bound B")
    sp.add_argument("--n", "--nmax", dest="nmax", type=_NONNEGATIVE_INT, default=100,
                    help="largest weight tabulated")
    sp.add_argument("--oracle", action="store_true", help="cross-check against enumeration")
    sp.add_argument("--oracle-limit", type=_NONNEGATIVE_INT, default=36)
    sp.set_defaults(fn=cmd_count)

    sp = add_parser("series", help="expand a (1-q^{an+b})^e product")
    sp.add_argument("--factors", help="semicolon-separated a,b,e triples")
    sp.add_argument("--nmax", type=_NONNEGATIVE_INT, default=100)
    sp.add_argument("--s", type=_POSITIVE_FLOAT, help="also evaluate at q=e^{-s}")
    sp.set_defaults(fn=cmd_series)

    sp = add_parser("gk-eval", help="numeric log G_k(e^{-s})")
    sp.add_argument("--k", type=_K, required=True)
    sp.add_argument("--s", type=_POSITIVE_FLOAT, required=True)
    sp.add_argument("--trace", type=_NONNEGATIVE_INT, default=0,
                    help="emit a CSV trace up to this n")
    sp.set_defaults(fn=cmd_gk_eval)

    sp = add_parser("spectrum", help="labeled characteristic roots at one z")
    sp.add_argument("--k", type=_K, required=True)
    sp.add_argument("--z", type=_POSITIVE_FLOAT, required=True)
    sp.set_defaults(fn=cmd_spectrum)

    sp = add_parser("transition", help="log prod T(n)^{1,1} vs closed form")
    sp.add_argument("--k", type=_K, required=True)
    sp.add_argument("--s", type=_POSITIVE_FLOAT, required=True)
    sp.add_argument("--n", "--N", dest="N", type=_bounded(int, 2), required=True,
                    help="first index of the product")
    sp.add_argument("--m", "--M", dest="M", type=int, required=True,
                    help="last index computed explicitly")
    sp.add_argument("--trace", type=_NONNEGATIVE_INT, default=0)
    sp.set_defaults(fn=cmd_transition)

    sp = add_parser("runup", help="shortening-sum oracle vs matrix product")
    sp.add_argument("--k", type=_K, required=True)
    sp.add_argument("--n", "--N", dest="N", type=_bounded(int, 1), required=True,
                    help="part-size cutoff")
    # below 1e-20 the product's z = q^n/(1 - q^n) loses more digits than its verdict spares
    sp.add_argument("--s", type=_bounded(float, 1e-20), default=0.3)
    sp.set_defaults(fn=cmd_runup)

    sp = add_parser("fgk", help="f_k/g_k grid and the g_k integral")
    sp.add_argument("--k", type=_K, required=True)
    sp.add_argument("--points", type=_bounded(int, 1), default=10)
    sp.add_argument("--x-lo", type=_POSITIVE_FLOAT, default=0.05)
    sp.add_argument("--x-hi", type=_POSITIVE_FLOAT, default=5.0)
    sp.set_defaults(fn=cmd_fgk)

    sp = add_parser("asymptotics", help="theorem residual reports")
    sp.add_argument("--k", type=_K, default=2)
    sp.add_argument("--s-grid", type=_s_grid, default="0.1,0.05,0.02,0.01")
    sp.set_defaults(fn=cmd_asymptotics)

    sp = add_parser("simulate", help="Monte Carlo estimate of P_s(A_k)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--s", type=_POSITIVE_FLOAT, required=True)
    sp.add_argument("--trials", type=int, default=10**5)
    sp.add_argument("--eps", type=float, default=1e-4)
    sp.set_defaults(fn=cmd_simulate)

    sp = add_parser("identities", help="coefficient-exact identity suite")
    sp.add_argument("--nmax", type=_bounded(int, 0, below=DEFAULT_NMAX_CAP + 1), default=300)
    sp.set_defaults(fn=cmd_identities)

    sp = add_parser("fit-conjecture", help="fit the s^{1/k} correction")
    sp.add_argument("--k", type=_K, default=2)
    sp.add_argument("--s-lo", type=_POSITIVE_FLOAT, default=0.01)
    sp.add_argument("--s-hi", type=_POSITIVE_FLOAT, default=0.1)
    sp.add_argument("--points", type=_bounded(int, 2), default=6)
    sp.set_defaults(fn=cmd_fit_conjecture)

    sp = add_parser("verify-all", help="run the acceptance checks")
    sp.add_argument("--quick", action="store_true", help="reduced grids")
    sp.set_defaults(fn=cmd_verify_all)

    return p


# the smallest tolerance a command hands gk_eval, which certifies none below
# 10^-(precision-5), and the smallest s it hands gk_eval with that tolerance
# (None for verify-all's fixed grids): exact_prob hands gk_eval its own tol
# (simulate, and verify-all's monte_carlo check at verify.PROB_TOL), and the
# theorem checks evaluate G_k at verify.GK_TOL
_GK_TOL = {
    "gk-eval": lambda cfg, args: (cfg.tol, args.s),
    "simulate": lambda cfg, args: (cfg.tol, args.s),
    "asymptotics": lambda cfg, args: (verify.GK_TOL, min(args.s_grid)),
    "fit-conjecture": lambda cfg, args: (verify.GK_TOL, min(args.s_lo, args.s_hi)),
    "verify-all": lambda cfg, args: (verify.PROB_TOL if args.quick else verify.GK_TOL, None),
}


def _check_gk_reach(command: str, digits: int, tol, s) -> None:
    """ValueError for a precision too low for the tolerance ``command`` hands
    gk_eval, or for an s (None: none to test) too small for gk_eval to meet
    that tolerance by its step cap; for kseq and the scripts, before any work."""
    with working(digits):
        tol, floor = mpmath.mpf(tol), _tol_floor(digits)
        if tol < floor:
            raise ValueError(
                f"--precision {digits} certifies no tolerance below "
                f"{mpmath.nstr(floor, 3)}, and {command} needs {mpmath.nstr(tol, 3)}")
        if s is not None and not _reaches(mpmath.mpf(s), tol):
            raise ValueError(
                f"s = {s} is too small for gk_eval to meet tol "
                f"{mpmath.nstr(tol, 3)} within {_N_CAP} steps")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "transition" and args.M < args.N:
        parser.error("transition: --m must be >= --n")
    if args.command == "asymptotics" and args.k == 2 and min(args.s_grid) >= 1:
        parser.error("asymptotics: at --k 2 the --s-grid needs an s below 1 for P_s(A_2)")
    # each setting's flag stores under the RunConfig field's name
    flags = {field: getattr(args, field) for field in _SETTINGS if hasattr(args, field)}
    cfg = _usage_checked(RunConfig.load, getattr(args, "config", None), flags)
    if args.command in _GK_TOL:  # cfg.precision is already an int >= 1, from either source
        _usage_checked(_check_gk_reach, args.command, cfg.precision,
                       *_GK_TOL[args.command](cfg, args))
    started = time.time()
    name = args.command.replace("-", "_")
    results, passed = args.fn(cfg, args)
    path = write_artifact(cfg, name, results, passed, started)
    print(f"{'PASS' if passed else 'FAIL'} {args.command} -> {path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
