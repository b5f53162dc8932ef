#!/usr/bin/env python3
"""Sweep the theorem residuals over an s-grid and emit plot-ready CSV.

Produces, for each k, the exact log G_k, its closed-form main term, the
eigenvalue-sum residual, and the three-factor assembly residual.  Output goes
to stdout or --out as CSV with one row per (k, s).
"""
import argparse
import csv
import sys

import mpmath

from kseq.asymptotics import main_term_gk
from kseq.precision import working
from kseq.verify import eigen_sum_residuals, three_factor_terms


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--s", type=float, nargs="+", default=[0.2, 0.1, 0.05, 0.02, 0.01])
    ap.add_argument("--precision", type=int, default=50)
    ap.add_argument("--out", help="CSV path (default stdout)")
    args = ap.parse_args()

    rows = []
    with working(args.precision):
        for k in args.k:
            try:  # refuses a grid without two distinct s before any work
                report = eigen_sum_residuals(k, tuple(args.s), args.precision)
            except ValueError as exc:
                ap.error(str(exc))
            closed = {row["s"]: row for row in report["rows"]}
            roots = {}  # one primary-root table for every s at this k
            for s in args.s:
                s_mp = mpmath.mpf(s)
                N, log_gk, assembled = three_factor_terms(k, s_mp, args.precision, roots)
                main = main_term_gk(k, s_mp, args.precision)
                assembly = abs(log_gk - assembled)
                rows.append(
                    {
                        "k": k,
                        "s": s,
                        "log_gk": mpmath.nstr(log_gk, 25),
                        "main_term_gap": mpmath.nstr(abs(log_gk - main), 10),
                        "eigen_sum_residual": closed[s]["residual"],
                        "assembly_N": N,
                        "assembly_residual": mpmath.nstr(assembly, 10),
                    }
                )

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        out.close()
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
