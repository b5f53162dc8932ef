#!/usr/bin/env python3
"""Fit the conjectured s^{1/k} correction of log(k G_k) for several k.

The conjecture predicts coefficient sqrt(2/(9 pi)) ~ 0.26596 for every k
(proved only for k = 2).  For each requested k this samples exact log G_k on
a log-spaced grid of s and reports the one- and two-term least-squares fits.
"""
import argparse

import mpmath

from kseq.asymptotics import _check_fit_design, conjecture_fit
from kseq.precision import working
from kseq.transfer import gk_eval
from kseq.verify import GK_TOL, _log_grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--s-lo", type=float, default=0.01)
    ap.add_argument("--s-hi", type=float, default=0.1)
    ap.add_argument("--points", type=int, default=8)
    ap.add_argument("--precision", type=int, default=50)
    args = ap.parse_args()

    with working(args.precision):
        try:  # the fit's design, checked before any gk_eval
            grid = _log_grid(mpmath.mpf(args.s_lo), mpmath.mpf(args.s_hi), args.points, "--points")
            _check_fit_design(grid)
        except ValueError as exc:
            ap.error(str(exc))
        target = mpmath.sqrt(mpmath.mpf(2) / (9 * mpmath.pi))
        print(f"conjectured coefficient: {mpmath.nstr(target, 10)}")
        for k in args.k:
            samples = [
                (s, gk_eval(k, s, mpmath.mpf(GK_TOL), args.precision).value.log())
                for s in grid
            ]
            one = conjecture_fit(k, samples, two_term=False, digits=args.precision)
            two = conjecture_fit(k, samples, two_term=True, digits=args.precision)
            print(
                f"k={k}: one-term c1={mpmath.nstr(one.c1, 8)} "
                f"(resid {mpmath.nstr(one.residual_norm, 3)}); "
                f"two-term c1={mpmath.nstr(two.c1, 8)}, c2={mpmath.nstr(two.c2, 8)} "
                f"(resid {mpmath.nstr(two.residual_norm, 3)}); "
                f"c1/target = {mpmath.nstr(two.c1 / target, 6)}"
            )


if __name__ == "__main__":
    main()
