#!/usr/bin/env python3
"""Dump the counting-bound curves for a grid of alpha values.

Emits CSV on stdout with one row per (variant, alpha, n): the log2 upper and
lower bounds and whether the lower bound has overtaken the upper bound.
"""

import argparse
import csv
import sys

from permlab.structure import bound_crossovers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alphas", type=str, default="0.1,0.2,0.25,0.3,0.4")
    parser.add_argument("--p-coeffs", type=str, default="0,1")
    parser.add_argument("--n-max", type=int, default=24)
    args = parser.parse_args()

    alphas = [float(a) for a in args.alphas.split(",")]
    coeffs = tuple(float(c) for c in args.p_coeffs.split(","))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["variant", "alpha", "n", "log_upper", "log_lower", "crossed"])
    for variant in ("uniform", "parity"):
        for report in bound_crossovers(alphas, coeffs, variant, n_max=args.n_max):
            for n, upper, lower, crossed in report.rows:
                writer.writerow([variant, report.alpha, n, f"{upper:.6f}", f"{lower:.6f}", crossed])
            print(f"# {variant} alpha={report.alpha}: {report.message}", file=sys.stderr)


if __name__ == "__main__":
    main()
