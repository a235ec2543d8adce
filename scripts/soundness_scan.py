#!/usr/bin/env python3
"""Scan verifier instances and compare the measured optimum with its closed form.

Prints, for a range of sizes, the honest-witness acceptance and the
optimal-witness acceptance of YES and NO instances, next to the analytic
value (1 + sqrt(k_even/N))/2. The NO column shows where the optimum crosses
the 2/3 soundness target: everywhere the instance has even members.
"""

import argparse

import numpy as np

from permlab.core import philox_stream
from permlab.verifier import (
    analytic_optimum,
    parity_class,
    promise_labels,
    random_instance_row,
    sweep_honest,
    sweep_lambda,
)


def show(rows) -> None:
    """Print one line per instance row; the rows share one size, so one sweep of
    each kind covers them."""
    (k_even, labels), block = promise_labels(rows), int(np.sqrt(rows.shape[1]))
    honest, lams, closed = sweep_honest(rows)[2], sweep_lambda(rows), analytic_optimum(rows)
    for label, k, p, lam, c in zip(labels, k_even, honest, lams, closed):
        flag = "" if label == "YES" or lam <= 2 / 3 + 1e-9 else "  <-- above 2/3"
        print(
            f"  N={block:3d} {label:3s} k_even={k:2d}  "
            f"honest={p:.6f}  optimal={lam:.6f}  closed-form={c:.6f}{flag}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("power-of-two instances")
    for n in (1, 2):
        show(np.stack([parity_class(n, label).incidence[0] for label in ("YES", "NO")]))
    show(np.stack([
        random_instance_row(8, label, philox_stream(args.seed)) for label in ("YES", "NO")
    ]))

    print("fractional instances (N divisible by 3, exact two-thirds split)")
    for big_n in (6, 9, 12):
        show(np.stack([
            random_instance_row(big_n, label, philox_stream(args.seed + big_n))
            for label in ("YES", "NO")
        ]))


if __name__ == "__main__":
    main()
