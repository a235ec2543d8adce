#!/usr/bin/env python3
"""Scan verifier instances and compare the measured optimum with its closed form.

Prints, for a range of sizes, the honest-witness acceptance and the
optimal-witness acceptance of YES and NO instances, next to the analytic
value (1 + sqrt(k_even/N))/2. The NO column shows where the optimum crosses
the 2/3 soundness target: everywhere the instance has even members.
"""

import argparse

from permlab.core import philox_stream
from permlab.verifier import (
    analytic_optimum,
    enumerate_instances,
    random_instance,
    sweep_honest,
    sweep_lambda,
)


def show(instances) -> None:
    """Print one line per instance; they share one size, so one sweep of each kind covers them."""
    honest, lams = sweep_honest(instances)[2], sweep_lambda(instances)
    for inst, p, lam in zip(instances, honest, lams):
        flag = "" if inst.label == "YES" or lam <= 2 / 3 + 1e-9 else "  <-- above 2/3"
        print(
            f"  N={inst.block:3d} {inst.label:3s} k_even={inst.k_even:2d}  "
            f"honest={p:.6f}  optimal={lam:.6f}  closed-form={analytic_optimum(inst):.6f}{flag}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("power-of-two instances")
    for n in (1, 2):
        show([enumerate_instances(n, label)[0] for label in ("YES", "NO")])
    show([random_instance(8, label, philox_stream(args.seed), n=3) for label in ("YES", "NO")])

    print("fractional instances (N divisible by 3, exact two-thirds split)")
    for big_n in (6, 9, 12):
        show([
            random_instance(big_n, label, philox_stream(args.seed + big_n))
            for label in ("YES", "NO")
        ])


if __name__ == "__main__":
    main()
