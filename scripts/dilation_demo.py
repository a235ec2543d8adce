#!/usr/bin/env python3
"""Show the dilation equality on one random run, plus a negative control.

The dilated picture replaces the randomized oracle with a fixed permutation
followed by a control-permutation against a fresh uniform register per
query; tracing out the controls must reproduce the channel picture exactly.
Feeding a permutation with the wrong preimage set breaks the equality, which
is the sanity check that the comparison is not vacuous. The matched sigma and
the negative control run as one stack of two trials of the same algorithm.
"""

import argparse

import numpy as np

from permlab.core import PureState, philox_stream
from permlab.dilation import QueryAlgorithm, check_dilation, random_query_algorithm
from permlab.oracles import block_permutations, representative_rows
from permlab.verifier import random_instance_row


def text(row) -> str:
    """A 0-based image row in the 1-based text form ("3 4 1 2" maps 1 to 3)."""
    return " ".join(str(i + 1) for i in row.tolist())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--queries", type=int, default=3)
    args = parser.parse_args()

    rng = philox_stream(args.seed)
    subset = random_instance_row(2, "YES", rng)
    taus = block_permutations(4, 2)
    alg = random_query_algorithm(4, 2, args.queries, rng)
    initial = PureState(8, np.kron(subset / np.sqrt(2), np.eye(2)[0]))

    # the matched sigma, then the complement's: a wrong preimage set
    sigmas = representative_rows(np.stack([subset, ~subset]))
    pair = QueryAlgorithm(4, 2, np.stack([alg.unitaries] * 2))
    run, control = check_dilation(pair, subset, sigmas, taus, initial)
    members = tuple((np.flatnonzero(subset) + 1).tolist())
    print(f"instance S = {members}, sigma = {text(sigmas[0])}")
    print(f"consistent = {run.consistent}")
    for k, d in enumerate(run.trace_distances):
        print(f"  after query {k}: trace distance {d:.3e}")

    print(f"negative control with sigma = {text(sigmas[1])}: "
          f"consistent = {control.consistent}, "
          f"max distance {control.max_trace_distance:.3e}")


if __name__ == "__main__":
    main()
