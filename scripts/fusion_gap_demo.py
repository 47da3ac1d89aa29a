#!/usr/bin/env python3
"""Why unanimous voting disappoints for correlated classifiers.

Builds two predictor pairs with the same marginal precisions: one pair of
conditionally independent channels and one deliberately correlated pair that
shares most of its votes.  The independent pair lands on the closed-form
joint precision; the correlated pair shows the negative independence gap.
"""

import argparse

import numpy as np

from optioncast.fusion import REFERENCE_PRECISIONS, joint_precision, unanimous_combine


def channel(rng, truth, precision):
    correct = rng.random(len(truth)) < precision
    return np.where(correct, truth, 1 - truth)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--p1", type=float, default=0.56)
    parser.add_argument("--p2", type=float, default=0.59)
    parser.add_argument("--overlap", type=float, default=0.9,
                        help="fraction of votes the correlated pair shares")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.Generator(np.random.PCG64(args.seed))
    truth = (rng.random(args.samples) < 0.5).astype(int)

    independent = {
        "independent_1": channel(rng, truth, args.p1),
        "independent_2": channel(rng, truth, args.p2),
    }
    base = channel(rng, truth, args.p1)
    shared = np.where(rng.random(args.samples) < args.overlap,
                      base, channel(rng, truth, args.p2))
    correlated = {"correlated_1": base, "correlated_2": shared}

    print(f"closed form joint_precision({args.p1}, {args.p2}) = "
          f"{joint_precision(args.p1, args.p2):.4f}")
    for label, votes in (("independent", independent), ("correlated", correlated)):
        result = unanimous_combine(votes, truth)
        print(
            f"{label:>12}: empirical {result.empirical_joint:.4f} "
            f"theoretical {result.theoretical_joint:.4f} "
            f"gap {result.independence_gap:+.4f} coverage {result.coverage:.3f}"
        )

    print("\nreference precisions of the earlier model generations:")
    for name, precision in REFERENCE_PRECISIONS.items():
        print(f"  {name:>22}: {precision:.4f}")
    pair = joint_precision(
        REFERENCE_PRECISIONS["binary_classification"], REFERENCE_PRECISIONS["cnn"]
    )
    print(f"  binary_classification + cnn under independence -> {pair:.4f}")


if __name__ == "__main__":
    main()
