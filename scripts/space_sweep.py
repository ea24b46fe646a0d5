#!/usr/bin/env python3
"""Sweep window size and error rate; tabulate measured bits vs. the space bound.

The construction matches the space lower bound up to lower-order
terms, so one leading-term formula, bound_bits, is both the lower and
the upper bound. Emits TSV to stdout, one row per (n, epsilon):
    n  epsilon  measured_bits  bound_bits  ratio  bits_per_element

    python scripts/space_sweep.py --n 1024 --eps-pow 6 --slack inf

Exit codes, as the slidingbloom CLI's: 0 ok, 2 usage or invalid
parameters (one ``error:`` line on stderr, nothing on stdout).
"""

import argparse
import math
import sys

from slidingbloom.cli import EXIT_OK, EXIT_USAGE
from slidingbloom.filter import DEFAULT_UNIVERSE, SlidingFilter
from slidingbloom.params import INFINITE, InvalidParams, _check_nme


def bound_bits(n: int, m, epsilon: float) -> float:
    """Leading terms of the space bound: n*log2(1/eps) + n*max-term.

    The max-term is max(log2(n/m), log2(log2(1/eps))) floored at zero;
    for infinite m the log2(n/m) term drops out. Multiplicative
    (1+o(1)) factors and additive O(n) corrections are not computable
    and are intentionally omitted. Raises InvalidParams as derive does
    for n, m and epsilon.
    """
    _check_nme(n, m, epsilon)
    level = math.log2(1.0 / float(epsilon))
    candidates = [0.0, math.log2(level)]
    if m != INFINITE:
        candidates.append(math.log2(n / m))
    return n * level + n * max(candidates)


def space_report(n: int, m, epsilon: float, seed: int, u: int = DEFAULT_UNIVERSE) -> dict:
    """Bit footprint of a fresh filter against bound_bits, as a
    JSON-ready dict (m = INFINITE as "inf")."""
    filt = SlidingFilter.create(n, m, epsilon, u=u, seed=seed)
    space = filt.bits_used()
    bound = bound_bits(n, m, epsilon)
    return {
        "schema": "slidingbloom.space/2",
        "n": n, "m": "inf" if m == INFINITE else m, "epsilon": float(epsilon),
        "u": u, "seed": seed,
        "hash_p": filt.hash.p, "hash_a": filt.hash.a, "fp_range": filt.params.fp_range,
        "measured_bits": space.total_bits,
        "bound_bits": bound,
        "ratio": space.total_bits / bound,
        "counters_and_hash_bits": space.counters_and_hash_bits,
        "dictionary_bits": space.dictionary_bits,
        "cell_bits": space.cell_bits,
        "capacity_cells": space.capacity_cells,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+",
                    default=[2**10, 2**12, 2**14, 2**16])
    ap.add_argument("--eps-pow", type=int, nargs="+", default=[4, 6, 8, 10, 12],
                    help="epsilon = 2**-k for each k")
    ap.add_argument("--slack", choices=("window", "one", "inf"), default="window",
                    help="m = n ('window'), m = 1 ('one') or m = INFINITE ('inf')")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    # every row is built before the first is printed, so invalid
    # parameters leave stdout empty
    rows = []
    try:
        for n in args.n:
            m = {"window": n, "one": 1, "inf": INFINITE}[args.slack]
            for k in args.eps_pow:
                rows.append((n, k, space_report(n, m, 2.0**-k, seed=args.seed)))
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print("n\tepsilon\tmeasured_bits\tbound_bits\tratio\tbits_per_element")
    for n, k, rep in rows:
        print(f"{n}\t2^-{k}\t{rep['measured_bits']}\t{rep['bound_bits']:.0f}"
              f"\t{rep['ratio']:.3f}\t{rep['measured_bits'] / n:.2f}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
