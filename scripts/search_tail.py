#!/usr/bin/env python3
"""How far the eviction search of an insert reaches: the tail of its size.

For each geometry, one filter per seed (the seeds are the arguments)
takes three label cycles of distinct random elements. After each
insert, ``Dictionary.last_op_cells // BUCKET_SIZE`` is the number of
buckets its eviction search discovered, the two candidate buckets
included (2 when no search ran). The geometries are the design load
(n = 2000, m = inf, epsilon = 2^-10) and four tables at the
MIN_DICT_ELEMENTS floor. Emits TSV to stdout, one row per geometry:

    n  m  epsilon  seeds  inserts  ge8  ge16  ge24  ge32  ge40  max_buckets  overflows

where geK is the share of inserts whose search found at least K
buckets. An insert that finds no room within MAX_SEARCH buckets makes
its filter refuse all use, so it is counted, ends that seed's run, and
makes the script exit 1.

    python scripts/search_tail.py 0 1 2 3 4 5 6 7
"""

import argparse
import sys

from slidingbloom import BUCKET_SIZE, INFINITE, SlidingFilter, UnrecoverableOverflow
from slidingbloom.prng import SplitMix64

# (n, m, epsilon): the design load, then the floor geometries
GEOMETRIES = [
    (2000, INFINITE, 2**-10),
    (12, 3, 2**-2),
    (40, INFINITE, 2**-6),
    (60, 20, 2**-4),
    (200, INFINITE, 2**-10),
]
THRESHOLDS = (8, 16, 24, 32, 40)
LABEL_CYCLES = 3


def search_sizes(n, m, epsilon, seed):
    """Buckets found by the search of each insert, and whether one overflowed."""
    f = SlidingFilter.create(n, m, epsilon, seed=seed)
    d = f.dictionary
    rng = SplitMix64(seed)
    sizes = []
    for _ in range(LABEL_CYCLES * f.params.gen_modulus * f.params.g):
        try:
            f.insert(rng.below(f.params.u))
        except UnrecoverableOverflow:
            return sizes, True
        sizes.append(d.last_op_cells // BUCKET_SIZE)
    return sizes, False


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("seeds", type=int, nargs="+")
    args = ap.parse_args()

    print("n\tm\tepsilon\tseeds\tinserts\t" + "\t".join(f"ge{k}" for k in THRESHOLDS)
          + "\tmax_buckets\toverflows")
    overflows = 0
    for n, m, epsilon in GEOMETRIES:
        sizes = []
        failed = 0
        for seed in args.seeds:
            run, overflowed = search_sizes(n, m, epsilon, seed)
            sizes += run
            failed += overflowed
        inserts = len(sizes) + failed
        shares = "\t".join(f"{sum(s >= k for s in sizes) / inserts:.1e}" for k in THRESHOLDS)
        print(f"{n}\t{'inf' if m == INFINITE else m}\t2^{epsilon.hex().split('p')[1]}"
              f"\t{len(args.seeds)}\t{inserts}\t{shares}\t{max(sizes)}\t{failed}")
        overflows += failed
    return 1 if overflows else 0


if __name__ == "__main__":
    sys.exit(main())
