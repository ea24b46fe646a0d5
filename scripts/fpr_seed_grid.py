#!/usr/bin/env python3
"""Estimate the false-positive rate over a grid of seeds.

One JSON line per seed (schema slidingbloom.fpr/1) plus a trailing
summary: seeds where the estimate exceeded epsilon + 3 sigma, and the
worst estimate observed. A handful of seed-level excursions past the
3-sigma envelope is expected statistics, not a defect; systematic
excess is a defect.

    python scripts/fpr_seed_grid.py -n 200 -m 50 -e 0.0625 -T 2000 --seed 4 --seeds 1

The grid runs seeds --seed .. --seed + --seeds - 1 (default 0..29). The
default stream length is n + finite(m) + max(10, n), the length of
acceptance criterion 2.

Exit codes, as the slidingbloom CLI's: 0 ok, 2 usage, invalid
parameters or stream length, 3 dictionary insert overflow, 4
statistically underpowered run (epsilon * trials < 20).
"""

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from slidingbloom.cli import EXIT_OK, EXIT_OVERFLOW, EXIT_USAGE, _add_filter_args
from slidingbloom.dictionary import InsertOverflow
from slidingbloom.filter import DEFAULT_UNIVERSE, SlidingFilter
from slidingbloom.params import INFINITE
from slidingbloom.prng import SplitMix64, derive_seed

EXIT_UNDERPOWERED = 4

# estimates with an expected hit count below this are statistically
# meaningless; reports flag them and the script exits nonzero
MIN_EXPECTED_HITS = 20


def measure_fpr(n: int, m, epsilon: float, stream_len: int, trials: int,
                seed: int, u: int = DEFAULT_UNIVERSE) -> dict:
    """Estimate the Yes-rate on elements that never entered the stream.

    Inserts stream_len distinct elements; at 10 evenly spaced
    checkpoints past the point where out-of-scope elements exist,
    queries a fresh batch of never-inserted probes. The stream is the
    range [0, stream_len); probes are drawn pseudorandomly from
    [stream_len, u), so every probe lies outside the window-plus-slack
    scope by construction. Probes must be spread over the universe
    rather than taken consecutively: consecutive integers map to a
    structured arithmetic progression of fingerprints and do not
    estimate the universe-wide false-positive rate.

    Returns the report as a JSON-ready dict (m = INFINITE as "inf").
    """
    if trials < 10:
        raise ValueError("trials must be >= 10")
    m_fin = 0 if m == INFINITE else m
    start = n + m_fin
    if stream_len < start + 10:
        raise ValueError(f"stream_len must be >= n + finite(m) + 10 = {start + 10}")
    if stream_len + trials > u:
        raise ValueError("universe too small for disjoint stream and probes")

    filt = SlidingFilter.create(n, m, epsilon, u=u, seed=seed)
    positions = sorted({start + ((stream_len - start) * j) // 10 for j in range(1, 11)})
    per_batch = [trials // 10 + (1 if j < trials % 10 else 0) for j in range(10)]
    probe_rng = SplitMix64(derive_seed(seed, "fpr-probes"))
    probe_span = u - stream_len

    yes = 0
    batch_idx = 0
    next_checkpoint = positions[0]
    query = filt.query
    insert = filt.insert
    below = probe_rng.below
    for t in range(stream_len):
        insert(t)
        if t + 1 == next_checkpoint:
            for _ in range(per_batch[batch_idx]):
                if query(stream_len + below(probe_span)):
                    yes += 1
            batch_idx += 1
            next_checkpoint = positions[batch_idx] if batch_idx < len(positions) else -1

    estimate = yes / trials
    three_sigma = 3.0 * math.sqrt(epsilon * (1.0 - epsilon) / trials)
    return {
        "schema": "slidingbloom.fpr/1",
        "n": n, "m": "inf" if m == INFINITE else m, "epsilon": float(epsilon),
        "u": u, "seed": seed,
        "hash_p": filt.hash.p, "hash_a": filt.hash.a, "fp_range": filt.params.fp_range,
        "stream_len": stream_len, "trials": trials, "checkpoints": len(positions),
        "yes_count": yes, "estimate": estimate, "bound": float(epsilon),
        "three_sigma": three_sigma,
        "passed": estimate <= epsilon + three_sigma,
        "underpowered": epsilon * trials < MIN_EXPECTED_HITS,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    _add_filter_args(ap)
    ap.add_argument("-T", "--trials", type=int, default=100_000)
    ap.add_argument("--seeds", type=int, default=30)
    ap.add_argument("--stream-len", type=int, default=None)
    ap.add_argument("--workers", type=int, default=2)
    try:
        args = ap.parse_args(argv)
        if args.seeds < 1:
            ap.error("--seeds must be >= 1")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    n, m, eps = args.window, args.slack, args.epsilon
    stream_len = args.stream_len
    if stream_len is None:
        stream_len = n + (0 if m == INFINITE else m) + max(10, n)
    run = partial(measure_fpr, n, m, eps, stream_len, args.trials)

    failures = []
    worst = 0.0
    try:
        with ProcessPoolExecutor(args.workers) as pool:
            for rep in pool.map(run, range(args.seed, args.seed + args.seeds)):
                print(json.dumps(rep, sort_keys=True))
                worst = max(worst, rep["estimate"])
                if not rep["passed"]:
                    failures.append(rep["seed"])
    except ValueError as exc:  # InvalidParams too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InsertOverflow as exc:
        print(f"error: insert overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW

    print(json.dumps({
        "schema": "slidingbloom.fpr-grid/1",
        "seeds": args.seeds,
        "failed_seeds": failures,
        "worst_estimate": worst,
        "bound": rep["bound"],
        "three_sigma": rep["three_sigma"],
    }, sort_keys=True))
    if rep["underpowered"]:  # the same for every seed
        print(f"warning: epsilon*trials = {eps * args.trials:.1f} "
              f"< {MIN_EXPECTED_HITS}; estimates are underpowered", file=sys.stderr)
        return EXIT_UNDERPOWERED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
