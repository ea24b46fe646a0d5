"""Exhaustive and randomized validation drivers, each reproducible from
its arguments alone.

* census_false_positives - exhaustive universe sweep against the
                      absolute bound eps*u + n' (no statistics; a
                      single violation is a failure).
* stress_label_safety - long randomized runs of a ``CheckedFilter``
                      with per-step no-false-negative checks against the
                      exact window oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from slidingbloom import DEFAULT_UNIVERSE, InvalidParams, SlidingFilter, derive
from slidingbloom.hashing import next_prime
from slidingbloom.prng import SplitMix64, derive_seed

from cell_audit import entries
from checked_filter import CheckedFilter, is_active_tag
from window_oracle import Region, WindowOracle

# (n, m, epsilon) of acceptance criterion 6's stress runs: c = 1,
# c = 100 and g = 1
CRITERION_6_STRESS_CONFIGS = [
    (1000, 1000, 0.5),
    (1000, 10, 2**-4),
    (300, 1, 2**-4),
]


@dataclass(frozen=True)
class CensusCheckpoint:
    position: int
    active_count: int
    false_positives: int
    passed: bool


@dataclass(frozen=True)
class FpCensus:
    n: int
    m: object
    epsilon: float
    u: int
    seed: int
    bound: float
    checkpoints: list = field(default_factory=list)
    max_false_positives: int = 0
    passed: bool = True


@dataclass(frozen=True)
class PassReport:
    n: int
    m: object
    epsilon: float
    seed: int
    steps: int
    boundaries: int
    label_violations: int
    fn_checks: int
    fn_failures: int
    max_active: int
    active_limit: int
    passed: bool


def census_false_positives(n: int, m, epsilon: float, seed: int,
                           u: int = 10007) -> FpCensus:
    """Exhaustively count false positives over the whole universe.

    u is raised to the next prime so that the hash modulus equals the
    universe size, which makes the bin-balance argument exact and the
    eps*u + n' bound absolute. Inserts n distinct elements and sweeps
    the full universe at generation-boundary, mid-generation and
    end-of-stream checkpoints.
    """
    p = next_prime(u)
    if p > 2_000_000:
        raise ValueError("census universe limited to ~2e6 for exhaustive sweeps")
    params = derive(n, m, epsilon, p)
    if params.fp_range > p:
        raise InvalidParams(
            f"census needs fp_range <= u so that the hash modulus equals u; "
            f"got fp_range={params.fp_range}, u={p} (raise epsilon or u)"
        )
    filt = SlidingFilter(params, seed)
    if filt.hash.p != p:
        raise AssertionError("hash modulus drifted from the census universe")

    g = params.g
    marks = sorted({min(g, n), min(g + (g + 1) // 2, n), (n + 1) // 2, n})
    bound = epsilon * p + params.n_prime

    xs = np.arange(p, dtype=np.int64)
    all_fps = (filt.hash.a * xs) % p % params.fp_range

    checkpoints = []
    max_fp = 0
    rng = SplitMix64(derive_seed(seed, "census-spotcheck"))
    done = 0
    for t in range(1, n + 1):
        filt.insert(t - 1)
        if t == marks[done]:
            active = np.fromiter(
                (fp for _i, fp, tag in entries(filt.dictionary) if is_active_tag(filt, tag)),
                dtype=np.int64)
            if len(active):
                active.sort()
                idx = np.searchsorted(active, all_fps)
                idx[idx == len(active)] = len(active) - 1
                yes_mask = active[idx] == all_fps
            else:
                yes_mask = np.zeros(p, dtype=bool)
            # elements 0..t-1 are the stream; everything else is out of scope
            false_pos = int(yes_mask.sum()) - int(yes_mask[:t].sum())
            for _ in range(200):
                x = rng.below(p)
                if bool(yes_mask[x]) != filt.query(x):
                    raise AssertionError(f"census sweep disagrees with query({x})")
            checkpoints.append(CensusCheckpoint(
                position=t,
                active_count=filt.active_count(),
                false_positives=false_pos,
                passed=false_pos <= bound,
            ))
            max_fp = max(max_fp, false_pos)
            done += 1
            if done == len(marks):
                break

    return FpCensus(
        n=n, m=m, epsilon=float(epsilon), u=p, seed=seed, bound=bound,
        checkpoints=checkpoints, max_false_positives=max_fp,
        passed=all(cp.passed for cp in checkpoints),
    )


def stress_label_safety(n: int, m, epsilon: float, steps: int, seed: int,
                        u: int = DEFAULT_UNIVERSE, probes_per_step: int = 2) -> PassReport:
    """Drive a CheckedFilter hard and cross-check it against the oracle.

    Duplicate-heavy stream (values drawn from a pool of ~2n), with the
    label checks armed at every generation boundary and probes_per_step
    in-window probes verified per step. The run stops at the first
    failed label check; ``steps`` in the report counts the inserts run,
    the failing one included.
    """
    filt = CheckedFilter.create(n, m, epsilon, u=u, seed=seed)
    oracle = WindowOracle(n, m)
    rng = SplitMix64(derive_seed(seed, "stress-stream"))
    pool = max(2 * n, 8)
    history = []

    label_violations = 0
    fn_checks = 0
    fn_failures = 0
    max_active = 0
    active_limit = (filt.params.c + 1) * filt.params.g

    for t in range(steps):
        x = rng.below(pool)
        try:
            filt.insert(x)
        except AssertionError:
            label_violations += 1
            break
        oracle.push(x)
        history.append(x)
        window = min(len(history), n)
        for _ in range(probes_per_step):
            probe = history[len(history) - 1 - rng.below(window)]
            if oracle.classify(probe) is not Region.WINDOW:
                raise AssertionError("stress probe fell outside the oracle window")
            fn_checks += 1
            if not filt.query(probe):
                fn_failures += 1
        if t % 1000 == 0:
            max_active = max(max_active, filt.active_count())

    max_active = max(max_active, filt.active_count())
    return PassReport(
        n=n, m=m, epsilon=float(epsilon), seed=seed,
        steps=filt.steps, boundaries=filt.boundaries,
        label_violations=label_violations,
        fn_checks=fn_checks, fn_failures=fn_failures,
        max_active=max_active, active_limit=active_limit,
        passed=label_violations == 0 and fn_failures == 0 and max_active <= active_limit,
    )
