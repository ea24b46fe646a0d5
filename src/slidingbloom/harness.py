"""Measurement and statistical validation drivers.

Four entry points, each reproducible from its arguments alone:

* measure_fpr       - Monte Carlo false-positive rate against the
                      epsilon + 3 sigma binomial envelope.
* census_false_positives - exhaustive universe sweep against the
                      absolute bound eps*u + n' (no statistics; a
                      single violation is a failure).
* space_report      - notional bit footprint vs. the leading-term
                      space bounds.
* stress_label_safety - long randomized runs with the label-reuse debug
                      hook armed and per-step no-false-negative checks
                      against the exact oracle.

All reports serialize to versioned JSON-compatible dicts for the CLI
and CI.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .filter import DEFAULT_UNIVERSE, SlidingFilter
from .hashing import next_prime
from .oracle import Region, WindowOracle
from .params import INFINITE, InvalidParams, derive, lower_bound_bits, upper_bound_bits
from .prng import SplitMix64, derive_seed

# estimates with an expected hit count below this are statistically
# meaningless; reports flag them and the CLI exits nonzero
MIN_EXPECTED_HITS = 20


def _m_json(m):
    return "inf" if m == INFINITE else m


@dataclass(frozen=True)
class FprReport:
    n: int
    m: object
    epsilon: float
    u: int
    seed: int
    hash_p: int
    hash_a: int
    fp_range: int
    stream_len: int
    trials: int
    checkpoints: int
    yes_count: int
    estimate: float
    bound: float
    three_sigma: float
    passed: bool
    underpowered: bool

    def to_dict(self) -> dict:
        d = asdict(self)
        d["m"] = _m_json(d["m"])
        d["schema"] = "slidingbloom.fpr/1"
        return d


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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["m"] = _m_json(d["m"])
        d["schema"] = "slidingbloom.census/1"
        return d


@dataclass(frozen=True)
class SpaceVsBounds:
    n: int
    m: object
    epsilon: float
    u: int
    seed: int
    hash_p: int
    hash_a: int
    fp_range: int
    measured_bits: int
    lower_bound_bits: float
    upper_bound_bits: float
    ratio: float
    counters_and_hash_bits: int
    dictionary_bits: int
    cell_bits: int
    capacity_cells: int

    def to_dict(self) -> dict:
        d = asdict(self)
        d["m"] = _m_json(d["m"])
        d["schema"] = "slidingbloom.space/1"
        return d


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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["m"] = _m_json(d["m"])
        d["schema"] = "slidingbloom.stress/1"
        return d


def measure_fpr(n: int, m, epsilon: float, stream_len: int, trials: int,
                seed: int, u: int = DEFAULT_UNIVERSE) -> FprReport:
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
    return FprReport(
        n=n, m=m, epsilon=float(epsilon), u=u, seed=seed,
        hash_p=filt.hash.p, hash_a=filt.hash.a, fp_range=filt.params.fp_range,
        stream_len=stream_len, trials=trials, checkpoints=len(positions),
        yes_count=yes, estimate=estimate, bound=float(epsilon),
        three_sigma=three_sigma,
        passed=estimate <= epsilon + three_sigma,
        underpowered=epsilon * trials < MIN_EXPECTED_HITS,
    )


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
            active = np.fromiter(filt.active_fingerprints(), dtype=np.int64)
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


def space_report(n: int, m, epsilon: float, seed: int,
                 u: int = DEFAULT_UNIVERSE) -> SpaceVsBounds:
    """Measured bit footprint against the leading-term bounds."""
    filt = SlidingFilter.create(n, m, epsilon, u=u, seed=seed)
    space = filt.bits_used()
    lower = lower_bound_bits(n, m, epsilon)
    upper = upper_bound_bits(n, m, epsilon)
    return SpaceVsBounds(
        n=n, m=m, epsilon=float(epsilon), u=u, seed=seed,
        hash_p=filt.hash.p, hash_a=filt.hash.a, fp_range=filt.params.fp_range,
        measured_bits=space.total_bits,
        lower_bound_bits=lower,
        upper_bound_bits=upper,
        ratio=space.total_bits / lower,
        counters_and_hash_bits=space.counters_and_hash_bits,
        dictionary_bits=space.dictionary_bits,
        cell_bits=space.dictionary.cell_bits,
        capacity_cells=space.dictionary.capacity_cells,
    )


def stress_label_safety(n: int, m, epsilon: float, steps: int, seed: int,
                        u: int = DEFAULT_UNIVERSE, probes_per_step: int = 2) -> PassReport:
    """Drive a debug-mode filter hard and cross-check it against the oracle.

    Duplicate-heavy stream (values drawn from a pool of ~2n), with the
    label-reuse assertion armed at every generation boundary and
    probes_per_step in-window probes verified per step.
    """
    filt = SlidingFilter.create(n, m, epsilon, u=u, seed=seed, debug=True)
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
        steps=steps, boundaries=filt.boundaries,
        label_violations=label_violations,
        fn_checks=fn_checks, fn_failures=fn_failures,
        max_active=max_active, active_limit=active_limit,
        passed=label_violations == 0 and fn_failures == 0 and max_active <= active_limit,
    )
