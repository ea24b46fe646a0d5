"""Measurement and statistical validation drivers.

Two entry points, each reproducible from its arguments alone:

* measure_fpr  - Monte Carlo false-positive rate against the
                 epsilon + 3 sigma binomial envelope.
* space_report - notional bit footprint vs. the leading-term space
                 bounds.

Both reports serialize to versioned JSON-compatible dicts for the CLI
and CI.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .filter import DEFAULT_UNIVERSE, SlidingFilter
from .params import INFINITE, lower_bound_bits, upper_bound_bits
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
