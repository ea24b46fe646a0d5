"""Fixed streams whose snapshots, answers and cost statistics are pinned.

The expected values were recorded from an earlier implementation that
made the same placement, reclaim and walk decisions. A change that only
makes the code faster keeps every one of them; a failure here means a
decision changed (another cell, another walk draw, another reclaim).
Each stream wraps the label counter at least twice and runs the
eviction walk; one lowers MAX_KICKS so that the filter rebuilds.
"""

import dataclasses
import hashlib
import io

import pytest

from slidingbloom import INFINITE, SlidingFilter, dictionary
from slidingbloom.prng import SplitMix64


def drive(f, length, seed, repeat_every):
    """Insert `length` random elements, every `repeat_every`-th one (if
    nonzero) a repeat of one of the last n, and query after each insert
    (the element itself on odd steps, a fresh one on even steps).
    Returns the answers, one byte each."""
    rng = SplitMix64(seed + 1)
    n = f.params.n
    recent = []
    answers = bytearray()
    for t in range(length):
        if repeat_every and t % repeat_every == repeat_every - 1:
            x = recent[rng.below(len(recent))]
        else:
            x = rng.below(2**63)
        f.insert(x)
        if len(recent) < n:
            recent.append(x)
        else:
            recent[t % n] = x
        answers.append(f.query(x if t % 2 else rng.below(2**63)))
    return bytes(answers)


# name: (n, m, epsilon, seed, length, repeat_every, MAX_KICKS or None)
STREAMS = {
    "deamortized": (2000, INFINITE, 2**-8, 1, 10_000, 4, None),
    "tiny-eps": (500, INFINITE, 2**-20, 3, 3000, 4, None),
    "rebuilt": (2000, 2000, 2**-8, 2, 12_000, 0, 30),
}

# name: (sha256 of save(), sha256 of the answers, step_cost_stats() fields)
PINNED = {
    "deamortized": (
        "96e63a709b5f892a0930ef500449089c8761300a8b88430948f713e6c72a3e2e",
        "139f1e145076c0567be7ceb4fd536c5a88b3d673dd57cf92f5019bd76a414480",
        (10000, 42, 10, 10.574, 10000, 8, 6.6104, 8, 2, 0),
    ),
    "tiny-eps": (
        "aec45ffa1a04978b6603419425c8f3ec6e61f7d311b298b6eae40dc2d9e12abd",
        "b5c3195fc7d6a712ff89c77f4f0d5a8568e6dd7e24c960c38b9f88a05d63763a",
        (3000, 50, 10, 10.74, 3000, 8, 6.688, 10, 2, 0),
    ),
    "rebuilt": (
        "04a1bfe873dbd38cd30ae8c526f2977951a49ab43163b68c0ebd6632a0070a88",
        "643ef9f423f7a064c2656a5f58330589f309c8d33410f72da03f6994578792a9",
        (12000, 118, 10, 14.114, 12000, 8, 6.804333333333333, 25, 2, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_decisions_pinned(name, monkeypatch):
    n, m, eps, seed, length, repeat_every, max_kicks = STREAMS[name]
    if max_kicks is not None:
        monkeypatch.setattr(dictionary, "MAX_KICKS", max_kicks)
    f = SlidingFilter.create(n, m, eps, seed=seed)
    answers = drive(f, length, seed, repeat_every)
    blob = io.BytesIO()
    f.save(blob)
    stats = f.step_cost_stats()

    assert f.boundaries >= 2 * f.params.gen_modulus  # the label counter wrapped twice
    assert stats.max_kick_chain > 0
    assert (f.rebuilds > 0) == (max_kicks is not None)
    f.dictionary.check_consistency()
    save_digest, answers_digest, fields = PINNED[name]
    assert dataclasses.astuple(stats) == fields
    assert hashlib.sha256(answers).hexdigest() == answers_digest
    assert hashlib.sha256(blob.getvalue()).hexdigest() == save_digest
