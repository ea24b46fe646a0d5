"""Fixed streams whose snapshots, answers and cost statistics are pinned.

The expected values were recorded from an earlier implementation that
made the same placement, reclaim and eviction decisions. A change that
only makes the code faster keeps every one of them; a failure here
means a decision changed (another cell, another eviction path, another
reclaim). Each stream wraps the label counter at least twice and moves
cells along eviction paths; one lowers MAX_SEARCH so that the filter
rebuilds. The answers depend only on which fingerprints are stored, so
an eviction policy that loses none keeps their digests.
"""

import dataclasses
import hashlib
import io

import pytest

from slidingbloom import INFINITE, SlidingFilter, dictionary
from slidingbloom.prng import SplitMix64

from cell_audit import check_consistency


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


# name: (n, m, epsilon, seed, length, repeat_every, MAX_SEARCH or None)
STREAMS = {
    "deamortized": (2000, INFINITE, 2**-8, 1, 10_000, 4, None),
    "tiny-eps": (500, INFINITE, 2**-20, 3, 3000, 4, None),
    "rebuilt": (2000, 2000, 2**-8, 2, 12_000, 0, 8),
}

# name: (sha256 of save(), sha256 of the answers, step_cost_stats() fields)
PINNED = {
    "deamortized": (
        "5b75f2422dc815f162b2997442d15d21184dc399e18c325ae24b5e13adb1c781",
        "139f1e145076c0567be7ceb4fd536c5a88b3d673dd57cf92f5019bd76a414480",
        (10000, 54, 10, 10.6172, 10000, 8, 6.4964, 2, 2, 0),
    ),
    "tiny-eps": (
        "15973e9d4bbfdbb0671f99bcef99911793ebe3c2a610a55e29d3f71af938ff70",
        "b5c3195fc7d6a712ff89c77f4f0d5a8568e6dd7e24c960c38b9f88a05d63763a",
        (3000, 50, 10, 10.836, 3000, 8, 6.612, 2, 2, 0),
    ),
    "rebuilt": (
        "f0cbea6a2be70f091ff114dcfb469edd12ade1f3a2c819c8294c81d68deb68ad",
        "643ef9f423f7a064c2656a5f58330589f309c8d33410f72da03f6994578792a9",
        (12000, 134, 10, 14.236, 12000, 8, 6.574333333333334, 2, 2, 1),
    ),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_decisions_pinned(name, monkeypatch):
    n, m, eps, seed, length, repeat_every, max_search = STREAMS[name]
    if max_search is not None:
        monkeypatch.setattr(dictionary, "MAX_SEARCH", max_search)
    f = SlidingFilter.create(n, m, eps, seed=seed)
    answers = drive(f, length, seed, repeat_every)
    blob = io.BytesIO()
    f.save(blob)
    stats = f.step_cost_stats()

    assert f.boundaries >= 2 * f.params.gen_modulus  # the label counter wrapped twice
    assert stats.max_kick_chain > 0
    assert (f.rebuilds > 0) == (max_search is not None)
    check_consistency(f.dictionary)
    save_digest, answers_digest, fields = PINNED[name]
    assert dataclasses.astuple(stats) == fields
    assert hashlib.sha256(answers).hexdigest() == answers_digest
    assert hashlib.sha256(blob.getvalue()).hexdigest() == save_digest
