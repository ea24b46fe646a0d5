"""Fixed streams whose snapshots, answers and cost statistics are pinned.

The expected values were recorded from an earlier implementation that
made the same placement, reclaim and eviction decisions. A change that
only makes the code faster keeps every one of them; a failure here
means a decision changed (another cell, another eviction path, another
reclaim). Each stream wraps the label counter at least twice and moves
cells along eviction paths. The answers depend only on which
fingerprints are stored, so an eviction policy that loses none keeps
their digests. One more stream lowers MAX_SEARCH until an insert
overflows; the insert that fails, and the last state the filter served
before it refused all use, are pinned too.
"""

import dataclasses
import hashlib
import io

import pytest

from slidingbloom import INFINITE, SlidingFilter, dictionary, load_filter, save_filter
from slidingbloom.prng import SplitMix64

from cell_audit import check_consistency
from overflow_run import assert_refuses_every_use, run_to_overflow


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


# name: (n, m, epsilon, seed, length, repeat_every)
STREAMS = {
    "deamortized": (2000, INFINITE, 2**-8, 1, 10_000, 4),
    "tiny-eps": (500, INFINITE, 2**-20, 3, 3000, 4),
}

# name: (sha256 of save(), sha256 of the answers, step_cost_stats() fields)
PINNED = {
    "deamortized": (
        "5b75f2422dc815f162b2997442d15d21184dc399e18c325ae24b5e13adb1c781",
        "139f1e145076c0567be7ceb4fd536c5a88b3d673dd57cf92f5019bd76a414480",
        (10000, 54, 10, 10.6172, 10000, 8, 6.4964, 2, 2),
    ),
    "tiny-eps": (
        "15973e9d4bbfdbb0671f99bcef99911793ebe3c2a610a55e29d3f71af938ff70",
        "b5c3195fc7d6a712ff89c77f4f0d5a8568e6dd7e24c960c38b9f88a05d63763a",
        (3000, 50, 10, 10.836, 3000, 8, 6.612, 2, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_decisions_pinned(name):
    n, m, eps, seed, length, repeat_every = STREAMS[name]
    f = SlidingFilter.create(n, m, eps, seed=seed)
    answers = drive(f, length, seed, repeat_every)
    blob = io.BytesIO()
    save_filter(f, blob)
    stats = f.step_cost_stats()

    assert f.boundaries >= 2 * f.params.gen_modulus  # the label counter wrapped twice
    assert stats.max_kick_chain > 0
    check_consistency(f.dictionary)
    save_digest, answers_digest, fields = PINNED[name]
    assert dataclasses.astuple(stats) == fields
    assert hashlib.sha256(answers).hexdigest() == answers_digest
    assert hashlib.sha256(blob.getvalue()).hexdigest() == save_digest


# (n, m, epsilon, seed, length) of a stream of distinct random elements
# inserted with MAX_SEARCH = 8, and what it pins: the index, fingerprint
# and tag of the first insert that overflows, and the sha256 of a save
# of the state the filter served just before it
OVERFLOW = (2000, 2000, 2**-8, 2, 12_000)
OVERFLOW_PIN = (10723, 210785, 4,
                "bcc45bf72f5b53d0b477e84cc83a59b4a6cb092bbcf90d81425f33567b753e92")


def test_first_overflow_pinned(monkeypatch):
    monkeypatch.setattr(dictionary, "MAX_SEARCH", 8)
    n, m, eps, seed, length = OVERFLOW
    rng = SplitMix64(seed + 1)
    stream = [rng.below(2**63) for _ in range(length)]
    t, error, f, served = run_to_overflow(
        lambda: SlidingFilter.create(n, m, eps, seed=seed), stream, check_every=500)

    assert f.boundaries >= 2 * f.params.gen_modulus  # the label counter wrapped twice
    assert (t, error.fp, error.tag, hashlib.sha256(served).hexdigest()) == OVERFLOW_PIN
    check_consistency(load_filter(served).dictionary)
    assert_refuses_every_use(f, stream[t])
    assert_refuses_every_use(f, stream[0])
