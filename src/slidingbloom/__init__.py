"""Approximate membership over the last n elements of a stream.

A sliding-window variant of the Bloom filter: always answers 'Yes' for
the n most recent stream elements, answers arbitrarily for the m
elements before them, and answers 'Yes' with probability at most
epsilon for anything older. Backed by a fingerprint dictionary
(bucketized cuckoo hashing with generation tags) plus an incremental
scanner that keeps every operation's work constant.
"""

from .dictionary import BUCKET_SIZE, MAX_SEARCH, Dictionary, InsertOverflow
from .filter import DEFAULT_UNIVERSE, SlidingFilter, SpaceReport, UnrecoverableOverflow
from .hashing import UniversalHash
from .params import INFINITE, FilterParams, InvalidParams, derive
from .snapshot import SnapshotError, load_filter, save_filter

__version__ = "0.1.0"

__all__ = [
    "BUCKET_SIZE",
    "DEFAULT_UNIVERSE",
    "Dictionary",
    "FilterParams",
    "INFINITE",
    "InsertOverflow",
    "InvalidParams",
    "MAX_SEARCH",
    "SlidingFilter",
    "SnapshotError",
    "SpaceReport",
    "UniversalHash",
    "UnrecoverableOverflow",
    "derive",
    "load_filter",
    "save_filter",
]
