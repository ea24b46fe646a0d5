"""Approximate membership over the last n elements of a stream.

A sliding-window variant of the Bloom filter: always answers 'Yes' for
the n most recent stream elements, answers arbitrarily for the m
elements before them, and answers 'Yes' with probability at most
epsilon for anything older. Backed by a fingerprint dictionary
(bucketized cuckoo hashing with generation tags) plus an incremental
scanner that keeps every operation's work constant.
"""

from .dictionary import BUCKET_SIZE, MAX_SEARCH, Dictionary, InsertOverflow
from .filter import (
    DEFAULT_UNIVERSE,
    CostReport,
    SlidingFilter,
    SpaceReport,
    UnrecoverableOverflow,
)
from .harness import FprReport, SpaceVsBounds, measure_fpr, space_report
from .hashing import UniversalHash, is_prime, new_hash, next_prime
from .params import (
    INFINITE,
    FilterParams,
    InvalidParams,
    derive,
    lower_bound_bits,
    upper_bound_bits,
)
from .snapshot import SnapshotError, load_filter, save_filter

__version__ = "0.1.0"

__all__ = [
    "BUCKET_SIZE",
    "CostReport",
    "DEFAULT_UNIVERSE",
    "Dictionary",
    "FilterParams",
    "FprReport",
    "INFINITE",
    "InsertOverflow",
    "InvalidParams",
    "MAX_SEARCH",
    "SlidingFilter",
    "SnapshotError",
    "SpaceReport",
    "SpaceVsBounds",
    "UniversalHash",
    "UnrecoverableOverflow",
    "derive",
    "is_prime",
    "load_filter",
    "lower_bound_bits",
    "measure_fpr",
    "new_hash",
    "next_prime",
    "save_filter",
    "space_report",
    "upper_bound_bits",
]
