"""Approximate membership over the last n elements of a stream.

A sliding-window variant of the Bloom filter: always answers 'Yes' for
the n most recent stream elements, answers arbitrarily for the m
elements before them, and answers 'Yes' with probability at most
epsilon for anything older. Backed by a fingerprint dictionary
(bucketized cuckoo hashing with generation tags) plus an incremental
scanner that keeps every operation's work constant.
"""

from .dictionary import BUCKET_SIZE, MAX_KICKS, Dictionary, InsertOverflow, never_stale
from .filter import (
    DEFAULT_UNIVERSE,
    CostReport,
    LabelReuseViolation,
    SlidingFilter,
    SpaceReport,
    UnrecoverableOverflow,
)
from .harness import (
    FpCensus,
    FprReport,
    PassReport,
    SpaceVsBounds,
    census_false_positives,
    measure_fpr,
    space_report,
    stress_label_safety,
)
from .hashing import UniversalHash, is_prime, new_hash, next_prime
from .oracle import Region, WindowOracle
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
    "FpCensus",
    "FprReport",
    "INFINITE",
    "InsertOverflow",
    "InvalidParams",
    "LabelReuseViolation",
    "MAX_KICKS",
    "PassReport",
    "Region",
    "SlidingFilter",
    "SnapshotError",
    "SpaceReport",
    "SpaceVsBounds",
    "UniversalHash",
    "UnrecoverableOverflow",
    "WindowOracle",
    "census_false_positives",
    "derive",
    "is_prime",
    "load_filter",
    "lower_bound_bits",
    "measure_fpr",
    "never_stale",
    "new_hash",
    "next_prime",
    "save_filter",
    "space_report",
    "stress_label_safety",
    "upper_bound_bits",
]
