"""A full sweep of a dictionary's cells, checked against its structure.

It reads the cells through ``entries()`` and ``buckets_for`` only, so it
checks the decode as well as the placement.
"""

from slidingbloom import BUCKET_SIZE


def check_consistency(d) -> None:
    """No fingerprint is stored twice, every cell sits in a candidate
    bucket of its fingerprint, and the occupancy counter matches."""
    seen: dict[int, int] = {}
    for i, fp, _tag in d.entries():
        if fp in seen:
            raise AssertionError(f"duplicate fingerprint {fp} in cells {seen[fp]} and {i}")
        seen[fp] = i
        if i // BUCKET_SIZE not in d.buckets_for(fp):
            raise AssertionError(f"cell {i} outside candidate buckets of fp {fp}")
    if len(seen) != d.occupancy():
        raise AssertionError(f"occupancy counter {d.occupancy()} != swept {len(seen)}")
