"""A full sweep of a dictionary's cells, checked against its structure.

``entries`` decodes every occupied cell back to its fingerprint by
inverting the placement map of the cell's side, and
``check_consistency`` reads the cells through it and ``buckets_for``
only, so it checks the decode as well as the placement. ``tag_count``
counts the cells of one tag with a sweep of the planes. ``never_stale``
is the stale set of a caller to whom no tag is ever stale.
"""

import numpy as np

from slidingbloom import BUCKET_SIZE
from slidingbloom.dictionary import _plane

never_stale = frozenset()


def buckets_for(d, fp: int) -> tuple[int, int]:
    """The two candidate buckets of a fingerprint in d (side 1, side 2)."""
    nb = d.num_buckets
    q, r = divmod(fp, nb)
    h = d._mix(q)
    return (d._mult1 * r + h) % nb, (d._mult2 * r + h // nb) % nb


def entries(d):
    """Yield (cell_index, fingerprint, tag) for every occupied cell of d."""
    nb = d.num_buckets
    inv1, inv2 = pow(d._mult1, -1, nb), pow(d._mult2, -1, nb)
    for i, key in enumerate(d._keys):
        if key == d._empty:
            continue
        q, bucket = key >> 1, i // BUCKET_SIZE
        h = d._mix(q)
        if key & 1:
            r = (bucket - h // nb) * inv2 % nb
        else:
            r = (bucket - h) * inv1 % nb
        yield i, q * nb + r, d._tags[i]


def tag_count(d, tag: int) -> int:
    """Occupied cells of d carrying this tag (stale included).

    One sweep of the tag plane; tag 0 also sweeps the key plane, since
    empty cells carry tag 0 too.
    """
    hits = _plane(d._tags) == tag
    if tag == 0:
        hits &= _plane(d._keys) != d._empty
    return int(np.count_nonzero(hits))


def check_consistency(d) -> None:
    """No fingerprint is stored twice, every cell sits in a candidate
    bucket of its fingerprint, and the occupancy sweep counts the cells
    the decode found."""
    seen: dict[int, int] = {}
    for i, fp, _tag in entries(d):
        if fp in seen:
            raise AssertionError(f"duplicate fingerprint {fp} in cells {seen[fp]} and {i}")
        seen[fp] = i
        if i // BUCKET_SIZE not in buckets_for(d, fp):
            raise AssertionError(f"cell {i} outside candidate buckets of fp {fp}")
    if len(seen) != d.occupancy():
        raise AssertionError(f"occupancy sweep {d.occupancy()} != decoded cells {len(seen)}")
