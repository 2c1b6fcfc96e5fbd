"""Small shared numpy utilities."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def unique_id_counts(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_counts=True)`` for non-negative integer ids.

    One ``np.bincount`` pass plus ``np.flatnonzero``: linear in
    ``ids.size + ids.max()``, where ``np.unique`` sorts or hashes.  Meant
    for vertex ids, whose maximum is bounded by the graph; both results
    are int64 and ascending, as ``np.unique`` returns them.
    """
    counts = np.bincount(ids)
    values = np.flatnonzero(counts)
    return values, counts[values]


def grouped_arange_from_counts(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for a vector of group sizes."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ids = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    idx = np.arange(total, dtype=np.int64)
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return idx - starts[ids]
