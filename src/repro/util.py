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


def grouped_arange(sorted_keys: np.ndarray) -> np.ndarray:
    """``0,1,2,...`` restarting whenever an ascending key array changes.

    ``sorted_keys`` must be grouped (all equal keys adjacent); the result
    gives each element its rank within its group, preserving order.
    """
    sorted_keys = np.asarray(sorted_keys)
    if sorted_keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    is_start = np.empty(sorted_keys.size, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_start[1:])
    idx = np.arange(sorted_keys.size, dtype=np.int64)
    start_idx = np.where(is_start, idx, 0)
    np.maximum.accumulate(start_idx, out=start_idx)
    return idx - start_idx


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
