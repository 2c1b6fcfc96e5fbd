"""Access-granularity accounting for off-chip requests."""

from __future__ import annotations

import numpy as np


def cachelines_touched(addresses: np.ndarray, line_size: int = 64) -> int:
    """Distinct cachelines touched by a batch of single-word accesses.

    Random vertex accesses fetch a whole 64-byte line to use 4 bytes
    (Section II-A); this helper quantifies that amplification for the
    baseline GPU/CPU models.  One ``bincount`` over the line indices,
    shifted by their minimum so any sign counts alike, marks the lines
    touched: no sort, and a count array as long as the span of lines.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size == 0:
        return 0
    lines = addresses // line_size
    lines -= lines.min()
    return int(np.count_nonzero(np.bincount(lines)))
