"""Update aggregation: the Figure 11 register-array pipeline.

Row-oriented mapping leaves routing conflicts within columns; ScalaGraph
reduces them by *pre-executing the Reduce function* on in-flight updates
(Section IV-B).  Each PE's routing unit carries a four-stage pipeline,
each stage holding four registers sharing one reduce unit.  An incoming
update is hashed to a register column and flows down the stages until it
finds a matching vertex ID (coalesce) or an empty register (store); reads
pop the first stage and shift the column up systolically.

Two models live here:

* :class:`AggregationPipeline` — a faithful cycle-level register array,
  the one the reference cycle engine runs, one list of registers per
  column.  The vectorized cycle engine's compiled scatter phase runs
  the same offer and emit on every PE's register array held as flat
  arrays (:mod:`repro.core.fastsim`).
* :func:`survivor_mask` — the statistical window model the analytic
  timing model runs per column stream
  (:meth:`repro.mapping.Mapping.scatter_traffic`): with ``R`` registers
  of residency an update coalesces iff the previous update to the same
  vertex lies within the last ``R`` slots of its stream.
  :func:`window_coalesce_count` / :func:`window_coalesce` are its test
  oracles on one stream: ``tests/test_noc_model.py`` checks it against
  :func:`window_coalesce_count`, and ``tests/test_aggregation.py``
  checks the two oracles against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # hook is duck-typed; no runtime import needed
    from repro.analysis.sanitizer import SimSanitizer

ReduceFn = Callable[[float, float], float]

def aggregation_geometry(registers: int) -> Tuple[int, int]:
    """``(num_stages, num_columns)`` of the register array holding
    exactly ``registers`` registers.

    The paper's 16-register default forms the 4x4 Figure 11 array; the
    general rule keeps ~4 registers per stage (``stages = registers //
    4``) and then walks down to the largest stage count that divides the
    register budget, so the array's capacity always equals the
    configured count — no silent quantisation (``registers=9`` is a 1x9
    array, not a 2x4 one that drops a register).
    """
    if registers <= 0:
        raise ConfigurationError("registers must be positive")
    stages = max(registers // 4, 1)
    while registers % stages:
        stages -= 1
    return stages, registers // stages


@dataclass
class AggregationStats:
    """Counters kept by the cycle-level pipeline."""

    offered: int = 0
    coalesced: int = 0
    stored: int = 0
    rejected: int = 0
    emitted: int = 0


class AggregationPipeline:
    """The Figure 11 register array: ``num_stages x num_columns``.

    The paper's default is 4 stages x 4 registers = 16 registers
    (Section V-C: "Consider hardware complexity, we use 16 registers by
    default").  A vertex hashes to column ``vertex % num_columns``.
    Each column is a list of ``[vertex, value]`` registers, stage 0
    first: a store fills the first empty stage and a read pops stage 0
    while the deeper registers shift one stage forward, so the occupied
    stages are always a prefix of the column.
    """

    def __init__(
        self,
        num_stages: int = 4,
        num_columns: int = 4,
        reduce_fn: ReduceFn = lambda a, b: a + b,
        sanitizer: Optional["SimSanitizer"] = None,
    ) -> None:
        if num_stages <= 0 or num_columns <= 0:
            raise ConfigurationError("pipeline dimensions must be positive")
        self.num_stages = num_stages
        self.num_columns = num_columns
        self.reduce_fn = reduce_fn
        #: Optional runtime ledger audit (repro.analysis.sanitizer).
        self.sanitizer = sanitizer
        self._columns: List[List[list]] = [[] for _ in range(num_columns)]
        self._rr_column = 0
        self.stats = AggregationStats()

    @property
    def capacity(self) -> int:
        return self.num_stages * self.num_columns

    def occupancy(self) -> int:
        return sum(len(column) for column in self._columns)

    def column_of(self, vertex: int) -> int:
        return vertex % self.num_columns

    # ------------------------------------------------------------------
    # Write path (Figure 11: pipelined compare-and-reduce down a column)
    # ------------------------------------------------------------------
    def offer(self, vertex: int, value: float) -> str:
        """Insert one update; returns ``'coalesced'``, ``'stored'`` or
        ``'rejected'`` (column full with no matching vertex — the caller
        must forward the update unaggregated, as a FIFO would)."""
        stats = self.stats
        stats.offered += 1
        column = self._columns[self.column_of(vertex)]
        for register in column:
            if register[0] == vertex:
                register[1] = self.reduce_fn(register[1], value)
                stats.coalesced += 1
                outcome = "coalesced"
                break
        else:
            if len(column) < self.num_stages:
                column.append([vertex, value])
                stats.stored += 1
                outcome = "stored"
            else:
                stats.rejected += 1
                outcome = "rejected"
        self._audit()
        return outcome

    def _audit(self) -> None:
        if self.sanitizer is not None:
            self.sanitizer.check_aggregation_ledger(self)

    # ------------------------------------------------------------------
    # Read path (systolic shift toward stage 0)
    # ------------------------------------------------------------------
    def emit(
        self, column: Optional[int] = None
    ) -> Optional[Tuple[int, float]]:
        """Pop the stage-0 register of a column (the next non-empty one
        in round-robin order when None), shifting the column's deeper
        registers one stage forward.  Returns ``(vertex, value)`` or
        None when the chosen column, or with None every column, is
        empty."""
        if column is None:
            for step in range(self.num_columns):
                column = (self._rr_column + step) % self.num_columns
                if self._columns[column]:
                    self._rr_column = (column + 1) % self.num_columns
                    break
            else:
                return None
        registers = self._columns[column]
        if not registers:
            return None
        vertex, value = registers.pop(0)
        self.stats.emitted += 1
        self._audit()
        return vertex, value


# ----------------------------------------------------------------------
# Statistical window model and its test oracles
# ----------------------------------------------------------------------
def survivor_mask(
    edge_dst: np.ndarray,
    dst_col: np.ndarray,
    window: float,
) -> np.ndarray:
    """Which updates survive window-coalescing in their column stream.

    An update is coalesced into a resident predecessor when the previous
    update to the same destination vertex lies at most ``window``
    positions earlier within the same column's stream; the first
    occurrence (and any occurrence after a longer gap) survives.  This is
    the statistical counterpart of the Figure 11 register array, with
    ``window`` proportional to the register count.

    Window semantics for fractional windows (which arise when a caller
    scales an integer register window by an effectiveness factor, e.g.
    :attr:`~repro.mapping.Mapping.aggregation_effectiveness`) are
    **floor**: the register window holds a whole number of slots, so
    ``window`` is floored before use.  Positional gaps are integers,
    hence ``window=1.5`` behaves exactly like ``window=1.0``, and any
    ``window < 1`` (``0.5`` floors to ``0``) disables coalescing
    entirely — no update can be resident for a fraction of a slot.

    The grouping takes one sort.  A stable (radix) argsort of the column
    index in its narrowest dtype lines each column's stream up in order;
    update ``i`` of that column order then gets the packed int64 key
    ``(col * (V + 1) + dst) * n + i``, with ``V`` the largest vertex id.
    Sorting the keys puts each (column, vertex) pair's occurrences next
    to each other in stream order, and the gap between two of them is
    the difference of their keys' low digits ``i`` (positions within
    one column differ by the same amount as positions in column order).
    The largest key is ``(max col + 1) * (V + 1) * n - 1``, so ids must
    be non-negative and that product at most ``2**63``; other inputs
    raise :class:`ValueError` rather than wrap around.
    """
    n = int(edge_dst.size)
    mask = np.ones(n, dtype=bool)
    window = math.floor(window)
    if n == 0 or window < 1:
        return mask
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    dst_col = np.asarray(dst_col, dtype=np.int64)
    if min(int(edge_dst.min()), int(dst_col.min())) < 0:
        raise ValueError("survivor_mask: vertex and column ids must be >= 0")
    span = int(edge_dst.max()) + 1
    max_col = int(dst_col.max())
    if (max_col + 1) * span * n > 2**63:
        raise ValueError(
            f"survivor_mask: {n} updates over {span} vertices and "
            f"{max_col + 1} columns overflow the int64 sort key"
        )
    col_order = np.argsort(
        dst_col.astype(np.min_scalar_type(max_col)), kind="stable"
    )
    key = dst_col[col_order] * span
    key += edge_dst[col_order]
    key *= n
    key += np.arange(n, dtype=np.int64)
    key.sort()
    group, pos = np.divmod(key, n)
    survives = np.ones(n, dtype=bool)
    survives[1:] = (group[1:] != group[:-1]) | (pos[1:] - pos[:-1] > window)
    mask[col_order[pos]] = survives
    return mask


def window_coalesce_count(vertex_ids: np.ndarray, window: int) -> int:
    """How many updates of a stream coalesce with a residency of
    ``window`` slots.

    An update coalesces when the previous update to the same vertex is at
    most ``window`` positions earlier in the stream (it is then still
    resident in the register array).  ``window = 0`` models the plain
    FIFO of Figure 18(a)'s zero-register case: nothing coalesces.

    Vectorised: O(E log E) in the stream length.
    """
    vertex_ids = np.asarray(vertex_ids)
    if window <= 0 or vertex_ids.size < 2:
        return 0
    positions = np.arange(vertex_ids.size, dtype=np.int64)
    order = np.argsort(vertex_ids, kind="stable")
    sorted_ids = vertex_ids[order]
    sorted_pos = positions[order]
    same = sorted_ids[1:] == sorted_ids[:-1]
    gaps = sorted_pos[1:] - sorted_pos[:-1]
    return int(np.count_nonzero(same & (gaps <= window)))


def window_coalesce(
    vertex_ids: np.ndarray,
    values: np.ndarray,
    window: int,
    reduce_ufunc: np.ufunc = np.add,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply the window model functionally, returning the reduced stream.

    Used by tests to check that coalescing is *value-preserving*: reducing
    the output stream per vertex equals reducing the input stream per
    vertex.  Pure-Python loop — intended for small streams.

    Semantics match :func:`window_coalesce_count` exactly: an update
    coalesces iff the previous update to the same vertex (coalesced or
    not) lies at most ``window`` positions earlier in the *input*
    stream — every touch refreshes residency.  Consequently
    ``len(vertex_ids) - len(out_ids) == window_coalesce_count(vertex_ids,
    window)`` on any stream.
    """
    vertex_ids = np.asarray(vertex_ids)
    values = np.asarray(values, dtype=np.float64)
    out_ids: List[int] = []
    out_vals: List[float] = []
    # Per vertex: (input position of its last touch, output slot).
    resident: dict[int, Tuple[int, int]] = {}
    for pos, (vid, val) in enumerate(zip(vertex_ids, values)):
        vid = int(vid)
        entry = resident.get(vid)
        if entry is not None and pos - entry[0] <= window:
            slot = entry[1]
            out_vals[slot] = float(reduce_ufunc(out_vals[slot], val))
        else:
            slot = len(out_ids)
            out_ids.append(vid)
            out_vals.append(float(val))
        resident[vid] = (pos, slot)
    return np.array(out_ids, dtype=np.int64), np.array(out_vals)
