"""Update aggregation: the Figure 11 register-array pipeline.

Row-oriented mapping leaves routing conflicts within columns; ScalaGraph
reduces them by *pre-executing the Reduce function* on in-flight updates
(Section IV-B).  Each PE's routing unit carries a four-stage pipeline,
each stage holding four registers sharing one reduce unit.  An incoming
update is hashed to a register column and flows down the stages until it
finds a matching vertex ID (coalesce) or an empty register (store); reads
pop the first stage and shift the column up systolically.

Three models live here:

* :class:`AggregationPipeline` — a faithful cycle-level register array,
  the one the reference cycle engine runs.
* :class:`BatchedAggregationArray` — every PE's register array as flat
  arrays, offered to and drained by the compiled scatter phase of the
  vectorized cycle engine, with the same semantics.
* :func:`window_coalesce_count` / :func:`window_coalesce` — the
  statistical window model, kept as a test oracle: with ``R`` registers
  of residency an update coalesces iff the previous update to the same
  vertex lies within the last ``R`` slots of the stream.  The analytic
  timing model runs the same rule per column stream through
  :func:`repro.core.noc_model.survivor_mask`, which
  ``tests/test_noc_model.py`` checks against
  :func:`window_coalesce_count`; ``tests/test_aggregation.py`` checks
  the two functions against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # hook is duck-typed; no runtime import needed
    from repro.analysis.sanitizer import SimSanitizer

ReduceFn = Callable[[float, float], float]

#: Declared dtype contract of :class:`BatchedAggregationArray`, whose
#: arrays the compiled scatter phase reads and writes as raw memory.
#: SIM604 checks every allocation below against it, and
#: :mod:`repro.core.fastsim` checks every array against it before
#: handing it to the kernel.
BUFFER_DTYPES = {
    "vid": "int64",
    "pid": "int64",
    "occ": "int64",
    "rr": "int64",
    "offered": "int64",
    "coalesced": "int64",
    "stored": "int64",
    "rejected": "int64",
    "emitted": "int64",
}


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
class _Register:
    vertex: int
    value: float


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
    default").
    """

    def __init__(
        self,
        num_stages: int = 4,
        num_columns: int = 4,
        reduce_fn: ReduceFn = lambda a, b: a + b,
        column_hash: Optional[Callable[[int], int]] = None,
        sanitizer: Optional["SimSanitizer"] = None,
    ) -> None:
        if num_stages <= 0 or num_columns <= 0:
            raise ConfigurationError("pipeline dimensions must be positive")
        self.num_stages = num_stages
        self.num_columns = num_columns
        self.reduce_fn = reduce_fn
        #: Optional runtime ledger audit (repro.analysis.sanitizer).
        self.sanitizer = sanitizer
        self._column_hash = column_hash or (lambda vid: vid % num_columns)
        # _array[stage][column] is Optional[_Register]; stage 0 is the
        # output stage.
        self._array: List[List[Optional[_Register]]] = [
            [None] * num_columns for _ in range(num_stages)
        ]
        self._rr_column = 0
        self.stats = AggregationStats()

    @property
    def capacity(self) -> int:
        return self.num_stages * self.num_columns

    def occupancy(self) -> int:
        return sum(
            1
            for stage in self._array
            for reg in stage
            if reg is not None
        )

    def column_of(self, vertex: int) -> int:
        col = self._column_hash(vertex)
        if not 0 <= col < self.num_columns:
            raise ConfigurationError("column_hash out of range")
        return col

    # ------------------------------------------------------------------
    # Write path (Figure 11: pipelined compare-and-reduce down a column)
    # ------------------------------------------------------------------
    def offer(self, vertex: int, value: float) -> str:
        """Insert one update; returns ``'coalesced'``, ``'stored'`` or
        ``'rejected'`` (column full with no matching vertex — the caller
        must forward the update unaggregated, as a FIFO would)."""
        self.stats.offered += 1
        col = self.column_of(vertex)
        for stage in range(self.num_stages):
            reg = self._array[stage][col]
            if reg is None:
                self._array[stage][col] = _Register(vertex, value)
                self.stats.stored += 1
                self._audit()
                return "stored"
            if reg.vertex == vertex:
                reg.value = self.reduce_fn(reg.value, value)
                self.stats.coalesced += 1
                self._audit()
                return "coalesced"
        self.stats.rejected += 1
        self._audit()
        return "rejected"

    def _audit(self) -> None:
        if self.sanitizer is not None:
            self.sanitizer.check_aggregation_ledger(self)

    # ------------------------------------------------------------------
    # Read path (systolic shift toward stage 0)
    # ------------------------------------------------------------------
    def emit(self, column: Optional[int] = None) -> Optional[Tuple[int, float]]:
        """Pop the stage-0 register of a column (round-robin when None),
        shifting the column's deeper registers one stage forward.  Returns
        ``(vertex, value)`` or None when the chosen column is empty."""
        if column is None:
            column = self._next_nonempty_column()
            if column is None:
                return None
        out = self._array[0][column]
        if out is None:
            # Column may hold data only in deeper stages; compact first.
            self._shift_up(column)
            out = self._array[0][column]
            if out is None:
                return None
        self._array[0][column] = None
        self._shift_up(column)
        self.stats.emitted += 1
        self._audit()
        return out.vertex, out.value

    def drain(self) -> List[Tuple[int, float]]:
        """Emit everything (used at end of a Scatter phase).

        Under the prefix-dense column invariant (stores fill the first
        empty stage top-down, pops shift deeper stages up) a non-empty
        pipeline always has an emittable stage-0 register, so a ``None``
        emit while occupancy remains means registers were corrupted —
        raise instead of silently dropping the residue.
        """
        emitted = []
        while self.occupancy():
            item = self.emit()
            if item is None:
                raise SimulationError(
                    f"aggregation drain stuck with {self.occupancy()} "
                    "registers occupied but nothing emittable; the "
                    "prefix-dense column invariant was violated"
                )
            emitted.append(item)
        return emitted

    def _shift_up(self, column: int) -> None:
        for stage in range(self.num_stages - 1):
            if self._array[stage][column] is None:
                self._array[stage][column] = self._array[stage + 1][column]
                self._array[stage + 1][column] = None

    def _next_nonempty_column(self) -> Optional[int]:
        for step in range(self.num_columns):
            col = (self._rr_column + step) % self.num_columns
            if any(
                self._array[stage][col] is not None
                for stage in range(self.num_stages)
            ):
                self._rr_column = (col + 1) % self.num_columns
                return col
        return None


class BatchedAggregationArray:
    """Every PE's Figure 11 register array in one struct-of-arrays state.

    Semantically this is ``num_pes`` independent
    :class:`AggregationPipeline` instances (same geometry, same default
    ``vid % num_columns`` column hash, same round-robin read pointer),
    held as the arrays the compiled scatter phase
    (:mod:`repro.core.fastsim`) offers updates to and drains: the
    kernel runs :meth:`AggregationPipeline.offer` and
    :meth:`AggregationPipeline.emit` on them in place.

    Registers are ``(num_pes, num_columns, num_stages)`` arrays with
    ``vid == -1`` marking an empty register; columns are prefix-dense
    (occupied stages first), mirroring the reference invariant.  A
    register holds no value: ``pid`` names the partial it accumulates,
    whose value the kernel computes after the phase.  ``occ``
    counts live registers per PE, ``rr`` is each PE's round-robin read
    column, and the per-PE ledger counters mean what
    :class:`AggregationStats` does; the sanitizer audits all of them
    (``check_aggregation_ledger_arrays``).
    """

    def __init__(
        self, num_pes: int, num_stages: int, num_columns: int
    ) -> None:
        if num_pes <= 0 or num_stages <= 0 or num_columns <= 0:
            raise ConfigurationError("array dimensions must be positive")
        self.num_pes = num_pes
        self.num_stages = num_stages
        self.num_columns = num_columns
        shape = (num_pes, num_columns, num_stages)
        self.vid = np.full(shape, -1, dtype=np.int64)
        self.pid = np.zeros(shape, dtype=np.int64)
        self.occ = np.zeros(num_pes, dtype=np.int64)
        self.rr = np.zeros(num_pes, dtype=np.int64)
        self.offered = np.zeros(num_pes, dtype=np.int64)
        self.coalesced = np.zeros(num_pes, dtype=np.int64)
        self.stored = np.zeros(num_pes, dtype=np.int64)
        self.rejected = np.zeros(num_pes, dtype=np.int64)
        self.emitted = np.zeros(num_pes, dtype=np.int64)

    @property
    def capacity(self) -> int:
        return self.num_stages * self.num_columns


# ----------------------------------------------------------------------
# Statistical window model (used at scale)
# ----------------------------------------------------------------------
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
