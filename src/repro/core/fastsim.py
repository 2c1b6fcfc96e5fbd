"""Vectorised scatter-phase engine for the cycle-accurate simulator.

The reference :meth:`~repro.core.cycle_sim.CycleAccurateScalaGraph.
_scatter_phase` walks every dispatcher, PE, FIFO entry, and SPD slot in
Python objects each cycle — O(cycles x PEs) interpreter work that caps
real cycle-accurate runs at 16x16 meshes.  This engine runs the whole
cycle loop in the compiled kernel that already steps the mesh
(``fs_run`` in ``repro/noc/meshkernel.c``): one call advances a phase
through dispatch with aggregation offer, RU egress, the mesh step and
SPD retire, cycle by cycle, up to the phase's end or the next
fault-window edge.  Python keeps the set-up (frontier gather, the row
dispatchers' vertex queues, the execution/home lookup tables), the
fault-mask loads, the sanitizer hooks and every ``CycleStats`` and
``MeshStats`` write; the kernel keeps its state in Python-owned arrays
(the register arrays of
:class:`~repro.noc.aggregation.BatchedAggregationArray`, the mesh of
:class:`~repro.noc.fastmesh.FastMeshNetwork`, and the phase buffers of
:class:`_Phase`) and returns counts.  Its per-edge buffers hold 32-bit
edge positions and vertex and partial ids (:data:`BUFFER_DTYPES`),
except the destinations: the graph's int64 ``indices``, read in place.

No decision in a phase reads a value, so the loop carries none: a
register, an out-queue entry, a packet and an SPD-queue entry carry a
*partial id*, which names the value one register accumulates (a
partial).  Once the phase drains,
one more kernel call (``fs_fold``, through :meth:`PhaseRecord.fold`)
computes each partial from the dispatched values and reduces the
partials into ``vtemp`` in retire order: the same operands in the same
order as the reference's in-loop reduces, and the engine's only value
arithmetic.  It reads the values through the recorded dispatch order,
so they are neither copied nor written, and implements ``np.add``,
``np.minimum`` and ``np.maximum`` exactly; a program with any other
reduce runs on the reference.

For the same reason a phase's events follow from its edges alone, and
each phase starts a fresh mesh and register array at cycle 0 (fault
windows are phase-local too).  So a phase whose frontier repeats the
previous one's (PageRank's all-active Scatter) is not simulated again:
:meth:`~repro.core.cycle_sim.CycleAccurateScalaGraph.run` hands back
the previous phase's :class:`PhaseRecord`, and the phase folds its own
values with it and adds its recorded counts.

The engine is **behaviourally identical** to the reference, not merely
statistically similar: every per-cycle decision (dispatch order, offer
order per register column, eviction order, egress/injection order per
PE, SPD retire order, stall handling) reproduces the reference exactly,
so stats are equal integer for integer and the computed properties bit
for bit.  Dispatch runs inside the cycle loop: each cycle every busy
row's dispatching unit takes one line from the head of its vertex queue
by :meth:`~repro.core.cycle_sim._RowDispatcher.issue_line`'s rule, so a
dispatcher that stalls (a memory channel's credit, say) is one counter
there.

Selection follows the mesh engine: ``config.cycle_engine='auto'``
picks the vectorised engine at every mesh size whenever the run steps
the compiled mesh (see :func:`resolve_cycle_engine`).  A SanitizerError
raised mid-run reaches the caller of
:meth:`~repro.core.cycle_sim.CycleAccurateScalaGraph.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.noc import meshkernel
from repro.noc.aggregation import BUFFER_DTYPES as REGISTER_DTYPES
from repro.noc.aggregation import (
    BatchedAggregationArray,
    aggregation_geometry,
)
from repro.noc.fastmesh import FastMeshNetwork
from repro.noc.meshkernel import MeshKernel
from repro.noc.router import NUM_PORTS

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.algorithms.base import ProgramContext, VertexProgram
    from repro.core.cycle_sim import CycleAccurateScalaGraph, CycleStats
    from repro.graph.csr import CSRGraph

__all__ = [
    "PhaseRecord",
    "resolve_cycle_engine",
    "scatter_phase_fast",
]

#: Engine-twin declaration consumed by the whole-program analyzer
#: (:mod:`repro.analysis.project`).  The reference scatter phase lives
#: inside ``CycleAccurateScalaGraph``, which also owns the
#: engine-agnostic driver loop (iteration control, apply phase, report
#: assembly) — ``reference_scope`` restricts the SIM601 comparison to
#: the parts this module actually replaces.
ENGINE_TWIN = {
    "pair": "cycle-engine",
    "reference": "repro.core.cycle_sim",
    "reference_scope": [
        "CycleAccurateScalaGraph._scatter_phase",
        "_RowDispatcher",
    ],
}

#: Declared dtype contract of the phase buffers (:class:`_Phase` and
#: :meth:`PhaseRecord.fold`).  SIM604 checks every allocation against
#: it, and the kernel table is built only from arrays that match it.
#: The per-edge buffers hold int32 (edge positions, vertex and partial
#: ids; :class:`_Phase` refuses a phase whose ids would not fit), and
#: every per-PE, per-vertex and per-packet one int64.
BUFFER_DTYPES = {
    "group_start": "int64",
    "group_stop": "int64",
    "row_end": "int64",
    "row_group": "int64",
    "d_edge": "int32",
    "d_pid": "int32",
    "partial": "float64",
    "home": "int64",
    "pe_stall": "bool",
    "out_end": "int64",
    "out_head": "int64",
    "out_tail": "int64",
    "out_vid": "int32",
    "out_pid": "int32",
    "spd_end": "int64",
    "spd_head": "int64",
    "spd_tail": "int64",
    "spd_vid": "int32",
    "spd_pid": "int32",
    "free_pkts": "int64",
    # The kernel's table: buffer addresses, settings, state, counts.
    "table": "int64",
}
#: The caller's arrays the kernel uses in place: each edge's execution
#: PE and destination (the graph's int64 ``indices`` on an all-active
#: frontier) and the edges grouped by the vertex that streams them,
#: which :func:`_simulate` computes and ``fs_run`` reads, and the
#: scatter values, ``vtemp`` and the touched marks, which the fold
#: reads and writes.
_CALLER_DTYPES = {
    "exec_pe": "int32",
    "dst": "int64",
    "edges": "int32",
    "values": "float64",
    "vtemp": "float64",
    "touched": "bool",
}
_DTYPES = {**REGISTER_DTYPES, **BUFFER_DTYPES, **_CALLER_DTYPES}

#: Buffers of the phase table, in the order of ``PHASE_BUFFERS`` in
#: ``meshkernel.c``: the register array's (:data:`REGISTER_DTYPES`)
#: come from :class:`BatchedAggregationArray`, the rest from
#: :class:`_Phase`, except the fold's.
_KERNEL_BUFFERS = (
    "exec_pe", "dst", "edges", "group_start", "group_stop", "row_end",
    "row_group", "d_edge", "d_pid", "values", "partial", "home",
    "pe_stall", "vid", "pid", "occ", "rr", "offered", "coalesced",
    "stored", "rejected", "emitted", "out_end", "out_head", "out_tail",
    "out_vid", "out_pid", "spd_end", "spd_head", "spd_tail", "spd_vid",
    "spd_pid", "free_pkts", "vtemp", "touched",
)
#: The buffers only ``fs_fold`` reads or writes; a :class:`_Phase`
#: table leaves them unset.
_FOLD_ONLY = ("values", "partial", "vtemp", "touched")
#: Table slots of the buffers a :class:`PhaseRecord` keeps for the fold.
_RECORD_SLOTS = [
    _KERNEL_BUFFERS.index(name)
    for name in (
        "d_edge", "d_pid", "spd_end", "spd_tail", "spd_vid", "spd_pid"
    )
]
#: One past the largest edge position, vertex id and partial id the
#: int32 per-edge buffers hold.
_INT32_IDS = 2**31
#: The same list as the kernel spells it (``MeshKernel.phase_layout``).
_KERNEL_LAYOUT = tuple(
    (name, np.dtype(_DTYPES[name]).str[1:]) for name in _KERNEL_BUFFERS
)
#: Table slots after the addresses (``enum phase_slot``): seven
#: settings, the carried cycle, free-packet count, partial count and
#: dispatched-update count, then the counts of one call — CycleStats
#: (4), mesh steps, MeshStats (9), and the four stage timers.
_SLOT_SETTINGS = len(_KERNEL_BUFFERS)
_SLOT_REDUCE = _SLOT_SETTINGS + 3
_SLOT_CYCLE = _SLOT_SETTINGS + 7
_SLOT_FREE = _SLOT_CYCLE + 1
_SLOT_COUNTS = _SLOT_CYCLE + 4
_TABLE_SLOTS = _SLOT_COUNTS + 18
#: ``fs_run`` results (``RUNNING`` is 0).
_DRAINED, _OVERRUN, _CORRUPT = 1, 2, 3

#: The reduces the kernel's fold implements, by its ``REDUCE`` code.
_REDUCE_OPS: Dict[np.ufunc, int] = {np.add: 0, np.minimum: 1, np.maximum: 2}

#: Cycles one kernel call may run before returning to Python, so a
#: KeyboardInterrupt lands within a fraction of a second in a long
#: phase (a saturated 32x32 cycle takes ~0.1 ms on a 2-vCPU host).
_CALL_CYCLES = 1024


def resolve_cycle_engine(
    engine: str,
    noc_engine: str,
    reduce_ufunc: np.ufunc = np.add,
) -> str:
    """Resolve a scatter-engine name (``auto``/``reference``/
    ``vectorized``) to a concrete one.

    ``noc_engine`` is the run's mesh engine as
    :func:`~repro.noc.fastmesh.resolve_engine` resolved it, the one
    place that decides whether the kernel can run.  The vectorised
    engine steps that compiled mesh and implements the ``np.add``,
    ``np.minimum`` and ``np.maximum`` reduces: ``auto`` picks it
    whenever the mesh is the vectorised one and the program reduces with
    one of those, else the reference.  Asked for by name with another
    reduce, it raises :class:`ConfigurationError`.
    """
    name = engine.lower()
    if name not in ("auto", "reference", "vectorized"):
        raise ConfigurationError(
            f"unknown cycle_engine {engine!r} (auto/reference/vectorized)"
        )
    if reduce_ufunc not in _REDUCE_OPS:
        if name == "vectorized":
            raise ConfigurationError(
                f"cycle_engine='vectorized' runs the np.add, np.minimum "
                f"and np.maximum reduces only, not {reduce_ufunc!r}"
            )
        return "reference"
    if name != "auto":
        return name
    return "vectorized" if noc_engine == "vectorized" else "reference"


# ----------------------------------------------------------------------
# The compiled scatter phase
# ----------------------------------------------------------------------
def _check_layout(kernel: MeshKernel) -> None:
    """Refuse a kernel whose phase table differs from this module's."""
    if (kernel.phase_layout, kernel.phase_table_slots) != (
        _KERNEL_LAYOUT, _TABLE_SLOTS
    ):
        raise SimulationError(
            f"phase kernel {kernel.path} does not match fastsim: table "
            f"{kernel.phase_layout} + {kernel.phase_table_slots} slots, "
            f"expected {_KERNEL_LAYOUT} + {_TABLE_SLOTS} slots"
        )


class _Phase:
    """One scatter phase's kernel state: the buffers ``fs_run`` reads
    and writes, and the table of their addresses.

    The row dispatchers' queues are ``edges``, the edges sorted stably
    by the vertex that streams them (``group``), each vertex group's
    range in it, with the groups in row order and ascending vertex order
    within a row (the order the reference fills its dispatchers), and
    each row's cursor into the groups.  Every other queue gets one slice
    per PE, sized by the phase's own bound: an update enters a PE's out
    queue at most once (at its execution PE) and its SPD queue at most
    once (at its destination's home), and at most ``nodes x ports x
    depth`` packets fit in the mesh at once, so the kernel never needs
    more room mid-phase.  The kernel reads ``edges``, ``exec_pe`` and
    ``dst`` in place, and the fold's buffers (:data:`_FOLD_ONLY`) stay
    unset: ``fs_run`` reads no value.
    """

    def __init__(
        self,
        network: FastMeshNetwork,
        agg: Optional[BatchedAggregationArray],
        group: np.ndarray,
        edges: np.ndarray,
        exec_pe: np.ndarray,
        dst: np.ndarray,
        home: np.ndarray,
        window: int,
        max_cycles: int,
        profiled: bool,
    ) -> None:
        self.kernel = meshkernel.load()
        _check_layout(self.kernel)
        topology = network.topology
        n = topology.num_nodes
        updates = dst.size
        if max(updates, home.size) >= _INT32_IDS:
            raise ConfigurationError(
                f"a phase of {updates} updates on {home.size} vertices "
                f"does not fit the kernel's int32 edge and vertex ids"
            )
        for role, pes in (("execution", exec_pe), ("home", home)):
            if int(pes.min()) < 0 or int(pes.max()) >= n:
                raise ConfigurationError(
                    f"the mapping names a {role} PE outside the {n}-PE mesh"
                )
        # The queue bounds first: the per-edge temporary of the SPD bound
        # is gone before the per-edge buffers are allocated.
        out_bound = np.bincount(exec_pe, minlength=n)
        spd_bound = np.bincount(home[dst], minlength=n)
        self.exec_pe = exec_pe
        self.dst = dst
        self.edges = edges

        # The groups lie in ascending vertex order in ``edges``.
        sizes = np.bincount(group, minlength=home.size)
        verts = np.flatnonzero(sizes)
        sizes = sizes[verts]
        stops = np.cumsum(sizes)
        rows = topology.rows_of(home[verts])
        by_row = np.argsort(rows, kind="stable")
        self.group_start = np.empty(verts.size, dtype=np.int64)
        np.take(stops - sizes, by_row, out=self.group_start)
        self.group_stop = np.empty(verts.size, dtype=np.int64)
        np.take(stops, by_row, out=self.group_stop)
        row_groups = np.bincount(rows, minlength=topology.rows)
        self.row_end = np.empty(topology.rows, dtype=np.int64)
        np.cumsum(row_groups, out=self.row_end)
        self.row_group = np.empty(topology.rows, dtype=np.int64)
        self.row_group[:] = self.row_end - row_groups
        self.d_edge = np.empty(updates, dtype=np.int32)
        self.d_pid = np.empty(updates, dtype=np.int32)

        self.home = np.empty(home.size, dtype=np.int64)
        self.home[:] = home
        self.pe_stall = np.zeros(n, dtype=bool)
        self.out_end = np.empty(n, dtype=np.int64)
        np.cumsum(out_bound, out=self.out_end)
        self.out_head = np.empty(n, dtype=np.int64)
        self.out_head[:] = self.out_end - out_bound
        self.out_tail = np.empty(n, dtype=np.int64)
        self.out_tail[:] = self.out_head
        self.out_vid = np.empty(updates, dtype=np.int32)
        self.out_pid = np.empty(updates, dtype=np.int32)
        self.spd_end = np.empty(n, dtype=np.int64)
        np.cumsum(spd_bound, out=self.spd_end)
        self.spd_head = np.empty(n, dtype=np.int64)
        self.spd_head[:] = self.spd_end - spd_bound
        self.spd_tail = np.empty(n, dtype=np.int64)
        self.spd_tail[:] = self.spd_head
        self.spd_vid = np.empty(updates, dtype=np.int32)
        self.spd_pid = np.empty(updates, dtype=np.int32)

        packets = n * NUM_PORTS * network.buffer_depth
        self.free_pkts = np.empty(packets, dtype=np.int64)
        self.free_pkts[:] = np.arange(packets)

        self.table = np.zeros(_TABLE_SLOTS, dtype=np.int64)
        for slot, name in enumerate(_KERNEL_BUFFERS):
            owner = agg if name in REGISTER_DTYPES else self
            # No register array, or a fold buffer: the slot stays 0.
            if owner is not None and name not in _FOLD_ONLY:
                self.table[slot] = _address(name, getattr(owner, name))
        self.table[_SLOT_SETTINGS:_SLOT_CYCLE] = (
            network.kernel_table(packets),
            agg.num_stages if agg is not None else 0,
            agg.num_columns if agg is not None else 0,
            0,  # the reduce: the fold's
            window,
            max_cycles,
            profiled,
        )
        self.table[_SLOT_FREE] = packets
        self._address = _address("table", self.table)

    def run(self, stop: int) -> int:
        """Advance the phase until it drains or reaches cycle ``stop``;
        returns the kernel's status."""
        return int(self.kernel.phase(self._address, stop))

    def queued(self) -> int:
        """Updates waiting in the out and SPD queues."""
        return int(
            (self.out_tail - self.out_head).sum()
            + (self.spd_tail - self.spd_head).sum()
        )


def _address(name: str, array: np.ndarray) -> int:
    """``array``'s data address, once it is checked to be C-contiguous
    and of the dtype declared for ``name``: the kernel reads it as raw
    memory of that type."""
    want = np.dtype(_DTYPES[name])
    if array.dtype != want or not array.flags.c_contiguous:
        raise SimulationError(
            f"phase kernel buffer {name} must be a C-contiguous {want} "
            f"array, got {array.dtype} "
            f"(C-contiguous: {array.flags.c_contiguous})"
        )
    return int(array.ctypes.data)


@dataclass
class PhaseRecord:
    """What a drained scatter phase leaves behind.

    The record holds the order the kernel's row dispatchers sent the
    phase's edges out in (``edge_order``, indices into the gathered edges),
    each dispatched update's partial id (``d_pid``), each PE's SPD queue
    of (vertex, partial id) pairs in retire order (slice ``pe`` ends at
    ``spd_end[pe]`` and holds entries up to ``spd_tail[pe]``), the
    phase's cycles, the :class:`~repro.core.cycle_sim.CycleStats` counts
    it adds and the updates it still held when it stopped (0 after a
    drain).  That is all :meth:`fold` needs to compute the phase's
    values, and, since no decision in a phase reads a value, all a later
    phase over the same edges needs instead of simulating.
    """

    kernel: MeshKernel
    vertices: int
    edge_order: np.ndarray
    d_pid: np.ndarray
    spd_end: np.ndarray
    spd_tail: np.ndarray
    spd_vid: np.ndarray
    spd_pid: np.ndarray
    cycles: int
    dispatch_lines: int
    coalesced: int
    spd_reduces: int
    degraded_cycles: int
    noc_hops: int
    rerouted_packets: int
    in_flight: int
    #: The fold's table: it holds the addresses of the record's own
    #: buffers; each fold sets the values, vtemp and the touched marks.
    table: np.ndarray

    def __post_init__(self) -> None:
        self._address = _address("table", self.table)

    @property
    def updates(self) -> int:
        return int(self.edge_order.size)

    def fold(
        self,
        values: np.ndarray,
        reduce_op: int,
        vtemp: np.ndarray,
        touched: np.ndarray,
    ) -> None:
        """Reduce the phase's scatter ``values`` (one per gathered edge)
        into ``vtemp`` and mark the vertices they reach in ``touched``,
        in place, with the kernel's reduce ``reduce_op``: ``fs_fold``,
        the engine's only value arithmetic.  The kernel reads ``values``
        through :attr:`edge_order` and never writes it; the partials go
        to a buffer of their own, one slot per update that did not
        coalesce."""
        if (values.size, vtemp.size, touched.size) != (
            self.updates, self.vertices, self.vertices
        ):
            raise SimulationError(
                f"the phase ran {self.updates} updates on {self.vertices} "
                f"vertices; cannot fold {values.size} values into "
                f"{vtemp.size} vertex values and {touched.size} marks"
            )
        partial = np.empty(self.updates - self.coalesced, dtype=np.float64)
        for name, array in (
            ("values", values), ("partial", partial), ("vtemp", vtemp),
            ("touched", touched),
        ):
            self.table[_KERNEL_BUFFERS.index(name)] = _address(name, array)
        self.table[_SLOT_REDUCE] = reduce_op
        partials = self.kernel.fold(
            self._address, self.spd_end.size, self.updates, partial.size
        )
        if partials != self.updates - self.coalesced:
            raise SimulationError(
                f"compiled fold found {partials} partials for "
                f"{self.updates} updates of which {self.coalesced} "
                f"coalesced"
            )


def _simulate(
    sim: "CycleAccurateScalaGraph",
    graph: "CSRGraph",
    src: np.ndarray,
    dst: np.ndarray,
    max_cycles: int,
) -> PhaseRecord:
    """Run every cycle of the phase over edges ``src -> dst`` in the
    kernel and record it."""
    topology = sim.topology
    mapping = sim.mapping
    sanitizer = sim.sanitizer
    faults = sim.faults
    profiler = sim.profiler

    from repro.mapping.destination_oriented import DestinationOrientedMapping

    exec_pe = np.ascontiguousarray(
        mapping.execution_pe(src, dst), dtype=np.int32
    )
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    home = np.asarray(
        mapping.home(np.arange(graph.num_vertices, dtype=np.int64)),
        dtype=np.int64,
    )
    registers = sim.config.aggregation_registers
    agg = (
        BatchedAggregationArray(
            topology.num_nodes, *aggregation_geometry(registers)
        )
        if registers > 0
        else None
    )
    network = FastMeshNetwork(
        topology,
        buffer_depth=sim.noc_buffer_depth,
        sanitizer=sanitizer,
        faults=faults,
    )
    # ROM and SOM stream a vertex's out-edges to its home row; DOM's
    # per-partition CSR groups edges by destination instead.
    group = dst if isinstance(mapping, DestinationOrientedMapping) else src
    phase = _Phase(
        network, agg, group,
        np.argsort(group, kind="stable").astype(np.int32), exec_pe, dst,
        home, sim.config.degree_aware_window, max_cycles,
        profiler is not None,
    )
    dispatch_lines = coalesced = spd_reduces = stall_degraded = 0
    cycle = 0
    edge: Optional[int] = 0  # the next fault-window edge
    while True:
        if faults is not None and edge is not None and cycle >= edge:
            np.copyto(phase.pe_stall, faults.pe_stall_mask(cycle))
            network.load_fault_masks(cycle)
            edge = faults.next_boundary_cycle(cycle)
        stop = cycle + (1 if sanitizer is not None else _CALL_CYCLES)
        if faults is not None and edge is not None:
            stop = min(stop, edge)
        status = phase.run(stop)
        (
            lines, merged, reduces, stalled, steps, *mesh_counts,
            ns_dispatch, ns_egress, ns_step, ns_retire,
        ) = phase.table[_SLOT_COUNTS:].tolist()
        network.record_steps(steps, *mesh_counts)
        dispatch_lines += lines
        coalesced += merged
        spd_reduces += reduces
        stall_degraded += stalled
        if profiler is not None:
            profiler.add_time("cycle_sim.dispatch", ns_dispatch * 1e-9, steps)
            profiler.add_time("cycle_sim.egress", ns_egress * 1e-9, steps)
            profiler.add_time("cycle_sim.noc_step", ns_step * 1e-9, steps)
            profiler.add_time("cycle_sim.retire", ns_retire * 1e-9, steps)
        if sanitizer is not None and agg is not None:
            sanitizer.check_aggregation_ledger_arrays(agg, cycle=cycle)
        cycle = int(phase.table[_SLOT_CYCLE])
        if status == _DRAINED:
            break
        if status == _OVERRUN:
            raise SimulationError(
                f"scatter phase did not drain in {max_cycles} cycles"
            )
        if status == _CORRUPT:
            raise SimulationError(
                "compiled scatter phase found a queue slice overflowing "
                "or a register array with no live column"
            )

    # The record's buffers are the phase's, whose addresses were
    # checked when its table was built.
    table = np.zeros(_TABLE_SLOTS, dtype=np.int64)
    table[_RECORD_SLOTS] = phase.table[_RECORD_SLOTS]
    return PhaseRecord(
        kernel=phase.kernel,
        vertices=graph.num_vertices,
        edge_order=phase.d_edge,
        d_pid=phase.d_pid,
        spd_end=phase.spd_end,
        spd_tail=phase.spd_tail,
        spd_vid=phase.spd_vid,
        spd_pid=phase.spd_pid,
        cycles=cycle,
        dispatch_lines=dispatch_lines,
        coalesced=coalesced,
        spd_reduces=spd_reduces,
        # A cycle is degraded when a stalled PE held work or the mesh
        # met a fault on live traffic.
        degraded_cycles=stall_degraded + network.stats.degraded_cycles,
        noc_hops=network.stats.total_hops,
        rerouted_packets=network.stats.rerouted_packets,
        in_flight=(
            phase.queued()
            + (int(agg.occ.sum()) if agg is not None else 0)
            + network.total_occupancy()
        ),
        table=table,
    )


def scatter_phase_fast(
    sim: "CycleAccurateScalaGraph",
    program: "VertexProgram",
    ctx: "ProgramContext",
    graph: "CSRGraph",
    active: np.ndarray,
    props: np.ndarray,
    vtemp: np.ndarray,
    touched_mask: np.ndarray,
    stats: "CycleStats",
    max_cycles: int,
    record: Optional[PhaseRecord] = None,
) -> Tuple[int, Optional[PhaseRecord]]:
    """Drop-in replacement for the reference ``_scatter_phase`` —
    identical stats and properties.

    Without a ``record`` the kernel runs every cycle of the phase.  With
    the record of the previous phase, whose frontier this phase repeats,
    nothing is simulated: the phase folds its own values with the record
    and adds the record's counts.  Returns the phase's cycles and its
    record (None for a phase without edges).
    """
    from repro.algorithms.reference import gather_frontier_edges

    sanitizer = sim.sanitizer
    src, dst, weights = gather_frontier_edges(graph, active)
    if src.size == 0:
        stats.phase_updates.append(0)
        stats.phase_coalesced.append(0)
        stats.phase_spd_reduces.append(0)
        return 0, None
    if sanitizer is not None:
        sanitizer.begin_epoch(f"scatter[{len(stats.scatter_cycles)}]")
    if record is None:
        record = _simulate(sim, graph, src, dst, max_cycles)
    values = np.ascontiguousarray(
        program.scatter_value(ctx, src, weights, props[src]),
        dtype=np.float64,
    )
    del src, dst, weights  # the gathered edges go before the fold
    record.fold(
        values, _REDUCE_OPS[program.reduce_ufunc], vtemp, touched_mask
    )

    updates = record.updates
    stats.updates_processed += updates
    stats.updates_coalesced += record.coalesced
    stats.spd_reduces += record.spd_reduces
    stats.dispatch_lines += record.dispatch_lines
    stats.noc_hops += record.noc_hops
    stats.degraded_cycles += record.degraded_cycles
    stats.rerouted_packets += record.rerouted_packets
    stats.phase_updates.append(updates)
    stats.phase_coalesced.append(record.coalesced)
    stats.phase_spd_reduces.append(record.spd_reduces)
    if sanitizer is not None:
        sanitizer.check_conservation(
            injected=updates,
            delivered=record.spd_reduces,
            coalesced=record.coalesced,
            in_flight=record.in_flight,
            where="scatter phase",
            cycle=record.cycles,
        )
        sanitizer.check_spd_accounting(
            spd_reduces=record.spd_reduces,
            updates=updates,
            coalesced=record.coalesced,
            cycle=record.cycles,
        )
    return record.cycles, record
