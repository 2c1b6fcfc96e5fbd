"""Vectorised scatter-phase engine for the cycle-accurate simulator.

The reference :meth:`~repro.core.cycle_sim.CycleAccurateScalaGraph.
_scatter_phase` walks every dispatcher, PE, FIFO entry, and SPD slot in
Python objects each cycle — O(cycles x PEs) interpreter work that caps
real cycle-accurate runs at 16x16 meshes.  This engine runs the whole
cycle loop in the compiled kernel that already steps the mesh
(``fs_run`` in ``repro/noc/meshkernel.c``): one call advances a phase
through dispatch with aggregation offer, RU egress, the mesh step and
SPD retire, cycle by cycle, up to the phase's end or the next
fault-window edge.  Python keeps the set-up (frontier gather, the
dispatch schedule, the execution/home lookup tables), the fault-mask
loads, the sanitizer hooks and every ``CycleStats`` and ``MeshStats``
write; the kernel keeps its state in Python-owned arrays (the register
arrays of :class:`~repro.noc.aggregation.BatchedAggregationArray`, the
mesh of :class:`~repro.noc.fastmesh.FastMeshNetwork`, and the phase
buffers of :class:`_Phase`) and returns counts.

The engine is **behaviourally identical** to the reference, not merely
statistically similar: every per-cycle decision (dispatch order, offer
order per register column, eviction order, egress/injection order per
PE, SPD retire order, stall handling) reproduces the reference exactly,
so stats are equal integer for integer and the computed properties bit
for bit.  Dispatch is unconditional — dispatchers never experience
backpressure — so each row's whole line schedule is a pure function of
its queue and is precomputed once per phase (:func:`dispatch_schedule`).
The kernel implements the ``np.add``, ``np.minimum`` and ``np.maximum``
reduces exactly; a program with any other reduce runs on the reference.

Selection follows the mesh engine: ``config.cycle_engine='auto'``
picks the vectorised engine at every mesh size whenever the run steps
the compiled mesh (see :func:`resolve_cycle_engine`).  A SanitizerError
raised mid-run reaches the caller of
:meth:`~repro.core.cycle_sim.CycleAccurateScalaGraph.run`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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
    "dispatch_schedule",
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

#: Declared dtype contract of the phase buffers (:class:`_Phase`).
#: SIM604 checks every allocation against it, and the kernel table is
#: built only from arrays that match it.
BUFFER_DTYPES = {
    "d_pe": "int64",
    "d_vtx": "int64",
    "d_val": "float64",
    "offsets": "int64",
    "lines": "int64",
    "home": "int64",
    "pe_stall": "bool",
    "out_end": "int64",
    "out_head": "int64",
    "out_tail": "int64",
    "out_vid": "int64",
    "out_val": "float64",
    "spd_end": "int64",
    "spd_head": "int64",
    "spd_tail": "int64",
    "spd_vid": "int64",
    "spd_val": "float64",
    "free_pkts": "int64",
    "vtemp": "float64",
    "touched": "bool",
    # The kernel's table: buffer addresses, settings, state, counts.
    "table": "int64",
}
_DTYPES = {**REGISTER_DTYPES, **BUFFER_DTYPES}

#: Buffers of the phase table, in the order of ``PHASE_BUFFERS`` in
#: ``meshkernel.c``: the register array's (:data:`REGISTER_DTYPES`)
#: come from :class:`BatchedAggregationArray`, the rest from
#: :class:`_Phase`.
_KERNEL_BUFFERS = (
    "d_pe", "d_vtx", "d_val", "offsets", "lines", "home", "pe_stall",
    "vid", "val", "occ", "rr", "offered", "coalesced", "stored",
    "rejected", "emitted", "out_end", "out_head", "out_tail", "out_vid",
    "out_val", "spd_end", "spd_head", "spd_tail", "spd_vid", "spd_val",
    "free_pkts", "vtemp", "touched",
)
#: The same list as the kernel spells it (``MeshKernel.phase_layout``).
_KERNEL_LAYOUT = tuple(
    (name, np.dtype(_DTYPES[name]).str[1:]) for name in _KERNEL_BUFFERS
)
#: Table slots after the addresses (``enum phase_slot``): seven
#: settings, the carried cycle and free-packet count, then the counts of
#: one call — CycleStats (4), mesh steps, MeshStats (9), and the four
#: stage timers.
_SLOT_SETTINGS = len(_KERNEL_BUFFERS)
_SLOT_CYCLE = _SLOT_SETTINGS + 7
_SLOT_FREE = _SLOT_CYCLE + 1
_SLOT_COUNTS = _SLOT_FREE + 1
_TABLE_SLOTS = _SLOT_COUNTS + 18
#: ``fs_run`` results (``RUNNING`` is 0).
_DRAINED, _OVERRUN, _CORRUPT = 1, 2, 3

#: The reduces the kernel implements, by its ``REDUCE`` code.
_REDUCE_OPS: Dict[np.ufunc, int] = {np.add: 0, np.minimum: 1, np.maximum: 2}

#: Cycles one kernel call may run before returning to Python, so a
#: KeyboardInterrupt lands within a fraction of a second in a long
#: phase (a saturated 32x32 cycle takes ~0.2 ms).
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
# Dispatch schedule: the whole phase's line issue, precomputed
# ----------------------------------------------------------------------
def _row_line_counts(
    sizes: Sequence[int], line_width: int, window: int
) -> List[int]:
    """Edges issued per cycle by one row's DU over its vertex queue.

    Replays :meth:`~repro.core.cycle_sim._RowDispatcher.issue_line`
    exactly: each cycle packs up to ``line_width`` edges from up to
    ``window`` distinct vertices; a vertex split by a full line resumes
    at the head next cycle without counting against that line's window.
    """
    counts: List[int] = []
    i = 0
    n = len(sizes)
    rem = int(sizes[0]) if n else 0
    while i < n:
        line = 0
        used = 0
        while i < n and line < line_width and used < window:
            take = min(rem, line_width - line)
            line += take
            rem -= take
            if rem:
                break  # line full mid-vertex; resume next cycle
            i += 1
            used += 1
            if i < n:
                rem = int(sizes[i])
        counts.append(line)
    return counts


def dispatch_schedule(
    sim: "CycleAccurateScalaGraph",
    src: np.ndarray,
    dst: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precompute the phase's entire dispatch as flat arrays.

    Returns ``(edge_order, cycle_offsets, lines_per_cycle)``:
    ``edge_order[cycle_offsets[c]:cycle_offsets[c + 1]]`` are the edge
    indices every row's DU issues in cycle ``c``, in exactly the order
    the reference dispatch loop visits them (rows ascending, each row's
    line in stream order), and ``lines_per_cycle[c]`` counts the
    non-empty lines (one per still-busy row).

    Valid because dispatch is unconditional: lines never stall, so the
    schedule is a pure function of the per-row vertex queues.
    """
    topology = sim.topology
    mapping = sim.mapping
    from repro.mapping.destination_oriented import DestinationOrientedMapping

    group = dst if isinstance(mapping, DestinationOrientedMapping) else src
    order = np.argsort(group, kind="stable")
    sorted_group = group[order]
    boundary = np.concatenate(([True], sorted_group[1:] != sorted_group[:-1]))
    starts = np.flatnonzero(boundary)
    stops = np.concatenate([starts[1:], [order.size]])
    verts = sorted_group[starts]
    vrows = np.asarray(
        topology.rows_of(mapping.home(verts)), dtype=np.int64
    )
    # Group the vertex queues by row, keeping ascending-vertex order
    # within each row (the order the reference fills its dispatchers).
    rorder = np.argsort(vrows, kind="stable")
    row_sorted = vrows[rorder]
    row_boundary = np.concatenate(
        ([True], row_sorted[1:] != row_sorted[:-1])
    )
    row_starts = np.flatnonzero(row_boundary)
    row_stops = np.concatenate([row_starts[1:], [rorder.size]])

    line_width = topology.cols
    window = sim.config.degree_aware_window
    edge_parts: List[np.ndarray] = []
    cycle_parts: List[np.ndarray] = []
    row_parts: List[np.ndarray] = []
    row_lengths: List[int] = []
    for lo, hi in zip(row_starts, row_stops):
        groups = rorder[lo:hi]
        row = int(row_sorted[lo])
        sizes = (stops - starts)[groups]
        counts = np.asarray(
            _row_line_counts(sizes.tolist(), line_width, window),
            dtype=np.int64,
        )
        edge_parts.append(
            np.concatenate([order[starts[g]:stops[g]] for g in groups])
        )
        cycle_parts.append(np.repeat(np.arange(counts.size), counts))
        row_parts.append(np.full(int(sizes.sum()), row, dtype=np.int64))
        row_lengths.append(int(counts.size))

    if not edge_parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(1, dtype=np.int64), empty
    all_e = np.concatenate(edge_parts)
    all_c = np.concatenate(cycle_parts)
    all_r = np.concatenate(row_parts)
    # Stable by (cycle, row): within one cycle rows dispatch in
    # ascending order, each row's line in stream order.
    perm = np.lexsort((all_r, all_c))
    edge_order = all_e[perm]
    n_cycles = max(row_lengths)
    per_cycle = np.bincount(all_c, minlength=n_cycles)
    cycle_offsets = np.concatenate(
        ([0], np.cumsum(per_cycle))
    ).astype(np.int64)
    lines_per_cycle = np.zeros(n_cycles, dtype=np.int64)
    for length in row_lengths:
        lines_per_cycle[:length] += 1
    return edge_order, cycle_offsets, lines_per_cycle


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

    Every queue gets one slice per PE, sized by the phase's own bound:
    an update enters a PE's out queue at most once (at its execution
    PE) and its SPD queue at most once (at its destination's home), and
    at most ``nodes x ports x depth`` packets fit in the mesh at once,
    so the kernel never needs more room mid-phase.
    """

    def __init__(
        self,
        network: FastMeshNetwork,
        agg: Optional[BatchedAggregationArray],
        schedule: Tuple[np.ndarray, np.ndarray, np.ndarray],
        exec_pe: np.ndarray,
        dst: np.ndarray,
        values: np.ndarray,
        home: np.ndarray,
        vtemp: np.ndarray,
        reduce_op: int,
        max_cycles: int,
        profiled: bool,
    ) -> None:
        self._kernel = meshkernel.load()
        _check_layout(self._kernel)
        n = network.topology.num_nodes
        for role, pes in (("execution", exec_pe), ("home", home)):
            if int(pes.min()) < 0 or int(pes.max()) >= n:
                raise ConfigurationError(
                    f"the mapping names a {role} PE outside the {n}-PE mesh"
                )
        edge_order, offsets, lines = schedule
        updates = edge_order.size
        self.d_pe = np.empty(updates, dtype=np.int64)
        self.d_pe[:] = exec_pe[edge_order]
        self.d_vtx = np.empty(updates, dtype=np.int64)
        self.d_vtx[:] = dst[edge_order]
        self.d_val = np.empty(updates, dtype=np.float64)
        self.d_val[:] = values[edge_order]
        self.offsets = np.empty(offsets.size, dtype=np.int64)
        self.offsets[:] = offsets
        self.lines = np.empty(lines.size, dtype=np.int64)
        self.lines[:] = lines
        self.home = np.empty(home.size, dtype=np.int64)
        self.home[:] = home
        self.pe_stall = np.zeros(n, dtype=bool)

        out_bound = np.bincount(exec_pe, minlength=n)
        self.out_end = np.empty(n, dtype=np.int64)
        np.cumsum(out_bound, out=self.out_end)
        self.out_head = np.empty(n, dtype=np.int64)
        self.out_head[:] = self.out_end - out_bound
        self.out_tail = np.empty(n, dtype=np.int64)
        self.out_tail[:] = self.out_head
        self.out_vid = np.empty(updates, dtype=np.int64)
        self.out_val = np.empty(updates, dtype=np.float64)
        spd_bound = np.bincount(home[dst], minlength=n)
        self.spd_end = np.empty(n, dtype=np.int64)
        np.cumsum(spd_bound, out=self.spd_end)
        self.spd_head = np.empty(n, dtype=np.int64)
        self.spd_head[:] = self.spd_end - spd_bound
        self.spd_tail = np.empty(n, dtype=np.int64)
        self.spd_tail[:] = self.spd_head
        self.spd_vid = np.empty(updates, dtype=np.int64)
        self.spd_val = np.empty(updates, dtype=np.float64)

        packets = n * NUM_PORTS * network.buffer_depth
        self.free_pkts = np.empty(packets, dtype=np.int64)
        self.free_pkts[:] = np.arange(packets)
        self.vtemp = np.empty(vtemp.size, dtype=np.float64)
        self.vtemp[:] = vtemp
        self.touched = np.zeros(vtemp.size, dtype=bool)

        self.table = np.zeros(_TABLE_SLOTS, dtype=np.int64)
        for slot, name in enumerate(_KERNEL_BUFFERS):
            owner = agg if name in REGISTER_DTYPES else self
            if owner is not None:  # no register array: the slots stay 0
                self.table[slot] = _address(name, getattr(owner, name))
        self.table[_SLOT_SETTINGS:_SLOT_CYCLE] = (
            network.kernel_table(packets),
            agg.num_stages if agg is not None else 0,
            agg.num_columns if agg is not None else 0,
            reduce_op,
            lines.size,
            max_cycles,
            profiled,
        )
        self.table[_SLOT_FREE] = packets
        self._address = _address("table", self.table)

    def run(self, stop: int) -> int:
        """Advance the phase until it drains or reaches cycle ``stop``;
        returns the kernel's status."""
        return int(self._kernel.phase(self._address, stop))

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
) -> int:
    """Drop-in replacement for the reference ``_scatter_phase`` —
    identical stats and properties, every cycle run by the kernel."""
    from repro.algorithms.reference import gather_frontier_edges

    topology = sim.topology
    mapping = sim.mapping
    sanitizer = sim.sanitizer
    faults = sim.faults
    profiler = sim.profiler
    coalesced_before = stats.updates_coalesced
    spd_reduces_before = stats.spd_reduces

    src, dst, weights = gather_frontier_edges(graph, active)
    if src.size == 0:
        stats.phase_updates.append(0)
        stats.phase_coalesced.append(0)
        stats.phase_spd_reduces.append(0)
        return 0
    values = np.asarray(
        program.scatter_value(ctx, src, weights, props[src]),
        dtype=np.float64,
    )
    exec_pe = np.asarray(mapping.execution_pe(src, dst), dtype=np.int64)
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
    if sanitizer is not None:
        sanitizer.begin_epoch(f"scatter[{len(stats.scatter_cycles)}]")
    network = FastMeshNetwork(
        topology,
        buffer_depth=sim.noc_buffer_depth,
        sanitizer=sanitizer,
        faults=faults,
    )
    phase = _Phase(
        network,
        agg,
        dispatch_schedule(sim, src, dst),
        exec_pe,
        dst,
        values,
        home,
        vtemp,
        _REDUCE_OPS[program.reduce_ufunc],
        max_cycles,
        profiler is not None,
    )
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
            lines, coalesced, reduces, stall_degraded, steps, *mesh_counts,
            ns_dispatch, ns_egress, ns_step, ns_retire,
        ) = phase.table[_SLOT_COUNTS:].tolist()
        net_degraded_before = network.stats.degraded_cycles
        network.record_steps(steps, *mesh_counts)
        stats.dispatch_lines += lines
        stats.updates_coalesced += coalesced
        stats.spd_reduces += reduces
        # A cycle is degraded when a stalled PE held work or the mesh
        # met a fault on live traffic.
        stats.degraded_cycles += stall_degraded + (
            network.stats.degraded_cycles - net_degraded_before
        )
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

    np.copyto(vtemp, phase.vtemp)
    touched_mask |= phase.touched
    total_edges = int(src.size)
    stats.updates_processed += total_edges
    stats.noc_hops += network.stats.total_hops
    stats.rerouted_packets += network.stats.rerouted_packets
    phase_coalesced = stats.updates_coalesced - coalesced_before
    phase_spd = stats.spd_reduces - spd_reduces_before
    stats.phase_updates.append(total_edges)
    stats.phase_coalesced.append(phase_coalesced)
    stats.phase_spd_reduces.append(phase_spd)
    if sanitizer is not None:
        in_flight = (
            phase.queued()
            + (int(agg.occ.sum()) if agg is not None else 0)
            + network.total_occupancy()
        )
        sanitizer.check_conservation(
            injected=total_edges,
            delivered=phase_spd,
            coalesced=phase_coalesced,
            in_flight=in_flight,
            where="scatter phase",
            cycle=cycle,
        )
        sanitizer.check_spd_accounting(
            spd_reduces=phase_spd,
            updates=total_edges,
            coalesced=phase_coalesced,
            cycle=cycle,
        )
    return cycle
