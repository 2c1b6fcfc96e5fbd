"""Vectorised scatter-phase engine for the cycle-accurate simulator.

The reference :meth:`~repro.core.cycle_sim.CycleAccurateScalaGraph.
_scatter_phase` walks every dispatcher, PE, FIFO entry, and SPD slot in
Python objects each cycle — O(cycles x PEs) interpreter work that caps
real cycle-accurate runs at 16x16 meshes.  This module applies the
fastmesh recipe (PR 3) to everything *around* the NoC step: dispatcher
schedules, per-PE aggregation register arrays, out/SPD FIFOs, and
PE-stall state live in struct-of-arrays NumPy buffers, and each cycle's
dispatch -> RU egress -> SPD retire runs as whole-cycle batched array
operations.  The mesh step itself is delegated to the engine selected
by :attr:`~repro.core.config.ScalaGraphConfig.noc_engine`, unchanged.

The engine is **behaviourally identical** to the reference, not merely
statistically similar: every per-cycle decision (dispatch order, offer
order per register column, eviction order, egress/injection order per
PE, SPD retire order, stall handling, idle fast-forwarding) reproduces
the reference exactly, so stats are equal integer for integer and the
computed properties bit for bit.  Two structural facts make this
possible without simulating objects:

* **Dispatch is unconditional** — dispatchers never experience
  backpressure, so each row's whole line schedule is a pure function of
  its queue and can be precomputed once per phase
  (:func:`dispatch_schedule`); the cycle loop then just slices a
  flat edge array.
* **Within a cycle, same-column offers are the only ordered
  interaction** — ranking offers within their ``(pe, column)`` group
  and processing rank rounds in order preserves the reference's
  register-array evolution while each round is one conflict-free
  fancy-indexed pass (see
  :class:`~repro.noc.aggregation.BatchedAggregationArray`).

Selection follows the ``noc_engine`` pattern:
``config.cycle_engine='auto'`` picks the vectorised engine at or above
:data:`AUTO_CYCLE_ENGINE_MIN_NODES` nodes, and a SanitizerError raised
mid-run falls back to the reference engines once (see
:meth:`~repro.core.cycle_sim.CycleAccurateScalaGraph.run`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profiling import NULL_PROFILER
from repro.errors import ConfigurationError, SimulationError
from repro.noc.aggregation import (
    BatchedAggregationArray,
    aggregation_geometry,
    run_ranks,
)
from repro.noc.fastmesh import make_mesh_network
from repro.noc.topology import MeshTopology

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.algorithms.base import ProgramContext, VertexProgram
    from repro.core.cycle_sim import CycleAccurateScalaGraph, CycleStats
    from repro.graph.csr import CSRGraph

__all__ = [
    "AUTO_CYCLE_ENGINE_MIN_NODES",
    "dispatch_schedule",
    "resolve_cycle_engine",
    "scatter_phase_fast",
]

#: Mesh size at which ``cycle_engine='auto'`` switches to the
#: vectorised engine.  Same threshold as the mesh engines: below it the
#: fixed cost of whole-array operations outweighs the loop savings.
AUTO_CYCLE_ENGINE_MIN_NODES = 64

#: Shared empty PE-index array for scalar-total fast paths.
_EMPTY_PES = np.zeros(0, dtype=np.int64)

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

#: Declared dtype contract for the struct-of-arrays PE FIFO state
#: (:class:`_PEFifoArray`).  Audited by SIM604 at every allocation
#: call site, including the reallocation in ``_grow_to``.
BUFFER_DTYPES = {
    "vid": "int64",
    "val": "float64",
    "head": "int64",
    "count": "int64",
}


def resolve_cycle_engine(engine: str, topology: MeshTopology) -> str:
    """Resolve a scatter-engine name (``auto``/``reference``/
    ``vectorized``) to a concrete one, choosing by mesh size for
    ``auto``."""
    name = engine.lower()
    if name == "auto":
        return (
            "vectorized"
            if topology.num_nodes >= AUTO_CYCLE_ENGINE_MIN_NODES
            else "reference"
        )
    if name not in ("reference", "vectorized"):
        raise ConfigurationError(
            f"unknown cycle_engine {engine!r} (auto/reference/vectorized)"
        )
    return name


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
# Growable per-PE FIFO ring buffers
# ----------------------------------------------------------------------
class _PEFifoArray:
    """One FIFO per PE, stored as shared ring buffers.

    ``vid``/``val`` are ``(num_pes, cap)`` rings with per-PE ``head``
    and ``count``; ``cap`` doubles on demand (compacting every ring to
    offset 0).  All operations are batched over PE index arrays;
    ``append`` preserves the argument order for repeated PEs.
    """

    __slots__ = (
        "num_pes",
        "cap",
        "vid",
        "val",
        "head",
        "count",
        "_vid_flat",
        "_val_flat",
        "_total",
    )

    def __init__(self, num_pes: int, capacity: int = 16) -> None:
        self.num_pes = num_pes
        self.cap = capacity
        self.vid = np.zeros((num_pes, capacity), dtype=np.int64)
        self.val = np.zeros((num_pes, capacity))
        self.head = np.zeros(num_pes, dtype=np.int64)
        self.count = np.zeros(num_pes, dtype=np.int64)
        # Flat views for single-array gathers/scatters (row pe, slot s
        # lives at pe * cap + s); rebuilt on every reallocation.
        self._vid_flat = self.vid.reshape(-1)
        self._val_flat = self.val.reshape(-1)
        # Scalar occupancy mirror of count.sum(), maintained by
        # append/drop so per-cycle emptiness checks cost no reduction.
        self._total = 0

    def total(self) -> int:
        return self._total

    def _grow_to(self, needed: int) -> None:
        # Geometric growth straight from the needed size (next power of
        # two, but never less than one doubling) — no re-loop from the
        # current cap.
        new_cap = max(self.cap * 2, 1 << (int(needed) - 1).bit_length())
        vid = np.zeros((self.num_pes, new_cap), dtype=np.int64)
        val = np.zeros((self.num_pes, new_cap))
        if self.head.any():
            rows = np.arange(self.num_pes)[:, None]
            idx = (
                self.head[:, None] + np.arange(self.cap)[None, :]
            ) % self.cap
            vid[:, : self.cap] = self.vid[rows, idx]
            val[:, : self.cap] = self.val[rows, idx]
            self.head[:] = 0
        else:
            # Every ring already starts at offset 0 (the common growth
            # path: capacity outgrown before any pop) — plain copy, no
            # modular gather.
            vid[:, : self.cap] = self.vid
            val[:, : self.cap] = self.val
        self.vid, self.val = vid, val
        self._vid_flat = vid.reshape(-1)
        self._val_flat = val.reshape(-1)
        self.cap = new_cap

    def append(
        self,
        pes: np.ndarray,
        vids: np.ndarray,
        vals: np.ndarray,
        assume_unique: bool = False,
    ) -> None:
        if pes.size == 0:
            return
        if assume_unique:
            # Caller asserts no repeated PEs (e.g. flatnonzero-derived
            # index sets): touch only the listed rows.
            cnt = self.count.take(pes)
            if int(cnt.max()) >= self.cap:
                self._grow_to(int(cnt.max()) + 1)
                cnt = self.count.take(pes)
            pos = self.head.take(pes)
            pos += cnt
            pos %= self.cap
            idx = pes * self.cap
            idx += pos
            self._vid_flat[idx] = vids
            self._val_flat[idx] = vals
            self.count[pes] = cnt + 1
            self._total += int(pes.size)
            return
        mult = np.bincount(pes, minlength=self.num_pes)
        deepest = int((self.count + mult).max())
        if deepest > self.cap:
            self._grow_to(deepest)
        if pes.size == 1 or int(mult.max()) <= 1:
            # All-unique fast path: no intra-call ordering to resolve.
            pos = (self.head.take(pes) + self.count.take(pes)) % self.cap
            idx = pes * self.cap + pos
            self._vid_flat[idx] = vids
            self._val_flat[idx] = vals
        else:
            order = np.argsort(pes, kind="stable")
            sp = pes[order]
            rank = run_ranks(sp)
            pos = (self.head.take(sp) + self.count.take(sp) + rank) % self.cap
            idx = sp * self.cap + pos
            self._vid_flat[idx] = vids[order]
            self._val_flat[idx] = vals[order]
        self.count += mult
        self._total += int(pes.size)

    def peek(self, pes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        idx = pes * self.cap
        idx += self.head.take(pes)
        return self._vid_flat.take(idx), self._val_flat.take(idx)

    def pop(self, pes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Pop the head of each listed FIFO (PEs must be unique)."""
        v, x = self.peek(pes)
        self.drop(pes)
        return v, x

    def drop(self, pes: np.ndarray) -> None:
        """Advance the head of each listed FIFO without gathering the
        values — for callers that already hold them from :meth:`peek`
        (PEs must be unique)."""
        h = self.head.take(pes)
        h += 1
        h %= self.cap
        self.head[pes] = h
        self.count[pes] -= 1
        self._total -= int(pes.size)


# ----------------------------------------------------------------------
# The vectorised scatter phase
# ----------------------------------------------------------------------
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
    noc_engine: str,
) -> int:
    """Drop-in replacement for the reference ``_scatter_phase`` —
    identical stats and properties, whole-cycle array operations."""
    from repro.algorithms.reference import gather_frontier_edges

    cfg = sim.config
    topology = sim.topology
    mapping = sim.mapping
    sanitizer = sim.sanitizer
    faults = sim.faults
    num_pes = topology.num_nodes
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
    reduce_ufunc = program.reduce_ufunc

    edge_order, cycle_offsets, lines_per_cycle = dispatch_schedule(
        sim, src, dst
    )
    d_pe = exec_pe[edge_order]
    d_vtx = np.asarray(dst, dtype=np.int64)[edge_order]
    d_val = values[edge_order]
    n_dispatch_cycles = lines_per_cycle.size

    registers = cfg.aggregation_registers
    agg: Optional[BatchedAggregationArray] = None
    if registers > 0:
        stages, columns = aggregation_geometry(registers)
        agg = BatchedAggregationArray(
            num_pes, stages, columns, reduce_ufunc, sanitizer=sanitizer
        )
    out = _PEFifoArray(num_pes)
    spd = _PEFifoArray(num_pes)
    if sanitizer is not None:
        sanitizer.begin_epoch(f"scatter[{len(stats.scatter_cycles)}]")
    network = make_mesh_network(
        topology,
        buffer_depth=sim.noc_buffer_depth,
        sanitizer=sanitizer,
        engine=noc_engine,
        faults=faults,
        # This engine reads deliveries via delivered_arrays and never
        # touches Packet objects; skip materialising them (fastmesh
        # only — the reference mesh ignores the flag).
        lean_packets=True,
    )
    noc_timer = (sim.profiler or NULL_PROFILER).block_timer(
        "cycle_sim.noc_step"
    )
    # Array-form delivery drain (fastmesh only; the reference mesh
    # falls back to reading Packet attributes).
    delivered_arrays = getattr(network, "delivered_arrays", None)
    delivered_count = (
        network.delivered_count
        if delivered_arrays is not None
        else lambda: len(network.delivered)
    )
    fast_net = delivered_arrays is not None

    # Vertex-home lookup table: one mapping call up front turns the two
    # per-cycle ``mapping.home`` calls into plain array gathers.
    home_all = np.asarray(
        mapping.home(np.arange(graph.num_vertices, dtype=np.int64)),
        dtype=np.int64,
    )
    # Preallocated per-cycle occupancy masks (steady-state cycles reuse
    # these instead of allocating fresh boolean temporaries).
    fifo_has = np.empty(num_pes, dtype=bool)
    pipe_has = np.empty(num_pes, dtype=bool) if agg is not None else None
    spd_has = np.empty(num_pes, dtype=bool)
    emit_sel = np.empty(num_pes, dtype=bool)

    total_edges = int(src.size)
    cycle = 0
    edges_remaining = total_edges
    drained_early = False
    while True:
        # Drain-mode hand-off: once the dispatcher schedule is done and
        # both the egress FIFOs and aggregation registers are empty,
        # stages 1-2 can never act again — nothing refills `out`
        # (dispatch is exhausted, the registers are empty, and SPD
        # traffic never re-enters the egress path) — so the rest of the
        # phase is mesh traffic landing and retiring.  The batched loop
        # below the main one runs exactly stages 3-4 per cycle,
        # cycle-for-cycle identical, freed of the dispatch/egress glue.
        if (
            cycle >= n_dispatch_cycles
            and out.total() == 0
            and (agg is None or agg.total_occupancy() == 0)
        ):
            drained_early = True
            break
        progressed = False
        pe_stall_hit = False
        net_degraded_before = network.stats.degraded_cycles
        stall = faults.pe_stall_mask(cycle) if faults is not None else None

        # 1. Dispatch: every row's line for this cycle, one batch.
        if cycle < n_dispatch_cycles:
            lo = int(cycle_offsets[cycle])
            hi = int(cycle_offsets[cycle + 1])
            if hi > lo:
                progressed = True
                stats.dispatch_lines += int(lines_per_cycle[cycle])
                b_pe = d_pe[lo:hi]
                b_vtx = d_vtx[lo:hi]
                b_val = d_val[lo:hi]
                if agg is None:
                    out.append(b_pe, b_vtx, b_val)
                else:
                    ncoal, ev_pe, ev_vid, ev_val = agg.offer_batch(
                        b_pe, b_vtx, b_val
                    )
                    stats.updates_coalesced += ncoal
                    out.append(ev_pe, ev_vid, ev_val)

        # 2. RU egress: each PE emits one update — FIFO head first,
        #    then pipeline drain once dispatch for the phase is done.
        #    FIFO pops only commit when the mesh accepts the injection,
        #    which is the batched equivalent of the reference's
        #    requeue-at-head on backpressure.
        drain_pipelines = cycle >= n_dispatch_cycles - 1
        out_any = out.total() > 0
        if out_any:
            np.greater(out.count, 0, out=fifo_has)
        else:
            # Scalar-total fast path: every egress FIFO is empty, so
            # the mask compute and nonzero scan below are skipped.
            fifo_has.fill(False)
        if agg is not None:
            np.greater(agg.occ, 0, out=pipe_has)
        if stall is None:
            can_act = None  # all PEs act
            fifo_sel = fifo_has
        else:
            held = fifo_has
            if drain_pipelines and pipe_has is not None:
                held = held | pipe_has
            if bool((stall & held).any()):
                pe_stall_hit = True
            can_act = ~stall
            fifo_sel = fifo_has & can_act
        fifo_pes = fifo_sel.nonzero()[0] if out_any else _EMPTY_PES
        if fifo_pes.size:
            progressed = True
            v_f, x_f = out.peek(fifo_pes)
            t_f = home_all.take(v_f)
            local = t_f == fifo_pes
            if local.any():
                li = local.nonzero()[0]
                local_pes = fifo_pes.take(li)
                out.drop(local_pes)
                spd.append(
                    local_pes,
                    v_f.take(li),
                    x_f.take(li),
                    assume_unique=True,
                )
                ri = np.logical_not(local, out=local).nonzero()[0]
                r_pes = fifo_pes.take(ri)
                t_r, v_r, x_r = t_f.take(ri), v_f.take(ri), x_f.take(ri)
            else:
                r_pes, t_r, v_r, x_r = fifo_pes, t_f, v_f, x_f
            if r_pes.size:
                ok = network.inject_batch(r_pes, t_r, v_r, x_r)
                if ok.all():
                    out.drop(r_pes)
                elif ok.any():
                    out.drop(r_pes[ok])
        if drain_pipelines and agg is not None:
            np.logical_not(fifo_has, out=emit_sel)
            emit_sel &= pipe_has
            if stall is not None:
                emit_sel &= can_act
            emit_pes = emit_sel.nonzero()[0]
            if emit_pes.size:
                progressed = True
                v_e, x_e = agg.emit_round_robin(emit_pes)
                t_e = home_all.take(v_e)
                local = t_e == emit_pes
                if local.any():
                    li = local.nonzero()[0]
                    spd.append(
                        emit_pes.take(li),
                        v_e.take(li),
                        x_e.take(li),
                        assume_unique=True,
                    )
                    ri = np.logical_not(local, out=local).nonzero()[0]
                    r_pes = emit_pes.take(ri)
                    t_r, v_r, x_r = (
                        t_e.take(ri),
                        v_e.take(ri),
                        x_e.take(ri),
                    )
                else:
                    r_pes, t_r, v_r, x_r = emit_pes, t_e, v_e, x_e
                if r_pes.size:
                    ok = network.inject_batch(r_pes, t_r, v_r, x_r)
                    if not ok.all():
                        # Backpressure: the PE's FIFO is empty (that is
                        # what allowed the drain emit), so appending
                        # equals the reference's requeue-at-head.
                        bad = ~ok
                        out.append(
                            r_pes[bad],
                            v_r[bad],
                            x_r[bad],
                            assume_unique=True,
                        )

        # 3. NoC: one router cycle; deliveries feed the SPD FIFOs.
        before = delivered_count()
        with noc_timer:
            network.step()
        n_landed = delivered_count() - before
        if n_landed:
            if delivered_arrays is not None:
                # Each router ejects at most one packet per cycle, so
                # the landed destinations are unique.
                spd.append(*delivered_arrays(before), assume_unique=True)
            else:
                landed = network.delivered[before:]
                spd.append(
                    np.fromiter(
                        (p.dst for p in landed),
                        dtype=np.int64,
                        count=n_landed,
                    ),
                    np.fromiter(
                        (p.vertex for p in landed),
                        dtype=np.int64,
                        count=n_landed,
                    ),
                    np.fromiter(
                        (p.value for p in landed),
                        dtype=np.float64,
                        count=n_landed,
                    ),
                )
        occ_now = (
            network.last_occupancy
            if fast_net
            else network.total_occupancy()
        )
        if n_landed or occ_now:
            progressed = True

        # 4. SPD: one Reduce per slice per cycle.  The popped vertices
        #    are distinct across PEs (each vertex retires only at its
        #    home), so the scatter-reduce below is exact.
        if spd.total():
            np.greater(spd.count, 0, out=spd_has)
            if stall is None:
                retire = spd_has
            else:
                if bool((spd_has & stall).any()):
                    pe_stall_hit = True
                retire = spd_has & ~stall
            retire_pes = retire.nonzero()[0]
        else:
            retire_pes = _EMPTY_PES
        if retire_pes.size:
            rv, rx = spd.pop(retire_pes)
            vtemp[rv] = reduce_ufunc(vtemp.take(rv), rx)
            touched_mask[rv] = True
            stats.spd_reduces += int(retire_pes.size)
            progressed = True

        if faults is not None and (
            pe_stall_hit
            or network.stats.degraded_cycles > net_degraded_before
        ):
            stats.degraded_cycles += 1
        if sanitizer is not None and agg is not None:
            sanitizer.check_aggregation_ledger_arrays(agg, cycle=cycle)

        cycle += 1
        if cycle > max_cycles:
            raise SimulationError(
                f"scatter phase did not drain in {max_cycles} cycles"
            )

        edges_remaining = total_edges - int(
            cycle_offsets[min(cycle, n_dispatch_cycles)]
        )
        if (
            not progressed
            and edges_remaining == 0
            and out.total() == 0
            and (agg is None or agg.total_occupancy() == 0)
            and spd.total() == 0
            and not occ_now
            and not network.in_flight_packets()
        ):
            break

        # Idle-cycle fast-forward (same conditions as the reference: a
        # stalled PE holding work pins the clock to real cycles).
        if not progressed and not pe_stall_hit:
            target = network.next_event_cycle()
            if target is not None and target > network.cycle:
                cycle += network.fast_forward(target)

    # ------------------------------------------------------------------
    # Drain mode: dispatch and egress are provably inert, so each cycle
    # is exactly stage 3 (mesh step + landings) and stage 4 (SPD
    # retire), with the same fault accounting, sanitizer hooks, cycle
    # bookkeeping, and exit condition as the main loop — stats are
    # cycle-for-cycle identical, minus the dead glue.
    # ------------------------------------------------------------------
    while drained_early:
        progressed = False
        pe_stall_hit = False
        net_degraded_before = network.stats.degraded_cycles
        stall = faults.pe_stall_mask(cycle) if faults is not None else None

        before = delivered_count()
        with noc_timer:
            network.step()
        n_landed = delivered_count() - before
        if n_landed:
            if delivered_arrays is not None:
                spd.append(*delivered_arrays(before), assume_unique=True)
            else:
                landed = network.delivered[before:]
                spd.append(
                    np.fromiter(
                        (p.dst for p in landed),
                        dtype=np.int64,
                        count=n_landed,
                    ),
                    np.fromiter(
                        (p.vertex for p in landed),
                        dtype=np.int64,
                        count=n_landed,
                    ),
                    np.fromiter(
                        (p.value for p in landed),
                        dtype=np.float64,
                        count=n_landed,
                    ),
                )
        occ_now = (
            network.last_occupancy
            if fast_net
            else network.total_occupancy()
        )
        if n_landed or occ_now:
            progressed = True

        if spd.total():
            np.greater(spd.count, 0, out=spd_has)
            if stall is None:
                retire = spd_has
            else:
                if bool((spd_has & stall).any()):
                    pe_stall_hit = True
                retire = spd_has & ~stall
            retire_pes = retire.nonzero()[0]
        else:
            retire_pes = _EMPTY_PES
        if retire_pes.size:
            rv, rx = spd.pop(retire_pes)
            vtemp[rv] = reduce_ufunc(vtemp.take(rv), rx)
            touched_mask[rv] = True
            stats.spd_reduces += int(retire_pes.size)
            progressed = True

        if faults is not None and (
            pe_stall_hit
            or network.stats.degraded_cycles > net_degraded_before
        ):
            stats.degraded_cycles += 1
        if sanitizer is not None and agg is not None:
            sanitizer.check_aggregation_ledger_arrays(agg, cycle=cycle)

        cycle += 1
        if cycle > max_cycles:
            raise SimulationError(
                f"scatter phase did not drain in {max_cycles} cycles"
            )
        if (
            not progressed
            and spd.total() == 0
            and not occ_now
            and not network.in_flight_packets()
        ):
            break

        if not progressed and not pe_stall_hit:
            # Idle gap: jump to the mesh's next scheduled event.
            target = network.next_event_cycle()
            if target is not None and target > network.cycle:
                cycle += network.fast_forward(target)
        elif (
            pe_stall_hit
            and faults is not None
            and retire_pes.size == 0
            and occ_now == 0
            and not network.in_flight_packets()
            and network.next_event_cycle() is None
        ):
            # Stall-window fast-forward: the mesh is fully inert (no
            # buffered, in-flight, or pending packets) and every
            # SPD-holding PE sits in a stall window.  All fault masks
            # are constant until the next window boundary, so each
            # intervening cycle would replay exactly this one: no
            # retire, one degraded cycle (stepping an *empty* mesh can
            # never raise fault_seen, so the mesh's own degraded count
            # cannot move).  Jump straight to the boundary.
            boundary = faults.next_boundary_cycle(cycle - 1)
            if boundary is not None and boundary > cycle:
                skipped = boundary - cycle
                cycle = boundary
                stats.degraded_cycles += skipped
                network.fast_forward(network.cycle + skipped)

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
            edges_remaining
            + out.total()
            + spd.total()
            + (agg.total_occupancy() if agg is not None else 0)
            + network.total_occupancy()
            + network.in_flight_packets()
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
