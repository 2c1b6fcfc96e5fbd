"""Struct-of-arrays mesh NoC engine with a compiled cycle step.

:class:`~repro.noc.mesh.MeshNetwork` is the *reference* simulator: one
:class:`~repro.noc.router.Router` object per node, advanced with Python
loops every cycle.  That is ideal for auditing but caps Figure 6-style
routing-conflict studies and analytic-model cross-checks at tiny meshes.
This module provides :class:`FastMeshNetwork`, a drop-in engine that
keeps **all** router state in a handful of NumPy buffers —

* ``(nodes, 5-ports, depth)`` FIFO ring buffers of packet indices,
* ``(nodes, 5)`` head/occupancy/round-robin/link-busy matrices,
* flat per-packet ``dst``/``flits``/``injected_cycle`` arrays —

and advances a whole cycle in one call into a small C kernel
(``meshkernel.c``, built and loaded by :mod:`repro.noc.meshkernel`):
link-busy tick, XY routing with fault deflection, switch allocation
with the reference's round-robin priority, credit backpressure, then
commit, ejection and link traversal.  :meth:`FastMeshNetwork.inject_batch`
runs in the same kernel.  Python keeps the object-packet paths
(:meth:`~FastMeshNetwork.schedule`, :meth:`~FastMeshNetwork.inject`,
deferred injections and multi-flit landings), the sanitizer hooks and
every :class:`~repro.noc.mesh.MeshStats` write: the kernel returns
counts.

**Equivalence contract.**  The engine is packet-for-packet and
cycle-for-cycle identical to the reference simulator: identical
:class:`~repro.noc.mesh.MeshStats` (cycles, injected, delivered, hops,
latency, peak occupancy, stalled moves, fault counters) and identical
delivery order, for any workload — including multi-flit packets,
deferred injections, fault schedules and single-entry buffers.
``tests/test_fastmesh.py`` and ``tests/test_faults.py`` enforce this
differentially across mesh sizes, traffic patterns, and the full
cycle-accurate simulator; treat any divergence as a bug in this module,
never as acceptable drift.

Both engines also support an *idle-cycle fast-forward*: when every FIFO
is empty and no link is busy, :meth:`run_until_drained` jumps the cycle
counter to the next scheduled event (pending injection or in-flight
landing) instead of spinning one cycle at a time.  The jump is
stats-neutral — idle cycles change nothing but the counter — so
fast-forwarded and stepped runs report identical ``MeshStats``.

Engine selection is wired through
:attr:`repro.core.config.ScalaGraphConfig.noc_engine` and the
:func:`make_mesh_network` factory; ``"auto"`` picks this engine for
meshes of :data:`AUTO_VECTORIZE_MIN_NODES` nodes or more when the kernel
can be built, and falls back to the reference with a warning when no C
compiler is available.
"""

from __future__ import annotations

import heapq
import warnings
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.noc import meshkernel
from repro.noc.mesh import MeshNetwork, MeshStats
from repro.noc.packet import Packet, batch_packets
from repro.noc.router import LOCAL, NUM_PORTS, PORT_NAMES
from repro.noc.topology import MeshTopology

if TYPE_CHECKING:  # import-free at runtime: the hooks are duck-typed
    from repro.analysis.sanitizer import SimSanitizer
    from repro.faults.schedule import FaultSchedule

__all__ = [
    "AUTO_VECTORIZE_MIN_NODES",
    "FastMeshNetwork",
    "MeshEngine",
    "make_mesh_network",
    "resolve_engine",
]

#: ``noc_engine="auto"`` selects the vectorised engine for meshes with at
#: least this many nodes.  The NumPy dispatch overhead that once set
#: this floor went with the compiled step; the value stays 64 because
#: lowering it would move the daemon's small cycle-fidelity meshes (4x4,
#: 4x8) off the reference engine, which needs its own measured change.
AUTO_VECTORIZE_MIN_NODES = 64

#: Either cycle-level mesh engine (they are behaviourally identical).
MeshEngine = Union[MeshNetwork, "FastMeshNetwork"]

#: Engine-twin declaration consumed by the whole-program analyzer
#: (:mod:`repro.analysis.project`).  SIM601 audits that this module and
#: the reference mesh consume the same config fields, emit/read the
#: same ``MeshStats`` fields, and query the same fault *kinds* (the
#: query methods may differ — the reference reroutes per-packet via
#: ``route`` while this engine masks whole links via ``link_dead_mask``;
#: both consume link-outage faults).
ENGINE_TWIN = {
    "pair": "noc-engine",
    "reference": "repro.noc.mesh",
}

#: Declared dtype contract for the struct-of-arrays router state.
#: SIM604 checks every ``np.zeros/full/empty/ones`` call site assigned
#: to these attributes against this table, so a dtype change must be
#: made here — visibly — rather than slipping through one allocation.
#: :meth:`FastMeshNetwork._bind` checks every buffer handed to the C
#: kernel against it at run time.
BUFFER_DTYPES = {
    "_buf": "int64",
    "_head": "int64",
    "_count": "int64",
    "_rr": "int64",
    "_link_busy": "int64",
    "_pkt_dst": "int64",
    "_pkt_flits": "int64",
    "_pkt_injected": "int64",
    "_pkt_vertex": "int64",
    "_pkt_value": "float64",
    # Delivery log: registry indices in delivery order (cursor _dlv_n).
    "_dlv_pidx": "int64",
    # Fault masks of the current fault window (dead output links,
    # frozen input FIFOs).
    "_dead": "bool",
    "_stall": "bool",
    # Kernel scratch: the cycle's accepted moves, and multi-flit link
    # departures as (arrive_cycle, node, in_port, pidx) rows.
    "_moves": "int64",
    "_departed": "int64",
    # inject_batch staging: arguments in, acceptance mask out.
    "_in_src": "int64",
    "_in_dst": "int64",
    "_in_vertex": "int64",
    "_in_value": "float64",
    "_in_ok": "bool",
    # The kernel's table: buffer addresses, geometry, step counters.
    "_table": "int64",
}

#: Buffers handed to the kernel, in the order of ``BUFFERS`` in
#: ``meshkernel.c``; the table holds their addresses in this order.
_KERNEL_BUFFERS = (
    "_buf", "_head", "_count", "_rr", "_link_busy",
    "_pkt_dst", "_pkt_flits", "_pkt_injected", "_pkt_vertex", "_pkt_value",
    "_dlv_pidx", "_dead", "_stall", "_moves", "_departed",
    "_in_src", "_in_dst", "_in_vertex", "_in_value", "_in_ok",
)
#: The same list as the kernel spells it (``MeshKernel.layout``): each
#: buffer with its element kind and size, e.g. ``("_dead", "b1")`` (a
#: dtype's ``str`` minus its byte-order character).
_KERNEL_LAYOUT = tuple(
    (name, np.dtype(BUFFER_DTYPES[name]).str[1:]) for name in _KERNEL_BUFFERS
)
#: Table slots after the addresses (``enum slot``): geometry, then the
#: eight counters ``fm_step`` reports.
_SLOT_GEOMETRY = len(_KERNEL_BUFFERS)
_SLOT_COUNTS = _SLOT_GEOMETRY + 4
_TABLE_SLOTS = _SLOT_COUNTS + 8


class FastMeshNetwork:
    """A ``rows x cols`` mesh advanced one cycle at a time by the
    compiled step.

    Public surface mirrors :class:`~repro.noc.mesh.MeshNetwork`:
    :meth:`schedule` / :meth:`inject` packets, :meth:`step` or
    :meth:`run_until_drained`, read :attr:`delivered` and :attr:`stats`.

    Packets are registered once and referenced by integer index inside
    the FIFO arrays; the :class:`~repro.noc.packet.Packet` objects
    themselves are only touched at injection and delivery.  Raises
    :class:`~repro.errors.ConfigurationError` when the kernel cannot be
    built (see :mod:`repro.noc.meshkernel`).
    """

    def __init__(
        self,
        topology: MeshTopology,
        buffer_depth: int = 4,
        sanitizer: Optional["SimSanitizer"] = None,
        faults: Optional["FaultSchedule"] = None,
        lean_packets: bool = False,
    ) -> None:
        if buffer_depth <= 0:
            raise ConfigurationError("buffer_depth must be positive")
        self._kernel = meshkernel.load()
        if (self._kernel.layout, self._kernel.table_slots) != (
            _KERNEL_LAYOUT, _TABLE_SLOTS
        ):
            raise SimulationError(
                f"mesh kernel {self._kernel.path} does not match fastmesh: "
                f"table {self._kernel.layout} + "
                f"{self._kernel.table_slots} slots, expected "
                f"{_KERNEL_LAYOUT} + {_TABLE_SLOTS} slots"
            )
        self.topology = topology
        self.buffer_depth = buffer_depth
        #: With ``lean_packets``, :meth:`inject_batch` is the only entry
        #: point and no Packet objects are materialised: the packet
        #: lifecycle lives entirely in the registry arrays,
        #: :attr:`delivered` stays empty, and :meth:`delivered_arrays` /
        #: :meth:`delivered_count` are the delivery views.  Stats are
        #: identical either way; this only drops the per-packet object
        #: work for callers (the vectorised scatter engine) that never
        #: read Packet instances.
        self.lean_packets = lean_packets
        #: Optional runtime invariant checker (see
        #: :mod:`repro.analysis.sanitizer`); None = zero overhead.
        self.sanitizer = sanitizer
        #: Optional fault schedule (see :mod:`repro.faults`); None =
        #: fault-free, zero overhead.  Must replay fault-for-fault
        #: identically to the reference engine (equivalence contract).
        self.faults = faults
        self.cycle = 0
        self.delivered: List[Packet] = []
        self.stats = MeshStats()

        n = topology.num_nodes
        depth = buffer_depth
        # --- struct-of-arrays router state -----------------------------
        #: FIFO ring buffers of packet indices, (node, port, slot).
        self._buf = np.zeros((n, NUM_PORTS, depth), dtype=np.int64)
        #: Ring-buffer head slot per (node, port).
        self._head = np.zeros((n, NUM_PORTS), dtype=np.int64)
        #: Entries queued per (node, port) — the occupancy ledger.
        self._count = np.zeros((n, NUM_PORTS), dtype=np.int64)
        #: Round-robin pointer per (node, output port).
        self._rr = np.zeros((n, NUM_PORTS), dtype=np.int64)
        #: Remaining busy cycles per (node, output port) — multi-flit
        #: serialisation (mirrors the reference's ``_link_busy`` dict).
        self._link_busy = np.zeros((n, NUM_PORTS), dtype=np.int64)

        # --- packet registry -------------------------------------------
        #: Packet objects by registry index (empty in lean mode).
        self._pkts: List[Packet] = []
        #: Registered packets (the next registry index).
        self._n_pkts = 0
        cap = 1024
        self._pkt_dst = np.zeros(cap, dtype=np.int64)
        self._pkt_flits = np.ones(cap, dtype=np.int64)
        self._pkt_injected = np.zeros(cap, dtype=np.int64)
        self._pkt_vertex = np.zeros(cap, dtype=np.int64)
        self._pkt_value = np.zeros(cap, dtype=np.float64)
        #: Registry indices of delivered packets, in delivery order
        #: (parallel to :attr:`delivered`; feeds
        #: :meth:`delivered_arrays`).  Growable array + cursor; the
        #: kernel appends to it, so it always has room for one delivery
        #: per node beyond the cursor.
        self._dlv_pidx = np.zeros(max(1024, 2 * n), dtype=np.int64)
        self._dlv_n = 0
        #: Router-FIFO occupancy as of the end of the last :meth:`step`
        #: (cheap read for per-cycle driver loops; equal to
        #: :meth:`total_occupancy` until the next injection).
        self.last_occupancy = 0

        # --- injection / link-traversal bookkeeping --------------------
        # Per source node: (future-injection heap keyed (when, seq),
        # ready deque of (seq, pidx, when, merged_cycle)).  Splitting
        # ready packets out of the heap avoids the reference's
        # pop-and-repush churn for backpressured injections while
        # reproducing its (when, seq) ordering exactly.
        self._pending: Dict[
            int, Tuple[List[List[int]], Deque[Tuple[int, int, int, int]]]
        ] = {}
        self._seq = 0
        #: Packets in flight on a link: (arrive_cycle, node, in_port, pidx).
        self._in_flight: List[Tuple[int, int, int, int]] = []

        # --- fault masks and kernel scratch ----------------------------
        #: This cycle's dead output links and frozen input FIFOs (all
        #: clear without a fault schedule).
        self._dead = np.zeros((n, NUM_PORTS), dtype=bool)
        self._stall = np.zeros((n, NUM_PORTS), dtype=bool)
        self._moves = np.zeros(n * NUM_PORTS, dtype=np.int64)
        self._departed = np.zeros((n * 4, 4), dtype=np.int64)
        self._in_src = np.zeros(n, dtype=np.int64)
        self._in_dst = np.zeros(n, dtype=np.int64)
        self._in_vertex = np.zeros(n, dtype=np.int64)
        self._in_value = np.zeros(n, dtype=np.float64)
        self._in_ok = np.zeros(n, dtype=bool)
        self._table = np.zeros(_TABLE_SLOTS, dtype=np.int64)
        self._table[_SLOT_GEOMETRY:_SLOT_COUNTS] = (
            n, topology.rows, topology.cols, depth
        )
        self._bind()

    def _bind(self) -> None:
        """Write the kernel table's buffer addresses.

        Runs before the first kernel call and after every reallocation,
        before the next kernel call: the table holds raw addresses of
        the arrays these attributes reference.  A buffer of the wrong
        dtype or layout would be read as raw memory by the kernel, so
        each is checked against :data:`BUFFER_DTYPES` first (the
        constructor has checked that the kernel expects those dtypes).
        """
        arrays = tuple(getattr(self, name) for name in _KERNEL_BUFFERS)
        for name, arr in zip(
            _KERNEL_BUFFERS + ("_table",), arrays + (self._table,)
        ):
            want = np.dtype(BUFFER_DTYPES[name])
            if arr.dtype != want or not arr.flags.c_contiguous:
                raise SimulationError(
                    f"mesh kernel buffer {name} must be a C-contiguous "
                    f"{want} array, got {arr.dtype} "
                    f"(C-contiguous: {arr.flags.c_contiguous})"
                )
        self._table[:_SLOT_GEOMETRY] = [a.ctypes.data for a in arrays]
        self._table_addr = self._table.ctypes.data

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def schedule(self, packet: Packet, cycle: Optional[int] = None) -> None:
        """Queue a packet for injection at ``cycle`` (default: its
        ``injected_cycle``).  Injection is retried every cycle until the
        source router's local buffer has space."""
        when = packet.injected_cycle if cycle is None else cycle
        if self.lean_packets:
            raise ConfigurationError(
                "lean_packets networks accept only inject_batch"
            )
        self._check_node(packet.src)
        self._check_node(packet.dst)
        pidx = self._register(packet)
        entry = self._pending.get(packet.src)
        if entry is None:
            entry = ([], deque())
            self._pending[packet.src] = entry
        heapq.heappush(entry[0], [when, self._seq, pidx])
        self._seq += 1

    def inject(self, packet: Packet) -> bool:
        """Immediately place a packet into its source router's local
        input buffer.  Returns False when the buffer is full."""
        if self.lean_packets:
            raise ConfigurationError(
                "lean_packets networks accept only inject_batch"
            )
        self._check_node(packet.src)
        self._check_node(packet.dst)
        src = packet.src
        if self._count[src, LOCAL] >= self.buffer_depth:
            return False
        packet.injected_cycle = self.cycle
        pidx = self._register(packet)
        slot = (self._head[src, LOCAL] + self._count[src, LOCAL]) % (
            self.buffer_depth
        )
        self._buf[src, LOCAL, slot] = pidx
        self._count[src, LOCAL] += 1
        self.stats.injected += 1
        return True

    def inject_batch(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        vertices: np.ndarray,
        values: np.ndarray,
    ) -> np.ndarray:
        """Inject one single-flit packet per entry, in argument order;
        returns the per-entry acceptance mask.

        Equivalent to calling :meth:`inject` sequentially on freshly
        built packets: entries from the same source compete for that
        router's remaining local-buffer space in argument order.  The
        kernel checks every node index before it writes anything, so an
        out-of-mesh entry raises :class:`ConfigurationError` and
        injects nothing.
        """
        m = len(srcs)
        if m > self._in_src.size:
            self._grow_staging(m)
        self._in_src[:m] = srcs
        self._in_dst[:m] = dsts
        self._in_vertex[:m] = vertices
        self._in_value[:m] = values
        base = self._n_pkts
        if base + m > self._pkt_dst.size:
            self._grow_registry(base + m)
        accepted = self._kernel.inject(self._table_addr, m, self.cycle, base)
        if accepted < 0:  # entry -1 - accepted names an out-of-mesh node
            i = -1 - accepted
            src, dst = int(self._in_src[i]), int(self._in_dst[i])
            self._check_node(src)
            self._check_node(dst)
        ok = self._in_ok[:m].copy()
        self._n_pkts = base + accepted
        if accepted and not self.lean_packets:
            self._pkts.extend(
                batch_packets(
                    self._in_src[:m][ok].tolist(),
                    self._in_dst[:m][ok].tolist(),
                    self._in_vertex[:m][ok].tolist(),
                    self._in_value[:m][ok].tolist(),
                    self.cycle,
                )
            )
        self.stats.injected += accepted
        return ok

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one cycle (same three phases as the
        reference: injection, landing + link bookkeeping, then one
        arbitrate/reserve/commit pass over every router, in C)."""
        if self._pending:
            self._inject_pending()
        if self._in_flight:
            self._land_in_flight()
        faults = self.faults
        if faults is not None:
            np.copyto(self._dead, faults.link_dead_mask(self.cycle))
            np.copyto(self._stall, faults.fifo_stall_mask(self.cycle))
        n0 = self._dlv_n
        if n0 + self.topology.num_nodes > self._dlv_pidx.size:
            # One doubling suffices: the log starts >= 2 * nodes long
            # and a step appends at most one delivery per node.
            self._dlv_pidx = np.resize(self._dlv_pidx, 2 * self._dlv_pidx.size)
            self._bind()
        self._kernel.step(self._table_addr, self.cycle, n0)
        (
            delivered, hops, latency, stalled, rerouted, degraded,
            departures, occupancy,
        ) = self._table[_SLOT_COUNTS:].tolist()
        self.stats.delivered += delivered
        self.stats.total_hops += hops
        self.stats.total_latency += latency
        self.stats.stalled_moves += stalled
        self.stats.rerouted_packets += rerouted
        self.stats.degraded_cycles += degraded
        self._dlv_n = n0 + delivered
        if delivered and not self.lean_packets:
            self._materialise_deliveries(n0)
        if departures:
            self._in_flight.extend(
                (arrive, node, port, pidx)
                for arrive, node, port, pidx in self._departed[
                    :departures
                ].tolist()
            )
        self.last_occupancy = occupancy
        if occupancy > self.stats.max_occupancy:
            self.stats.max_occupancy = occupancy
        self.cycle += 1
        self.stats.cycles = self.cycle
        if self.sanitizer is not None:
            self._run_sanitizer(occupancy)

    def _materialise_deliveries(self, start: int) -> None:
        """Stamp and append the Packet objects the last step ejected
        (ascending node order — the reference's intra-cycle order)."""
        cycle = self.cycle
        for pidx in self._dlv_pidx[start:self._dlv_n].tolist():
            packet = self._pkts[pidx]
            packet.delivered_cycle = cycle + max(int(packet.flits), 1) - 1
            self.delivered.append(packet)

    def delivered_count(self) -> int:
        """Packets delivered so far (lean-mode-safe cursor for
        :meth:`delivered_arrays`; equals ``len(delivered)`` when packets
        are materialised)."""
        return self._dlv_n

    def delivered_arrays(
        self, start: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dst, vertex, value)`` of ``delivered[start:]`` as arrays.

        Batched read of the delivery stream for the vectorised scatter
        engine: the same packets as ``self.delivered[start:]``, without
        touching the Packet objects (three fancy-indexed reads of the
        registry sliced straight off the delivery log).
        """
        idx = self._dlv_pidx[start:self._dlv_n]
        return (
            self._pkt_dst[idx],
            self._pkt_vertex[idx],
            self._pkt_value[idx],
        )

    def run_until_drained(
        self, max_cycles: int = 1_000_000, fast_forward: bool = True
    ) -> MeshStats:
        """Step until every scheduled packet has been delivered.

        With ``fast_forward`` (default), idle gaps — no FIFO occupancy,
        no busy link — are skipped by jumping straight to the next
        pending-injection or in-flight-landing cycle; the resulting
        stats are identical to stepping through the gap.
        """
        while True:
            occupancy = self.total_occupancy()
            if not (self._pending or self._in_flight or occupancy):
                break
            if self.cycle >= max_cycles:
                raise SimulationError(
                    f"mesh did not drain within {max_cycles} cycles"
                )
            if fast_forward and not occupancy:
                target = self.next_event_cycle()
                if target is not None and target > self.cycle:
                    self.fast_forward(min(target, max_cycles))
            self.step()
        return self.stats

    # ------------------------------------------------------------------
    # Engine-agnostic inspection (shared with MeshNetwork)
    # ------------------------------------------------------------------
    def total_occupancy(self) -> int:
        """Total packets buffered in router FIFOs (excludes in-flight
        multi-flit packets; see :meth:`in_flight_packets`)."""
        return int(self._count.sum())

    def in_flight_packets(self) -> int:
        """Packets currently serialising across a link."""
        return len(self._in_flight)

    def next_event_cycle(self) -> Optional[int]:
        """Cycle of the next scheduled event while the mesh is idle.

        Returns None unless the network is *quiescent* — empty FIFOs,
        no busy links — with work still scheduled (pending injections
        or in-flight landings).  Jumping the cycle counter to the
        returned value is then observationally identical to stepping.
        """
        if self.total_occupancy() or self._link_busy.any():
            return None
        events = [arrive for arrive, _n, _p, _i in self._in_flight]
        for future, ready in self._pending.values():
            if ready:
                return None  # a past-due packet is retrying: not idle
            if future:
                events.append(future[0][0])
        return min(events) if events else None

    def fast_forward(self, target: int) -> int:
        """Jump the idle network's cycle counter to ``target``; returns
        the number of cycles skipped.  Callers must only pass targets at
        or before :meth:`next_event_cycle` (the jump assumes nothing can
        move in between)."""
        skipped = target - self.cycle
        if skipped <= 0:
            return 0
        self.cycle = target
        self.stats.cycles = self.cycle
        return skipped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _register(self, packet: Packet) -> int:
        pidx = self._n_pkts
        self._pkts.append(packet)
        self._n_pkts += 1
        if pidx >= self._pkt_dst.size:
            self._grow_registry(pidx + 1)
        self._pkt_dst[pidx] = packet.dst
        self._pkt_flits[pidx] = packet.flits
        self._pkt_injected[pidx] = packet.injected_cycle
        self._pkt_vertex[pidx] = packet.vertex
        self._pkt_value[pidx] = packet.value
        return pidx

    def _grow_registry(self, need: int) -> None:
        grow = self._pkt_dst.size
        while grow < need:
            grow *= 2
        self._pkt_dst = np.resize(self._pkt_dst, grow)
        self._pkt_flits = np.resize(self._pkt_flits, grow)
        self._pkt_injected = np.resize(self._pkt_injected, grow)
        self._pkt_vertex = np.resize(self._pkt_vertex, grow)
        self._pkt_value = np.resize(self._pkt_value, grow)
        self._bind()

    def _grow_staging(self, need: int) -> None:
        self._in_src = np.resize(self._in_src, need)
        self._in_dst = np.resize(self._in_dst, need)
        self._in_vertex = np.resize(self._in_vertex, need)
        self._in_value = np.resize(self._in_value, need)
        self._in_ok = np.resize(self._in_ok, need)
        self._bind()

    def _inject_pending(self) -> None:
        """Drain due injections into local buffers, in (when, seq) order
        per node, deferring what does not fit.

        Deferred packets wait in the ready deque instead of being
        re-pushed into the heap every cycle (the reference's behaviour);
        the merge below reproduces the reference's ordering exactly,
        because a deferred packet's effective injection key is
        ``(current_cycle, seq)``.
        """
        cycle = self.cycle
        depth = self.buffer_depth
        # One vectorised read of the local-port state, then plain-int
        # arithmetic inside the loop; the (unique-node) writes are
        # committed with a single fancy-indexed scatter at the end.
        local_count = self._count[:, LOCAL].tolist()
        local_head = self._head[:, LOCAL].tolist()
        pkts = self._pkts
        slot_node: List[int] = []
        slot_pos: List[int] = []
        slot_pidx: List[int] = []
        slot_when: List[int] = []
        upd_node: List[int] = []
        upd_fits: List[int] = []
        for node in list(self._pending):
            future, ready = self._pending[node]
            if future and future[0][0] <= cycle:
                fresh = []
                while future and future[0][0] <= cycle:
                    fresh.append(heapq.heappop(future))
                if ready:
                    merged = [
                        (cycle, seq, pidx, when, merged_at)
                        for seq, pidx, when, merged_at in ready
                    ]
                    merged += [
                        (when, seq, pidx, when, cycle)
                        for when, seq, pidx in fresh
                    ]
                    merged.sort()
                    ready.clear()
                    ready.extend(
                        (seq, pidx, when, merged_at)
                        for _eff, seq, pidx, when, merged_at in merged
                    )
                else:
                    ready.extend(
                        (seq, pidx, when, cycle)
                        for when, seq, pidx in fresh
                    )
            if ready:
                space = depth - local_count[node]
                fits = min(space, len(ready)) if space > 0 else 0
                if fits:
                    base = local_head[node] + local_count[node]
                    for j in range(fits):
                        _seq, pidx, when, merged_at = ready.popleft()
                        # A packet deferred by backpressure injects "now";
                        # one arriving on schedule keeps its own cycle.
                        injected = when if merged_at == cycle else cycle
                        slot_node.append(node)
                        slot_pos.append((base + j) % depth)
                        slot_pidx.append(pidx)
                        slot_when.append(injected)
                        pkts[pidx].injected_cycle = injected
                    upd_node.append(node)
                    upd_fits.append(fits)
            if not ready and not future:
                del self._pending[node]
        if slot_node:
            self._buf[slot_node, LOCAL, slot_pos] = slot_pidx
            self._pkt_injected[slot_pidx] = slot_when
            self._count[upd_node, LOCAL] += np.asarray(
                upd_fits, dtype=np.int64
            )
            self.stats.injected += len(slot_node)

    def _land_in_flight(self) -> None:
        """Deposit fully-transferred multi-flit packets downstream; a
        landing blocked by a full buffer retries next cycle."""
        depth = self.buffer_depth
        remaining = []
        for arrive, node, in_port, pidx in self._in_flight:
            if arrive > self.cycle:
                remaining.append((arrive, node, in_port, pidx))
                continue
            if self._count[node, in_port] < depth:
                slot = (
                    self._head[node, in_port] + self._count[node, in_port]
                ) % depth
                self._buf[node, in_port, slot] = pidx
                self._count[node, in_port] += 1
            else:
                self.stats.stalled_moves += 1
                remaining.append((self.cycle + 1, node, in_port, pidx))
        self._in_flight = remaining

    def _run_sanitizer(self, occupancy: int) -> None:
        """End-of-cycle invariant audit over the array state (opt-in)."""
        san = self.sanitizer
        assert san is not None
        san.check_cycle_monotonic(self.cycle)
        san.check_fifo_depth_array(
            self._count,
            self.buffer_depth,
            where="fastmesh router",
            cycle=self.cycle,
            port_names=PORT_NAMES,
        )
        san.check_conservation(
            injected=self.stats.injected,
            delivered=self.stats.delivered,
            coalesced=0,  # the mesh moves packets; it never merges them
            in_flight=occupancy + len(self._in_flight),
            where="fastmesh",
            cycle=self.cycle,
        )

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.topology.num_nodes:
            raise ConfigurationError(
                f"node {node} outside mesh with "
                f"{self.topology.num_nodes} nodes"
            )


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def resolve_engine(engine: str, topology: MeshTopology) -> str:
    """Resolve an engine name (``auto``/``reference``/``vectorized``)
    to a concrete one, choosing by mesh size for ``auto``.

    The vectorised engine needs the compiled kernel: when it cannot be
    built, ``auto`` falls back to the reference with a
    :class:`RuntimeWarning` and ``vectorized`` raises
    :class:`ConfigurationError`.  Resolving to the reference never
    touches the compiler.
    """
    name = engine.lower()
    if name not in ("auto", "reference", "vectorized"):
        raise ConfigurationError(
            f"unknown NoC engine {engine!r} (auto/reference/vectorized)"
        )
    if name == "reference" or (
        name == "auto" and topology.num_nodes < AUTO_VECTORIZE_MIN_NODES
    ):
        return "reference"
    try:
        meshkernel.load()
    except ConfigurationError as exc:
        if name == "vectorized":
            raise
        warnings.warn(
            f"{exc}; using the reference mesh engine",
            RuntimeWarning,
            stacklevel=2,
        )
        return "reference"
    return "vectorized"


def make_mesh_network(
    topology: MeshTopology,
    buffer_depth: int = 4,
    sanitizer: Optional["SimSanitizer"] = None,
    engine: str = "auto",
    faults: Optional["FaultSchedule"] = None,
    lean_packets: bool = False,
) -> MeshEngine:
    """Build a cycle-level mesh simulator.

    ``engine`` selects the implementation: ``"reference"`` (one Router
    object per node — the auditable golden model), ``"vectorized"``
    (:class:`FastMeshNetwork`), or ``"auto"`` (vectorised at or above
    :data:`AUTO_VECTORIZE_MIN_NODES` nodes; see :func:`resolve_engine`).
    Both produce identical packets, cycles, and stats — including fault
    replay when a :class:`~repro.faults.schedule.FaultSchedule` is armed.
    """
    if resolve_engine(engine, topology) == "vectorized":
        return FastMeshNetwork(
            topology,
            buffer_depth=buffer_depth,
            sanitizer=sanitizer,
            faults=faults,
            lean_packets=lean_packets,
        )
    # The reference engine always materialises packets; lean_packets is
    # a FastMeshNetwork-only optimisation and is ignored here.
    return MeshNetwork(
        topology, buffer_depth=buffer_depth, sanitizer=sanitizer,
        faults=faults,
    )
