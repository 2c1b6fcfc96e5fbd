"""Struct-of-arrays mesh NoC engine with a compiled cycle step.

:class:`~repro.noc.mesh.MeshNetwork` is the *reference* simulator: one
:class:`~repro.noc.router.Router` object per node, advanced with Python
loops every cycle.  That is ideal for auditing but caps Figure 6-style
routing-conflict studies and analytic-model cross-checks at tiny meshes.
This module provides :class:`FastMeshNetwork`, a drop-in engine that
keeps **all** router state in a handful of NumPy buffers —

* ``(nodes, 5-ports, depth)`` FIFO ring buffers of packet indices,
* ``(nodes, 5)`` head/occupancy/round-robin matrices,
* flat per-packet ``dst``/``injected_cycle`` arrays, plus the ``vertex``
  and partial-id lanes the compiled scatter phase carries its updates in —

and advances a whole cycle in one call into a small C kernel
(``meshkernel.c``, built and loaded by :mod:`repro.noc.meshkernel`):
XY routing with fault deflection, switch allocation with the
reference's round-robin priority, credit backpressure, then commit,
ejection and link traversal, one single-flit packet per link per cycle.
The vectorized scatter phase (:mod:`repro.core.fastsim`) steps this mesh
with the same code from inside its own compiled loop
(:meth:`FastMeshNetwork.kernel_table`).  Python keeps the object-packet
path (:meth:`~FastMeshNetwork.inject`, the one way a packet enters, and
the delivery log), the fault-mask loads, the sanitizer hooks and every
:class:`~repro.noc.mesh.MeshStats` write: the kernel returns counts.

**Equivalence contract.**  The engine is packet-for-packet and
cycle-for-cycle identical to the reference simulator: identical
:class:`~repro.noc.mesh.MeshStats` (cycles, injected, delivered, hops,
latency, peak occupancy, stalled moves, fault counters) and identical
delivery order, for any workload — including backpressured and
staggered injection (:func:`repro.noc.patterns.drain`), fault
schedules and single-entry buffers.
``tests/test_fastmesh.py`` and ``tests/test_faults.py`` enforce this
differentially across mesh sizes, traffic patterns, and the full
cycle-accurate simulator; treat any divergence as a bug in this module,
never as acceptable drift.

Engine selection is wired through
:attr:`repro.core.config.ScalaGraphConfig.noc_engine` and the
:func:`make_mesh_network` factory; ``"auto"`` picks this engine at every
mesh size whenever the kernel can be built, and falls back to the
reference with a warning when no C compiler is available.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.noc import meshkernel
from repro.noc.mesh import MeshNetwork, MeshStats
from repro.noc.packet import Packet
from repro.noc.router import LOCAL, NUM_PORTS, PORT_NAMES
from repro.noc.topology import MeshTopology

if TYPE_CHECKING:  # import-free at runtime: the hooks are duck-typed
    from repro.analysis.sanitizer import SimSanitizer
    from repro.faults.schedule import FaultSchedule

__all__ = [
    "FastMeshNetwork",
    "MeshEngine",
    "make_mesh_network",
    "resolve_engine",
]

#: Either cycle-level mesh engine (they are behaviourally identical).
MeshEngine = Union[MeshNetwork, "FastMeshNetwork"]

#: Engine-twin declaration consumed by the whole-program analyzer
#: (:mod:`repro.analysis.project`).  SIM601 audits that this module and
#: the reference mesh consume the same config fields, emit/read the
#: same ``MeshStats`` fields, and query the same fault *kinds* (both
#: read ``link_dead_mask`` and ``fifo_stall_mask``: this engine loads
#: them whole, the reference reads them row-wise).
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
    "_pkt_dst": "int64",
    "_pkt_injected": "int64",
    # What the compiled scatter phase's packets carry: the destination
    # vertex and a partial id (repro.core.fastsim); an injected Packet
    # carries its own.
    "_pkt_vertex": "int64",
    "_pkt_pid": "int64",
    # Delivery log: registry indices in delivery order (cursor _dlv_n).
    "_dlv_pidx": "int64",
    # Fault masks of the current fault window (dead output links,
    # frozen input FIFOs).
    "_dead": "bool",
    "_stall": "bool",
    # Kernel scratch: the cycle's accepted moves.
    "_moves": "int64",
    # The kernel's table: buffer addresses, geometry, step counters.
    "_table": "int64",
}

#: Buffers handed to the kernel, in the order of ``BUFFERS`` in
#: ``meshkernel.c``; the table holds their addresses in this order.
_KERNEL_BUFFERS = (
    "_buf", "_head", "_count", "_rr",
    "_pkt_dst", "_pkt_injected", "_pkt_vertex", "_pkt_pid",
    "_dlv_pidx", "_dead", "_stall", "_moves",
)
#: The same list as the kernel spells it (``MeshKernel.layout``): each
#: buffer with its element kind and size, e.g. ``("_dead", "b1")`` (a
#: dtype's ``str`` minus its byte-order character).
_KERNEL_LAYOUT = tuple(
    (name, np.dtype(BUFFER_DTYPES[name]).str[1:]) for name in _KERNEL_BUFFERS
)
#: Table slots after the addresses (``enum slot``): geometry, then the
#: seven counters ``fm_step`` reports.
_SLOT_GEOMETRY = len(_KERNEL_BUFFERS)
_SLOT_COUNTS = _SLOT_GEOMETRY + 4
_TABLE_SLOTS = _SLOT_COUNTS + 7


def _check_layout(kernel: meshkernel.MeshKernel) -> None:
    """Refuse a kernel whose mesh table differs from this module's."""
    if (kernel.layout, kernel.table_slots) != (_KERNEL_LAYOUT, _TABLE_SLOTS):
        raise SimulationError(
            f"mesh kernel {kernel.path} does not match fastmesh: table "
            f"{kernel.layout} + {kernel.table_slots} slots, expected "
            f"{_KERNEL_LAYOUT} + {_TABLE_SLOTS} slots"
        )


class FastMeshNetwork:
    """A ``rows x cols`` mesh advanced one cycle at a time by the
    compiled step.

    Public surface mirrors :class:`~repro.noc.mesh.MeshNetwork`:
    :meth:`inject` packets, :meth:`step` the clock (or hand a workload
    to :func:`repro.noc.patterns.drain`), read :attr:`delivered` and
    :attr:`stats`.

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
    ) -> None:
        if buffer_depth <= 0:
            raise ConfigurationError("buffer_depth must be positive")
        self._kernel = meshkernel.load()
        _check_layout(self._kernel)
        self.topology = topology
        self.buffer_depth = buffer_depth
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
        #: Node count, for :meth:`inject`'s range test.
        self._nodes = n
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

        # --- packet registry -------------------------------------------
        #: Packet objects by registry index.
        self._pkts: List[Packet] = []
        #: Registered packets (the next registry index).
        self._n_pkts = 0
        cap = 1024
        self._pkt_dst = np.zeros(cap, dtype=np.int64)
        self._pkt_injected = np.zeros(cap, dtype=np.int64)
        self._pkt_vertex = np.zeros(cap, dtype=np.int64)
        self._pkt_pid = np.zeros(cap, dtype=np.int64)
        #: Registry indices of delivered packets, in delivery order
        #: (parallel to :attr:`delivered`).  Growable array + cursor; the
        #: kernel appends to it, so it always has room for one delivery
        #: per node beyond the cursor.
        self._dlv_pidx = np.zeros(max(1024, 2 * n), dtype=np.int64)
        self._dlv_n = 0

        # --- fault masks and kernel scratch ----------------------------
        #: This cycle's dead output links and frozen input FIFOs (all
        #: clear without a fault schedule).
        self._dead = np.zeros((n, NUM_PORTS), dtype=bool)
        self._stall = np.zeros((n, NUM_PORTS), dtype=bool)
        self._moves = np.zeros(n * NUM_PORTS, dtype=np.int64)
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
    def inject(self, packet: Packet) -> bool:
        """Place a packet into its source router's local input buffer,
        stamping ``injected_cycle`` with the current cycle.  Returns
        False when the buffer is full."""
        src, dst, n = packet.src, packet.dst, self._nodes
        if not (0 <= src < n and 0 <= dst < n):
            bad = dst if 0 <= src < n else src
            raise ConfigurationError(f"node {bad} outside mesh with {n} nodes")
        # ``item`` reads a plain int: a drain offers a backlogged
        # source's head every cycle, so the refused call is the hot one.
        count = self._count.item(src, LOCAL)
        if count >= self.buffer_depth:
            return False
        packet.injected_cycle = self.cycle
        pidx = self._register(packet)
        slot = (self._head.item(src, LOCAL) + count) % self.buffer_depth
        self._buf[src, LOCAL, slot] = pidx
        self._count[src, LOCAL] += 1
        self.stats.injected += 1
        return True

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one cycle (the reference's
        arbitrate/reserve/commit pass over every router, in C)."""
        self.load_fault_masks(self.cycle)
        n0 = self._dlv_n
        if n0 + self._nodes > self._dlv_pidx.size:
            # One doubling suffices: the log starts >= 2 * nodes long
            # and a step appends at most one delivery per node.
            self._dlv_pidx = np.resize(self._dlv_pidx, 2 * self._dlv_pidx.size)
            self._bind()
        self._kernel.step(self._table_addr, self.cycle, n0)
        (
            delivered, hops, latency, stalled, rerouted, degraded, occupancy,
        ) = self._table[_SLOT_COUNTS:].tolist()
        self._dlv_n = n0 + delivered
        if delivered:
            self._materialise_deliveries(n0)
        self.record_steps(
            1, 0, delivered, hops, latency, stalled, rerouted, degraded,
            occupancy, occupancy,
        )

    def load_fault_masks(self, cycle: int) -> None:
        """Copy the fault schedule's dead links and frozen FIFOs at
        ``cycle`` into the kernel's masks (no-op without a schedule)."""
        faults = self.faults
        if faults is not None:
            np.copyto(self._dead, faults.link_dead_mask(cycle))
            np.copyto(self._stall, faults.fifo_stall_mask(cycle))

    def kernel_table(self, packets: int) -> int:
        """Address of the kernel's mesh table, for a compiled caller that
        steps this mesh itself, keeping registry indices
        ``0..packets-1`` for its own packets (the registry grows to hold
        them).  The caller loads the fault masks and reports what it ran
        through :meth:`load_fault_masks` and :meth:`record_steps`."""
        if packets > self._pkt_dst.size:
            self._grow_registry(packets)
        return self._table_addr

    def record_steps(
        self,
        cycles: int,
        injected: int,
        delivered: int,
        hops: int,
        latency: int,
        stalled: int,
        rerouted: int,
        degraded: int,
        peak: int,
        occupancy: int,
    ) -> None:
        """Add ``cycles`` kernel steps to :attr:`stats` and the clock:
        their packet counts, their peak FIFO occupancy and the occupancy
        after the last one; then run the end-of-cycle audit when a
        sanitizer is armed."""
        self.stats.injected += injected
        self.stats.delivered += delivered
        self.stats.total_hops += hops
        self.stats.total_latency += latency
        self.stats.stalled_moves += stalled
        self.stats.rerouted_packets += rerouted
        self.stats.degraded_cycles += degraded
        if peak > self.stats.max_occupancy:
            self.stats.max_occupancy = peak
        self.cycle += cycles
        self.stats.cycles = self.cycle
        if self.sanitizer is not None:
            self._run_sanitizer(occupancy)

    def _materialise_deliveries(self, start: int) -> None:
        """Stamp and append the Packet objects the last step ejected
        (ascending node order — the reference's intra-cycle order)."""
        cycle = self.cycle
        for pidx in self._dlv_pidx[start:self._dlv_n].tolist():
            packet = self._pkts[pidx]
            packet.delivered_cycle = cycle
            self.delivered.append(packet)

    # ------------------------------------------------------------------
    # Engine-agnostic inspection (shared with MeshNetwork)
    # ------------------------------------------------------------------
    def total_occupancy(self) -> int:
        """Total packets buffered in router FIFOs."""
        return int(self._count.sum())

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
        self._pkt_injected[pidx] = packet.injected_cycle
        return pidx

    def _grow_registry(self, need: int) -> None:
        grow = self._pkt_dst.size
        while grow < need:
            grow *= 2
        self._pkt_dst = np.resize(self._pkt_dst, grow)
        self._pkt_injected = np.resize(self._pkt_injected, grow)
        self._pkt_vertex = np.resize(self._pkt_vertex, grow)
        self._pkt_pid = np.resize(self._pkt_pid, grow)
        self._bind()

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
            in_flight=occupancy,
            where="fastmesh",
            cycle=self.cycle,
        )


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def resolve_engine(engine: str) -> str:
    """Resolve an engine name (``auto``/``reference``/``vectorized``)
    to a concrete one: ``auto`` is the vectorised engine whenever the
    compiled kernel can run it.

    This is where a cycle-level run learns whether the kernel is
    available: when it cannot be built, ``auto`` falls back to the
    reference with a :class:`RuntimeWarning` and ``vectorized`` raises
    :class:`ConfigurationError`.  Resolving to the reference never
    touches the compiler.
    """
    name = engine.lower()
    if name not in ("auto", "reference", "vectorized"):
        raise ConfigurationError(
            f"unknown NoC engine {engine!r} (auto/reference/vectorized)"
        )
    if name == "reference":
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
) -> MeshEngine:
    """Build a cycle-level mesh simulator.

    ``engine`` selects the implementation: ``"reference"`` (one Router
    object per node — the auditable golden model), ``"vectorized"``
    (:class:`FastMeshNetwork`), or ``"auto"`` (vectorised whenever the
    kernel can be built; see :func:`resolve_engine`).
    Both produce identical packets, cycles, and stats — including fault
    replay when a :class:`~repro.faults.schedule.FaultSchedule` is armed.
    """
    if resolve_engine(engine) == "vectorized":
        return FastMeshNetwork(
            topology,
            buffer_depth=buffer_depth,
            sanitizer=sanitizer,
            faults=faults,
        )
    return MeshNetwork(
        topology, buffer_depth=buffer_depth, sanitizer=sanitizer,
        faults=faults,
    )
