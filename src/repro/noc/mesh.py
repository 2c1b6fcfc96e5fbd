"""Cycle-level 2D-mesh NoC simulator.

This is the detailed model of ScalaGraph's interconnect: a matrix of
:class:`~repro.noc.router.Router` instances advanced cycle by cycle with
credit-style backpressure, each link moving one single-flit packet (one
vertex update) per cycle.  It is intentionally unoptimised Python — it
exists to validate the vectorised analytic NoC model used by the at-scale
accelerator simulations (tests cross-check the two on small meshes) and to
measure routing-conflict behaviour directly (Figure 6, Section II-C).

For at-scale cycle-level runs use :mod:`repro.noc.fastmesh`: a
struct-of-arrays engine that is packet-for-packet and cycle-for-cycle
identical to this one (differential tests enforce it) but advances
whole cycles in one compiled call.  This class
remains the golden model the fast engine is gated against.

A packet enters either engine only through ``inject``, its source
router's local port, as an update leaves its RU in the paper's tile;
:func:`repro.noc.patterns.drain` queues whole workloads at their
sources and steps the mesh until it is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # import-free at runtime: the hooks are duck-typed
    from repro.analysis.sanitizer import SimSanitizer
    from repro.faults.schedule import FaultSchedule

from repro.errors import ConfigurationError
from repro.noc.packet import Packet
from repro.noc.router import (
    EAST,
    LOCAL,
    NORTH,
    NUM_PORTS,
    PORT_NAMES,
    SOUTH,
    WEST,
    Router,
)
from repro.noc.topology import MeshTopology

#: For an output port on one router, the (row delta, col delta, input port
#: seen by the downstream router) of the traversed link.
_LINK_OF_OUTPUT = {
    NORTH: (-1, 0, SOUTH),
    SOUTH: (1, 0, NORTH),
    WEST: (0, -1, EAST),
    EAST: (0, 1, WEST),
}


@dataclass
class MeshStats:
    """Aggregate statistics for a mesh simulation run.

    Attributes:
        cycles: total simulated cycles.
        injected: packets accepted into a source router's local buffer
            (the conservation ledger's debit side).
        delivered: number of packets that reached their destination.
        total_hops: router-to-router link traversals (NoC communications
            in the paper's sense — traffic injected into the network).
        total_latency: sum of per-packet injection-to-delivery latencies.
        max_occupancy: peak total buffer occupancy across routers.
        stalled_moves: grants that could not proceed for lack of
            downstream buffer space (routing conflicts surface here).
        degraded_cycles: cycles in which an armed fault schedule
            actually degraded progress — a head-of-line packet faced a
            dead XY link (detoured or blocked) or a nonempty FIFO sat
            frozen.  Zero when no faults are armed.
        rerouted_packets: committed link traversals that left through a
            non-XY port (the detour-around-dead-link policy of
            :mod:`repro.faults`).
    """

    cycles: int = 0
    injected: int = 0
    delivered: int = 0
    total_hops: int = 0
    total_latency: int = 0
    max_occupancy: int = 0
    stalled_moves: int = 0
    degraded_cycles: int = 0
    rerouted_packets: int = 0

    @property
    def average_hops(self) -> float:
        return self.total_hops / self.delivered if self.delivered else 0.0


class MeshNetwork:
    """A ``rows x cols`` mesh advanced one cycle at a time.

    Usage: :meth:`inject` packets and :meth:`step` the clock (or hand
    a workload to :func:`repro.noc.patterns.drain`); delivered packets
    land in :attr:`delivered` with ``delivered_cycle`` filled in.
    """

    def __init__(
        self,
        topology: MeshTopology,
        buffer_depth: int = 4,
        sanitizer: Optional["SimSanitizer"] = None,
        faults: Optional["FaultSchedule"] = None,
    ) -> None:
        self.topology = topology
        self.buffer_depth = buffer_depth
        #: Optional runtime invariant checker (see
        #: :mod:`repro.analysis.sanitizer`); None = zero overhead.
        self.sanitizer = sanitizer
        #: Optional fault schedule (see :mod:`repro.faults`); None =
        #: fault-free (every mask clear).
        self.faults = faults
        self.routers = [
            Router(node=n, buffer_depth=buffer_depth)
            for n in range(topology.num_nodes)
        ]
        #: Each router's row of an all-clear fault mask.
        self._all_clear = [(False,) * NUM_PORTS] * topology.num_nodes
        self.cycle = 0
        self.delivered: List[Packet] = []
        self.stats = MeshStats()

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> bool:
        """Place a packet into its source router's local input buffer,
        stamping ``injected_cycle`` with the current cycle.  Returns
        False when the buffer is full."""
        src, dst, n = packet.src, packet.dst, len(self.routers)
        if not (0 <= src < n and 0 <= dst < n):
            bad = dst if 0 <= src < n else src
            raise ConfigurationError(f"node {bad} outside mesh with {n} nodes")
        router = self.routers[src]
        if not router.has_space(LOCAL):
            return False
        packet.injected_cycle = self.cycle
        router.accept(LOCAL, packet)
        self.stats.injected += 1
        return True

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one cycle.

        The cycle's dead-link and frozen-FIFO masks are read once (all
        clear without a schedule).  Every router then routes and
        arbitrates, and a grant whose downstream FIFO is full stalls:
        every decision reads the buffers as they stood at the start of
        the cycle.  Finally every accepted grant commits — ejection at
        the destination, or traversal into the downstream FIFO — so the
        order in which routers are visited does not matter.
        """
        faults, stats = self.faults, self.stats
        if faults is None:
            dead = frozen = self._all_clear
        else:
            dead = faults.link_dead_mask(self.cycle).tolist()
            frozen = faults.fifo_stall_mask(self.cycle).tolist()
        # Accepted grants: (router, out port, in port, deflected,
        # downstream router or None on ejection, its input port).
        accepted: List[
            Tuple[Router, int, int, bool, Optional[Router], int]
        ] = []
        cols = self.topology.cols
        fault_seen = False
        for router in self.routers:
            node = router.node
            grants, hit = router.arbitrate(
                self.topology, dead[node], frozen[node]
            )
            fault_seen = fault_seen or hit
            for out_port, in_port, deflected in grants:
                downstream, dst_in = None, LOCAL
                if out_port != LOCAL:
                    dr, dc, dst_in = _LINK_OF_OUTPUT[out_port]
                    downstream = self.routers[node + dr * cols + dc]
                    if not downstream.has_space(dst_in):
                        stats.stalled_moves += 1
                        continue
                accepted.append(
                    (router, out_port, in_port, deflected, downstream, dst_in)
                )

        for grant in accepted:
            router, out_port, in_port, deflected, downstream, dst_in = grant
            packet = router.commit_grant(out_port, in_port)
            if downstream is None:
                packet.delivered_cycle = self.cycle
                self.delivered.append(packet)
                stats.delivered += 1
                stats.total_latency += packet.latency or 0
            else:
                # At most one packet enters a FIFO per cycle, and it had
                # space at the start of the cycle.
                downstream.accept(dst_in, packet)
                stats.total_hops += 1
                stats.rerouted_packets += deflected
        if fault_seen:
            stats.degraded_cycles += 1

        occupancy = sum(r.occupancy() for r in self.routers)
        stats.max_occupancy = max(stats.max_occupancy, occupancy)
        self.cycle += 1
        stats.cycles = self.cycle
        if self.sanitizer is not None:
            self._run_sanitizer(occupancy)

    def _run_sanitizer(self, occupancy: int) -> None:
        """End-of-cycle invariant audit (opt-in, see module docstring of
        :mod:`repro.analysis.sanitizer`)."""
        san = self.sanitizer
        san.check_cycle_monotonic(self.cycle)
        for router in self.routers:
            for port, depth in enumerate(map(len, router.inputs)):
                san.check_fifo_depth(
                    depth,
                    self.buffer_depth,
                    where=f"router {router.node} port {PORT_NAMES[port]}",
                    cycle=self.cycle,
                )
        san.check_conservation(
            injected=self.stats.injected,
            delivered=self.stats.delivered,
            coalesced=0,  # the mesh moves packets; it never merges them
            in_flight=occupancy,
            where="mesh",
            cycle=self.cycle,
        )

    # ------------------------------------------------------------------
    # Engine-agnostic inspection (shared with FastMeshNetwork)
    # ------------------------------------------------------------------
    def total_occupancy(self) -> int:
        """Total packets buffered in router FIFOs."""
        return sum(r.occupancy() for r in self.routers)
