"""Cycle-level 2D-mesh NoC simulator.

This is the detailed model of ScalaGraph's interconnect: a matrix of
:class:`~repro.noc.router.Router` instances advanced cycle by cycle with
credit-style backpressure.  It is intentionally unoptimised Python — it
exists to validate the vectorised analytic NoC model used by the at-scale
accelerator simulations (tests cross-check the two on small meshes) and to
measure routing-conflict behaviour directly (Figure 6, Section II-C).

For at-scale cycle-level runs use :mod:`repro.noc.fastmesh`: a
struct-of-arrays engine that is packet-for-packet and cycle-for-cycle
identical to this one (differential tests enforce it) but advances
whole cycles in one compiled call.  This class
remains the golden model the fast engine is gated against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # import-free at runtime: the hooks are duck-typed
    from repro.analysis.sanitizer import SimSanitizer
    from repro.faults.schedule import FaultSchedule

from repro.errors import ConfigurationError, SimulationError
from repro.noc.packet import Packet
from repro.noc.router import (
    EAST,
    LOCAL,
    NORTH,
    PORT_NAMES,
    SOUTH,
    WEST,
    Router,
    xy_output_port,
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
    def average_latency(self) -> float:
        return self.total_latency / self.delivered if self.delivered else 0.0

    @property
    def average_hops(self) -> float:
        return self.total_hops / self.delivered if self.delivered else 0.0


class MeshNetwork:
    """A ``rows x cols`` mesh advanced one cycle at a time.

    Usage: :meth:`schedule` packets (or :meth:`inject` directly), then call
    :meth:`run_until_drained`; delivered packets land in
    :attr:`delivered` with ``delivered_cycle`` filled in.
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
        #: fault-free, zero overhead.
        self.faults = faults
        self.routers = [
            Router(node=n, buffer_depth=buffer_depth)
            for n in range(topology.num_nodes)
        ]
        self.cycle = 0
        self.delivered: List[Packet] = []
        self.stats = MeshStats()
        self._pending: List[Tuple[int, int, Packet]] = []  # (cycle, seq, pkt)
        self._seq = 0
        # Multi-flit support: cycles each (node, out_port) stays busy,
        # and packets in flight on a link (store-and-forward).
        self._link_busy: Dict[Tuple[int, int], int] = {}
        self._in_flight: List[Tuple[int, int, int, Packet]] = []

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def schedule(self, packet: Packet, cycle: Optional[int] = None) -> None:
        """Queue a packet for injection at ``cycle`` (default: its
        ``injected_cycle``).  Injection is retried every cycle until the
        source router's local buffer has space."""
        when = packet.injected_cycle if cycle is None else cycle
        self._check_node(packet.src)
        self._check_node(packet.dst)
        heapq.heappush(self._pending, (when, self._seq, packet))
        self._seq += 1

    def inject(self, packet: Packet) -> bool:
        """Immediately place a packet into its source router's local
        input buffer.  Returns False when the buffer is full."""
        self._check_node(packet.src)
        self._check_node(packet.dst)
        router = self.routers[packet.src]
        if not router.has_space(LOCAL):
            return False
        packet.injected_cycle = self.cycle
        router.accept(LOCAL, packet)
        self.stats.injected += 1
        return True

    def inject_batch(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        vertices: np.ndarray,
        values: np.ndarray,
    ) -> np.ndarray:
        """Inject one packet per entry, in argument order; returns the
        per-entry acceptance mask.  Loop form of
        :meth:`~repro.noc.fastmesh.FastMeshNetwork.inject_batch` so both
        engines expose the same batched surface."""
        ok = np.zeros(len(srcs), dtype=bool)
        for i in range(len(srcs)):
            ok[i] = self.inject(
                Packet(
                    src=int(srcs[i]),
                    dst=int(dsts[i]),
                    vertex=int(vertices[i]),
                    value=float(values[i]),
                )
            )
        return ok

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one cycle.

        Phase 1 drains the pending-injection heap into local buffers
        (subject to space); phase 2 arbitrates every router and commits
        all grants simultaneously (two-phase update so intra-cycle order
        does not matter); phase 3 applies the moves.
        """
        self._inject_pending()
        self._land_in_flight()
        self._tick_link_busy()

        # Collect all grants first (read phase); outputs still busy
        # serialising a multi-flit packet are skipped.  With a fault
        # schedule armed, routing goes through the schedule's detour
        # policy, frozen FIFOs withhold their requests, and any fault
        # that touched a live packet marks the cycle degraded.
        moves: List[Tuple[int, int, int]] = []  # (node, out_port, in_port)
        faults = self.faults
        fault_seen = False
        if faults is None:
            for router in self.routers:
                grants = router.arbitrate(self.topology)
                for out_port, in_port in grants.items():
                    if self._link_busy.get((router.node, out_port), 0) > 0:
                        continue
                    moves.append((router.node, out_port, in_port))
        else:
            stall_mask = faults.fifo_stall_mask(self.cycle)

            def route_fn(node: int, dst: int) -> Optional[int]:
                nonlocal fault_seen
                port, hit = faults.route(node, dst, self.cycle)
                fault_seen = fault_seen or hit
                return port

            for router in self.routers:
                stall_row = stall_mask[router.node]
                frozen: Tuple[int, ...] = ()
                if stall_row.any():
                    frozen = tuple(
                        p
                        for p in range(len(router.inputs))
                        if stall_row[p]
                    )
                    if any(router.inputs[p] for p in frozen):
                        fault_seen = True
                grants = router.arbitrate(self.topology, route_fn, frozen)
                for out_port, in_port in grants.items():
                    if self._link_busy.get((router.node, out_port), 0) > 0:
                        continue
                    moves.append((router.node, out_port, in_port))

        # Reserve downstream capacity: at most one packet enters a given
        # (router, input port) per cycle, and only if space exists *now*.
        accepted: List[Tuple[int, int, int]] = []
        for node, out_port, in_port in moves:
            if out_port == LOCAL:
                accepted.append((node, out_port, in_port))
                continue
            dr, dc, _ = _LINK_OF_OUTPUT[out_port]
            r, c = self.topology.coord(node)
            downstream = self.routers[self.topology.node(r + dr, c + dc)]
            dst_in = _LINK_OF_OUTPUT[out_port][2]
            if downstream.has_space(dst_in):
                accepted.append((node, out_port, in_port))
            else:
                self.stats.stalled_moves += 1

        # Commit phase.
        arrivals: List[Tuple[Router, int, Packet]] = []
        for node, out_port, in_port in accepted:
            router = self.routers[node]
            packet = router.commit_grant(out_port, in_port)
            if (
                faults is not None
                and out_port != LOCAL
                and out_port
                != xy_output_port(self.topology, node, packet.dst)
            ):
                # Counted at commit so arbitration losers and
                # backpressured grants are not double-counted.
                self.stats.rerouted_packets += 1
            serialisation = max(int(packet.flits), 1) - 1
            if out_port == LOCAL:
                packet.delivered_cycle = self.cycle + serialisation
                self.delivered.append(packet)
                self.stats.delivered += 1
                self.stats.total_latency += packet.latency or 0
                if serialisation:
                    # +1 because the counter ticks at the start of the
                    # next cycle: block exactly `serialisation` cycles.
                    self._link_busy[(node, out_port)] = serialisation + 1
            else:
                dr, dc, dst_in = _LINK_OF_OUTPUT[out_port]
                r, c = self.topology.coord(node)
                downstream_node = self.topology.node(r + dr, c + dc)
                self.stats.total_hops += 1
                if serialisation:
                    # The tail flits occupy the link; the packet lands
                    # downstream once fully transferred.  (+1: the busy
                    # counter ticks at the start of the next cycle.)
                    self._link_busy[(node, out_port)] = serialisation + 1
                    self._in_flight.append(
                        (
                            self.cycle + serialisation,
                            downstream_node,
                            dst_in,
                            packet,
                        )
                    )
                else:
                    arrivals.append(
                        (self.routers[downstream_node], dst_in, packet)
                    )
        for downstream, dst_in, packet in arrivals:
            downstream.accept(dst_in, packet)
        if fault_seen:
            self.stats.degraded_cycles += 1

        occupancy = sum(r.occupancy() for r in self.routers)
        self.stats.max_occupancy = max(self.stats.max_occupancy, occupancy)
        self.cycle += 1
        self.stats.cycles = self.cycle
        if self.sanitizer is not None:
            self._run_sanitizer(occupancy)

    def _run_sanitizer(self, occupancy: int) -> None:
        """End-of-cycle invariant audit (opt-in, see module docstring of
        :mod:`repro.analysis.sanitizer`)."""
        san = self.sanitizer
        san.check_cycle_monotonic(self.cycle)
        for router in self.routers:
            for port, depth in enumerate(router.port_occupancy()):
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
            in_flight=occupancy + len(self._in_flight),
            where="mesh",
            cycle=self.cycle,
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
    # Engine-agnostic inspection (shared with FastMeshNetwork)
    # ------------------------------------------------------------------
    def total_occupancy(self) -> int:
        """Total packets buffered in router FIFOs (excludes in-flight
        multi-flit packets; see :meth:`in_flight_packets`)."""
        return sum(r.occupancy() for r in self.routers)

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
        if self.total_occupancy() or self._link_busy:
            return None
        events = [arrive for arrive, _n, _p, _pkt in self._in_flight]
        if self._pending:
            events.append(self._pending[0][0])
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
    def _land_in_flight(self) -> None:
        """Deposit fully-transferred multi-flit packets downstream.

        A landing blocked by a full buffer retries next cycle (the tail
        keeps the link busy meanwhile, which is store-and-forward
        backpressure).
        """
        remaining = []
        for arrive_cycle, node, in_port, packet in self._in_flight:
            if arrive_cycle > self.cycle:
                remaining.append((arrive_cycle, node, in_port, packet))
                continue
            router = self.routers[node]
            if router.has_space(in_port):
                router.accept(in_port, packet)
            else:
                self.stats.stalled_moves += 1
                remaining.append((self.cycle + 1, node, in_port, packet))
        self._in_flight = remaining

    def _tick_link_busy(self) -> None:
        for key in list(self._link_busy):
            self._link_busy[key] -= 1
            if self._link_busy[key] <= 0:
                del self._link_busy[key]

    def _inject_pending(self) -> None:
        deferred = []
        while self._pending and self._pending[0][0] <= self.cycle:
            when, seq, packet = heapq.heappop(self._pending)
            router = self.routers[packet.src]
            if router.has_space(LOCAL):
                packet.injected_cycle = when  # latency counts queueing time
                router.accept(LOCAL, packet)
                self.stats.injected += 1
            else:
                deferred.append((self.cycle + 1, seq, packet))
        for item in deferred:
            heapq.heappush(self._pending, item)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.topology.num_nodes:
            raise ConfigurationError(
                f"node {node} outside mesh with {self.topology.num_nodes} nodes"
            )
