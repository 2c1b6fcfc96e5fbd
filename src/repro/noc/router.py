"""Input-buffered mesh router with XY routing and round-robin arbitration.

Each ScalaGraph PE contains a routing unit (RU) that forwards vertex
updates to neighbouring RUs (Section III-A).  The router model here is the
standard low-cost design the paper's O(N) mesh complexity assumes: five
ports (local + N/S/E/W), one-flit-per-cycle links, FIFO input buffers,
dimension-order (X-then-Y) routing, and per-output round-robin arbitration.
Under fault injection (:mod:`repro.faults`) a packet whose XY link is dead
takes the one-axis detour of :func:`route_with_faults`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology

#: Port indices.  LOCAL is both the injection port and the delivery port.
LOCAL, NORTH, SOUTH, WEST, EAST = range(5)
PORT_NAMES = ("local", "north", "south", "west", "east")
NUM_PORTS = 5


def xy_output_port(topology: MeshTopology, node: int, dst: int) -> int:
    """Dimension-order routing decision: route X (columns) then Y (rows).

    ``node`` and ``dst`` are mesh nodes (``inject`` checks a packet's
    endpoints once, so routing does not)."""
    r, c = divmod(node, topology.cols)
    dr, dc = divmod(dst, topology.cols)
    if c < dc:
        return EAST
    if c > dc:
        return WEST
    if r < dr:
        return SOUTH
    if r > dr:
        return NORTH
    return LOCAL


def route_with_faults(
    topology: MeshTopology,
    node: int,
    dst: int,
    dead_row: Sequence[bool],
) -> Tuple[Optional[int], bool]:
    """Graceful-degradation routing decision for one head-of-line packet.

    ``dead_row`` is the node's row of the cycle's dead-link mask
    (:meth:`~repro.faults.FaultSchedule.link_dead_mask`).  Policy
    (mirrored exactly by the vectorised engine — see ``deflect`` in
    ``repro/noc/meshkernel.c``):

    1. Compute the pure XY port.  LOCAL, or an alive link: use it.
    2. Dead X-direction link: deflect one hop along Y *toward* the
       destination row (or toward the mesh interior when already on it).
    3. Dead Y-direction link (XY guarantees the column already matches):
       deflect one hop along X toward the mesh interior (EAST when a
       column exists to the east, else WEST).
    4. Deflection link also dead: make no request this cycle — the
       packet waits (fault windows are finite, so waits are bounded).

    Returns ``(out_port or None, hit)`` where ``hit`` flags that a dead
    link influenced this packet (feeds ``degraded_cycles``; with a port,
    the packet was deflected).  Deflection can ping-pong while an outage
    lasts (each retry re-routes from scratch); it terminates because
    every window is finite.
    """
    port = xy_output_port(topology, node, dst)
    if port == LOCAL or not dead_row[port]:
        return port, False
    r, c = topology.coord(node)
    dr, _dc = topology.coord(dst)
    if port in (EAST, WEST):
        if topology.rows == 1:
            return None, True  # no Y axis to deflect along
        if r < dr:
            alt = SOUTH
        elif r > dr:
            alt = NORTH
        else:
            alt = SOUTH if r + 1 < topology.rows else NORTH
    else:
        if topology.cols == 1:
            return None, True  # no X axis to deflect along
        alt = EAST if c + 1 < topology.cols else WEST
    if dead_row[alt]:
        return None, True
    return alt, True


@dataclass
class Router:
    """One mesh router: five input FIFOs plus arbitration state."""

    node: int
    buffer_depth: int
    inputs: List[Deque[Packet]] = field(init=False)
    _rr_pointer: List[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.buffer_depth <= 0:
            raise ConfigurationError("buffer_depth must be positive")
        self.inputs = [deque() for _ in range(NUM_PORTS)]
        self._rr_pointer = [0] * NUM_PORTS

    def has_space(self, in_port: int) -> bool:
        return len(self.inputs[in_port]) < self.buffer_depth

    def accept(self, in_port: int, packet: Packet) -> None:
        if not self.has_space(in_port):
            raise ConfigurationError(
                f"router {self.node} port {PORT_NAMES[in_port]} overflow"
            )
        self.inputs[in_port].append(packet)

    def occupancy(self) -> int:
        return sum(map(len, self.inputs))

    def arbitrate(
        self,
        topology: MeshTopology,
        dead: Sequence[bool],
        frozen: Sequence[bool],
    ) -> Tuple[List[Tuple[int, int, bool]], bool]:
        """Route every head-of-line packet and pick one winning input
        port per requested output port.

        ``dead`` and ``frozen`` are this router's rows of the cycle's
        dead-link and frozen-FIFO masks (all clear without faults).  A
        frozen FIFO makes no request but keeps accepting arrivals; a
        head packet routes through :func:`route_with_faults`.
        Round-robin pointers rotate *only* when a grant commits, which
        keeps arbitration fair under sustained contention.

        Returns ``(grants, fault_seen)``: one ``(out_port, in_port,
        deflected)`` per requested output, ``deflected`` when the route
        left the XY port, and whether a fault touched a live packet.
        """
        # Per output: (distance past its round-robin pointer, in_port,
        # hit) of the winning request so far — the first contender at or
        # after the pointer, wrapping.
        winners: Dict[int, Tuple[int, int, bool]] = {}
        fault_seen = False
        for in_port, queue in enumerate(self.inputs):
            if not queue:
                continue
            if frozen[in_port]:
                fault_seen = True
                continue
            out_port, hit = route_with_faults(
                topology, self.node, queue[0].dst, dead
            )
            fault_seen = fault_seen or hit
            if out_port is None:
                continue
            rank = (in_port - self._rr_pointer[out_port]) % NUM_PORTS
            best = winners.get(out_port)
            if best is None or rank < best[0]:
                winners[out_port] = (rank, in_port, hit)
        grants = [
            (out_port, in_port, deflected)
            for out_port, (_, in_port, deflected) in winners.items()
        ]
        return grants, fault_seen

    def commit_grant(self, out_port: int, in_port: int) -> Packet:
        """Dequeue the granted packet and advance the RR pointer."""
        self._rr_pointer[out_port] = (in_port + 1) % NUM_PORTS
        return self.inputs[in_port].popleft()
