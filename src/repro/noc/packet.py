"""Packet records exchanged over the cycle-level NoC simulators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class Packet:
    """One vertex-update packet in flight on the NoC.

    A packet is a single flit: one 8-byte update, which crosses a link
    in one cycle (``repro.noc.router`` models links as one flit per
    cycle).

    Attributes:
        src: source node ID (the PE whose GU produced the update).
        dst: destination node ID (the PE whose SPD owns the vertex).
        vertex: destination vertex ID carried by the update.
        value: scatter result to be reduced into the vertex's V_temp.
        injected_cycle: cycle at which the packet entered the network.
            :func:`repro.noc.patterns.drain` reads it first as the
            packet's release cycle (when it joins its source's queue);
            the mesh's ``inject`` overwrites it with the cycle the
            packet actually got in.
        delivered_cycle: set by the simulator on arrival.
    """

    src: int
    dst: int
    vertex: int = 0
    value: float = 0.0
    injected_cycle: int = 0
    delivered_cycle: Optional[int] = None

    @property
    def latency(self) -> Optional[int]:
        """Cycles from injection to delivery, once delivered."""
        if self.delivered_cycle is None:
            return None
        return self.delivered_cycle - self.injected_cycle
