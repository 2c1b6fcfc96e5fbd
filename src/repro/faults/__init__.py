"""Deterministic fault injection for the simulated ScalaGraph system.

The paper evaluates a fault-free mesh, HBM, and PE array, yet its
headline claims (mesh scalability, mapping crossovers) are the ones
that shift when links stall or memory channels degrade — partial-
resource operation is the realistic regime at scale.  This package
injects *seeded, replayable* faults into every simulated layer:

* **link outages** — a mesh link goes dead for a bounded window; the
  routers detour around it (XY with one-axis deflection; see
  :func:`~repro.noc.router.route_with_faults`, re-exported here),
* **FIFO stalls** — a router input FIFO freezes its dequeues for a
  window (it still accepts arrivals),
* **HBM channel degradation** — pseudo channels drop out, derating
  aggregate bandwidth,
* **PE stall windows** — a PE stops emitting updates and retiring SPD
  reduces for a window of the cycle-accurate simulation.

Determinism is the contract: a :class:`~repro.faults.schedule.FaultSchedule`
is generated eagerly at construction from a seed derived via the same
:func:`~repro.graph.datasets.stable_seed` recipe the datasets use, so
the same seed + config + topology reproduce the identical schedule in
any process — and both cycle-level mesh engines replay it
fault-for-fault (the fastmesh/reference equivalence gate holds with
faults armed; ``tests/test_faults.py`` enforces it).
"""

from repro.faults.schedule import (
    FaultConfig,
    FaultSchedule,
    FifoStall,
    LinkOutage,
    PEStallWindow,
)
from repro.noc.router import route_with_faults

__all__ = [
    "FaultConfig",
    "FaultSchedule",
    "FifoStall",
    "LinkOutage",
    "PEStallWindow",
    "route_with_faults",
]
