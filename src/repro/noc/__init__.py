"""Network-on-chip substrate: mesh, crossbar, Benes, and aggregation.

ScalaGraph replaces the centralised crossbar of prior accelerators with a
2D-mesh NoC (Section III-A).  This subpackage provides:

* cycle-level simulators for the mesh — the auditable reference
  (:mod:`repro.noc.mesh`) and the struct-of-arrays engine
  (:mod:`repro.noc.fastmesh`, whose cycle step is compiled C built by
  :mod:`repro.noc.meshkernel`), equivalence-gated against each other and
  selected via :func:`~repro.noc.fastmesh.make_mesh_network` — and the
  VOQ crossbar (:mod:`repro.noc.crossbar`),
* the Benes multistage network (:mod:`repro.noc.benes`) used in the
  Figure 8 frequency comparison,
* the four-stage aggregation pipeline of Figure 11
  (:mod:`repro.noc.aggregation`) plus its statistical window model used by
  the at-scale timing simulations, and
* vectorised traffic/link-load accounting (:mod:`repro.noc.traffic`).
"""

from repro.noc.topology import MeshTopology, manhattan_distance
from repro.noc.packet import Packet
from repro.noc.mesh import MeshNetwork, MeshStats
from repro.noc.fastmesh import (
    AUTO_VECTORIZE_MIN_NODES,
    FastMeshNetwork,
    make_mesh_network,
    resolve_engine,
)
from repro.noc.crossbar import CrossbarSwitch, CrossbarStats
from repro.noc.benes import BenesNetwork
from repro.noc.aggregation import (
    AggregationPipeline,
    BatchedAggregationArray,
    aggregation_geometry,
    window_coalesce_count,
)
from repro.noc.traffic import (
    column_link_loads,
    mesh_link_loads,
    xy_hop_counts,
)

__all__ = [
    "MeshTopology",
    "manhattan_distance",
    "Packet",
    "MeshNetwork",
    "MeshStats",
    "AUTO_VECTORIZE_MIN_NODES",
    "FastMeshNetwork",
    "make_mesh_network",
    "resolve_engine",
    "CrossbarSwitch",
    "CrossbarStats",
    "BenesNetwork",
    "AggregationPipeline",
    "BatchedAggregationArray",
    "aggregation_geometry",
    "window_coalesce_count",
    "column_link_loads",
    "mesh_link_loads",
    "xy_hop_counts",
]
